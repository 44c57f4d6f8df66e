import numpy as np
import pytest

from hamqaoa import (
    DiagonalHamiltonian,
    NoiseModel,
    OptimizerConfig,
    bind,
    build_ansatz,
    full_spectrum,
    minimize,
    qaoa_solve,
    simulate_noisy,
)
from hamqaoa import optimizer
from oracles import closure_minimize


def bowl(x):
    return float(np.sum((x - 1.0) ** 2))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def test_quadratic_bowl():
    r = minimize(bowl, np.zeros(4), OptimizerConfig(max_evals=5000, restarts=1))
    assert r.best_value < 1e-6
    assert np.max(np.abs(r.best_params - 1.0)) < 1e-3


def test_rosenbrock():
    r = minimize(
        rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(max_evals=5000, restarts=1)
    )
    assert r.best_value < 1e-3
    assert r.evals_used <= 5000


def test_constant_objective_converges():
    r = minimize(lambda x: 7.5, np.zeros(3), OptimizerConfig(max_evals=1000, restarts=1))
    assert r.converged
    assert r.best_value == 7.5


def test_best_value_is_trace_minimum():
    r = minimize(bowl, np.full(4, 5.0), OptimizerConfig(max_evals=800, restarts=2, seed=4))
    assert r.best_value == min(v for _, v in r.trace)
    assert r.evals_used == len(r.trace)


def test_running_minimum_nonincreasing():
    r = minimize(rosenbrock, np.array([2.0, -1.0]), OptimizerConfig(max_evals=600, restarts=1))
    best = np.inf
    mins = []
    for _, v in r.trace:
        best = min(best, v)
        mins.append(best)
    assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_restarts_deterministic():
    cfg = OptimizerConfig(max_evals=900, restarts=3, seed=17)
    a = minimize(bowl, np.zeros(4), cfg)
    b = minimize(bowl, np.zeros(4), cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.best_params, b.best_params)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_evals=0)


def nan_beyond_two(x):
    return float("nan") if x[0] > 2.0 else bowl(x)


def outcome(r):
    # repr keeps NaN values comparable and every float exact
    return (
        r.best_params.tobytes(), repr(r.best_value), repr(r.trace), r.evals_used, r.converged
    )


@pytest.mark.parametrize(
    "f, x0, max_evals, restarts",
    [
        (bowl, np.zeros(4), 3, 1),
        (bowl, np.full(4, 5.0), 13, 3),
        (bowl, np.full(4, 5.0), 7, 4),
        (rosenbrock, np.array([2.0, -1.0]), 800, 3),
        (lambda x: 7.5, np.zeros(3), 1000, 2),
        (nan_beyond_two, np.full(3, 1.5), 600, 2),
    ],
    ids=[
        "budget-ends-inside-initial-simplex",
        "floor-of-d+2-cuts-last-restart-short",
        "floor-of-d+2-skips-last-two-restarts",
        "budget-not-divisible-by-restarts",
        "constant-converges-by-shrinking",
        "nan-on-some-points",
    ],
)
def test_driver_matches_closure_oracle(f, x0, max_evals, restarts):
    cfg = OptimizerConfig(max_evals=max_evals, restarts=restarts, seed=4)
    assert outcome(minimize(f, x0, cfg)) == outcome(closure_minimize(f, x0, cfg))


def test_nan_case_reaches_nan_and_finite_points():
    cfg = OptimizerConfig(max_evals=600, restarts=2, seed=4)
    r = minimize(nan_beyond_two, np.full(3, 1.5), cfg)
    values = [v for _, v in r.trace]
    assert any(np.isnan(values)) and np.isfinite(r.best_value)


def test_convergence_on_the_last_evaluation_of_the_budget():
    x0 = np.array([0.3, -0.2])
    free = minimize(bowl, x0, OptimizerConfig(max_evals=100_000, restarts=1))
    assert free.converged
    for max_evals, converged in [(free.evals_used, True), (free.evals_used - 1, False)]:
        cfg = OptimizerConfig(max_evals=max_evals, restarts=1)
        r = minimize(bowl, x0, cfg)
        assert r.converged is converged
        assert outcome(r) == outcome(closure_minimize(bowl, x0, cfg))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_objective_with_no_finite_value_is_refused(value):
    with pytest.raises(ValueError, match="no finite value"):
        minimize(lambda x: value, np.zeros(2), OptimizerConfig(max_evals=50, restarts=2))


def test_solves_unchanged_through_closure_oracle(
    triangle_model, square_fixture_model, monkeypatch
):
    def reports():
        noise = NoiseModel(0.001, 0.01, 0.01)
        return [
            qaoa_solve(triangle_model, 2, "RX").to_json(),
            qaoa_solve(triangle_model, 2, "RY").to_json(),
            qaoa_solve(
                triangle_model, 2, "RX", shots=200, sampled_objective=True,
                cfg=OptimizerConfig(seed=8, max_evals=150, restarts=3),
            ).to_json(),
            qaoa_solve(
                triangle_model, 1, "RX", nm=noise, shots=500,
                cfg=OptimizerConfig(seed=6, max_evals=60, restarts=2),
            ).to_json(),
            qaoa_solve(
                square_fixture_model, 8, "RX", cfg=OptimizerConfig(max_evals=300)
            ).to_json(),
        ]

    driven = reports()
    calls = []

    def oracle(f, x0, cfg):
        calls.append(cfg)
        return closure_minimize(f, x0, cfg)

    monkeypatch.setattr(optimizer, "minimize", oracle)
    assert reports() == driven
    assert len(calls) == len(driven)


def test_triangle_solve_finds_solutions(triangle_model):
    rep = qaoa_solve(triangle_model, 2, "RX", cfg=OptimizerConfig(seed=0))
    assert rep.expectation_final <= -2.0
    top2 = sorted(
        rep.final_distribution.counts,
        key=rep.final_distribution.counts.get,
        reverse=True,
    )[:2]
    assert set(top2) == {"1001", "0110"}
    assert 0.0 <= rep.ground_state_mass <= 1.0


def test_objective_lower_bound(triangle_model):
    rep = qaoa_solve(triangle_model, 2, "RX", cfg=OptimizerConfig(seed=1))
    ground = full_spectrum(DiagonalHamiltonian.from_ising(triangle_model)).ground_energy
    assert all(v >= ground - 1e-9 for _, v in rep.optimization.trace)


def test_zero_layer_baseline(triangle_model):
    spec = full_spectrum(DiagonalHamiltonian.from_ising(triangle_model))
    rep0 = qaoa_solve(triangle_model, 0, "RX", cfg=OptimizerConfig(seed=2))
    assert rep0.expectation_final == pytest.approx(spec.mean_energy(), abs=1e-12)
    rep1 = qaoa_solve(triangle_model, 1, "RX", cfg=OptimizerConfig(seed=2))
    assert rep1.expectation_final < rep0.expectation_final


def test_zero_layer_solve_applies_noise(triangle_model):
    nm = NoiseModel(0.3, 0.3, 0.3)
    cfg = OptimizerConfig(seed=3)
    noisy = qaoa_solve(triangle_model, 0, "RX", nm=nm, cfg=cfg, shots=2000)
    clean = qaoa_solve(triangle_model, 0, "RX", cfg=cfg, shots=2000)
    row = bind(build_ansatz(triangle_model, 0), [], [])
    expected = simulate_noisy(row, nm, 2000, cfg.seed)
    assert noisy.final_distribution.counts == expected.counts
    assert noisy.final_distribution.counts != clean.final_distribution.counts


def test_solve_rejects_unknown_mixer(triangle_model):
    with pytest.raises(ValueError, match="mixer"):
        qaoa_solve(triangle_model, 0, "foo")


def test_solve_report_deterministic(triangle_model):
    cfg = OptimizerConfig(seed=33)
    a = qaoa_solve(triangle_model, 2, "RX", cfg=cfg, shots=2000)
    b = qaoa_solve(triangle_model, 2, "RX", cfg=cfg, shots=2000)
    assert a.to_json() == b.to_json()


def test_sampled_objective_runs(triangle_model):
    cfg = OptimizerConfig(seed=5, max_evals=200, restarts=1)
    rep = qaoa_solve(triangle_model, 1, "RX", cfg=cfg, shots=500, sampled_objective=True)
    assert rep.optimization.evals_used <= 200
    assert rep.final_distribution.shots == 500


def test_noisy_solve_runs(triangle_model):
    cfg = OptimizerConfig(seed=6, max_evals=60, restarts=1)
    nm = NoiseModel(0.001, 0.01, 0.01)
    rep = qaoa_solve(triangle_model, 1, "RX", nm=nm, cfg=cfg, shots=500)
    assert rep.noise is nm
    assert sum(rep.final_distribution.counts.values()) == 500
