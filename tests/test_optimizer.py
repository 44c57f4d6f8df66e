import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamqaoa import (
    DiagonalHamiltonian,
    IsingModel,
    NoiseModel,
    OptimizerConfig,
    bind,
    build_ansatz,
    full_spectrum,
    minimize,
    qaoa_solve,
    simulate_noisy,
)
from hamqaoa import circuit, engine, optimizer
from hamqaoa.circuit import LAYER_CAP
from hamqaoa.errors import EmptyModel, TooManyQubits
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
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptimizerConfig(seed=-1)


@pytest.mark.parametrize("name", ["max_evals", "restarts", "seed"])
@pytest.mark.parametrize("value", [1.5, 10.5, 2.0, True, "3"])
def test_config_refuses_what_is_no_integer(name, value):
    # float budgets split into float shares that no count of evaluations
    # equals, so a solve would run past max_evals
    with pytest.raises(ValueError, match=name):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("p", [True, 1.5])
def test_solve_refuses_a_depth_that_is_no_integer(p, triangle_model):
    # True ran as p=1 and reported "p": true; 1.5 failed late in range()
    with pytest.raises(ValueError, match="layer count must be an integer"):
        qaoa_solve(triangle_model, p, cfg=OptimizerConfig(max_evals=10))


def test_config_takes_numpy_integers():
    cfg = OptimizerConfig(max_evals=np.int64(40), restarts=np.int32(2), seed=np.uint8(3))
    plain = OptimizerConfig(max_evals=40, restarts=2, seed=3)
    x0 = np.zeros(2)
    assert outcome(minimize(bowl, x0, cfg)) == outcome(minimize(bowl, x0, plain))


def test_minimize_needs_a_parameter():
    with pytest.raises(ValueError, match="at least one parameter"):
        minimize(bowl, np.zeros(0), OptimizerConfig())


def test_restart_starts_are_drawn_when_the_restart_begins(monkeypatch):
    made = []
    real = np.random.default_rng

    def counting(seed):
        made.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    cfg = OptimizerConfig(max_evals=8, restarts=1000, seed=5)
    r = minimize(bowl, np.zeros(2), cfg)
    # d + 2 = 4 evaluations per restart: restart 0 and restart 1 ran
    assert r.evals_used == 8
    assert made == [(5, 1)]


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


def rows_of(f):
    """f over a batch of points, one call per row; counts the batches and
    keeps every row with its value."""

    def batched(points):
        batched.calls.append(len(points))
        values = [f(x) for x in points]
        batched.rows += [(x.tobytes(), repr(float(v))) for x, v in zip(points, values)]
        return values

    batched.calls, batched.rows = [], []
    return batched


# each case with its exact calls at width 3, as (rows, repeats) runs: the
# due point of every running restart, then candidates in the rows left.
# Width 3 holds no step's expansion and contraction beside its reflection
# for 2 or more restarts, so only the rest of an initial simplex or of a
# shrink fills those rows
LOCKSTEP_CASES = [
    ("floor-cut", bowl, np.full(4, 5.0), 13, 3, [(3, 4), (1, 1)]),
    ("floor-skip", bowl, np.full(4, 5.0), 7, 4, [(3, 2), (1, 1)]),
    ("not-divisible", rosenbrock, np.array([2.0, -1.0]), 800, 3, [(3, 153), (2, 21), (1, 28)]),
    (
        "constant", lambda x: 7.5, np.zeros(3), 1000, 2,
        [(3, 3), (2, 1), (3, 2)] + [(2, 2), (3, 2)] * 17 + [(1, 3), (3, 1), (1, 2), (3, 1)],
    ),
    (
        "nan", nan_beyond_two, np.full(3, 1.5), 600, 2,
        [(3, 3), (2, 2), (3, 1)] + [(2, 3), (3, 1)] * 41 + [(2, 2), (1, 1), (3, 1)]
        + [(1, 2), (3, 1)] * 16 + [(1, 1)],
    ),
    ("many-restarts", bowl, np.full(2, 0.5), 400, 7, [(3, 115), (1, 54)]),
]


def runs(calls):
    return [(rows, len(list(group))) for rows, group in itertools.groupby(calls)]


@pytest.mark.parametrize(
    "f, x0, max_evals, restarts, calls",
    [case[1:] for case in LOCKSTEP_CASES],
    ids=[case[0] for case in LOCKSTEP_CASES],
)
def test_lockstep_matches_sequential(f, x0, max_evals, restarts, calls):
    cfg = OptimizerConfig(max_evals=max_evals, restarts=restarts, seed=4)
    batched = rows_of(f)
    lockstep = minimize(batched, x0, cfg, width=3)
    assert outcome(lockstep) == outcome(minimize(f, x0, cfg, width=1))
    assert outcome(lockstep) == outcome(closure_minimize(f, x0, cfg))
    assert max(batched.calls) <= 3
    assert runs(batched.calls) == calls


def test_lockstep_convergence_on_the_last_evaluation_of_the_budget():
    x0 = np.array([0.3, -0.2])
    free = minimize(bowl, x0, OptimizerConfig(max_evals=100_000, restarts=1))
    for max_evals, converged in [(free.evals_used, True), (free.evals_used - 1, False)]:
        # three restarts; the first, the free run cut at max_evals, wins
        cfg = OptimizerConfig(max_evals=3 * max_evals, restarts=3)
        lockstep = minimize(rows_of(bowl), x0, cfg, width=3)
        assert lockstep.converged is converged
        assert lockstep.trace[:max_evals] == free.trace[:max_evals]
        assert outcome(lockstep) == outcome(minimize(bowl, x0, cfg))


def test_a_cut_restart_joins_the_lockstep_window_at_once():
    # per restart max(4, 10 // 3) = 4: restarts 0 and 1 get 4 evaluations
    # and restart 2 the 2 left; all three run together from the first call
    batched = rows_of(bowl)
    cfg = OptimizerConfig(max_evals=10, restarts=3, seed=1)
    r = minimize(batched, np.zeros(2), cfg, width=3)
    assert batched.calls == [3, 3, 2, 2]
    assert outcome(r) == outcome(closure_minimize(bowl, np.zeros(2), cfg))


def test_a_spare_row_takes_a_candidate_the_budget_can_use():
    # the budgets of the test above at width 4: the first call carries
    # restart 0's second vertex, the second restart 1's third; restart 2,
    # whose 2 evaluations go to its due points, gets no candidate
    batched = rows_of(bowl)
    cfg = OptimizerConfig(max_evals=10, restarts=3, seed=1)
    r = minimize(batched, np.zeros(2), cfg, width=4)
    assert batched.calls == [4, 4, 2]
    assert outcome(r) == outcome(closure_minimize(bowl, np.zeros(2), cfg))


@pytest.mark.parametrize(
    "width, restarts, calls",
    [
        (3, 1, [(3, 10), (1, 1)]),
        (2, 1, [(2, 1), (1, 18)]),
        (6, 2, [(6, 7), (5, 1), (2, 1)]),
        (5, 2, [(5, 1), (2, 12), (1, 1)]),
    ],
    ids=["one-restart-in-3", "one-restart-in-2", "two-restarts-in-6", "two-restarts-in-5"],
)
def test_steps_offer_their_contraction_and_expansion_where_three_rows_a_restart_fit(
    width, restarts, calls
):
    # each reflection comes with its contraction and expansion, so a step
    # takes one call; below three rows a restart, only the rest of the
    # initial simplex or of a shrink fills the rows left
    x0 = np.array([0.3, -0.2])
    # 20 evaluations for one restart, 15 each for two
    cfg = OptimizerConfig(max_evals=10 + 10 * restarts, restarts=restarts, seed=2)
    batched = rows_of(bowl)
    r = minimize(batched, x0, cfg, width=width)
    assert runs(batched.calls) == calls
    assert outcome(r) == outcome(minimize(bowl, x0, cfg))


def valley(x):
    # Rosenbrock's valley along consecutive coordinates; constant at d = 1
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


RANDOM_OBJECTIVES = {
    "bowl": bowl,
    "constant": lambda x: 7.5,
    "nan-region": nan_beyond_two,
    "nan-everywhere": lambda x: float("nan"),
    "valley": valley,
}
X0_SCALES = [0.0, 1e-13, 1.0, 1e3, 1e10]


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    max_evals=st.integers(1, 79),
    restarts=st.integers(1, 9),
    width=st.integers(1, 4),
    name=st.sampled_from(sorted(RANDOM_OBJECTIVES)),
    scale=st.sampled_from(X0_SCALES),
    seed=st.integers(0, 2**16),
)
def test_fixed_budgets_match_closure_oracle(d, max_evals, restarts, width, name, scale, seed):
    f = RANDOM_OBJECTIVES[name]
    x0 = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    cfg = OptimizerConfig(max_evals=max_evals, restarts=restarts, seed=seed)
    expected = closure_minimize(f, x0, cfg)
    try:
        r = minimize(rows_of(f) if width > 1 else f, x0, cfg, width=width)
    except ValueError as exc:
        assert "no finite value" in str(exc) and expected.best_value == np.inf
        return
    assert outcome(r) == outcome(expected)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 6),
    name=st.sampled_from(sorted(RANDOM_OBJECTIVES)),
    scale=st.sampled_from(X0_SCALES),
    seed=st.integers(0, 2**16),
)
def test_no_restart_converges_within_d_plus_2_evaluations(d, name, scale, seed):
    # the premise of fixing every budget up front: a restart given d + 2
    # evaluations spends them all, so the budget after it is known
    f = RANDOM_OBJECTIVES[name]
    run = optimizer._Restart(scale * np.random.default_rng(seed).uniform(-1.0, 1.0, d), d + 2)
    while not run.done:
        run.tell(f(run.x))
    assert len(run.values) == d + 2
    assert not run.converged


PLATEAU_OBJECTIVES = RANDOM_OBJECTIVES | {
    # whole plateaus of tied values, so vertex order rests on the sort
    "floor-sum": lambda x: float(np.floor(np.sum(x))),
    "floor-bowl": lambda x: float(np.floor(4.0 * np.sum((x - 1.0) ** 2))),
}


def told_points(search):
    """An ``_nelder_mead`` that records each point told a value, with it."""
    told = []

    def recording(*args):
        inner = search(*args)
        ask = next(inner)
        while True:
            v = yield ask
            told.append((ask[0].tobytes(), repr(v)))
            try:
                ask = inner.send(v)
            except StopIteration:
                return

    return recording, told


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    max_evals=st.integers(1, 120),
    restarts=st.integers(1, 5),
    width=st.integers(3, 16),
    name=st.sampled_from(sorted(PLATEAU_OBJECTIVES)),
    scale=st.sampled_from(X0_SCALES),
    seed=st.integers(0, 2**16),
)
def test_spare_rows_match_width_one_and_closure_oracle(
    d, max_evals, restarts, width, name, scale, seed
):
    f = PLATEAU_OBJECTIVES[name]
    x0 = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    cfg = OptimizerConfig(max_evals=max_evals, restarts=restarts, seed=seed)
    expected = closure_minimize(f, x0, cfg)
    batched = rows_of(f)
    recording, told = told_points(optimizer._nelder_mead)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_nelder_mead", recording)
        try:
            r = minimize(batched, x0, cfg, width=width)
        except ValueError as exc:
            assert "no finite value" in str(exc) and expected.best_value == np.inf
            return
    assert outcome(r) == outcome(expected)
    assert outcome(r) == outcome(minimize(f, x0, cfg, width=1))
    assert max(batched.calls) <= width
    # each told value is the value f gave that row; spare rows may go untold
    assert len(told) == r.evals_used
    assert set(told) <= set(batched.rows)


def test_budget_cuts_inside_a_step_drop_the_unasked_candidates():
    # every cut of one restart's budget, many of them between a reflection
    # and the expansion or contraction already evaluated beside it
    x0 = np.array([0.3, -0.2])
    dropped = 0
    for max_evals in range(1, 80):
        cfg = OptimizerConfig(max_evals=max_evals, restarts=1)
        batched = rows_of(bowl)
        r = minimize(batched, x0, cfg, width=3)
        assert outcome(r) == outcome(minimize(bowl, x0, cfg, width=1))
        assert outcome(r) == outcome(closure_minimize(bowl, x0, cfg))
        assert max(batched.calls) <= 3
        dropped += sum(batched.calls) > r.evals_used
    assert dropped > 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shots": 200, "sampled_objective": True},
        {"shots": 200, "nm": NoiseModel(0.001, 0.01, 0.01)},
    ],
    ids=["sampled", "noisy"],
)
def test_seeded_objectives_see_one_point_per_call(kwargs, triangle_model, monkeypatch):
    # each call draws its shots from the call's index, so a spare row would
    # move every later seed
    shapes = []
    real = optimizer.minimize

    def recording(f, x0, cfg, width=1):
        def one_point(x):
            shapes.append(np.shape(x))
            return f(x)

        return real(one_point, x0, cfg, width=width)

    monkeypatch.setattr(optimizer, "minimize", recording)
    cfg = OptimizerConfig(seed=3, max_evals=40, restarts=3)
    rep = qaoa_solve(triangle_model, 2, "RX", cfg=cfg, **kwargs)
    assert shapes == [(4,)] * rep.optimization.evals_used


SOLVER_SIZE_OBJECTIVES = {
    "bowl": bowl,
    # ties: whole plateaus of equal values, so vertex order rests on the sort
    "floor-sum": lambda x: float(np.floor(np.sum(x))),
    "floor-bowl": lambda x: float(np.floor(4.0 * np.sum((x - 1.0) ** 2))),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 3, 9, 96])
@pytest.mark.parametrize("name", sorted(SOLVER_SIZE_OBJECTIVES))
@pytest.mark.parametrize("d", [4, 8, 16], ids=["triangle-p2", "pentagon-p4", "square-p8"])
def test_solver_sizes_match_closure_oracle(d, name, width, seed):
    # the solver's own dimensions: 2p angles, so 5, 9 and 17 simplex
    # vertices for np.argsort to order; starts drawn as qaoa_solve draws them
    f = SOLVER_SIZE_OBJECTIVES[name]
    x0 = optimizer.TWO_PI * np.random.default_rng((seed, 0)).random(d)
    cfg = OptimizerConfig(max_evals=900, restarts=3, seed=seed)
    r = minimize(rows_of(f) if width > 1 else f, x0, cfg, width=width)
    assert outcome(r) == outcome(closure_minimize(f, x0, cfg))


def test_lockstep_width_and_objective_shape_are_checked():
    cfg = OptimizerConfig(max_evals=30, restarts=2)
    with pytest.raises(ValueError, match="width"):
        minimize(bowl, np.zeros(2), cfg, width=0)
    # an objective that sums the whole batch gives one value for two points
    with pytest.raises(ValueError, match="values for 2 points"):
        minimize(bowl, np.zeros(2), cfg, width=2)
    # the count takes in the spare rows: two due vertices and two more
    with pytest.raises(ValueError, match="values for 4 points"):
        minimize(bowl, np.zeros(2), cfg, width=4)


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
            qaoa_solve(triangle_model, p, mixer, cfg=OptimizerConfig(restarts=restarts)).to_json()
            for p in (1, 2, 3)
            for mixer in ("RX", "RY")
            for restarts in (1, 3, 5)
        ] + [
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

    # the oracle runs restarts one by one and asks one point at a time, so
    # the exact objective's lockstep solves, spare rows and all, must match
    # sequential ones
    def oracle(f, x0, cfg, width=1):
        calls.append(cfg)
        return closure_minimize(f, x0, cfg)

    monkeypatch.setattr(optimizer, "minimize", oracle)
    assert reports() == driven
    assert len(calls) == len(driven)


def test_exact_solves_batch_restarts_and_others_do_not(
    triangle_model, square_fixture_model, monkeypatch
):
    widths = []
    real = optimizer.minimize

    def recording(f, x0, cfg, width=1):
        widths.append(width)
        return real(f, x0, cfg, width=width)

    monkeypatch.setattr(optimizer, "minimize", recording)
    small = OptimizerConfig(max_evals=30)
    qaoa_solve(triangle_model, 2, cfg=small)
    qaoa_solve(square_fixture_model, 2, cfg=small)
    qaoa_solve(triangle_model, 2, cfg=OptimizerConfig(max_evals=30, restarts=9))
    qaoa_solve(triangle_model, 2, cfg=small, shots=50, sampled_objective=True)
    qaoa_solve(triangle_model, 1, cfg=small, shots=50, nm=NoiseModel(0.01, 0.01, 0.0))
    # rings at the edge of the lockstep budget: three 2^9 states fit one
    # batch, two 2^10 states do not
    for q in (9, 10):
        ring = {(k, k + 1): Fraction(1) for k in range(1, q)} | {(1, q): Fraction(1)}
        qaoa_solve(IsingModel(q, Fraction(0), {}, ring), 1, cfg=OptimizerConfig(max_evals=6))
    assert engine.lockstep_rows(9) == 3 and engine.lockstep_rows(10) == 1
    assert widths == [96, 3, 96, 1, 1, 3, 1]


def test_wrapped_minimize_sees_one_objective_call_per_lockstep_round(
    square_fixture_model, monkeypatch
):
    # wrapped as perfbench/spans.py wraps it: a one-argument objective and
    # every other argument passed through
    calls = []
    real = optimizer.minimize

    def minimize_wrapper(f, *args, **kwargs):
        def gap_then_f(x):
            calls.append(np.shape(x))
            return f(x)

        return real(gap_then_f, *args, **kwargs)

    monkeypatch.setattr(optimizer, "minimize", minimize_wrapper)
    rep = qaoa_solve(square_fixture_model, 8, "RX", cfg=OptimizerConfig(seed=0))
    # three restarts of 1333 evaluations each, never converged: 1333 rounds
    assert rep.optimization.evals_used == 3999
    assert len(calls) == 1333
    assert set(calls) == {(3, 16)}


@pytest.mark.parametrize("p, shots", [(8, 0), (0, 10**13)])
def test_solve_checks_shots_before_any_work(p, shots, square_fixture_model, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the solve started before checking shots")

    monkeypatch.setattr(optimizer, "minimize", must_not_run)
    monkeypatch.setattr(optimizer, "qaoa_state", must_not_run)
    with pytest.raises(ValueError, match="shots"):
        qaoa_solve(square_fixture_model, p, shots=shots)


def test_solve_checks_the_simulator_cap_before_building_the_ansatz():
    # an empty model needs no terms to name 10^8 qubits; its Hadamard row
    # alone would take gigabytes
    m = IsingModel(10**8, Fraction(0), {}, {})
    tracemalloc.start()
    try:
        with pytest.raises(TooManyQubits, match="simulator cap 24"):
            qaoa_solve(m, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def refuse_to_build(*args, **kwargs):
    raise AssertionError("the ansatz was built")


@pytest.mark.parametrize("mixer", ["RX", "ry"])
def test_noiseless_solves_build_no_ansatz(
    mixer, triangle_model, square_fixture_model, monkeypatch
):
    # the exact and sampled objectives run qaoa_state, which needs no gates
    def reports():
        return [
            qaoa_solve(triangle_model, 2, mixer, cfg=OptimizerConfig(max_evals=40)).to_json(),
            qaoa_solve(square_fixture_model, 1, mixer, cfg=OptimizerConfig(max_evals=20))
            .to_json(),
            qaoa_solve(
                triangle_model, 1, mixer, nm=NoiseModel(), shots=100, sampled_objective=True,
                cfg=OptimizerConfig(max_evals=20),
            ).to_json(),
            qaoa_solve(triangle_model, 0, mixer).to_json(),
        ]

    expected = reports()
    monkeypatch.setattr(circuit, "build_ansatz", refuse_to_build)
    monkeypatch.setattr(optimizer, "build_ansatz", refuse_to_build)
    assert reports() == expected
    with pytest.raises(AssertionError, match="the ansatz was built"):
        qaoa_solve(triangle_model, 1, mixer, nm=NoiseModel(0.01), cfg=OptimizerConfig(max_evals=5))


@pytest.mark.parametrize(
    "p, mixer, error, message",
    [
        (1, "RZ", ValueError, "mixer must be RX or RY"),
        (True, "RX", ValueError, "layer count must be an integer"),
        (1.5, "RX", ValueError, "layer count must be an integer"),
        (-1, "RX", ValueError, "layer count must be in"),
        (LAYER_CAP + 1, "RX", ValueError, "layer count must be in"),
        (1, "RX", EmptyModel, "at least one qubit"),
    ],
    ids=["mixer", "bool", "fraction", "negative", "past-cap", "empty"],
)
def test_solves_refuse_what_no_ansatz_holds_without_building_one(
    p, mixer, error, message, triangle_model, monkeypatch
):
    # every refusal of build_ansatz comes first, noiseless or noisy
    monkeypatch.setattr(optimizer, "build_ansatz", refuse_to_build)
    model = IsingModel(0, Fraction(0), {}, {}) if error is EmptyModel else triangle_model
    for nm in (None, NoiseModel(0.01)):
        with pytest.raises(error, match=message):
            qaoa_solve(model, p, mixer, nm=nm, cfg=OptimizerConfig(max_evals=5))


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
