import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hamqaoa
from hamqaoa import (
    DiagonalHamiltonian,
    NoiseModel,
    OptimizerConfig,
    Statevector,
    assemble,
    bind,
    build_ansatz,
    expectation,
    make_graph,
    qaoa_solve,
    qaoa_state,
    sample,
    simulate,
    simulate_noisy,
    to_ising,
)
from hamqaoa import engine
from hamqaoa.circuit import Gate, ParamCircuit
from hamqaoa.errors import DimensionMismatch, TooManyQubits, UnboundParameter
from hamqaoa.qubo import IsingModel
from oracles import (
    delta_tv,
    dense_statevector,
    density_matrix_distribution,
    general_apply_1q,
    per_shot_trajectories,
    random_circuit,
    single_qaoa_state,
)

BENCH_NOISE = NoiseModel(0.001, 0.01, 0.01)
HEAVY_NOISE = NoiseModel(0.05, 0.2, 0.02)


def seeded_circuit(model, p, mixer, seed):
    angles = 2 * math.pi * np.random.default_rng(seed).random(2 * p)
    return bind(build_ansatz(model, p, mixer), angles[:p], angles[p:])


def test_qaoa_state_rejects_unknown_mixer(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    with pytest.raises(ValueError, match="mixer"):
        qaoa_state(h, [0.1], [0.2], mixer="foo")


def test_hadamard_row_is_uniform(triangle_model):
    s = simulate(bind(build_ansatz(triangle_model, 0), [], []))
    assert np.allclose(s.amplitudes, 0.25, atol=1e-12)


def test_cost_layer_leaves_probabilities_uniform(triangle_model):
    c = bind(build_ansatz(triangle_model, 1), [0.83], [0.0])
    probs = simulate(c).probabilities()
    assert np.allclose(probs, 1 / 16, atol=1e-12)


def test_simulate_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        circuit = random_circuit(rng)
        amps = simulate(circuit).amplitudes
        assert np.max(np.abs(amps - dense_statevector(circuit))) <= 1e-10
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-10


def test_simulate_rejects_unbound(triangle_model):
    with pytest.raises(UnboundParameter):
        simulate(build_ansatz(triangle_model, 1))
    with pytest.raises(UnboundParameter):
        simulate_noisy(build_ansatz(triangle_model, 1), BENCH_NOISE, 10, seed=0)


def test_simulate_qubit_cap():
    c = ParamCircuit(30, (Gate("H", (1,)),), 0)
    with pytest.raises(TooManyQubits):
        simulate(c)


def test_qaoa_state_qubit_cap():
    # refused before the 2^40 energy vector is built
    h = DiagonalHamiltonian(40, ((1, 1.0),))
    with pytest.raises(TooManyQubits):
        qaoa_state(h, [0.1], [0.2])


@pytest.mark.parametrize("shots", [0, 10**13])
def test_shot_count_outside_the_cap_is_refused(shots, triangle_model):
    c = bind(build_ansatz(triangle_model, 1), [0.3], [0.4])
    with pytest.raises(ValueError, match="shots"):
        sample(simulate(c), shots, seed=0)
    with pytest.raises(ValueError, match="shots"):
        simulate_noisy(c, BENCH_NOISE, shots, seed=0)


def test_shot_cap_is_inclusive():
    s = Statevector(np.array([0, 1], dtype=complex), 1)
    assert sample(s, engine.SHOT_CAP, seed=0).counts == {"1": engine.SHOT_CAP}
    with pytest.raises(ValueError, match="shots"):
        sample(s, engine.SHOT_CAP + 1, seed=0)


def test_qaoa_state_matches_gate_level(triangle_model, square_fixture_model):
    for m, p, mixer in [(triangle_model, 2, "RX"), (square_fixture_model, 3, "RY")]:
        h = DiagonalHamiltonian.from_ising(m)
        rng = np.random.default_rng(5)
        gammas, betas = rng.random(p), rng.random(p)
        fast = qaoa_state(h, gammas, betas, mixer).amplitudes
        slow = simulate(bind(build_ansatz(m, p, mixer), gammas, betas)).amplitudes
        assert np.max(np.abs(fast - slow)) <= 1e-10


def random_hamiltonian(rng, q):
    terms = tuple((int(rng.integers(1 << q)), float(rng.normal())) for _ in range(2 * q + 1))
    return DiagonalHamiltonian(q, terms, float(rng.normal()))


def assert_matches_the_oracle(state, h, gammas, betas, mixer):
    # mixer blocks (q <= 9) round differently from the per-qubit oracle;
    # lone columns (q >= 10) keep its bytes
    single = single_qaoa_state(h, gammas, betas, mixer).amplitudes
    if engine.lockstep_rows(h.num_qubits) > 1:
        assert np.max(np.abs(state - single), initial=0.0) <= 1e-12
    else:
        assert state.tobytes() == single.tobytes()


def assert_batches_match_the_oracle(h, rng):
    # B runs from 1 past the rows of one lockstep batch
    per_batch = engine.lockstep_rows(h.num_qubits)
    for mixer in ("RX", "RY"):
        for rows in sorted({1, 2, 3, 4, per_batch, per_batch + 1}):
            gammas = rng.uniform(-7, 7, (rows, 3))
            betas = rng.uniform(-7, 7, (rows, 3))
            batch = qaoa_state(h, gammas, betas, mixer)
            values = expectation(batch, h)
            assert batch.amplitudes.shape == (rows, 1 << h.num_qubits)
            assert values.shape == (rows,)
            for r in range(rows):
                alone = qaoa_state(h, gammas[r], betas[r], mixer)
                assert batch.amplitudes[r].tobytes() == alone.amplitudes.tobytes()
                assert repr(float(values[r])) == repr(expectation(alone, h))
                assert_matches_the_oracle(alone.amplitudes, h, gammas[r], betas[r], mixer)


@pytest.mark.parametrize("q", range(15))
def test_batched_rows_match_the_single_state_oracle(q):
    # every energy of a random model is its own level.  From q = 10 a
    # batch holds one row, so q = 13 and 14 (whose batches of 2 or 3 would
    # cross numpy's 256 KiB temporary elision) evolve each row alone
    rng = np.random.default_rng(q)
    assert_batches_match_the_oracle(random_hamiltonian(rng, q), rng)


@pytest.mark.parametrize(
    "model, levels", [("triangle_model", 3), ("square_fixture_model", 17)]
)
def test_batched_rows_of_few_level_models_match_the_single_state_oracle(
    model, levels, request
):
    # compiled models share each level among many basis states, so a batch
    # gathers one phase entry into many amplitudes
    h = DiagonalHamiltonian.from_ising(request.getfixturevalue(model))
    assert len(h.shifted_levels()[0]) == levels
    assert_batches_match_the_oracle(h, np.random.default_rng(levels))


@pytest.mark.parametrize("mixer", ["RX", "RY"])
def test_pentagon_lone_columns_match_the_single_state_oracle(mixer):
    # 16 qubits share 73 levels; a 1 MiB state is past numpy's 256 KiB
    # temporary elision, which both the engine and the oracle go through
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    h = DiagonalHamiltonian.from_ising(to_ising(assemble(pentagon), 5))
    assert h.num_qubits == 16 and len(h.shifted_levels()[0]) == 73
    rng = np.random.default_rng(16)
    for p in (1, 2, 4):
        gammas, betas = rng.uniform(-7, 7, p), rng.uniform(-7, 7, p)
        single = single_qaoa_state(h, gammas, betas, mixer)
        fast = qaoa_state(h, gammas, betas, mixer)
        assert fast.amplitudes.tobytes() == single.amplitudes.tobytes()


def test_single_rows_match_the_single_state_oracle(square_fixture_model):
    h = DiagonalHamiltonian.from_ising(square_fixture_model)
    rng = np.random.default_rng(3)
    for mixer in ("RX", "RY"):
        gammas, betas = rng.uniform(-7, 7, 8), rng.uniform(-7, 7, 8)
        fast = qaoa_state(h, list(gammas), list(betas), mixer)
        assert_matches_the_oracle(fast.amplitudes, h, gammas, betas, mixer)


@pytest.mark.parametrize("mixer", ["RX", "RY"])
def test_zero_beta_beside_nonzero_ones_matches_the_oracle(mixer, triangle_model):
    # a zero beta's rotation is diagonal by its values; its row still
    # takes the mixer's update, together with the other rows
    h = DiagonalHamiltonian.from_ising(triangle_model)
    gammas = np.array([[0.0, 0.4], [0.3, 0.0], [0.7, 1.1]])
    betas = np.array([[0.0, 0.5], [0.2, -0.0], [0.9, 0.6]])
    # in four rows, only the middle one of three layers has zero betas
    gammas4 = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9], [1.0, 1.1, 1.2]])
    betas4 = np.array([[0.3, 0.0, 0.2], [0.4, 0.7, 0.9], [-0.2, 0.0, 1.3], [0.8, 0.5, -0.6]])
    for gammas, betas in [(gammas, betas), (gammas4, betas4)]:
        batch = qaoa_state(h, gammas, betas, mixer)
        for r in range(len(gammas)):
            alone = qaoa_state(h, gammas[r], betas[r], mixer).amplitudes
            assert batch.amplitudes[r].tobytes() == alone.tobytes()
            assert_matches_the_oracle(alone, h, gammas[r], betas[r], mixer)


def test_qaoa_state_reads_the_cached_level_table(triangle_model, monkeypatch):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    first = qaoa_state(h, [0.3], [0.4]).amplitudes.tobytes()
    pair = qaoa_state(h, [[0.3], [0.5]], [[0.4], [0.6]]).amplitudes.tobytes()
    table = h.shifted_levels()
    levels, inverse = table
    assert not levels.flags.writeable and not inverse.flags.writeable

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed again")

    monkeypatch.setattr(DiagonalHamiltonian, "energies", must_not_run)
    monkeypatch.setattr(np, "unique", must_not_run)  # builds the level table
    assert qaoa_state(h, [0.3], [0.4]).amplitudes.tobytes() == first
    assert qaoa_state(h, [[0.3], [0.3]], [[0.4], [0.4]]).amplitudes[1].tobytes() == first
    assert qaoa_state(h, [[0.3], [0.5]], [[0.4], [0.6]]).amplitudes.tobytes() == pair
    assert h.shifted_levels() is table


def test_lockstep_batches_stay_below_numpy_temporary_elision():
    # numpy reuses temporaries of 256 KiB or more, swapping the operands
    # of ``state * phase``; no lockstep batch may reach that size
    assert engine.LOCKSTEP_AMPLITUDES * np.dtype(complex).itemsize < 256 * 1024


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("b", range(1, engine._BLOCK_QUBITS + 1))
def test_block_tables_are_kronecker_products_of_rotations(b, mixer):
    betas = np.array([[0.0, math.pi / 2, 0.7, -2.1], [1.3, -math.pi / 2, 5.9, 3e-9]])
    tables = engine._block_tables(mixer, betas, (b,))[b]
    assert tables.shape == (4, 2, 1 << b, 1 << b) and tables.flags.c_contiguous
    for r, row in enumerate(betas):
        for layer, beta in enumerate(row.tolist()):
            m = np.array(engine._rotation(mixer, 2.0 * beta)).reshape(2, 2)
            expected = np.ones((1, 1))
            for _ in range(b):
                expected = np.kron(m, expected)
            assert np.max(np.abs(tables[layer, r] - expected)) <= 1e-15


# mixer blocks run as GEMMs through OpenBLAS; their bytes must not depend
# on its thread count, for batches and lone rows at every blocked width
_QAOA_STATES_BY_THREADS = """
import hashlib
import numpy as np
from hamqaoa import DiagonalHamiltonian, qaoa_state
from hamqaoa.cli import reference_square_model
from hamqaoa.engine import lockstep_rows
rng = np.random.default_rng(0)
models = []
for q in range(10):
    terms = tuple((int(rng.integers(1 << q)), float(rng.normal())) for _ in range(2 * q + 1))
    models.append(DiagonalHamiltonian(q, terms, 0.0))
models.append(DiagonalHamiltonian.from_ising(reference_square_model()))
for h in models:
    rows = lockstep_rows(h.num_qubits)
    for mixer in ("RX", "RY"):
        gammas, betas = rng.uniform(-7, 7, (2, rows + 1, 8))
        batch = qaoa_state(h, gammas, betas, mixer).amplitudes.tobytes()
        alone = qaoa_state(h, gammas[0], betas[0], mixer).amplitudes.tobytes()
        print(h.num_qubits, mixer, hashlib.sha256(batch + alone).hexdigest())
"""


def test_qaoa_states_do_not_depend_on_the_blas_thread_count():
    src = str(Path(hamqaoa.__file__).parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _QAOA_STATES_BY_THREADS],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


def test_batched_angles_must_share_one_shape(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    with pytest.raises(ValueError, match="must both be"):
        qaoa_state(h, np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="must both be"):
        qaoa_state(h, np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match=r"\(2,\) and betas \(1,\) must both be"):
        qaoa_state(h, [0.1, 0.2], [0.3])


def test_empty_and_zero_layer_batches(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    assert qaoa_state(h, np.zeros((0, 2)), np.zeros((0, 2))).amplitudes.shape == (0, 16)
    batch = qaoa_state(h, np.zeros((3, 0)), np.zeros((3, 0)))
    single = qaoa_state(h, [], [])
    assert all(row.tobytes() == single.amplitudes.tobytes() for row in batch.amplitudes)


def test_sample_refuses_a_batch(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    batch = qaoa_state(h, np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch, match="batch"):
        sample(batch, 10, seed=0)


def test_mixer_rotation_probability():
    # RX(2 beta) on |0>: P(1) = sin^2(beta), per qubit, no Hadamards
    beta = 0.42
    gates = tuple(Gate("RX", (q,), 2 * beta) for q in (1, 2, 3))
    s = simulate(ParamCircuit(3, gates, 0))
    p1 = math.sin(beta) ** 2
    for q in (1, 2, 3):
        mask = 1 << (q - 1)
        prob = sum(
            abs(a) ** 2 for i, a in enumerate(s.amplitudes) if i & mask
        )
        assert abs(prob - p1) < 1e-12


def test_expectation_examples(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    uniform = Statevector(np.full(16, 0.25, dtype=complex), 4)
    assert abs(expectation(uniform, h)) < 1e-12
    basis = np.zeros(16, dtype=complex)
    basis[0b1001] = 1.0  # "1001": qubits 1 and 4 set
    assert expectation(Statevector(basis, 4), h) == -4
    doubled = DiagonalHamiltonian(4, tuple((m, 2 * c) for m, c in h.terms))
    assert expectation(uniform, doubled) == pytest.approx(
        2 * expectation(uniform, h), abs=1e-12
    )


# 16 qubits: OpenBLAS splits a dot product of more than 10,000 entries
# across threads, which reorders its sum
_EXPECTATION_AT_16_QUBITS = """
import numpy as np
from hamqaoa import DiagonalHamiltonian, Statevector, expectation
rng = np.random.default_rng(0)
masks, coeffs = rng.integers(1, 1 << 16, 33).tolist(), rng.normal(size=33).tolist()
h = DiagonalHamiltonian(16, tuple(zip(masks, coeffs)), 0.5)
amps = rng.normal(size=(2, 1 << 16)) + 1j * rng.normal(size=(2, 1 << 16))
amps /= np.sqrt((np.abs(amps) ** 2).sum(axis=1, keepdims=True))
print(repr(expectation(Statevector(amps[0], 16), h)))
print(repr(expectation(Statevector(amps, 16), h).tolist()))
"""


def test_expectation_does_not_depend_on_the_blas_thread_count():
    src = str(Path(hamqaoa.__file__).parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _EXPECTATION_AT_16_QUBITS],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


def test_expectation_dimension_mismatch(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    with pytest.raises(DimensionMismatch):
        expectation(Statevector(np.ones(2) / math.sqrt(2), 1), h)


def test_sample_basis_state():
    basis = np.zeros(16, dtype=complex)
    basis[0b1001] = 1.0
    dist = sample(Statevector(basis, 4), 100, seed=3)
    assert dist.counts == {"1001": 100}


def test_sample_uniform_within_binomial_bound():
    uniform = Statevector(np.full(16, 0.25, dtype=complex), 4)
    dist = sample(uniform, 10000, seed=11)
    sigma = math.sqrt(10000 * (1 / 16) * (15 / 16))
    assert set(dist.counts) <= {format(i, "04b")[::-1] for i in range(16)}
    for count in dist.counts.values():
        assert abs(count - 625) <= 5 * sigma
    assert sum(dist.counts.values()) == 10000


def test_sample_deterministic(triangle_model):
    s = qaoa_state(DiagonalHamiltonian.from_ising(triangle_model), [0.3], [0.4])
    assert sample(s, 5000, seed=9).counts == sample(s, 5000, seed=9).counts


def test_samples_share_one_key_per_outcome(square_fixture_model):
    # the keys of every held distribution are one string per outcome
    s = qaoa_state(DiagonalHamiltonian.from_ising(square_fixture_model), [0.3], [0.4])
    a, b = sample(s, 3000, seed=1).counts, sample(s, 3000, seed=2).counts
    key_of = {k: k for k in b}
    shared = [k for k in a if k in key_of]
    assert len(shared) > 100
    assert all(k is key_of[k] for k in shared)
    # counts and their order of first occurrence are those of the draws
    outcomes = engine._draw_outcomes(s.probabilities(), engine._substream(1, 1).random(3000))
    bits = [format(i, "09b")[::-1] for i in outcomes.tolist()]
    assert list(a.items()) == list(Counter(bits).items())


def test_noiseless_trajectories_equal_sampling(triangle_model):
    c = bind(build_ansatz(triangle_model, 2), [0.4, 0.1], [0.3, 0.7])
    d_plain = sample(simulate(c), 10000, seed=42)
    d_traj = simulate_noisy(c, NoiseModel(0, 0, 0), 10000, seed=42)
    assert d_plain.counts == d_traj.counts


class _NoDraws:
    """Stands in for a random substream that must not be drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from a gate-error substream ({name})")


@pytest.mark.parametrize("shots", [1, 50, 3000])
@pytest.mark.parametrize("seed", [17, (17, 3)])
@pytest.mark.parametrize(
    "case, nm",
    [
        ("triangle-p2-RX", NoiseModel()),
        ("triangle-p3-RY", NoiseModel()),
        ("square-p8-RX", NoiseModel()),
        ("triangle-p2-RX", NoiseModel(readout_flip=0.05)),
        ("square-p8-RX", NoiseModel(readout_flip=0.05)),
        ("rx-row", NoiseModel(p2=0.3)),  # no CNOT, so no gate can err
    ],
    ids=["zero-tri-p2", "zero-tri-p3", "zero-square", "ro-tri", "ro-square", "p2-no-cnot"],
)
def test_clean_shots_draw_through_the_replay(
    case, nm, seed, shots, triangle_model, square_fixture_model, monkeypatch
):
    # every shot is clean: the replay's error-free column draws them all,
    # as sample() would, and no gate-error flag or Pauli is drawn
    if case == "rx-row":
        c = ParamCircuit(3, tuple(Gate("RX", (k,), 0.3 * k) for k in (1, 2, 3)), 0)
    else:
        name, p, mixer = case.split("-")
        model = triangle_model if name == "triangle" else square_fixture_model
        c = seeded_circuit(model, int(p[1:]), mixer, 5)
    real = engine._substream
    monkeypatch.setattr(
        engine, "_substream", lambda s, tag: _NoDraws() if tag in (2, 3) else real(s, tag)
    )
    counts = list(simulate_noisy(c, nm, shots, seed).counts.items())
    assert counts == list(per_shot_trajectories(c, nm, shots, seed).items())
    if nm.readout_flip == 0.0:
        assert counts == list(sample(simulate(c), shots, seed).counts.items())


@pytest.mark.parametrize("events", [0, 1, 20000])
def test_pauli_indices_in_one_draw_equal_the_per_event_loop(events):
    # _pauli_events draws every index in one call; the stream, and the
    # generator's state after it, must be those of one draw per event
    sizes = np.where(np.random.default_rng(events).random(events) < 0.3, 15, 3)
    loop_rng, batch_rng = engine._substream(9, 3), engine._substream(9, 3)
    expected = [int(loop_rng.integers(k)) for k in sizes]
    assert batch_rng.integers(sizes).tolist() == expected
    assert batch_rng.random() == loop_rng.random()


def test_fully_depolarized_single_qubit():
    c = ParamCircuit(1, (Gate("H", (1,)),), 0)
    dist = simulate_noisy(c, NoiseModel(p1=1.0), 20000, seed=1)
    assert abs(dist.counts.get("0", 0) / 20000 - 0.5) < 0.02
    assert abs(dist.counts.get("1", 0) / 20000 - 0.5) < 0.02


def test_readout_flip_only():
    # identity-ish circuit: all mass on |00>, readout flips spread it
    c = ParamCircuit(2, (Gate("RZ", (1,), 0.0),), 0)
    dist = simulate_noisy(c, NoiseModel(readout_flip=0.1), 50000, seed=7)
    frac_flipped_first = sum(
        n for bits, n in dist.counts.items() if bits[0] == "1"
    ) / 50000
    assert abs(frac_flipped_first - 0.1) < 0.01


def test_weak_noise_close_to_noiseless(triangle_model):
    c = bind(build_ansatz(triangle_model, 2), [0.4, 0.1], [0.3, 0.7])
    shots = 100000
    nm = NoiseModel(p1=1e-4, p2=1e-4)
    noisy = simulate_noisy(c, nm, shots, seed=13)
    clean = sample(simulate(c), shots, seed=13)
    keys = set(noisy.counts) | set(clean.counts)
    tv = 0.5 * sum(
        abs(noisy.counts.get(k, 0) - clean.counts.get(k, 0)) / shots for k in keys
    )
    assert tv < 0.02


def test_noise_reduces_ground_mass(triangle_model):
    # qualitative: depolarizing noise moves mass away from a peaked state
    # angles put all probability on the two solution states when noiseless
    c = bind(build_ansatz(triangle_model, 2), [0.785398, 2.748894], [3.534292, 0.785398])
    clean = sample(simulate(c), 10000, seed=21)
    noisy = simulate_noisy(c, NoiseModel(0.001, 0.01, 0.01), 10000, seed=21)
    solutions = {"1001", "0110"}
    assert noisy.mass(solutions) < clean.mass(solutions)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=1.5)


@pytest.mark.parametrize("budget_rows", [None, 4])
@pytest.mark.parametrize("seed", [17, (17, 3)])
@pytest.mark.parametrize("nm", [BENCH_NOISE, HEAVY_NOISE], ids=["bench", "heavy"])
@pytest.mark.parametrize(
    "case", ["triangle-p2-RX", "triangle-p3-RY", "square-p8-RX"]
)
def test_batched_replay_equals_per_shot_replay(
    case, nm, seed, budget_rows, triangle_model, square_fixture_model, monkeypatch
):
    name, p, mixer = case.split("-")
    model = triangle_model if name == "triangle" else square_fixture_model
    c = seeded_circuit(model, int(p[1:]), mixer, 5)
    shots = 400 if name == "triangle" else 40
    if budget_rows is not None:
        # many batches of four states each
        monkeypatch.setattr(engine, "_BATCH_AMPLITUDES", budget_rows << c.num_qubits)
    batched = simulate_noisy(c, nm, shots, seed).counts
    reference = per_shot_trajectories(c, nm, shots, seed)
    assert list(batched.items()) == list(reference.items())


def test_density_matrix_oracle_on_known_cases():
    # noiseless: the dense statevector's probabilities
    rng = np.random.default_rng(77)
    for _ in range(5):
        c = random_circuit(rng)
        exact = np.abs(dense_statevector(c)) ** 2
        dist = density_matrix_distribution(c, NoiseModel())
        for i, v in enumerate(exact):
            assert dist[format(i, f"0{c.num_qubits}b")[::-1]] == pytest.approx(v, abs=1e-12)
    # one qubit: depolarizing shrinks the Bloch vector by 1 - 4p/3,
    # then readout flips mix the two outcomes
    theta, p, ro = 1.1, 0.3, 0.05
    c = ParamCircuit(1, (Gate("RX", (1,), theta),), 0)
    dist = density_matrix_distribution(c, NoiseModel(p1=p, readout_flip=ro))
    p1 = (1 - (1 - 4 * p / 3) * math.cos(theta)) / 2
    assert dist["1"] == pytest.approx(p1 * (1 - ro) + (1 - p1) * ro, abs=1e-12)
    # two qubits: after a CNOT on |00> that surely errs, 3 of the 15
    # non-identity Paulis (IZ, ZI, ZZ) keep |00>
    c = ParamCircuit(2, (Gate("CNOT", (1, 2)),), 0)
    dist = density_matrix_distribution(c, NoiseModel(p2=1.0))
    assert dist["00"] == pytest.approx(3 / 15, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "case, nm, shots, seed",
    [
        ("triangle", HEAVY_NOISE, 20000, 101),
        ("square", BENCH_NOISE, 4000, 202),
    ],
)
def test_trajectories_match_density_matrix(
    case, nm, shots, seed, triangle_model, square_fixture_model
):
    if case == "triangle":
        c = bind(build_ansatz(triangle_model, 2), [0.4, 0.1], [0.3, 0.7])
    else:
        c = seeded_circuit(square_fixture_model, 8, "RX", 8)
    exact = density_matrix_distribution(c, nm)
    counts = simulate_noisy(c, nm, shots, seed).counts
    observed = {k: v / shots for k, v in counts.items()}
    # E[TV] <= 1/2 sum sqrt(p(1-p)/N); one shot moves TV by at most 1/N,
    # so exceeding that by sqrt(ln(1e6)/(2N)) has probability <= 1e-6
    bound = 0.5 * sum(math.sqrt(v * (1 - v) / shots) for v in exact.values())
    bound += math.sqrt(math.log(1e6) / (2 * shots))
    assert delta_tv(observed, exact) <= bound
    # the noise is visible at this shot count: the noiseless distribution
    # lies outside the bound
    probs = simulate(c).probabilities()
    clean = {format(i, f"0{c.num_qubits}b")[::-1]: v for i, v in enumerate(probs)}
    assert delta_tv(clean, exact) > bound


@pytest.mark.parametrize("q", range(1, 11))
def test_exchange_symmetric_kernel_matches_general_kernel(q):
    rng = np.random.default_rng(q)
    mats = [engine._rotation("RX", t) for t in [*rng.uniform(-7, 7, 3).tolist(), 0.0]]
    mats.append(engine._PAULI["X"])

    def states():
        yield rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        yield rng.normal(size=(1 << q, 3)) + 1j * rng.normal(size=(1 << q, 3))
        # F-ordered, as the gather ``batch[:, cols]`` in ``_replay``
        batch = rng.normal(size=(1 << q, 5)) + 1j * rng.normal(size=(1 << q, 5))
        yield batch[:, [4, 0, 2]]

    for mat in mats:
        for k in range(1, q + 1):
            for state in states():
                expected = state.copy()
                engine._apply_1q(state, mat, k, engine._EXCHANGE)
                general_apply_1q(expected, mat, k, engine._EXCHANGE)
                assert state.tobytes() == expected.tobytes()


def test_outputs_unchanged_through_general_kernel(
    triangle_model, square_fixture_model, monkeypatch
):
    # from 10 qubits the mixer goes through _apply_1q
    ring = {(k, k + 1): Fraction(k % 3 + 1) for k in range(1, 10)} | {(1, 10): Fraction(2)}
    ring10 = IsingModel(10, Fraction(0), {3: Fraction(1)}, ring)

    def outputs():
        solves = [
            qaoa_solve(triangle_model, 2, "RX").to_json(),
            qaoa_solve(triangle_model, 2, "RY").to_json(),
            qaoa_solve(
                square_fixture_model, 8, "RX", cfg=OptimizerConfig(max_evals=300)
            ).to_json(),
            qaoa_solve(ring10, 2, "RX", cfg=OptimizerConfig(max_evals=60)).to_json(),
            qaoa_solve(ring10, 2, "RY", cfg=OptimizerConfig(max_evals=60)).to_json(),
        ]
        c = seeded_circuit(square_fixture_model, 8, "RX", 5)
        counts = simulate_noisy(c, BENCH_NOISE, 100, 9).counts
        return solves, list(counts.items())

    fast = outputs()
    monkeypatch.setattr(engine, "_apply_1q", general_apply_1q)
    assert outputs() == fast
