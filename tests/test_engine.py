import functools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Mapping
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
    energy_of,
    expectation,
    full_spectrum,
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
from hamqaoa.cli import reference_square_model
from hamqaoa.errors import DimensionMismatch, TooManyQubits, UnboundParameter
from hamqaoa.qubo import IsingModel
from oracles import (
    PAULI,
    _embed_cnot,
    _embed_single,
    _rotation,
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


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_angles_are_refused_before_any_work(angle, triangle_model, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("work began before the check")

    monkeypatch.setattr(engine, "_segments", must_not_run)
    monkeypatch.setattr(engine, "_substream", must_not_run)
    cases = [(ParamCircuit(2, (Gate("H", (1,)), *term(1, 2, angle)), 0), 2)]
    for gammas, betas in (([angle], [0.4]), ([0.3], [angle])):
        c = bind(build_ansatz(triangle_model, 1), gammas, betas)
        finite = [g.angle is None or math.isfinite(g.angle) for g in c.gates]
        cases.append((c, finite.index(False)))
    for c, index in cases:
        kind = c.gates[index].kind
        with pytest.raises(ValueError, match=rf"gate {index} \({kind}\) has a non-finite angle"):
            simulate(c)
        with pytest.raises(ValueError, match=rf"gate {index} \({kind}\) has a non-finite angle"):
            simulate_noisy(c, BENCH_NOISE, 10, 0)


@pytest.mark.parametrize(
    "gates, index",
    [
        (
            (Gate("H", (1,)), Gate("RZ", (5,), 0.3), Gate("CNOT", (3, 4)),
             Gate("RZ", (4,), 0.7), Gate("CNOT", (3, 4))),
            1,
        ),
        ((Gate("H", (1,)), Gate("RX", (3,), 0.3)), 1),
        ((Gate("H", (0,)), Gate("H", (1,))), 0),
        ((Gate("H", (1,)), Gate("CNOT", (1, 3))), 1),
    ],
    ids=["rz-and-term", "rx", "h-on-0", "cnot"],
)
def test_gate_targets_outside_the_register_are_refused_before_any_work(
    gates, index, monkeypatch
):
    # a mask outside the register reads sign +1, so such a gate would act as
    # a global phase; others would fail inside numpy
    def must_not_run(*args):
        raise AssertionError("work began before the check")

    monkeypatch.setattr(engine, "_segments", must_not_run)
    monkeypatch.setattr(engine, "_substream", must_not_run)
    c = ParamCircuit(2, gates, 0)
    refused = rf"gate {index} \({gates[index].kind}\) targets .* outside qubits 1\.\.2"
    with pytest.raises(ValueError, match=refused):
        simulate(c)
    with pytest.raises(ValueError, match=refused):
        simulate_noisy(c, BENCH_NOISE, 10, 0)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_qaoa_state_refuses_non_finite_angles_before_any_work(
    angle, triangle_model, monkeypatch
):
    h = DiagonalHamiltonian.from_ising(triangle_model)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work began before the check")

    monkeypatch.setattr(DiagonalHamiltonian, "shifted_levels", must_not_run)
    monkeypatch.setattr(np, "exp", must_not_run)
    rows = np.array([[0.3, 0.1], [0.5, 0.2], [0.7, 0.4]])
    for family in (0, 1):  # gammas, then betas
        single, batch = [rows[0].copy(), rows[0].copy()], [rows.copy(), rows.copy()]
        single[family][1] = angle
        batch[family][1, 0] = angle
        for gammas, betas in (single, batch):
            with pytest.raises(ValueError, match="gammas and betas must be finite"):
                qaoa_state(h, gammas, betas)


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


@pytest.mark.parametrize("shots", [2.5, 100.0, True, "50"])
def test_shot_count_that_is_no_integer_is_refused(shots, triangle_model, monkeypatch):
    c = bind(build_ansatz(triangle_model, 1), [0.3], [0.4])
    with pytest.raises(ValueError, match="shots"):
        sample(simulate(c), shots, seed=0)
    with pytest.raises(ValueError, match="shots"):
        simulate_noisy(c, BENCH_NOISE, shots, seed=0)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("the solve ran before its shot count was checked")

    monkeypatch.setattr(hamqaoa.optimizer, "minimize", no_evaluation)
    with pytest.raises(ValueError, match="shots"):
        qaoa_solve(triangle_model, 1, cfg=OptimizerConfig(max_evals=10), shots=shots)


def test_shot_count_may_be_a_numpy_integer(triangle_model):
    c = bind(build_ansatz(triangle_model, 1), [0.3], [0.4])
    assert sample(simulate(c), np.int64(50), seed=0) == sample(simulate(c), 50, seed=0)


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
    # mixer blocks round differently from the per-qubit oracle
    single = single_qaoa_state(h, gammas, betas, mixer).amplitudes
    assert np.max(np.abs(state - single), initial=0.0) <= 1e-12


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
    # batch holds one row, and from q = 13 the lowest block takes its
    # rows in chunks of at most _GEMM_MACS multiply-adds
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
    # 16 qubits share 73 levels; each lone row takes its lowest block's
    # rows, and its top block's columns, in chunks of at most _GEMM_MACS
    # multiply-adds
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    h = DiagonalHamiltonian.from_ising(to_ising(assemble(pentagon), 5))
    assert h.num_qubits == 16 and len(h.shifted_levels()[0]) == 73
    rng = np.random.default_rng(16)
    for p in (1, 2, 4):
        gammas, betas = rng.uniform(-7, 7, (2, p)), rng.uniform(-7, 7, (2, p))
        batch = qaoa_state(h, gammas, betas, mixer).amplitudes
        for r in range(2):
            alone = qaoa_state(h, gammas[r], betas[r], mixer).amplitudes
            assert batch[r].tobytes() == alone.tobytes()
            assert_matches_the_oracle(alone, h, gammas[r], betas[r], mixer)


@pytest.mark.parametrize("q", [12, 13, 15, 16])
def test_gemms_stay_within_one_blas_thread(monkeypatch, q):
    # from 13 qubits a layer goes in calls of at most _GEMM_MACS
    # multiply-adds, their stacked GEMMs together, which also bounds each
    # call's scratch: the blocks within 4096-amplitude chunks by chunk, and
    # each block above by slices of its axis or, past the bound, by columns
    h = random_hamiltonian(np.random.default_rng(q), q)
    gammas, betas = np.linspace(-2, 2, 3), np.linspace(3, -1, 3)
    expected = qaoa_state(h, gammas, betas, "RX").amplitudes
    gemms = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        stacked = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        gemms.append(math.prod(stacked) * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    assert qaoa_state(h, gammas, betas, "RX").amplitudes.tobytes() == expected.tobytes()
    assert max(gemms) <= engine._GEMM_MACS
    # each of 3 layers takes every block as one call up to 12 qubits
    assert (len(gemms) > 3 * len(engine._block_sizes(q))) == (q > 12)


def test_a_16_qubit_state_holds_one_layer_phase_at_a_time():
    # eight 1 MiB layer phases gathered at once would take 8 MiB
    h = random_hamiltonian(np.random.default_rng(16), 16)
    gammas, betas = np.linspace(-2, 2, 8), np.linspace(3, -1, 8)
    qaoa_state(h, gammas, betas, "RX")
    tracemalloc.start()
    try:
        qaoa_state(h, gammas, betas, "RX")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_pentagon_state_makes_no_second_array_of_its_size():
    # each layer is written over the 1 MiB state chunk by chunk, its phase
    # gathered from 73 levels per chunk: no state-sized phase, nor a fresh
    # state per block
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    h = DiagonalHamiltonian.from_ising(to_ising(assemble(pentagon), 5))
    gammas, betas = np.linspace(-2, 2, 4), np.linspace(3, -1, 4)
    qaoa_state(h, gammas, betas, "RX")
    tracemalloc.start()
    try:
        qaoa_state(h, gammas, betas, "RX")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20) + (1 << 18)


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
    assert_zero_betas_match_the_oracle(DiagonalHamiltonian.from_ising(triangle_model), mixer)


@pytest.mark.parametrize("mixer", ["RX", "RY"])
def test_zero_beta_on_the_square_matches_the_oracle(mixer, square_fixture_model):
    # the square (9 qubits, three blocks) takes upper blocks, and RX its frame
    assert_zero_betas_match_the_oracle(DiagonalHamiltonian.from_ising(square_fixture_model), mixer)


def assert_zero_betas_match_the_oracle(h, mixer):
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


def kronecker_block(mixer, beta, b):
    m = np.array(engine._rotation(mixer, 2.0 * beta)).reshape(2, 2)
    block = np.ones((1, 1))
    for _ in range(b):
        block = np.kron(m, block)
    return block


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("b", range(1, engine._BLOCK_QUBITS + 1))
def test_block_tables_are_kronecker_products_of_rotations(b, mixer):
    # the complex block U read off its real form: Re U[i, j] = R[2j, 2i]
    # and Im U[i, j] = R[2j, 2i + 1]
    betas = np.array([[0.0, math.pi / 2, 0.7, -2.1], [1.3, -math.pi / 2, 5.9, 3e-9]])
    tables = engine._real_block_tables(mixer, betas, (b,))[b]
    assert tables.shape == (4, 2, 2 << b, 2 << b) and tables.flags.c_contiguous
    for r, row in enumerate(betas):
        for layer, beta in enumerate(row.tolist()):
            real = tables[layer, r]
            block = (real[0::2, 0::2] + 1j * real[0::2, 1::2]).T
            expected = kronecker_block(mixer, beta, b)
            assert np.max(np.abs(block - expected)) <= 1e-15


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("b", range(1, engine._BLOCK_QUBITS + 1))
def test_real_block_tables_are_real_forms_of_the_kronecker_products(b, mixer):
    # R acts on amplitudes as interleaved (re, im) pairs from the right:
    # R[(j, 0), (i, 0)] = R[(j, 1), (i, 1)] = Re U[i, j], R[(j, 0), (i, 1)]
    # = Im U[i, j] and R[(j, 1), (i, 0)] = -Im U[i, j]
    betas = np.array([[0.0, math.pi / 2, 0.7, -2.1], [1.3, -math.pi / 2, 5.9, 3e-9]])
    tables = engine._real_block_tables(mixer, betas, (b,))[b]
    d = 1 << b
    assert tables.shape == (4, 2, 2 * d, 2 * d) and tables.flags.c_contiguous
    rng = np.random.default_rng(b)
    for r, row in enumerate(betas):
        for layer, beta in enumerate(row.tolist()):
            u = kronecker_block(mixer, beta, b)
            expected = np.empty((d, 2, d, 2))
            expected[:, 0, :, 0] = expected[:, 1, :, 1] = u.T.real
            expected[:, 0, :, 1] = u.T.imag
            expected[:, 1, :, 0] = -u.T.imag
            real = tables[layer, r]
            assert np.max(np.abs(real - expected.reshape(2 * d, 2 * d))) <= 1e-15
            x = rng.normal(size=(3, 2 * d))
            mixed = (x @ real).view(complex)
            assert np.max(np.abs(mixed - x.view(complex) @ u.T)) <= 1e-14


@pytest.mark.parametrize("b", range(1, engine._BLOCK_QUBITS + 1))
def test_rx_blocks_are_ry_blocks_in_the_powers_of_i_frame(b):
    # with F = i^popcount(x) and D = diag(F): D^-1 RX(2 beta) D = RY(-2
    # beta) on every qubit, the frame of the lockstep's RX evolution
    frame = np.array([1j ** bin(x).count("1") for x in range(1 << b)])
    ones = np.ones((2, 1 << b), dtype=complex)
    engine._multiply_frame(ones, b)
    assert ones.tolist() == [frame.tolist()] * 2
    for beta in (0.0, math.pi / 2, -math.pi / 2, 0.7, -2.1, 3e-9):
        rx = frame.conj()[:, None] * kronecker_block("RX", beta, b) * frame
        assert np.max(np.abs(rx - kronecker_block("RY", -beta, b))) <= 1e-15


@pytest.mark.parametrize("q", range(17))
def test_frame_takes_the_factors_of_a_full_table(q):
    # the high and low halves' pieces multiply every amplitude by the same
    # power of i, signed zeros included, as a table over all 2^q states
    table = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(1 << q)) % 4]
    values = np.array([0.0, -0.0, 0.3, -0.7])
    rng = np.random.default_rng(q)
    states = values[rng.integers(4, size=(3, 1 << q))] + 1j * values[
        rng.integers(4, size=(3, 1 << q))
    ]
    expected = states * table
    engine._multiply_frame(states, q)
    assert states.tobytes() == expected.tobytes()
    # the framed start, written in one pass, has the bytes of the uniform
    # rows times the conjugate table
    uniform = np.full((3, 1 << q), 1.0 / math.sqrt(1 << q), dtype=complex)
    assert engine._start(3, q, True).tobytes() == (uniform * table.conj()).tobytes()
    assert engine._start(3, q, False).tobytes() == uniform.tobytes()


def real_forms_by_running_products(mixer, betas, b):
    # entry [i, j] of every block U, one at a time: c^(b-w) s^w with the
    # powers multiplied up one factor at a time, times (-i)^w for RX and
    # (-1)^popcount(j & ~i) for RY, w = popcount(i ^ j); its real form
    # holds the parts of U[i, j] and i U[i, j], each that product times
    # -1, 0 or 1
    d = 1 << b
    cos, sin = np.cos(betas.T), np.sin(betas.T)
    forms = np.empty((*betas.T.shape, 2 * d, 2 * d))
    for index in np.ndindex(betas.T.shape):
        c_powers, s_powers = [1.0], [1.0]
        for _ in range(b):
            c_powers.append(c_powers[-1] * float(cos[index]))
            s_powers.append(s_powers[-1] * float(sin[index]))
        for i in range(d):
            for j in range(d):
                w = bin(i ^ j).count("1")
                term = c_powers[b - w] * s_powers[w]
                if mixer == "RX":
                    re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[w % 4]
                else:
                    re, im = (-1, 0) if bin(j & ~i).count("1") % 2 else (1, 0)
                forms[index][2 * j, 2 * i : 2 * i + 2] = term * re, term * im
                forms[index][2 * j + 1, 2 * i : 2 * i + 2] = term * -im, term * re
    return forms


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("b", range(1, engine._BLOCK_QUBITS + 1))
def test_block_tables_keep_the_bytes_of_running_products(b, mixer):
    # every entry of every real form keeps the bytes of its product, signed
    # zeros included
    betas = np.array([[0.0, math.pi / 2, 0.7, -2.1], [1.3, -math.pi / 2, 5.9, 3e-9]])
    tables = engine._real_block_tables(mixer, betas, (b,))[b]
    assert tables.tobytes() == real_forms_by_running_products(mixer, betas, b).tobytes()


# mixer blocks run as GEMMs through OpenBLAS; their bytes must not depend
# on its thread count, for batches and lone rows at every blocked width,
# and for lone rows whose GEMMs go in chunks (q = 14 and the pentagon)
_QAOA_STATES_BY_THREADS = """
import hashlib
import numpy as np
from hamqaoa import DiagonalHamiltonian, qaoa_state
from hamqaoa.cli import reference_square_model
from hamqaoa.engine import lockstep_rows
from hamqaoa import assemble, make_graph, to_ising
rng = np.random.default_rng(0)
models = []
for q in (*range(10), 10, 12, 14):
    terms = tuple((int(rng.integers(1 << q)), float(rng.normal())) for _ in range(2 * q + 1))
    models.append(DiagonalHamiltonian(q, terms, 0.0))
models.append(DiagonalHamiltonian.from_ising(reference_square_model()))
pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
models.append(DiagonalHamiltonian.from_ising(to_ising(assemble(pentagon), 5)))
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


def test_empty_and_zero_layer_batches(triangle_model, square_fixture_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    assert qaoa_state(h, np.zeros((0, 2)), np.zeros((0, 2))).amplitudes.shape == (0, 16)
    # the square's RX rows take the frame off after the lockstep
    square = DiagonalHamiltonian.from_ising(square_fixture_model)
    assert qaoa_state(square, np.zeros((0, 2)), np.zeros((0, 2))).amplitudes.shape == (0, 512)
    batch = qaoa_state(h, np.zeros((3, 0)), np.zeros((3, 0)))
    single = qaoa_state(h, [], [])
    assert all(row.tobytes() == single.amplitudes.tobytes() for row in batch.amplitudes)


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("q", range(5, 10))
def test_zero_layer_rows_keep_the_bytes_of_the_uniform_state(q, mixer):
    # from 5 qubits an RX evolution runs in a frame of powers of i; with no
    # layer there is no frame, and no signed zero from one
    h = random_hamiltonian(np.random.default_rng(q), q)
    uniform = np.full(1 << q, 1.0 / math.sqrt(1 << q), dtype=complex)
    alone = qaoa_state(h, [], [], mixer).amplitudes
    batch = qaoa_state(h, np.zeros((3, 0)), np.zeros((3, 0)), mixer).amplitudes
    assert alone.tobytes() == uniform.tobytes()
    assert all(row.tobytes() == uniform.tobytes() for row in batch)


def random_local_hamiltonian(rng, q):
    # the compiler's shape: a constant, fields and couplings
    masks = [1 << u for u in range(q)] + [(1 << u) | (1 << v) for u in range(q) for v in range(u)]
    picked = rng.permutation(masks)[: 3 * q].tolist()
    return DiagonalHamiltonian(q, tuple((m, float(rng.normal())) for m in picked), 0.25)


def expectation_models():
    rng = np.random.default_rng(27)
    models = {f"q{q}": random_local_hamiltonian(rng, q) for q in range(17)}
    triangle = make_graph(3, [(1, 2), (2, 3), (1, 3)])
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    models["triangle"] = to_ising(assemble(triangle), 3)
    models["square"] = reference_square_model()
    models["pentagon"] = to_ising(assemble(pentagon), 5)
    for name in ("triangle", "square", "pentagon"):
        models[name] = DiagonalHamiltonian.from_ising(models[name])
    return models


_EXPECTATION_MODELS = expectation_models()


@pytest.mark.parametrize("name", list(_EXPECTATION_MODELS))
def test_qaoa_expectation_keeps_the_bytes_of_expectation(name):
    # the rows are scored in the lockstep's RX frame, where each amplitude
    # is a power of i times the state's, so every |amplitude|^2 and sum
    # must keep its bytes: lone rows, batches one row past a lockstep
    # batch, and zero and signed-zero betas among them
    h = _EXPECTATION_MODELS[name]
    rng = np.random.default_rng(h.num_qubits)
    rows = engine.lockstep_rows(h.num_qubits) + 1
    for mixer in ("RX", "RY"):
        for p in (1, 2, 4, 8):
            gammas, betas = rng.uniform(-7, 7, (2, rows, p))
            betas[0, 0], betas[-1, -1] = 0.0, -0.0
            value = engine.qaoa_expectation(h, gammas[0], betas[0], mixer)
            assert type(value) is float
            assert repr(value) == repr(expectation(qaoa_state(h, gammas[0], betas[0], mixer), h))
            values = engine.qaoa_expectation(h, gammas, betas, mixer)
            expected = expectation(qaoa_state(h, gammas, betas, mixer), h)
            assert values.shape == (rows,)
            assert values.tobytes() == expected.tobytes()


def test_qaoa_expectation_of_no_rows_and_no_layers(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    assert engine.qaoa_expectation(h, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
    square = DiagonalHamiltonian.from_ising(reference_square_model())
    assert engine.qaoa_expectation(square, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
    mean = full_spectrum(h).mean_energy()
    assert engine.qaoa_expectation(h, [], []) == pytest.approx(mean, abs=1e-12)
    zero_layers = engine.qaoa_expectation(h, np.zeros((3, 0)), np.zeros((3, 0)))
    assert zero_layers.tolist() == [expectation(qaoa_state(h, [], []), h)] * 3


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_qaoa_expectation_refuses_what_qaoa_state_refuses(angle, triangle_model, monkeypatch):
    h = DiagonalHamiltonian.from_ising(triangle_model)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work began before the check")

    monkeypatch.setattr(DiagonalHamiltonian, "shifted_levels", must_not_run)
    monkeypatch.setattr(DiagonalHamiltonian, "energies", must_not_run)
    monkeypatch.setattr(np, "exp", must_not_run)
    rows = np.array([[0.3, 0.1], [0.5, 0.2], [0.7, 0.4]])
    for family in (0, 1):  # gammas, then betas
        single, batch = [rows[0].copy(), rows[0].copy()], [rows.copy(), rows.copy()]
        single[family][1] = angle
        batch[family][1, 0] = angle
        for gammas, betas in (single, batch):
            with pytest.raises(ValueError, match="gammas and betas must be finite"):
                engine.qaoa_expectation(h, gammas, betas)
    with pytest.raises(ValueError, match="must both be"):
        engine.qaoa_expectation(h, np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"\(2,\) and betas \(1,\) must both be"):
        engine.qaoa_expectation(h, [0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="must both be"):
        engine.qaoa_expectation(h, np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match="mixer must be RX or RY"):
        engine.qaoa_expectation(h, [0.1], [0.2], "RZ")


@pytest.mark.parametrize(
    "amplitudes, q",
    [
        (np.full(16, 0.25), 3),
        (np.full(4, 0.5), 3),
        (np.full((2, 8), 0.5), 2),
        (np.full((2, 2, 4), 0.5), 2),
        (np.array(1.0), 0),
        (np.ones(1), -1),
    ],
    ids=["16-on-3", "4-on-3", "batch-8-on-2", "3-d", "0-d", "negative-qubits"],
)
def test_statevector_refuses_amplitudes_of_another_register(amplitudes, q):
    # before, sample drew indices past 2^q and labelled them with q-bit
    # strings, and expectation failed inside numpy's reshape
    with pytest.raises(DimensionMismatch, match="no state or batch of states"):
        Statevector(amplitudes, q)


def test_statevector_takes_states_and_batches_of_its_register():
    assert Statevector(np.ones(1), 0).probabilities().tolist() == [1.0]
    assert Statevector(np.full(8, 0.5), 3).amplitudes.shape == (8,)
    assert Statevector(np.full((2, 8), 0.5), 3).amplitudes.shape == (2, 8)
    assert Statevector(np.zeros((0, 8)), 3).amplitudes.shape == (0, 8)


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


def test_sample_counts_are_the_draws_in_first_occurrence_order(square_fixture_model):
    # a distribution holds outcome indices and tallies; its counts and
    # their order of first occurrence are those of the draws
    h = DiagonalHamiltonian.from_ising(square_fixture_model)
    s = qaoa_state(h, [0.3], [0.4])
    dist = sample(s, 3000, seed=1)
    outcomes = engine._draw_outcomes(s.probabilities(), engine._substream(1, 1).random(3000))
    draws = Counter(format(i, "09b")[::-1] for i in outcomes.tolist())
    assert len(draws) > 100
    assert list(dist.counts.items()) == list(draws.items())
    assert list(dist.counts) == list(draws)
    assert list(dist.counts.values()) == list(draws.values())
    # the mean energy has the bytes of the per-key sum, in that order
    per_key = sum(c * energy_of(h, bits) for bits, c in draws.items()) / 3000
    assert repr(dist.mean_energy(h)) == repr(per_key)
    # 32 bits hold every index and tally the caps allow
    assert dist.outcomes.dtype == dist.tallies.dtype == np.int32
    assert engine.SHOT_CAP < 1 << 31 and hamqaoa.hamiltonian.SIMULATOR_QUBIT_CAP < 31


def test_counts_read_as_a_mapping():
    dist = sample(Statevector(np.array([0, 0, 1, 0], dtype=complex), 2), 40, seed=0)
    counts = dist.counts
    assert isinstance(counts, Mapping) and len(counts) == 1
    assert counts == {"01": 40} and dict(counts) == {"01": 40}
    assert counts["01"] == 40 and "01" in counts and counts.get("01") == 40
    for missing in ("00", "10", "0", "011", "0x", "0_1", " 01", 1, None):
        assert missing not in counts and counts.get(missing) is None
        with pytest.raises(KeyError):
            counts[missing]
    with pytest.raises(TypeError):
        counts["01"] = 1
    assert repr(counts) == "_Counts({'01': 40})"
    assert dist.mass({"01", "00", "0x", "1"}) == 1.0 and dist.mass({"10"}) == 0.0
    assert dist == sample(Statevector(np.array([0, 0, 1, 0], dtype=complex), 2), 40, seed=1)
    with pytest.raises(DimensionMismatch, match="distribution has 2 qubits"):
        dist.mean_energy(DiagonalHamiltonian(3, ()))


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
    # every shot is clean: the replay's error-free row draws them all,
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


_DENSE_PAULI = {
    "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]),
}


def dense_pauli(pair, qubits, q):
    out = np.eye(1 << q)
    for label, qubit in zip(pair, qubits):
        out = _embed_single(_DENSE_PAULI[label], qubit, q) @ out
    return out


@pytest.mark.parametrize("control, target", [(1, 2), (2, 1), (1, 3), (3, 2)])
def test_errors_move_to_the_term_edges_as_the_conjugation_table_says(control, target):
    # dense matrices, independent of the engine's kernels: on 3 qubits, so
    # that one qubit looks on
    q = 3
    cnot = _embed_cnot(control, target, q)
    rz = _embed_single(_rotation("RZ", 0.7), target, q)
    term = cnot @ rz @ cnot
    assert sorted(engine._AFTER_CNOT) == list(range(15))
    assert len(set(engine._AFTER_RZ)) == 3
    for k, pair in enumerate(engine._PAULI_2Q):
        moved = dense_pauli(engine._PAULI_2Q[engine._AFTER_CNOT[k]], (control, target), q)
        conjugated = cnot @ dense_pauli(pair, (control, target), q) @ cnot
        assert np.array_equal(conjugated, moved) or np.array_equal(conjugated, -moved)
        # an error after the first CNOT equals its move before the term
        after_cnot = cnot @ rz @ dense_pauli(pair, (control, target), q) @ cnot
        assert np.allclose(after_cnot, term @ moved) or np.allclose(after_cnot, -term @ moved)
    for k, label in enumerate(engine._PAULI_1Q):
        moved = dense_pauli(engine._PAULI_2Q[engine._AFTER_RZ[k]], (control, target), q)
        conjugated = cnot @ dense_pauli(("I", label), (control, target), q) @ cnot
        assert np.array_equal(conjugated, moved) or np.array_equal(conjugated, -moved)
        # an error after the RZ equals its move after the term
        after_rz = cnot @ dense_pauli((label,), (target,), q) @ rz @ cnot
        assert np.allclose(after_rz, moved @ term) or np.allclose(after_rz, -moved @ term)


def inject(states, g, k):
    """Pauli number k of the gate's error set on its qubit(s), in place."""
    labels = engine._PAULI_2Q[k] if g.kind == "CNOT" else (engine._PAULI_1Q[k],)
    for label, qubit in zip(labels, g.targets):
        if label != "I":
            general_apply_1q(states, PAULI[label], qubit, False)


def gate_by_gate_replay(c, first_gate, ev_row, ev_gate, ev_pauli):
    """``engine._replay`` one gate at a time, each error injected right
    after its own gate: the reference for replaying segments whole."""
    injections = {}
    for r, i, k in zip(ev_row.tolist(), ev_gate.tolist(), ev_pauli.tolist()):
        injections.setdefault(i, {}).setdefault(k, []).append(r)
    start = int(first_gate[0])
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates[: start + 1]:
        engine._apply_gate(state, g)
    batch = np.repeat(state[None], len(first_gate), axis=0)
    for i in range(start, len(c.gates)):
        if i > start:
            engine._apply_gate(batch, c.gates[i])
        for k, rows in injections.get(i, {}).items():
            sub = batch[rows]
            inject(sub, c.gates[i], k)
            batch[rows] = sub
    return batch


def assert_equal_up_to_phase(states, reference):
    """Each row within 1e-12 of its reference row times a unit-modulus
    phase: each replayed state drops its global phase."""
    for a, b in zip(states, reference):
        overlap = np.vdot(b, a)
        assert abs(abs(overlap) - 1.0) <= 1e-12
        assert np.max(np.abs(a - overlap / abs(overlap) * b)) <= 1e-12


def replay_batches(c, trajectories, per_batch):
    """Each batch of per_batch rows, each a list of (gate, Pauli index)
    errors, as the arguments of ``engine._replay`` after the segments.
    The rows go in order of their first error, as ``simulate_noisy``
    sorts them; a row without errors goes last."""
    n = len(c.gates)
    trajectories = sorted(trajectories, key=lambda col: col[0][0] if col else n)
    for lo in range(0, len(trajectories), per_batch):
        batch = trajectories[lo : lo + per_batch]
        first_gate = np.array([col[0][0] if col else n for col in batch])
        events = [(r, i, k) for r, col in enumerate(batch) for i, k in col]
        ev_row, ev_gate, ev_pauli = (
            np.array(v, dtype=np.int64) for v in (zip(*events) if events else ((), (), ()))
        )
        yield batch, (first_gate, ev_row, ev_gate, ev_pauli)


def assert_term_runs_replay_as_gates(c, trajectories, per_batch):
    """Replay the rows in batches of per_batch, by segments and gate by
    gate: each row within 1e-12 of its reference up to a phase."""
    segments = engine._segments(c.gates, c.num_qubits)
    for _, args in replay_batches(c, trajectories, per_batch):
        fused = engine._replay(c, segments, *args)
        assert_equal_up_to_phase(fused, gate_by_gate_replay(c, *args))


def term_starts(c):
    """The first gate of every term run that ``engine._segments`` finds."""
    return [
        t
        for seg in engine._segments(c.gates, c.num_qubits)
        for t in seg.steps
        if c.gates[t].kind == "CNOT"
    ]


def seeded_trajectories(c, nm, shots, seed):
    ev_shot, ev_gate, ev_pauli = engine._pauli_events(c, nm, seed, shots)
    trajectories = [[] for _ in range(shots)]
    for t, i, k in zip(ev_shot.tolist(), ev_gate.tolist(), ev_pauli.tolist()):
        trajectories[t].append((i, k))
    return trajectories


def assert_simulate_runs_as_gates(c):
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        engine._apply_gate(state, g)
    assert np.max(np.abs(simulate(c).amplitudes - state)) <= 1e-12


def term(j, k, angle):
    return [Gate("CNOT", (j, k)), Gate("RZ", (k,), angle), Gate("CNOT", (j, k))]


@pytest.mark.parametrize("nm", [BENCH_NOISE, HEAVY_NOISE], ids=["bench", "heavy"])
@pytest.mark.parametrize("case", ["square-p8-RX", "square-p8-RY", "triangle-p2-RX"])
def test_term_runs_replay_as_gate_by_gate_on_the_ansatz(
    case, nm, triangle_model, square_fixture_model
):
    name, p, mixer = case.split("-")
    model = triangle_model if name == "triangle" else square_fixture_model
    c = seeded_circuit(model, int(p[1:]), mixer, 3)
    quadratic = sum(len(qubits) == 2 for qubits, _ in model.terms())
    assert len(term_starts(c)) == quadratic * int(p[1:])
    assert_simulate_runs_as_gates(c)
    shots = 60 if name == "square" else 300
    trajectories = seeded_trajectories(c, nm, shots, 11)
    assert_term_runs_replay_as_gates(c, trajectories, len(trajectories))
    assert_term_runs_replay_as_gates(c, trajectories, 3)


def test_term_runs_replay_as_gate_by_gate_around_a_batch_start(square_fixture_model):
    c = seeded_circuit(square_fixture_model, 8, "RY", 4)
    first, later = term_starts(c)[:2]
    # errors inside a later run: after each gate of it, and after all three
    inside = [
        [(later, 4)], [(later + 1, 2)], [(later + 2, 9)],
        [(later, 14), (later + 1, 0), (later + 2, 7)],
    ]
    for offset, paulis in ((0, 15), (1, 3), (2, 15)):
        # the batch starts inside the first run, at each of its gates
        trajectories = [[(first + offset, k)] for k in range(paulis)]
        trajectories += [[(first + offset, 0), *col] for col in inside]
        trajectories.append([])
        assert_term_runs_replay_as_gates(c, trajectories, len(trajectories))
    # every error a run can take, in batches that start before it
    trajectories = [[(later, k)] for k in range(15)]
    trajectories += [[(later + 1, k)] for k in range(3)]
    trajectories += [[(later + 2, k)] for k in range(15)]
    trajectories += [[(first - 1, 0), *col] for col in inside]
    assert_term_runs_replay_as_gates(c, trajectories, len(trajectories))
    assert_term_runs_replay_as_gates(c, trajectories, 4)


_NEAR_MISSES = {
    "rz-on-control": ([Gate("CNOT", (1, 2)), Gate("RZ", (1,), 0.9), Gate("CNOT", (1, 2))], 0),
    "reversed-cnot": ([Gate("CNOT", (1, 2)), Gate("RZ", (2,), 0.9), Gate("CNOT", (2, 1))], 0),
    "other-target": ([Gate("CNOT", (1, 2)), Gate("RZ", (2,), 0.9), Gate("CNOT", (1, 3))], 0),
    "rx-between": ([Gate("CNOT", (1, 3)), Gate("RX", (3,), 0.9), Gate("CNOT", (1, 3))], 0),
    "rz-elsewhere": ([Gate("CNOT", (2, 3)), Gate("RZ", (1,), 0.9), Gate("CNOT", (2, 3))], 0),
    "chained": ([*term(1, 2, 0.9), Gate("RZ", (2,), 0.4), Gate("CNOT", (1, 2))], 1),
    "descending": ([*term(3, 1, 0.9), *term(2, 1, -1.3)], 2),
    "cut-short": ([Gate("H", (2,)), *term(1, 2, 0.9)[:2]], 0),
}


@pytest.mark.parametrize("case", list(_NEAR_MISSES))
def test_near_miss_runs_replay_as_gate_by_gate(case):
    gates, expected_runs = _NEAR_MISSES[case]
    mix = [Gate("RX", (k,), 0.3 * k) for k in (1, 2, 3)]
    gates = [*(Gate("H", (k,)) for k in (1, 2, 3)), *gates, *mix, *gates, *term(1, 3, 2.1)]
    c = ParamCircuit(3, tuple(gates), 0)
    runs = term_starts(c)
    assert len(runs) == 2 * expected_runs + 1
    assert_simulate_runs_as_gates(c)
    # every single error, then every error after a run's RZ or first CNOT
    # with later errors in the last run
    trajectories = [
        [(i, k)]
        for i, g in enumerate(gates)
        for k in range(15 if g.kind == "CNOT" else 3)
    ]
    last = max(runs)
    trajectories += [[(i, 1), (last, 5), (last + 1, 2)] for i in range(last)]
    trajectories.append([])
    assert_term_runs_replay_as_gates(c, trajectories, len(trajectories))
    assert_term_runs_replay_as_gates(c, trajectories, 5)


def record_single_gates(monkeypatch):
    """Every gate that reaches ``engine._apply_gate``, and every (gate
    kind, matrix, exchange) that reaches ``engine._apply_1q``, the kind
    None for a call from outside ``_apply_gate``."""
    gates, matrices, current = [], [], [None]
    apply_gate, apply_1q = engine._apply_gate, engine._apply_1q

    def record_gate(states, g):
        gates.append(g)
        current[0] = g.kind
        apply_gate(states, g)
        current[0] = None

    def record_1q(states, m, k, exchange):
        matrices.append((current[0], m, exchange))
        apply_1q(states, m, k, exchange)

    monkeypatch.setattr(engine, "_apply_gate", record_gate)
    monkeypatch.setattr(engine, "_apply_1q", record_1q)
    return gates, matrices


@pytest.mark.parametrize(
    "case",
    [
        "triangle-p2-RX", "triangle-p2-RY", "square-p8-RX", "square-p8-RY",
        *(f"random-{seed}" for seed in range(6)),
    ],
)
def test_single_gates_take_no_rz_and_no_pauli(
    case, triangle_model, square_fixture_model, monkeypatch
):
    # every RZ is a step of a diagonal segment and every error a pending
    # Pauli, so single gates are H, RX and RY, and only RX exchanges
    name, *rest = case.split("-")
    if name == "random":
        rng = np.random.default_rng(int(rest[0]))
        c = random_circuit(rng, max_qubits=5, min_gates=10, max_gates=40)
        gates = list(c.gates)
        for near_miss, _ in _NEAR_MISSES.values():
            at = int(rng.integers(len(gates) + 1))
            gates[at:at] = near_miss
        c = ParamCircuit(max(c.num_qubits, 3), tuple(gates), 0)
    else:
        model = triangle_model if name == "triangle" else square_fixture_model
        c = seeded_circuit(model, int(rest[0][1:]), rest[1], 6)
    shots = 40 if name == "square" else 200
    gates, matrices = record_single_gates(monkeypatch)
    simulate(c)
    for nm in (NoiseModel(), BENCH_NOISE, HEAVY_NOISE):
        simulate_noisy(c, nm, shots, 7)
    assert gates and not [g for g in gates if g.kind == "RZ"]
    assert {kind for kind, _, _ in matrices} <= {"H", "RX", "RY"}
    assert not [m for _, m, _ in matrices if m in PAULI.values()]
    assert all(exchange == (kind == "RX") for kind, _, exchange in matrices)
    if name == "random":  # the near misses hold a lone RX and an H
        assert {exchange for _, _, exchange in matrices} == {False, True}


@pytest.mark.parametrize("seed", range(6))
def test_term_runs_in_random_circuits_replay_as_gate_by_gate(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_qubits=5, min_gates=10, max_gates=40)
    gates = list(c.gates)
    if c.num_qubits > 1:
        for _ in range(6):  # exact runs spliced in at random places
            j, k = rng.choice(np.arange(1, c.num_qubits + 1), size=2, replace=False)
            at = int(rng.integers(len(gates) + 1))
            gates[at:at] = term(int(j), int(k), float(rng.uniform(0, 2 * math.pi)))
    c = ParamCircuit(c.num_qubits, tuple(gates), 0)
    assert_simulate_runs_as_gates(c)
    trajectories = seeded_trajectories(c, HEAVY_NOISE, 200, seed)
    assert_term_runs_replay_as_gates(c, trajectories, len(trajectories))
    assert_term_runs_replay_as_gates(c, trajectories, 3)


_DENSE_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


@functools.cache
def dense_matrices(c):
    """Each gate of the circuit and each Pauli of its error set, dense."""
    q = c.num_qubits
    gates, errors = [], []
    for g in c.gates:
        if g.kind == "CNOT":
            gates.append(_embed_cnot(*g.targets, q))
            labels = engine._PAULI_2Q
        else:
            mat = _DENSE_H if g.kind == "H" else _rotation(g.kind, g.angle)
            gates.append(_embed_single(mat, g.targets[0], q))
            labels = [(label,) for label in engine._PAULI_1Q]
        errors.append([dense_pauli(pair, g.targets, q) for pair in labels])
    return gates, errors


def dense_replay(c, trajectories):
    """The final state of each list of errors, (gate, Pauli index) pairs,
    as a product of dense matrices: each gate, then each of its errors;
    one state per row."""
    gates, errors = dense_matrices(c)
    states = np.zeros((len(trajectories), 1 << c.num_qubits), dtype=complex)
    for r, trajectory in enumerate(trajectories):
        state = np.eye(1 << c.num_qubits)[:, 0]
        for i, mat in enumerate(gates):
            state = mat @ state
            for k in (k for j, k in trajectory if j == i):
                state = errors[i][k] @ state
        states[r] = state
    return states


def carrying_circuit(q, mixer):
    """H on every qubit, a diagonal segment of lone RZs and terms, one
    mixer layer, and another diagonal segment, at seeded angles."""
    rng = np.random.default_rng(q)
    angles = iter(rng.uniform(-7, 7, 16).tolist())
    first = [
        Gate("RZ", (1,), next(angles)), *term(1, 2, next(angles)), *term(3, 2, next(angles)),
        Gate("RZ", (q,), next(angles)), *term(q, 1, next(angles)), *term(2, 3, next(angles)),
    ]
    second = [
        *term(2, q, next(angles)), Gate("RZ", (2,), next(angles)),
        *term(1, 3, next(angles)), *term(3, 1, next(angles)),
    ]
    beta = next(angles)
    gates = [
        *(Gate("H", (k,)) for k in range(1, q + 1)), *first,
        *(Gate(mixer, (k,), beta) for k in range(q, 0, -1)), *second,
    ]
    return ParamCircuit(q, tuple(gates), 0)


@pytest.mark.parametrize("mixer", ["RX", "RY"])
@pytest.mark.parametrize("q", [3, 4])
def test_carried_errors_replay_as_dense_products(q, mixer):
    # every single Pauli after every gate, and an error of the mixer layer
    # (carried into the next segment as sign flips) before one after each
    # later gate; each replayed trajectory is the dense product up to a phase
    c = carrying_circuit(q, mixer)
    segments = engine._segments(c.gates, q)
    kinds = ["steps" if s.steps else "blocks" if s.blocks else "gate" for s in segments]
    assert kinds == ["gate"] * q + ["steps", "blocks", "steps"]
    paulis = [15 if g.kind == "CNOT" else 3 for g in c.gates]
    trajectories = [[(i, k)] for i, n in enumerate(paulis) for k in range(n)]
    mixer_gates = range(segments[q + 1].lo, segments[q + 1].lo + q)
    trajectories += [
        [(m, k), (i, (m + i) % paulis[i])]
        for m in mixer_gates
        for k in range(3)
        for i in range(m + 1, len(c.gates))
    ]
    trajectories += [[(0, 0), (i, 1)] for i in range(q, len(c.gates))]  # X carried from H
    for per_batch in (len(trajectories), 3):
        for batch, args in replay_batches(c, trajectories, per_batch):
            assert_equal_up_to_phase(engine._replay(c, segments, *args), dense_replay(c, batch))


def test_a_16_qubit_replay_stays_small():
    # the pentagon's 82 terms as one (2^16, 82) sign table would take 43 MB;
    # the gate-by-gate replay this replaced peaked at 6.8 MB on this call
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    c = seeded_circuit(to_ising(assemble(pentagon), 5), 1, "RX", 0)
    assert len(engine._pauli_events(c, BENCH_NOISE, 0, 3)[0]) > 0
    simulate_noisy(c, BENCH_NOISE, 3, 0)
    tracemalloc.start()
    try:
        simulate_noisy(c, BENCH_NOISE, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# replayed states go through GEMMs (mixer blocks and phase angles); their
# bytes, and so the counts, must not depend on OpenBLAS's thread count,
# for batches of many rows (q = 9) and for a lone row (q = 16)
_REPLAYS_BY_THREADS = """
import hashlib, math
import numpy as np
from hamqaoa import NoiseModel, assemble, bind, build_ansatz, make_graph, to_ising
from hamqaoa import simulate, simulate_noisy
from hamqaoa.cli import reference_square_model
pentagon = to_ising(assemble(make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])), 5)
for model, p, shots in ((reference_square_model(), 8, 400), (pentagon, 1, 4)):
    for mixer in ("RX", "RY"):
        angles = 2 * math.pi * np.random.default_rng(p).random(2 * p)
        c = bind(build_ansatz(model, p, mixer), angles[:p], angles[p:])
        counts = simulate_noisy(c, NoiseModel(0.05, 0.2, 0.02), shots, 1).counts
        amplitudes = simulate(c).amplitudes.tobytes()
        print(hashlib.sha256(repr(list(counts.items())).encode() + amplitudes).hexdigest())
"""


def test_replays_do_not_depend_on_the_blas_thread_count():
    src = str(Path(hamqaoa.__file__).parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _REPLAYS_BY_THREADS],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


@pytest.mark.parametrize(
    "case, nm",
    [("square-p8-RX", BENCH_NOISE), ("square-p8-RY", HEAVY_NOISE), ("triangle-p2-RX", HEAVY_NOISE)],
    ids=["square-RX-bench", "square-RY-heavy", "triangle-RX-heavy"],
)
def test_small_batches_count_as_gate_by_gate(
    case, nm, triangle_model, square_fixture_model, monkeypatch
):
    name, p, mixer = case.split("-")
    model = triangle_model if name == "triangle" else square_fixture_model
    c = seeded_circuit(model, int(p[1:]), mixer, 7)
    monkeypatch.setattr(engine, "_BATCH_AMPLITUDES", 3 << c.num_qubits)
    fused = list(simulate_noisy(c, nm, 120, 4).counts.items())
    monkeypatch.setattr(engine, "_replay", lambda c, runs, *ev: gate_by_gate_replay(c, *ev))
    assert fused == list(simulate_noisy(c, nm, 120, 4).counts.items())


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
    mats.append(PAULI["X"])

    def states():
        yield rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        yield rng.normal(size=(3, 1 << q)) + 1j * rng.normal(size=(3, 1 << q))
        # every other row of a batch, not contiguous: the kernel splits
        # only the last axis and so never copies
        batch = rng.normal(size=(5, 1 << q)) + 1j * rng.normal(size=(5, 1 << q))
        yield batch[::2]

    for mat in mats:
        for k in range(1, q + 1):
            for state in states():
                expected = state.copy()
                engine._apply_1q(state, mat, k, True)
                general_apply_1q(expected, mat, k, True)
                assert state.tobytes() == expected.tobytes()


def test_outputs_unchanged_through_general_kernel(
    triangle_model, square_fixture_model, monkeypatch
):
    # single gates go through _apply_1q: the H row, and RX and RY gates
    # that make no whole mixer layer, here on 10 qubits
    rng = np.random.default_rng(10)
    gates = [Gate("H", (k,)) for k in range(1, 11)]
    for k in range(1, 11):
        j = k % 10 + 1
        gates += [
            Gate("RX", (k,), float(rng.uniform(-7, 7))),
            Gate("CNOT", (k, j)),
            Gate("RY", (j,), float(rng.uniform(-7, 7))),
            Gate("RZ", (k,), float(rng.uniform(-7, 7))),
        ]
    ring = ParamCircuit(10, tuple(gates), 0)

    def outputs():
        solves = [
            qaoa_solve(triangle_model, 2, "RX").to_json(),
            qaoa_solve(triangle_model, 2, "RY").to_json(),
            qaoa_solve(
                square_fixture_model, 8, "RX", cfg=OptimizerConfig(max_evals=300)
            ).to_json(),
        ]
        c = seeded_circuit(square_fixture_model, 8, "RX", 5)
        counts = simulate_noisy(c, BENCH_NOISE, 100, 9).counts
        ring_counts = simulate_noisy(ring, BENCH_NOISE, 100, 9).counts
        return (
            solves,
            list(counts.items()),
            simulate(ring).amplitudes.tobytes(),
            list(ring_counts.items()),
        )

    fast = outputs()
    exchanges = []

    def general(states, m, k, exchange):
        exchanges.append(exchange)
        general_apply_1q(states, m, k, exchange)

    monkeypatch.setattr(engine, "_apply_1q", general)
    assert outputs() == fast
    assert exchanges.count(True) >= 10 and exchanges.count(False) >= 20
