import math

import numpy as np
import pytest

from hamqaoa import (
    DiagonalHamiltonian,
    NoiseModel,
    Statevector,
    bind,
    build_ansatz,
    expectation,
    qaoa_state,
    sample,
    simulate,
    simulate_noisy,
)
from hamqaoa.circuit import Gate, ParamCircuit
from hamqaoa.errors import DimensionMismatch, TooManyQubits, UnboundParameter
from oracles import dense_statevector, random_circuit


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


def test_simulate_qubit_cap():
    c = ParamCircuit(30, (Gate("H", (1,)),), 0)
    with pytest.raises(TooManyQubits):
        simulate(c)


def test_qaoa_state_matches_gate_level(triangle_model, square_fixture_model):
    for m, p, mixer in [(triangle_model, 2, "RX"), (square_fixture_model, 3, "RY")]:
        h = DiagonalHamiltonian.from_ising(m)
        rng = np.random.default_rng(5)
        gammas, betas = rng.random(p), rng.random(p)
        fast = qaoa_state(h, gammas, betas, mixer).amplitudes
        slow = simulate(bind(build_ansatz(m, p, mixer), gammas, betas)).amplitudes
        assert np.max(np.abs(fast - slow)) <= 1e-10


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


def test_noiseless_trajectories_equal_sampling(triangle_model):
    c = bind(build_ansatz(triangle_model, 2), [0.4, 0.1], [0.3, 0.7])
    d_plain = sample(simulate(c), 10000, seed=42)
    d_traj = simulate_noisy(c, NoiseModel(0, 0, 0), 10000, seed=42)
    assert d_plain.counts == d_traj.counts


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
