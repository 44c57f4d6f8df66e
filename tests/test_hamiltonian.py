import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hamqaoa
from hamqaoa import (
    DiagonalHamiltonian,
    assemble,
    energy_of,
    full_spectrum,
    make_graph,
    qubo_oracle,
    strip_constant,
    to_ising,
)
from hamqaoa.errors import LengthMismatch, MalformedInput, TooManyQubits
from hamqaoa.cli import reference_square_model
from hamqaoa.hamiltonian import _bit_strings, index_to_bits
from oracles import grouped_spectrum, parity_energies


def test_energy_of_triangle_model(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    assert energy_of(h, "1001") == -4
    assert energy_of(h, "0000") == 4


def test_energy_of_square_fixture(square_fixture_model):
    h = DiagonalHamiltonian.from_ising(square_fixture_model)
    assert energy_of(h, "100010001") == -20
    assert energy_of(h, "001010100") == -20


def test_energy_of_length_mismatch(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    with pytest.raises(LengthMismatch):
        energy_of(h, "10")


@pytest.mark.parametrize("bits", ["x00z", "1021", "10 1"])
def test_energy_of_refuses_non_binary(bits, triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    with pytest.raises(MalformedInput, match="only '0' and '1'"):
        energy_of(h, bits)


def test_energy_of_refuses_past_the_qubit_cap_without_allocating(monkeypatch):
    def must_not_run(self):
        raise AssertionError("energies() ran before the qubit cap was checked")

    monkeypatch.setattr(DiagonalHamiltonian, "energies", must_not_run)
    h = DiagonalHamiltonian(40, ((1, 1.0),))
    tracemalloc.start()
    try:
        with pytest.raises(TooManyQubits, match="40 qubits"):
            energy_of(h, "1" + "0" * 39)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "q, terms, constant, match",
    [
        (-1, (), 0.0, "num_qubits"),
        (True, ((1, 1.0),), 0.0, "num_qubits"),
        (2.5, (), 0.0, "num_qubits"),
        (2, ((0b100, 1.0),), 0.0, "outside"),
        (1, ((1.0, 1.0),), 0.0, "mask must be an integer"),
        (1, ((True, 1.0),), 0.0, "mask must be an integer"),
        (2, ((-1, 1.0),), 0.0, "outside"),
        (2, ((0b1, 1.0),), float("nan"), "constant"),
        (2, ((0b1, 1.0),), float("-inf"), "constant"),
        (2, ((0b1, float("inf")),), 0.0, "non-finite"),
        (2, ((0b11, float("nan")),), 0.0, "non-finite"),
    ],
    ids=[
        "negative-qubits",
        "bool-qubits",
        "fractional-qubits",
        "mask-past-the-register",
        "float-mask",
        "bool-mask",
        "negative-mask",
        "nan-constant",
        "infinite-constant",
        "infinite-coefficient",
        "nan-coefficient",
    ],
)
def test_hamiltonian_refuses_what_no_register_holds(q, terms, constant, match):
    with pytest.raises(ValueError, match=match):
        DiagonalHamiltonian(q, terms, constant)


def test_hamiltonian_takes_numpy_integers():
    h = DiagonalHamiltonian(np.int64(2), ((np.uint8(0b11), 1.0),))
    assert h.energies().tolist() == [1.0, -1.0, -1.0, 1.0]


def test_level_table_gathers_the_shifted_energies_exactly(square_fixture_model):
    h = DiagonalHamiltonian.from_ising(square_fixture_model)
    levels, inverse = h.shifted_levels()
    assert levels[inverse].tobytes() == (h.energies() - h.constant).tobytes()


def test_triangle_spectrum(triangle_model):
    spec = full_spectrum(DiagonalHamiltonian.from_ising(triangle_model))
    assert spec.ground_energy == -4
    assert spec.ground_states == frozenset({"0110", "1001"})
    assert spec.gap == 4


def test_square_fixture_spectrum(square_fixture_model):
    spec = full_spectrum(DiagonalHamiltonian.from_ising(square_fixture_model))
    assert spec.ground_energy == -20
    assert spec.ground_states == frozenset({"001010100", "100010001"})


def test_single_z_spectrum():
    h = DiagonalHamiltonian(1, ((1, 1.0),))
    spec = full_spectrum(h)
    assert spec.ground_energy == -1
    assert spec.ground_states == frozenset({"1"})
    assert spec.gap == 2


def test_spectrum_completeness(square_fixture_model):
    spec = full_spectrum(DiagonalHamiltonian.from_ising(square_fixture_model))
    assert spec.num_states == 512
    seen = [s for _, states in spec.levels for s in states]
    assert len(set(seen)) == 512


def test_spectrum_matches_grouping_oracle(triangle_model, square_fixture_model):
    path = make_graph(3, [(1, 2), (2, 3)])
    pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for m in (
        triangle_model,
        to_ising(assemble(path), 3),
        square_fixture_model,
        to_ising(assemble(pentagon), 5),
    ):
        h = DiagonalHamiltonian.from_ising(m)
        spec = full_spectrum(h)
        ref = grouped_spectrum(h)
        assert spec.levels == ref["levels"]
        assert spec.ground_energy == ref["ground_energy"]
        assert spec.ground_states == ref["ground_states"]
        assert spec.gap == ref["gap"]
        assert spec.mean_energy() == ref["mean_energy"]


def test_energies_computed_once_and_read_only(triangle_model):
    h = DiagonalHamiltonian.from_ising(triangle_model)
    first = h.energies()
    assert h.energies() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert h == DiagonalHamiltonian.from_ising(triangle_model)


def _compiled(n, edges, weight):
    return DiagonalHamiltonian.from_ising(to_ising(assemble(make_graph(n, edges), weight), n))


def _random_terms(q, num_terms, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        (int(rng.integers(0, 1 << q)), float(rng.normal())) for _ in range(num_terms)
    )


def _full_ising(q, seed):
    """Every linear and pair term of q qubits, with normal coefficients."""
    rng = np.random.default_rng(seed)
    masks = [1 << i for i in range(q)]
    masks += [(1 << i) | (1 << j) for i in range(q) for j in range(i + 1, q)]
    terms = tuple((m, float(rng.normal())) for m in masks)
    return DiagonalHamiltonian(q, terms, float(rng.normal()))


def _rescaled(n, edges, rescale):
    m = to_ising(assemble(make_graph(n, edges)), n)
    return DiagonalHamiltonian.from_ising(strip_constant(m, rescale=rescale))


def _energy_cases():
    graphs = {
        "triangle": (3, [(1, 2), (2, 3), (1, 3)]),
        "square": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        "pentagon": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    }
    for name, (n, edges) in graphs.items():
        for weight in (1, Fraction(3, 2), Fraction(1, 10)):
            yield f"{name}-w{weight}", lambda n=n, e=edges, w=weight: _compiled(n, e, w)
        yield f"{name}-rescale0.3", lambda n=n, e=edges: _rescaled(n, e, 0.3)
    yield "square-fixture", lambda: DiagonalHamiltonian.from_ising(reference_square_model())
    for q in (0, 1, 2, 3, 9, 16, 20):
        yield f"random-q{q}", lambda q=q: DiagonalHamiltonian(
            q, _random_terms(q, 2 * q + 1, q), 0.25 * q - 1.0
        )
    # q = 9 splits into 4 low and 5 high index bits
    masks = {
        "low-half-masks": (0b1, 0b1010, 0b1111),
        "high-half-masks": (0b10000, 0b110010000, 0b111110000),
        "crossing-masks": (0b11000, 0b100000001, 0b111111111),
    }
    for name, m in masks.items():
        yield name, lambda m=m: DiagonalHamiltonian(9, tuple(zip(m, (0.5, -1.25, 3.0))))
    yield "zero-coefficients", lambda: DiagonalHamiltonian(
        3, ((0b1, 0.0), (0b110, -0.0), (0b11, 1.5)), 2.0
    )
    yield "negative-zero-constant", lambda: DiagonalHamiltonian(
        4, ((0b1001, 0.0), (0b10, -0.0)), -0.0
    )
    yield "no-terms", lambda: DiagonalHamiltonian(5, (), -0.0)
    # below 6 qubits the register is built as 6 qubits and cut to 2^q
    for q in range(9):
        yield f"random-q{q}-t{8 * q + 2}", lambda q=q: DiagonalHamiltonian(
            q, _random_terms(q, 8 * q + 2, 100 + q), 0.75 - 0.5 * q
        )
    # 136 terms at q = 16 take 8 high rows per GEMM, 32 GEMMs in all
    for q in (12, 16):
        yield f"full-ising-q{q}", lambda q=q: _full_ising(q, q)
    # some BLAS kernels split a dot product from 257 summands: the terms past
    # the 255th are added after the GEMM
    for t in (256, 300):
        yield f"random-q16-t{t}", lambda t=t: DiagonalHamiltonian(
            16, _random_terms(16, t, t), -0.5
        )


ENERGY_CASES = dict(_energy_cases())
# the GEMM's sums start at +0.0, so where the per-term oracle ends on -0.0
# (a -0.0 constant plus zeros) the vector reads +0.0
SIGNED_ZERO_CASES = {"negative-zero-constant", "no-terms"}


@pytest.mark.parametrize("name", ENERGY_CASES)
def test_energies_match_parity_oracle(name):
    h = ENERGY_CASES[name]()
    energies = h.energies()
    expected = parity_energies(h)
    if name in SIGNED_ZERO_CASES:
        expected = expected + 0.0
        assert not np.signbit(energies).any()
    assert energies.tobytes() == expected.tobytes()
    assert h.energies() is energies
    assert not energies.flags.writeable
    assert energies.flags.owndata


# energies() runs GEMMs through OpenBLAS; their bytes must not depend on
# its thread count
_ENERGIES_BY_THREADS = """
import hashlib
from test_hamiltonian import ENERGY_CASES
for name, build in ENERGY_CASES.items():
    print(name, hashlib.sha256(build().energies().tobytes()).hexdigest())
"""


def test_energies_do_not_depend_on_the_blas_thread_count():
    path = os.pathsep.join([str(Path(hamqaoa.__file__).parents[1]), str(Path(__file__).parent)])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", _ENERGIES_BY_THREADS],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


@pytest.mark.parametrize("q", [0, 1, 4, 9, 16])
def test_bit_strings_match_index_to_bits(q):
    rng = np.random.default_rng(q)
    indices = np.r_[np.arange(min(1 << q, 64)), rng.integers(0, 1 << q, 200)]
    assert _bit_strings(indices, q) == [index_to_bits(int(i), q) for i in indices]
    assert _bit_strings(indices[:0], q) == []


def test_spectrum_qubit_cap():
    h = DiagonalHamiltonian(25, ((1, 1.0),))
    with pytest.raises(TooManyQubits):
        full_spectrum(h)


def test_energy_bounds(square_fixture_model):
    h = DiagonalHamiltonian.from_ising(square_fixture_model)
    bound = abs(h.constant) + sum(abs(c) for _, c in h.terms)
    energies = h.energies()
    assert max(abs(energies.min()), abs(energies.max())) <= bound


def test_qubo_oracle_examples(triangle, square):
    assert qubo_oracle(triangle, 1, "1001") == 0
    assert qubo_oracle(triangle, 1, "0000") == 4
    m = to_ising(assemble(square), 4)
    value = qubo_oracle(square, 1, "110010001")
    assert value > 0
    assert value == m.energy("110010001")


def test_qubo_oracle_weight_scaling(triangle):
    assert qubo_oracle(triangle, 3, "0000") == 12


def test_qubo_oracle_length_mismatch(triangle):
    with pytest.raises(LengthMismatch):
        qubo_oracle(triangle, 1, "0")


def test_oracle_matches_compiler_exhaustively(triangle, square):
    for g in (triangle, square):
        h = DiagonalHamiltonian.from_ising(to_ising(assemble(g), g.n))
        for i in range(2 ** g.num_qubits):
            bits = index_to_bits(i, g.num_qubits)
            assert abs(energy_of(h, bits) - qubo_oracle(g, 1, bits)) <= 1e-12


def test_ground_states_are_cycle_encodings(triangle, square):
    from hamqaoa import decode

    for g in (triangle, square):
        spec = full_spectrum(DiagonalHamiltonian.from_ising(to_ising(assemble(g), g.n)))
        assert len(spec.ground_states) == 2
        assert all(decode(bits, g).valid for bits in spec.ground_states)


def test_path_graph_has_positive_ground_energy():
    path = make_graph(3, [(1, 2), (2, 3)])
    spec = full_spectrum(DiagonalHamiltonian.from_ising(to_ising(assemble(path), 3)))
    assert spec.ground_energy > 0  # no Hamiltonian cycle exists
