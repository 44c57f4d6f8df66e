import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hamqaoa import (
    QuboPolynomial,
    assemble,
    edge_validity,
    energy_of,
    from_term_list,
    make_graph,
    position_uniqueness,
    qubit_index,
    strip_constant,
    to_ising,
    to_term_list,
    vertex_uniqueness,
)
from hamqaoa.errors import LengthMismatch, MalformedInput, NonPositiveWeight, UnmappedVariable
from hamqaoa.hamiltonian import index_to_bits
from oracles import fraction_to_ising, rewrapping_compile


def assign_from_bits(bits, n):
    return {
        (v, j): int(bits[qubit_index(v, j, n) - 1])
        for v in range(2, n + 1)
        for j in range(2, n + 1)
    }


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, k):
            yield make_graph(n, subset)


def test_vertex_uniqueness_triangle_expansion():
    poly = vertex_uniqueness(3)
    assert poly.constant == 2
    assert poly.linear == {(v, j): -1 for v in (2, 3) for j in (2, 3)}
    assert poly.quadratic == {((2, 2), (2, 3)): 2, ((3, 2), (3, 3)): 2}


def test_vertex_uniqueness_values():
    poly = vertex_uniqueness(3)
    assert poly.value({(2, 2): 1, (2, 3): 0, (3, 2): 0, (3, 3): 1}) == 0
    assert vertex_uniqueness(4).value(assign_from_bits("0" * 9, 4)) == 3


def test_position_uniqueness_triangle():
    poly = position_uniqueness(3)
    assert poly.constant == 2
    assert poly.quadratic == {((2, 2), (3, 2)): 2, ((2, 3), (3, 3)): 2}
    assert poly.value({(2, 2): 1, (3, 2): 1, (2, 3): 0, (3, 3): 0}) == 2


def test_position_uniqueness_identity_assignment():
    poly = position_uniqueness(4)
    assign = {(v, j): 1 if v == j else 0 for v in (2, 3, 4) for j in (2, 3, 4)}
    assert poly.value(assign) == 0


def test_edge_validity_triangle_is_zero(triangle):
    assert edge_validity(triangle) == QuboPolynomial()


def test_edge_validity_square(square):
    poly = edge_validity(square)
    assert poly.constant == 0
    assert poly.linear == {(3, 2): 1, (3, 4): 1}
    assert poly.quadratic == {
        ((2, 2), (4, 3)): 1,
        ((2, 3), (4, 4)): 1,
        ((2, 3), (4, 2)): 1,
        ((2, 4), (4, 3)): 1,
    }


def test_edge_validity_path():
    poly = edge_validity(make_graph(3, [(1, 2), (2, 3)]))
    assert poly.linear == {(3, 2): 1, (3, 3): 1}
    assert poly.quadratic == {}


def test_assemble_values(triangle, square):
    t = assemble(triangle)
    assert t.value(assign_from_bits("1001", 3)) == 0
    assert t.value(assign_from_bits("0000", 3)) == 4
    s = assemble(square)
    assert s.value(assign_from_bits("100010001", 4)) == 0


def test_assemble_rejects_nonpositive_weight(triangle):
    with pytest.raises(NonPositiveWeight):
        assemble(triangle, weight=0)


@pytest.mark.parametrize("rescale", [0, -2])
def test_strip_constant_rejects_nonpositive_rescale(rescale, triangle):
    with pytest.raises(NonPositiveWeight, match="rescale"):
        strip_constant(to_ising(assemble(triangle), 3), rescale=rescale)


def test_to_ising_triangle_matches_hand_expansion(triangle):
    m = to_ising(assemble(triangle), 3)
    assert m.constant == 2
    assert m.linear == {}
    half = Fraction(1, 2)
    assert m.quadratic == {(1, 2): half, (3, 4): half, (1, 3): half, (2, 4): half}


def test_to_ising_trivial_cases():
    empty = to_ising(QuboPolynomial(), 3)
    assert empty.constant == 0 and not empty.linear and not empty.quadratic
    single = to_ising(QuboPolynomial(0, {(2, 2): 1}, {}), 3)
    assert single.constant == Fraction(1, 2)
    assert single.linear == {1: Fraction(-1, 2)}


def test_to_ising_rejects_unmapped_variable():
    with pytest.raises(UnmappedVariable):
        to_ising(QuboPolynomial(0, {(5, 2): 1}, {}), 3)


def test_strip_constant_rescale_matches_unit_coefficients(triangle):
    m = strip_constant(to_ising(assemble(triangle), 3), rescale=2)
    assert m.constant == 0
    assert m.quadratic == {(1, 2): 1, (3, 4): 1, (1, 3): 1, (2, 4): 1}
    empty = strip_constant(to_ising(QuboPolynomial(), 3))
    assert not empty.linear and not empty.quadratic


def test_affine_equivalence_exhaustive():
    for n, edges in [
        (3, [(1, 2), (2, 3), (3, 1)]),
        (3, [(1, 2), (2, 3)]),
        (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
    ]:
        g = make_graph(n, edges)
        q = assemble(g)
        m = to_ising(q, n)
        for i in range(2 ** g.num_qubits):
            bits = index_to_bits(i, g.num_qubits)
            assert m.energy(bits) == q.value(assign_from_bits(bits, n))


@pytest.mark.parametrize("bits", ["x00z", "1021", "10 1"])
def test_ising_energy_refuses_non_binary(bits, triangle_model):
    with pytest.raises(MalformedInput, match="only '0' and '1'"):
        triangle_model.energy(bits)


def test_ising_energy_refuses_a_wrong_length(triangle_model):
    for bits in ["100", "10010"]:
        with pytest.raises(LengthMismatch):
            triangle_model.energy(bits)


def test_strip_constant_preserves_ordering(square):
    m = to_ising(assemble(square), 4)
    stripped = strip_constant(m, rescale=3)
    energies = [(m.energy(index_to_bits(i, 9)), i) for i in range(512)]
    rescaled = [(stripped.energy(index_to_bits(i, 9)), i) for i in range(512)]
    assert [i for _, i in sorted(energies)] == [i for _, i in sorted(rescaled)]


@given(st.data())
def test_penalty_nonnegative(data):
    n = data.draw(st.integers(3, 4))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = make_graph(n, edges)
    bits = data.draw(
        st.text(alphabet="01", min_size=g.num_qubits, max_size=g.num_qubits)
    )
    value = assemble(g).value(assign_from_bits(bits, n))
    assert value >= 0


def test_relabeling_invariance():
    # relabel vertices of an n=4 graph by a permutation fixing vertex 1
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    perm = {1: 1, 2: 4, 3: 2, 4: 3}
    relabeled = make_graph(4, [(perm[u], perm[v]) for u, v in g.edges])
    m = to_ising(assemble(g), 4)
    m2 = to_ising(assemble(relabeled), 4)
    for i in range(512):
        bits = index_to_bits(i, 9)
        permuted = ["0"] * 9
        for v in (2, 3, 4):
            for j in (2, 3, 4):
                permuted[qubit_index(perm[v], j, 4) - 1] = bits[
                    qubit_index(v, j, 4) - 1
                ]
        assert m.energy(bits) == m2.energy("".join(permuted))


def test_to_term_list_triangle(triangle_model):
    terms = to_term_list(triangle_model)
    assert set(terms) == {("ZZII", 1), ("IIZZ", 1), ("ZIZI", 1), ("IZIZ", 1)}


def test_to_term_list_empty():
    assert to_term_list(to_ising(QuboPolynomial(), 3)) == []


def test_to_term_list_square_fixture_round_trip(square_fixture_model):
    from importlib import resources

    raw = json.loads(
        resources.files("hamqaoa.data").joinpath("square_reference.json").read_text()
    )
    expected = {(t["pauli"], Fraction(t["coeff"])) for t in raw["terms"]}
    produced = set(to_term_list(square_fixture_model))
    assert produced == expected
    assert len(produced) == 31


def test_from_term_list_infers_width():
    m = from_term_list([("ZZ", 1), ("IZ", -2)])
    assert m.num_qubits == 2
    assert m.linear == {2: -2}
    assert m.quadratic == {(1, 2): 1}


@pytest.mark.parametrize("num_qubits", [2.5, "3", True, -1])
def test_from_term_list_refuses_a_bad_width(num_qubits):
    with pytest.raises(MalformedInput, match="non-negative integer"):
        from_term_list([], num_qubits=num_qubits)


@pytest.mark.parametrize(
    "terms, constant, name",
    [([("ZZ", True)], 0, "coeff of 'ZZ'"), ([("IZ", False)], 0, "coeff of 'IZ'"),
     ([("ZZ", 1)], True, "constant"), ([("ZZ", "1/3")], 0, "coeff of 'ZZ'"),
     ([("ZZ", 1)], "2", "constant")],
)
def test_from_term_list_refuses_a_bool_coefficient(terms, constant, name):
    with pytest.raises(MalformedInput, match=f"{name} must be a number"):
        from_term_list(terms, num_qubits=2, constant=constant)


def test_from_term_list_takes_ints_floats_and_fractions():
    m = from_term_list([("ZZ", 1), ("ZI", 0.5), ("IZ", Fraction(1, 3))], constant=2.0)
    assert (m.constant, m.linear, m.quadratic) == (2, {1: 0.5, 2: Fraction(1, 3)}, {(1, 2): 1})


def _graphs_for_compiler_oracle():
    yield from all_graphs(3)
    yield from all_graphs(4)
    pairs = list(itertools.combinations(range(1, 6), 2))
    rng = random.Random(5)
    for _ in range(64):
        yield make_graph(5, [e for e in pairs if rng.random() < 0.5])
    for n in (6, 7, 8):
        yield make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)])
    pairs = list(itertools.combinations(range(1, 7), 2))
    rng = random.Random(6)
    for _ in range(4):
        yield make_graph(6, [e for e in pairs if rng.random() < 0.5])


def test_compile_matches_rewrapping_oracle():
    for g in _graphs_for_compiler_oracle():
        for weight in (1, 2, Fraction(3, 2), 0.1):
            m = to_ising(assemble(g, weight), g.n)
            constant, linear, quadratic = rewrapping_compile(g, weight)
            assert m.constant == constant
            assert m.linear == linear and list(m.linear) == list(linear)
            assert m.quadratic == quadratic and list(m.quadratic) == list(quadratic)
            values = (m.constant, *m.linear.values(), *m.quadratic.values())
            assert all(type(v) is Fraction for v in values)


# hand-made polynomials whose coefficients have mixed denominators, so the
# compiler's common denominator is more than the weight's
LCM_POLYNOMIALS = {
    "thirds-and-sixths": (3, QuboPolynomial(
        Fraction(1, 3),
        {(2, 2): Fraction(1, 6), (3, 3): Fraction(-2, 3)},
        {((2, 2), (3, 3)): Fraction(1, 3), ((2, 3), (3, 2)): Fraction(-1, 6)},
    )),
    "binary-float": (3, QuboPolynomial(
        Fraction(0.1),
        {(2, 3): Fraction(1, 3), (3, 2): Fraction(0.1)},
        {((2, 2), (2, 3)): Fraction(-0.1), ((2, 3), (3, 3)): Fraction(1, 6)},
    )),
    # qubit 1's linear coefficient is 1/12 - 1/12
    "linear-cancels": (3, QuboPolynomial(
        1, {(2, 2): Fraction(-1, 6), (3, 3): Fraction(0.1)}, {((2, 2), (2, 3)): Fraction(1, 3)}
    )),
    # one pair given in both orders, with opposite coefficients
    "quadratic-cancels": (4, QuboPolynomial(
        0,
        {},
        {((2, 2), (3, 3)): Fraction(1, 6), ((3, 3), (2, 2)): Fraction(-1, 6),
         ((2, 3), (4, 4)): Fraction(0.1)},
    )),
    "constant-cancels": (3, QuboPolynomial(Fraction(-1, 6), {(2, 2): Fraction(1, 3)}, {})),
}


@pytest.mark.parametrize("name", LCM_POLYNOMIALS)
def test_to_ising_matches_fraction_oracle_on_mixed_denominators(name):
    n, poly = LCM_POLYNOMIALS[name]
    m = to_ising(poly, n)
    constant, linear, quadratic = fraction_to_ising(poly, n)
    assert m.constant == constant
    assert m.linear == linear and list(m.linear) == list(linear)
    assert m.quadratic == quadratic and list(m.quadratic) == list(quadratic)
    values = (m.constant, *m.linear.values(), *m.quadratic.values())
    assert all(type(v) is Fraction for v in values)
    for i in range(2 ** m.num_qubits):
        bits = index_to_bits(i, m.num_qubits)
        assert m.energy(bits) == poly.value(assign_from_bits(bits, n))
