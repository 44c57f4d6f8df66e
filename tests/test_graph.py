import itertools
from pathlib import Path

import pytest

from hamqaoa import (
    decode,
    encode_tour,
    make_graph,
    non_edges,
    parse_graph,
    qubit_index,
    qubit_pair,
    qubo_oracle,
)
from hamqaoa.errors import (
    EndpointOutOfRange,
    IndexOutOfRange,
    InvalidOrder,
    LengthMismatch,
    MalformedInput,
)
from hamqaoa.hamiltonian import index_to_bits


def test_parse_triangle(triangle_file):
    g = parse_graph(Path(triangle_file).read_text())
    assert g.n == 3
    assert len(g.edges) == 3


def test_parse_dedups_symmetric_edges():
    g = parse_graph('{"n":4,"edges":[[1,2],[2,1]]}')
    assert g.edges == frozenset({(1, 2)})


def test_parse_rejects_small_order():
    with pytest.raises(InvalidOrder):
        parse_graph('{"n":2,"edges":[[1,2]]}')


def test_parse_rejects_bad_endpoint():
    with pytest.raises(EndpointOutOfRange):
        parse_graph('{"n":3,"edges":[[1,5]]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1,2]",
        '{"n":3}',
        '{"n":3,"edges":[[1]]}',
        '{"n":3,"edges":[[2,2]]}',
        # JSON true is not the vertex 1
        '{"n":3,"edges":[[true,2],[2,3],[1,3]]}',
        '{"n":true,"edges":[]}',
        '{"n":3,"edges":[[1,false]]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedInput):
        parse_graph(text)


def test_non_edges(triangle, square):
    assert non_edges(triangle) == set()
    assert non_edges(square) == {(1, 3), (2, 4)}
    k4 = make_graph(4, itertools.combinations(range(1, 5), 2))
    assert non_edges(k4) == set()


@pytest.mark.parametrize(
    "v,j,n,expected", [(2, 2, 3, 1), (3, 3, 3, 4), (4, 4, 4, 9)]
)
def test_qubit_index_values(v, j, n, expected):
    assert qubit_index(v, j, n) == expected


@pytest.mark.parametrize("v,j", [(1, 2), (2, 1), (1, 1)])
def test_qubit_index_rejects_fixed_variables(v, j):
    with pytest.raises(IndexOutOfRange):
        qubit_index(v, j, 4)


@pytest.mark.parametrize("i", [0, 5, -1])
def test_qubit_pair_rejects_out_of_range(i):
    with pytest.raises(IndexOutOfRange):
        qubit_pair(i, 3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_qubit_index_bijection(n):
    seen = set()
    for v in range(2, n + 1):
        for j in range(2, n + 1):
            i = qubit_index(v, j, n)
            assert 1 <= i <= (n - 1) ** 2
            assert qubit_pair(i, n) == (v, j)
            seen.add(i)
    assert seen == set(range(1, (n - 1) ** 2 + 1))


def test_decode_triangle_solutions(triangle):
    assert decode("1001", triangle).order == (1, 2, 3)
    assert decode("0110", triangle).order == (1, 3, 2)


def test_decode_all_zero_reports_position(triangle):
    d = decode("0000", triangle)
    assert not d.valid
    assert d.violation == "position-uniqueness"
    assert d.offending[0] == 2


def test_decode_length_mismatch(triangle):
    with pytest.raises(LengthMismatch):
        decode("000", triangle)


def test_decode_rejects_non_binary(triangle):
    with pytest.raises(MalformedInput, match="only '0' and '1'"):
        decode("10a1", triangle)


@pytest.mark.parametrize("order", [(2, 1, 3), (1, 2), (1, 2, 2), (1, 2, 4)])
def test_encode_tour_rejects_bad_order(order, triangle):
    with pytest.raises(MalformedInput, match="not a vertex order"):
        encode_tour(order, triangle)


def test_decode_edge_violation():
    path = make_graph(3, [(1, 2), (2, 3)])
    d = decode("1001", path)  # needs edge {3, 1}
    assert not d.valid
    assert d.violation == "edge-validity"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_encode_decode_round_trip(n):
    complete = make_graph(n, itertools.combinations(range(1, n + 1), 2))
    for perm in itertools.permutations(range(2, n + 1)):
        order = (1, *perm)
        assert decode(encode_tour(order, complete), complete).order == order


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(1, 2), (2, 3), (3, 1)]),
        (3, [(1, 2), (2, 3)]),
        (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        (4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
    ],
)
def test_decode_valid_iff_oracle_zero(n, edges):
    g = make_graph(n, edges)
    for i in range(2 ** g.num_qubits):
        bits = index_to_bits(i, g.num_qubits)
        assert decode(bits, g).valid == (qubo_oracle(g, 1, bits) == 0)
