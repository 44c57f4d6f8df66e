"""Undirected graphs and the vertex-1-fixed cycle encoding.

A cycle on n vertices is encoded with binary variables x[v, j] meaning
"vertex v sits at position j of the tour".  Vertex 1 is pinned to
position 1, so only v, j in 2..n are free, giving (n-1)^2 qubits.
Qubit i corresponds to the pair returned by ``qubit_pair(i, n)``, and
assignment strings list qubit values left to right starting at qubit 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    EndpointOutOfRange,
    IndexOutOfRange,
    InvalidOrder,
    LengthMismatch,
    MalformedInput,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, edges stored with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    @property
    def num_qubits(self) -> int:
        return (self.n - 1) ** 2

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def make_graph(n: int, edges) -> Graph:
    """Build a canonicalized Graph, validating order and endpoints."""
    if n < 3:
        raise InvalidOrder(f"need n >= 3, got n={n}")
    canon = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise EndpointOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise MalformedInput(f"self-loop at vertex {u}")
        canon.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=frozenset(canon))


def parse_graph(text: str) -> Graph:
    """Parse a graph from its JSON file format {"n": int, "edges": [[u,v],...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedInput('expected an object with "n" and "edges"')
    n = obj["n"]
    edges = obj["edges"]
    # JSON true and false load as bools, which are ints to isinstance
    if type(n) is not int or not isinstance(edges, list):
        raise MalformedInput('"n" must be an integer and "edges" a list')
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise MalformedInput(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return make_graph(n, pairs)


def non_edges(g: Graph) -> set[tuple[int, int]]:
    """All unordered pairs {u, v}, u != v, absent from g."""
    return {
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in g.edges
    }


def qubit_index(v: int, j: int, n: int) -> int:
    """Qubit (1-based) holding x[v, j]; defined for v, j in 2..n only."""
    if not (2 <= v <= n and 2 <= j <= n):
        raise IndexOutOfRange(f"x[{v},{j}] is fixed by convention, no qubit")
    return (v - 2) * (n - 1) + (j - 1)


def qubit_pair(i: int, n: int) -> tuple[int, int]:
    """Inverse of qubit_index: the (v, j) pair encoded by qubit i."""
    if not (1 <= i <= (n - 1) ** 2):
        raise IndexOutOfRange(f"qubit {i} outside 1..{(n - 1) ** 2}")
    v = (i - 1) // (n - 1) + 2
    j = (i - 1) % (n - 1) + 2
    return v, j


@dataclass(frozen=True)
class DecodedTour:
    """Either a tour (order starts at vertex 1) or a constraint violation."""

    order: tuple[int, ...] | None
    violation: str | None = None
    offending: tuple[int, ...] = field(default=())

    @property
    def valid(self) -> bool:
        return self.order is not None


def check_assignment(bits: str, num_qubits: int) -> None:
    """Refuse an assignment string of the wrong length or not binary."""
    if len(bits) != num_qubits:
        raise LengthMismatch(f"expected {num_qubits} bits, got {len(bits)}")
    if any(c not in "01" for c in bits):
        raise MalformedInput("assignment may contain only '0' and '1'")


def decode(bits: str, g: Graph) -> DecodedTour:
    """Decode an assignment string back to a candidate tour.

    Positions are resolved first (each column must select exactly one
    vertex), then vertex uniqueness, then edge validity including the
    wrap-around edges through vertex 1.
    """
    check_assignment(bits, g.num_qubits)
    n = g.n

    def x(v: int, j: int) -> int:
        return int(bits[qubit_index(v, j, n) - 1])

    order = [1]
    for j in range(2, n + 1):
        here = [v for v in range(2, n + 1) if x(v, j) == 1]
        if len(here) != 1:
            return DecodedTour(None, "position-uniqueness", (j, *here))
        order.append(here[0])
    for v in range(2, n + 1):
        count = sum(x(v, j) for j in range(2, n + 1))
        if count != 1:
            return DecodedTour(None, "vertex-uniqueness", (v,))
    for k in range(n):
        u, v = order[k], order[(k + 1) % n]
        if not g.has_edge(u, v):
            return DecodedTour(None, "edge-validity", (u, v))
    return DecodedTour(tuple(order))


def encode_tour(order, g: Graph) -> str:
    """Assignment string for a tour given as a vertex sequence starting at 1."""
    order = tuple(order)
    if len(order) != g.n or order[0] != 1 or set(order) != set(range(1, g.n + 1)):
        raise MalformedInput(f"not a vertex order starting at 1: {order}")
    bits = ["0"] * g.num_qubits
    for pos, v in enumerate(order[1:], start=2):
        bits[qubit_index(v, pos, g.n) - 1] = "1"
    return "".join(bits)
