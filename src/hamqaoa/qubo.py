"""QUBO penalty construction and compilation to a diagonal Ising model.

The cycle Hamiltonian is the sum of three penalties over the binary
variables x[v, j]:

  * vertex uniqueness:   sum_v (1 - sum_j x[v,j])^2
  * position uniqueness: sum_j (1 - sum_v x[v,j])^2
  * edge validity:       x[u,j] x[v,j+1] for every ordered non-edge (u,v),
                         plus the wrap-around terms through vertex 1

All coefficients stay exact rationals until the simulator boundary.
The Ising form follows from x -> (1 - Z)/2 with Z^2 = I.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, starmap
from numbers import Integral

from .errors import MalformedInput, NonPositiveWeight, UnmappedVariable
from .graph import Graph, check_assignment, non_edges, qubit_index

Var = tuple[int, int]  # (v, j) with v, j in 2..n

_MINUS_ONE = Fraction(-1)
_TWO = Fraction(2)


def _exact(c) -> Fraction:
    """c as a Fraction; a Fraction is kept as it is, not copied."""
    return c if type(c) is Fraction else Fraction(c)


class QuboPolynomial:
    """Multilinear polynomial over binary variables, exact coefficients.

    Zero coefficients are never stored; x^2 terms must be reduced to x
    by the caller (all constructors here do so).
    """

    __slots__ = ("constant", "linear", "quadratic")

    def __init__(self, constant=0, linear=None, quadratic=None):
        self.constant = _exact(constant)
        self.linear: dict[Var, Fraction] = {
            k: _exact(c) for k, c in (linear or {}).items() if c != 0
        }
        self.quadratic: dict[tuple[Var, Var], Fraction] = {
            k: _exact(c) for k, c in (quadratic or {}).items() if c != 0
        }

    def __add__(self, other: "QuboPolynomial") -> "QuboPolynomial":
        lin = dict(self.linear)
        for k, c in other.linear.items():
            lin[k] = lin[k] + c if k in lin else c
        quad = dict(self.quadratic)
        for k, c in other.quadratic.items():
            quad[k] = quad[k] + c if k in quad else c
        return QuboPolynomial(self.constant + other.constant, lin, quad)

    def scale(self, factor) -> "QuboPolynomial":
        f = Fraction(factor)
        return QuboPolynomial(
            self.constant * f,
            {k: c * f for k, c in self.linear.items()},
            {k: c * f for k, c in self.quadratic.items()},
        )

    def value(self, assign) -> Fraction:
        """Evaluate at a mapping (v, j) -> {0, 1}."""
        total = self.constant
        for k, c in self.linear.items():
            total += c * assign[k]
        for (a, b), c in self.quadratic.items():
            total += c * assign[a] * assign[b]
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuboPolynomial)
            and self.constant == other.constant
            and self.linear == other.linear
            and self.quadratic == other.quadratic
        )

    def __repr__(self) -> str:
        return (
            f"QuboPolynomial(constant={self.constant}, "
            f"linear={self.linear}, quadratic={self.quadratic})"
        )


def _pair(a: Var, b: Var) -> tuple[Var, Var]:
    return (a, b) if a < b else (b, a)


def _row_penalties(rows: list[list[Var]]) -> QuboPolynomial:
    # sum over rows of (1 - sum x_i)^2 with x^2 = x:
    # 1 - sum x_i + 2 sum_{i<j} x_i x_j.  No two rows share a variable,
    # so the rows' terms never meet and are collected in place.
    lin: dict[Var, Fraction] = {}
    quad: dict[tuple[Var, Var], Fraction] = {}
    for terms in rows:
        lin.update(dict.fromkeys(terms, _MINUS_ONE))
        quad.update(dict.fromkeys(starmap(_pair, combinations(terms, 2)), _TWO))
    return QuboPolynomial(len(rows), lin, quad)


def vertex_uniqueness(n: int) -> QuboPolynomial:
    """Each free vertex occupies exactly one position."""
    return _row_penalties([[(v, j) for j in range(2, n + 1)] for v in range(2, n + 1)])


def position_uniqueness(n: int) -> QuboPolynomial:
    """Each free position is occupied by exactly one vertex."""
    return _row_penalties([[(v, j) for v in range(2, n + 1)] for j in range(2, n + 1)])


def edge_validity(g: Graph) -> QuboPolynomial:
    """Penalty for consecutive tour slots holding a non-adjacent pair.

    Non-edge pairs are taken in both orders; pairs involving vertex 1
    reduce to linear boundary terms because x[1,1] = 1 and the rest of
    row/column 1 is identically 0.
    """
    n = g.n
    lin: dict[Var, int] = {}
    quad: dict[tuple[Var, Var], int] = {}
    for u, v in sorted(non_edges(g)):
        if u == 1:
            for k in (2, n):
                lin[(v, k)] = lin.get((v, k), 0) + 1
            continue
        for a, b in ((u, v), (v, u)):
            for j in range(2, n):
                key = _pair((a, j), (b, j + 1))
                quad[key] = quad.get(key, 0) + 1
    return QuboPolynomial(0, lin, quad)


def assemble(g: Graph, weight=1) -> QuboPolynomial:
    """Full penalty polynomial weight * (H1 + H2 + H3)."""
    if Fraction(weight) <= 0:
        raise NonPositiveWeight(f"penalty weight must be > 0, got {weight}")
    poly = vertex_uniqueness(g.n) + position_uniqueness(g.n) + edge_validity(g)
    return poly.scale(weight)


@dataclass(frozen=True)
class IsingModel:
    """Diagonal cost Hamiltonian: constant + sum a_k Z_k + sum b_jk Z_j Z_k."""

    num_qubits: int
    constant: Fraction
    linear: dict[int, Fraction]
    quadratic: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "linear", {k: c for k, c in self.linear.items() if c != 0}
        )
        object.__setattr__(
            self, "quadratic", {k: c for k, c in self.quadratic.items() if c != 0}
        )

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(qubits, coefficient) of every Z term: linear terms by qubit, then
        quadratic terms by pair.  This one order fixes the rounding of the
        float energies, the gate order and the term-list output."""
        return [((k,), self.linear[k]) for k in sorted(self.linear)] + [
            (jk, self.quadratic[jk]) for jk in sorted(self.quadratic)
        ]

    def energy(self, bits: str) -> Fraction:
        """Exact energy of a computational-basis state ('1' means Z = -1)."""
        check_assignment(bits, self.num_qubits)
        z = [1 if c == "0" else -1 for c in bits]
        total = self.constant
        for k, c in self.linear.items():
            total += c * z[k - 1]
        for (j, k), c in self.quadratic.items():
            total += c * z[j - 1] * z[k - 1]
        return total


def to_ising(q: QuboPolynomial, n: int) -> IsingModel:
    """Apply x -> (1 - Z)/2 and map variable (v, j) to its qubit.

    Exact affine equivalence: the Ising energy of any assignment equals
    the QUBO value of that assignment.
    """
    num_qubits = (n - 1) ** 2
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)

    def qb(var: Var) -> int:
        v, j = var
        if not (2 <= v <= n and 2 <= j <= n):
            raise UnmappedVariable(f"x[{v},{j}] outside the free block for n={n}")
        return qubit_index(v, j, n)

    constant = q.constant
    linear: dict[int, Fraction] = {}
    quadratic: dict[tuple[int, int], Fraction] = {}

    def sub(k: int, c: Fraction) -> None:
        linear[k] = linear[k] - c if k in linear else -c

    for var, c in q.linear.items():
        ch = c * half
        constant += ch
        sub(qb(var), ch)
    for (a, b), c in q.quadratic.items():
        ja, jb = qb(a), qb(b)
        cq = c * quarter
        constant += cq
        sub(ja, cq)
        sub(jb, cq)
        key = (min(ja, jb), max(ja, jb))
        quadratic[key] = quadratic[key] + cq if key in quadratic else cq
    return IsingModel(num_qubits, constant, linear, quadratic)


def strip_constant(m: IsingModel, rescale=1) -> IsingModel:
    """Drop the identity part and optionally rescale all coefficients.

    Eigenstate ordering is unchanged for any rescale > 0.
    """
    f = Fraction(rescale)
    if f <= 0:
        raise NonPositiveWeight(f"rescale must be > 0, got {rescale}")
    return IsingModel(
        m.num_qubits,
        Fraction(0),
        {k: c * f for k, c in m.linear.items()},
        {k: c * f for k, c in m.quadratic.items()},
    )


def to_term_list(m: IsingModel) -> list[tuple[str, Fraction]]:
    """Pauli strings over {I, Z}, leftmost character = qubit 1.

    In the order of ``IsingModel.terms``.
    """
    terms = []
    for qubits, c in m.terms():
        s = ["I"] * m.num_qubits
        for k in qubits:
            s[k - 1] = "Z"
        terms.append(("".join(s), c))
    return terms


def _number(value, name: str) -> Fraction:
    """A term-list coefficient as a Fraction; a bool (JSON true, false)
    is refused rather than read as 1 or 0, and a string (JSON "1/3") rather
    than parsed."""
    if isinstance(value, (bool, str)):
        raise MalformedInput(f"{name} must be a number, got {value!r}")
    return Fraction(value)


def from_term_list(terms, num_qubits: int | None = None, constant=0) -> IsingModel:
    """Rebuild an IsingModel from (pauli string, coefficient) pairs."""
    terms = list(terms)
    if num_qubits is None:
        if not terms:
            raise UnmappedVariable("cannot infer qubit count from an empty list")
        num_qubits = len(terms[0][0])
    elif isinstance(num_qubits, bool) or not isinstance(num_qubits, Integral) or num_qubits < 0:
        raise MalformedInput(f"num_qubits must be a non-negative integer, got {num_qubits!r}")
    linear: dict[int, Fraction] = {}
    quadratic: dict[tuple[int, int], Fraction] = {}
    const = _number(constant, "constant")
    for pauli, coeff in terms:
        if len(pauli) != num_qubits or any(c not in "IZ" for c in pauli):
            raise UnmappedVariable(f"bad pauli string {pauli!r}")
        qubits = [i + 1 for i, c in enumerate(pauli) if c == "Z"]
        c = _number(coeff, f"coeff of {pauli!r}")
        if len(qubits) == 0:
            const += c
        elif len(qubits) == 1:
            linear[qubits[0]] = linear.get(qubits[0], Fraction(0)) + c
        elif len(qubits) == 2:
            key = (qubits[0], qubits[1])
            quadratic[key] = quadratic.get(key, Fraction(0)) + c
        else:
            raise UnmappedVariable(f"term {pauli!r} has weight > 2")
    return IsingModel(num_qubits, const, linear, quadratic)
