"""QUBO penalty construction and compilation to a diagonal Ising model.

The cycle Hamiltonian is the sum of three penalties over the binary
variables x[v, j]:

  * vertex uniqueness:   sum_v (1 - sum_j x[v,j])^2
  * position uniqueness: sum_j (1 - sum_v x[v,j])^2
  * edge validity:       x[u,j] x[v,j+1] for every ordered non-edge (u,v),
                         plus the wrap-around terms through vertex 1

All coefficients stay exact rationals until the simulator boundary.
They are summed as integers: the penalties with integer coefficients,
multiplied by the weight once per coefficient, and the Ising form, which
follows from x -> (1 - Z)/2 with Z^2 = I, as integer numerators over one
common denominator, with one Fraction per Ising coefficient at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, starmap
from math import lcm
from numbers import Integral

from .errors import MalformedInput, NonPositiveWeight, UnmappedVariable
from .graph import Graph, check_assignment, non_edges, qubit_index

Var = tuple[int, int]  # (v, j) with v, j in 2..n

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


def _add_rows(rows: list[list[Var]], lin: dict, quad: dict) -> int:
    """Add sum over rows of (1 - sum x_i)^2 = 1 - sum x_i + 2 sum_{i<j} x_i x_j
    (x^2 = x) to integer coefficient dicts; returns its constant."""
    for terms in rows:
        for t in terms:
            lin[t] = lin.get(t, 0) - 1
        for key in starmap(_pair, combinations(terms, 2)):
            quad[key] = quad.get(key, 0) + 2
    return len(rows)


def _vertex_rows(n: int) -> list[list[Var]]:
    return [[(v, j) for j in range(2, n + 1)] for v in range(2, n + 1)]


def _position_rows(n: int) -> list[list[Var]]:
    return [[(v, j) for v in range(2, n + 1)] for j in range(2, n + 1)]


def vertex_uniqueness(n: int) -> QuboPolynomial:
    """Each free vertex occupies exactly one position."""
    lin, quad = {}, {}
    return QuboPolynomial(_add_rows(_vertex_rows(n), lin, quad), lin, quad)


def position_uniqueness(n: int) -> QuboPolynomial:
    """Each free position is occupied by exactly one vertex."""
    lin, quad = {}, {}
    return QuboPolynomial(_add_rows(_position_rows(n), lin, quad), lin, quad)


def _add_edges(g: Graph, lin: dict, quad: dict) -> None:
    n = g.n
    for u, v in sorted(non_edges(g)):
        if u == 1:
            for k in (2, n):
                lin[(v, k)] = lin.get((v, k), 0) + 1
            continue
        for a, b in ((u, v), (v, u)):
            for j in range(2, n):
                key = _pair((a, j), (b, j + 1))
                quad[key] = quad.get(key, 0) + 1


def edge_validity(g: Graph) -> QuboPolynomial:
    """Penalty for consecutive tour slots holding a non-adjacent pair.

    Non-edge pairs are taken in both orders; pairs involving vertex 1
    reduce to linear boundary terms because x[1,1] = 1 and the rest of
    row/column 1 is identically 0.
    """
    lin, quad = {}, {}
    _add_edges(g, lin, quad)
    return QuboPolynomial(0, lin, quad)


def assemble(g: Graph, weight=1) -> QuboPolynomial:
    """Full penalty polynomial weight * (H1 + H2 + H3), summed as integers
    and multiplied by the weight once per coefficient."""
    w = Fraction(weight)
    if w <= 0:
        raise NonPositiveWeight(f"penalty weight must be > 0, got {weight}")
    lin, quad = {}, {}
    constant = _add_rows(_vertex_rows(g.n), lin, quad)
    constant += _add_rows(_position_rows(g.n), lin, quad)
    _add_edges(g, lin, quad)
    p, r = w.numerator, w.denominator
    return QuboPolynomial(
        Fraction(constant * p, r),
        {k: Fraction(c * p, r) for k, c in lin.items()},
        {k: Fraction(c * p, r) for k, c in quad.items()},
    )


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
    the QUBO value of that assignment.  Every coefficient is taken as an
    integer numerator over the lcm d of the denominators, the expansion is
    summed in units of 1/(4d), and each Ising coefficient becomes one
    Fraction at the end.
    """
    qubit = {(v, j): qubit_index(v, j, n) for v in range(2, n + 1) for j in range(2, n + 1)}
    for var in chain(q.linear, *q.quadratic):
        if var not in qubit:
            raise UnmappedVariable(f"x[{var[0]},{var[1]}] outside the free block for n={n}")
    d = lcm(*{c.denominator for c in (q.constant, *q.linear.values(), *q.quadratic.values())})
    constant = 4 * q.constant.numerator * (d // q.constant.denominator)
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    for var, c in q.linear.items():
        k, c2 = qubit[var], 2 * c.numerator * (d // c.denominator)
        constant += c2
        linear[k] = linear.get(k, 0) - c2
    for (a, b), c in q.quadratic.items():
        ja, jb, c1 = qubit[a], qubit[b], c.numerator * (d // c.denominator)
        constant += c1
        linear[ja] = linear.get(ja, 0) - c1
        linear[jb] = linear.get(jb, 0) - c1
        key = (ja, jb) if ja < jb else (jb, ja)
        quadratic[key] = quadratic.get(key, 0) + c1
    d *= 4
    return IsingModel(
        (n - 1) ** 2,
        Fraction(constant, d),
        {k: Fraction(c, d) for k, c in linear.items() if c},
        {k: Fraction(c, d) for k, c in quadratic.items() if c},
    )


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
