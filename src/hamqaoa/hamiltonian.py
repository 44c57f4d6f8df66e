"""Exact evaluation and spectrum analysis of diagonal cost Hamiltonians.

Because every term is a product of Z operators, the Hamiltonian is
diagonal in the computational basis: each basis state is an eigenstate
and its energy is a signed sum over term parities.  One vector of 2^q
energies, computed once per Hamiltonian, answers every question about it:
expectation, phase, ground set, gap and level table.  Nothing is ever
diagonalized.  The vector is one chunked GEMM of half-register sign
tables, the constant and then each term added in order, so it has the
bytes of a per-term pass over the full register (an exact zero reads
+0.0); ``DiagonalHamiltonian.energies`` gives the shape rules that keep
that order.

``qubo_oracle`` evaluates the cycle penalty definition literally on the
full x[v, j] matrix (fixed first row/column included) and is kept
independent of the compiler so the two can cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import TooManyQubits
from .graph import Graph, check_assignment, qubit_index
from .qubo import IsingModel

SPECTRUM_QUBIT_CAP = 20
# Most qubits whose full 2^q vector (energies, amplitudes) is ever built.
SIMULATOR_QUBIT_CAP = 24

# Most multiply-adds of one GEMM: OpenBLAS runs a GEMM of at most 4 x 65,536
# on one thread, so its products do not depend on the thread count.
_GEMM_MACS = 1 << 18
# The smallest register ``energies()`` builds: 3 low and 3 high bits keep
# both GEMM sides 8 wide, where OpenBLAS adds each dot product in order.
_GEMM_MIN_QUBITS = 6
# Most summands (the constant and the terms) of one GEMM dot product: the
# Haswell, Sandybridge and Nehalem kernels split a longer sum into blocks.
_GEMM_SUMMANDS = 256


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Constant plus Z-product terms, each a (qubit bitmask, coefficient) pair.

    Bit k-1 of a mask refers to qubit k (leftmost assignment character).
    """

    num_qubits: int
    terms: tuple[tuple[int, float], ...]
    constant: float = 0.0
    _energies: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _levels: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        """Refuse a qubit count or a mask that is no integer (a bool
        included), a negative qubit count, a mask outside 0 .. 2^q - 1
        (its high bits would name no qubit) and a non-finite coefficient
        or constant."""
        q = self.num_qubits
        if isinstance(q, bool) or not isinstance(q, Integral) or q < 0:
            raise ValueError(f"num_qubits must be an integer >= 0, got {q!r}")
        if not math.isfinite(self.constant):
            raise ValueError(f"constant must be finite, got {self.constant!r}")
        for mask, c in self.terms:
            # type() first: an ABC check per term would cost 6x the rest
            if type(mask) is not int and (
                isinstance(mask, bool) or not isinstance(mask, Integral)
            ):
                raise ValueError(f"term mask must be an integer, got {mask!r}")
            if not 0 <= mask < 1 << q:
                raise ValueError(f"term mask {mask:#b} is outside 0 .. 2^{q} - 1")
            if not math.isfinite(c):
                raise ValueError(f"term {mask:#b} has a non-finite coefficient {c!r}")

    @classmethod
    def from_ising(cls, m: IsingModel) -> "DiagonalHamiltonian":
        terms = []
        for qubits, c in m.terms():
            mask = 0
            for k in qubits:
                mask |= 1 << (k - 1)
            terms.append((mask, float(c)))
        return cls(m.num_qubits, tuple(terms), float(m.constant))

    def energies(self) -> np.ndarray:
        """Energy of every basis state, indexed so bit k-1 of the index
        is the measured value of qubit k.

        Computed on the first call; every call returns that same
        read-only array.

        A term's sign on index (xh, xl) is its sign on the high bits times
        its sign on the low bits (``_half_sign_tables``), so the vector,
        as a (2^hi, 2^lo) block, is one GEMM: the transposed high sign
        table, (2^hi, T+1), times the low table scaled by the
        coefficients, (T+1, 2^lo), the constant leading as a mask-0 term.
        Every product is exactly +-coeff, and OpenBLAS adds each dot
        product in term order once both GEMM sides are at least 8 wide, so
        every entry is rounded as a per-term pass over the full register
        would round it: the constant first, then the terms in order.  Two
        shape rules keep both sides that wide: a register under 6 qubits
        is built as a 6-qubit one and its first 2^q entries kept, and each
        GEMM takes ``_GEMM_MACS`` // ((T+1) 2^lo) high rows, rounded down
        to a multiple of 8 and at least 8 (the Haswell kernel sums an odd
        tail row, and the Nehalem kernel a tail of two, out of order).
        The GEMM's sums start at +0.0, so an exactly-zero energy is +0.0,
        never -0.0.  The GEMM takes the constant and the first 255 terms
        only (``_GEMM_SUMMANDS``), since some kernels split a longer dot
        product into blocks; each later term is added in order after it,
        as one outer product of its two sign rows per chunk of high rows.
        """
        if self._energies is None:
            q = max(self.num_qubits, _GEMM_MIN_QUBITS)
            masks = [0] + [m for m, _ in self.terms]
            coeffs = np.array([self.constant] + [c for _, c in self.terms], dtype=float)
            s_hi, s_lo = _half_sign_tables(masks, q)
            k = _GEMM_SUMMANDS
            a, b = s_hi[:k].T, coeffs[:, None] * s_lo
            out = np.empty(1 << q)
            block = out.reshape(len(a), b.shape[1])
            rows = max(8, (_GEMM_MACS // b[:k].size) & -8)
            for lo in range(0, len(a), rows):
                chunk = block[lo : lo + rows]
                np.matmul(a[lo : lo + rows], b[:k], out=chunk)
                for t in range(k, len(b)):
                    chunk += np.multiply.outer(s_hi[t, lo : lo + rows], b[t])
            if q > self.num_qubits:
                out = out[: 1 << self.num_qubits].copy()
            out.flags.writeable = False
            object.__setattr__(self, "_energies", out)
        return self._energies

    def shifted_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """``(levels, inverse)``: the distinct energies less the constant
        (which the gate list drops), sorted, and the index of each basis
        state's level, so that ``levels[inverse]`` is ``energies() -
        constant``.  Every cost phase takes one ``exp`` per level.
        Computed on the first call; every call returns that same pair of
        read-only arrays."""
        if self._levels is None:
            shifted = self.energies() - self.constant
            levels, inverse = np.unique(shifted, return_inverse=True)
            levels.flags.writeable = False
            inverse.flags.writeable = False
            object.__setattr__(self, "_levels", (levels, inverse))
        return self._levels


def check_qubits(q: int) -> None:
    """Refuse a register too large for its 2^q vectors to be built."""
    if q > SIMULATOR_QUBIT_CAP:
        raise TooManyQubits(f"{q} qubits exceeds simulator cap {SIMULATOR_QUBIT_CAP}")


def _sign_table(masks: np.ndarray, bits: int) -> np.ndarray:
    """(-1)^parity(index & mask) for every mask and every bits-bit index."""
    idx = np.arange(1 << bits, dtype=np.uint64)
    parity = np.bitwise_count(idx[None, :] & masks[:, None]) & 1
    return 1.0 - 2.0 * parity


def _half_sign_tables(masks, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s_hi, s_lo)``: the sign tables of the masks on the high q - q // 2
    and the low q // 2 bits of a q-qubit register, so that the sign of
    mask t at index (xh, xl) is s_hi[t, xh] * s_lo[t, xl]."""
    lo = q // 2
    masks = np.asarray(masks, dtype=np.uint64)
    s_lo = _sign_table(masks & np.uint64((1 << lo) - 1), lo)
    return _sign_table(masks >> np.uint64(lo), q - lo), s_lo


def bits_to_index(bits: str) -> int:
    """Basis index of an assignment string (qubit k -> index bit k-1)."""
    return sum(1 << k for k, c in enumerate(bits) if c == "1")


def index_to_bits(index: int, num_qubits: int) -> str:
    return "".join("1" if (index >> k) & 1 else "0" for k in range(num_qubits))


def _bit_strings(indices: np.ndarray, num_qubits: int) -> list[str]:
    """``index_to_bits`` of every index, in order, in one numpy pass."""
    if num_qubits == 0:
        return [""] * len(indices)
    index_bytes = np.asarray(indices, dtype="<u8").view(np.uint8).reshape(-1, 8)
    chars = np.unpackbits(index_bytes, axis=1, count=num_qubits, bitorder="little")
    chars += np.uint8(ord("0"))
    return chars.view(f"S{num_qubits}").ravel().astype(f"U{num_qubits}").tolist()


def energy_of(h: DiagonalHamiltonian, bits: str) -> float:
    """Eigenvalue of the basis state given by an assignment string.

    Reads the full energy vector, so it refuses registers past the
    simulator's qubit cap before building it."""
    check_assignment(bits, h.num_qubits)
    check_qubits(h.num_qubits)
    return float(h.energies()[bits_to_index(bits)])


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Energy levels of a diagonal Hamiltonian, read from its energy vector.

    ``energies`` is the vector rounded to 9 decimals, so that levels that
    differ only by float noise group together; exact-rational inputs at
    desk scale are unaffected.  An energy too large to round (|E| above
    about 1.8e299) is kept as it is.  Build one with ``full_spectrum``.
    """

    energies: np.ndarray
    num_qubits: int

    @property
    def num_states(self) -> int:
        return len(self.energies)

    @property
    def ground_energy(self) -> float:
        return float(self.energies.min())

    @property
    def ground_states(self) -> frozenset[str]:
        ground = np.flatnonzero(self.energies == self.energies.min())
        return frozenset(_bit_strings(ground, self.num_qubits))

    @property
    def gap(self) -> float:
        ground = self.energies.min()
        excited = self.energies[self.energies != ground]
        return float(excited.min()) - float(ground) if excited.size else 0.0

    def mean_energy(self) -> float:
        return float(self.energies.mean())

    @property
    def levels(self) -> tuple[tuple[float, tuple[str, ...]], ...]:
        """Every (energy, basis states) pair, sorted by energy; basis
        states of one level appear in index order."""
        order = np.argsort(self.energies, kind="stable")
        sorted_e = self.energies[order]
        starts = np.flatnonzero(np.diff(sorted_e)) + 1
        states = _bit_strings(order, self.num_qubits)
        bounds = np.r_[0, starts, len(order)].tolist()
        return tuple(
            (float(sorted_e[start]), tuple(states[start:end]))
            for start, end in zip(bounds, bounds[1:])
        )


def full_spectrum(h: DiagonalHamiltonian, cap: int = SPECTRUM_QUBIT_CAP) -> Spectrum:
    """The spectrum of all 2^q basis energies; refuses more than cap qubits."""
    if h.num_qubits > cap:
        raise TooManyQubits(f"{h.num_qubits} qubits exceeds spectrum cap {cap}")
    exact = h.energies()
    # rounding scales by 1e9, which overflows for |E| above about 1.8e299;
    # such energies keep their exact value
    with np.errstate(over="ignore"):
        energies = np.round(exact, 9)
    finite = np.isfinite(energies)
    if not finite.all():
        energies = np.where(finite, energies, exact)
    energies.flags.writeable = False
    return Spectrum(energies, h.num_qubits)


def qubo_oracle(g: Graph, weight, bits: str):
    """Literal evaluation of the cycle penalty on one assignment.

    Builds the full n x n variable matrix with x[1,1] = 1 and the rest of
    the first row/column 0, then sums the three penalty classes directly,
    including the wrap-around product x[u, n] x[v, 1] for every ordered
    non-adjacent pair.  Bypasses the compiler entirely.
    """
    n = g.n
    check_assignment(bits, g.num_qubits)
    x = [[0] * (n + 1) for _ in range(n + 1)]
    x[1][1] = 1
    for v in range(2, n + 1):
        for j in range(2, n + 1):
            x[v][j] = int(bits[qubit_index(v, j, n) - 1])

    h1 = sum((1 - sum(x[v][j] for j in range(1, n + 1))) ** 2 for v in range(1, n + 1))
    h2 = sum((1 - sum(x[v][j] for v in range(1, n + 1))) ** 2 for j in range(1, n + 1))
    h3 = 0
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or g.has_edge(u, v):
                continue
            h3 += sum(x[u][j] * x[v][j + 1] for j in range(1, n))
            h3 += x[u][n] * x[v][1]
    return weight * (h1 + h2 + h3)
