"""Dense statevector simulation, sampling, and Pauli-trajectory noise.

Basis convention: bit k-1 of a flat state index is the measured value of
qubit k, matching the assignment-string convention (qubit 1 = leftmost
character).

Noise is a stochastic unraveling: each shot is one trajectory through
the circuit in which, after every gate, a uniformly random non-identity
Pauli is inserted on the touched qubit(s) with probability p1 (1-qubit
gates) or p2 (2-qubit gates), followed by an optional classical readout
flip per bit.  Every noise model, zero noise too, takes one path: all
errors are drawn first; shots without errors draw from the error-free
state as ``sample`` does; the others are replayed in batches of at most
``_BATCH_AMPLITUDES`` amplitudes, one state per column, so one numpy
operation per gate or ZZ term serves a whole batch.  Each replayed state sees the
arithmetic of a replay of its own, so counts do not depend on batching.

Each exact CNOT(j, k), RZ(k), CNOT(j, k) run, a ZZ term of the ansatz,
is one pass in ``simulate`` and in the replay: a multiply by RZ's m11
where x_j != x_k and by its m00 elsewhere, the product RZ gives each
amplitude between the two exact permutations (``_term_runs``).  CNOT is
a Clifford gate, so an error drawn after a term's first CNOT moves to
the term's start and one drawn after its RZ to its end, each conjugated
through CNOT.  That changes a replayed state by a sign at most, so
probabilities, and so counts, keep their bytes.

``qaoa_state`` evolves one row of angles or a batch of rows through one
routine, up to ``lockstep_rows(q)`` states at a time as the rows of one
array, so that one numpy operation per step serves them all; each state
keeps the bytes it would have evolved alone.  Every cost layer takes its
phase once per distinct energy level and gathers it.  Up to 9 qubits,
where rows share batches, each mixer layer is a few Kronecker blocks of
at most 4 qubits, one stacked matmul per block; a lone column (every
state from q = 10) takes one 2x2 rotation per qubit.

Randomness is split into four counter-derived substreams of the user
seed - measurement, gate-error flags, Pauli choices, readout flips - so
that a zero-noise trajectory run reproduces noiseless sampling exactly.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, ParamCircuit, check_mixer
from .errors import DimensionMismatch, UnboundParameter
from .hamiltonian import (
    SIMULATOR_QUBIT_CAP,
    DiagonalHamiltonian,
    _bit_strings,
    check_qubits,
    energy_of,
)

DEFAULT_SHOTS = 10000
# Most shots one call draws: the per-shot arrays (uniforms, outcomes and
# shots x q readout flips) stay near 230 MB at the qubit cap.
SHOT_CAP = 1 << 20

# Amplitudes in one batch of replayed trajectories (1 MiB at complex128,
# so that a batch and its temporaries stay in a core's cache); at least
# one state per batch.
_BATCH_AMPLITUDES = 1 << 16

# Most amplitudes of one batch of QAOA states evolved in lockstep.  Timed
# at p=4 against one state at a time: 3 states of 2^9 amplitudes ran 1.31x
# faster together and 2 of 2^9 1.08x, but 2 of 2^10 only 0.97x.  24 KiB at
# complex128, far below the 256 KiB from which numpy reuses temporaries
# (which would swap the operand order of ``state * phase``).
LOCKSTEP_AMPLITUDES = 3 << 9


# Entries per dot product in ``expectation``: OpenBLAS splits longer ones
# (past 10,000 entries) across threads, which reorders their sums.
_DOT_CHUNK = 1 << 13


def lockstep_rows(q: int) -> int:
    """Angle rows that ``qaoa_state`` evolves together on q qubits: as
    many states as fit ``LOCKSTEP_AMPLITUDES``, and at least one."""
    return max(1, LOCKSTEP_AMPLITUDES >> q)


# 2x2 matrices as (m00, m01, m10, m11) of Python numbers
_PAULI = {"X": (0, 1, 1, 0), "Y": (0, -1j, 1j, 0), "Z": (1, 0, 0, -1)}
_H = tuple(v / math.sqrt(2) for v in (1, 1, 1, -1))
_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = [
    (a, b) for a in ("I", "X", "Y", "Z") for b in ("I", "X", "Y", "Z")
] [1:]  # all pairs except (I, I)
_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}  # Pauli as (x, z) bits


def _through_cnot(pair) -> int:
    """Index in ``_PAULI_2Q`` of the Pauli pair on (control, target) that
    equals CNOT (pair) CNOT up to sign: x_target ^= x_control and
    z_control ^= z_target."""
    (xc, zc), (xt, zt) = (_XZ[label] for label in pair)
    name = {bits: label for label, bits in _XZ.items()}
    return _PAULI_2Q.index((name[xc, zc ^ zt], name[xt ^ xc, zt]))


# Where a term's errors go (``_replay``): error k after its first CNOT, as
# the error of that CNOT applied before the term's diagonal, and
# single-qubit error k after its RZ, as the CNOT's error applied after it
_AFTER_CNOT = tuple(_through_cnot(pair) for pair in _PAULI_2Q)
_AFTER_RZ = tuple(_through_cnot(("I", label)) for label in _PAULI_1Q)


@dataclass(frozen=True)
class Statevector:
    """Amplitudes of one state, shape (2^q,), or of a batch of states, one
    per row, shape (B, 2^q)."""

    amplitudes: np.ndarray
    num_qubits: int

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus classical readout flips."""

    p1: float = 0.0
    p2: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "readout_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @property
    def is_trivial(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.readout_flip == 0.0


def noise_record(nm: NoiseModel | None) -> dict | None:
    """A noise model as every JSON output records it, as --noise spells it."""
    return None if nm is None else {"p1": nm.p1, "p2": nm.p2, "ro": nm.readout_flip}


@dataclass(frozen=True)
class Distribution:
    counts: dict[str, int]
    shots: int

    def mass(self, states) -> float:
        return sum(self.counts.get(s, 0) for s in states) / self.shots

    def mean_energy(self, h: DiagonalHamiltonian) -> float:
        return (
            sum(c * energy_of(h, bits) for bits, c in self.counts.items())
            / self.shots
        )


def _rotation(kind: str, theta: float) -> tuple:
    """A rotation matrix as (m00, m01, m10, m11) of Python numbers."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return c, -1j * s, -1j * s, c
    if kind == "RY":
        return c, -s, s, c
    return c - 1j * s, 0, 0, c + 1j * s  # RZ


# The three updates of _apply_1q, and the one each kind of gate takes:
# exchange for m00 == m11 and m01 == m10, diagonal, or general.
_EXCHANGE, _DIAGONAL, _GENERAL = range(3)
_KIND = {
    "H": _GENERAL, "RX": _EXCHANGE, "RY": _GENERAL, "RZ": _DIAGONAL,
    "X": _EXCHANGE, "Y": _GENERAL, "Z": _DIAGONAL,
}


def _apply_1q(states: np.ndarray, m, k: int, kind: int) -> None:
    """Apply the 2x2 matrix ``m = (m00, m01, m10, m11)`` to qubit k (index
    bit k-1), in place, by the update ``kind`` of its gate (``_KIND``).

    ``states`` is one state of shape (2^q,) or one state per column of
    shape (2^q, B), in C or F order (``_replay`` passes the F-ordered
    gather ``batch[:, cols]``).  Only axis 0 is split, into half pairs of
    2^(k-1) rows, so the view never copies.  Each entry of ``m`` is a
    Python number.

    Products keep the scalar on the left, as numpy's fused complex
    multiply rounds by operand order, and every amplitude gets
    ``m_i0 * a0 + m_i1 * a1`` with each product rounded before the sum.
    The exchange update (RX, X) does that in three full-size passes over
    the swapped pair; the diagonal one (RZ, Z) skips its zero products,
    which could only add signed zeros; the general one updates the two
    halves in turn.
    """
    m00, m01, m10, m11 = m
    psi = states.reshape(-1, 2, 1 << (k - 1), *states.shape[1:])
    if kind == _EXCHANGE:
        swapped = m01 * psi[:, ::-1]
        np.multiply(m00, psi, psi)
        psi += swapped
        return
    a0, a1 = psi[:, 0], psi[:, 1]
    if kind == _DIAGONAL:
        np.multiply(m00, a0, a0)
        np.multiply(m11, a1, a1)
        return
    tmp = m10 * a0
    np.multiply(m00, a0, a0)
    a0 += m01 * a1
    np.multiply(m11, a1, a1)
    a1 += tmp


def _apply_cnot(states: np.ndarray, control: int, target: int) -> None:
    """Swap the target pair where control = 1, in place; ``states`` as
    for ``_apply_1q``."""
    hi, lo = max(control, target) - 1, min(control, target) - 1
    psi = states.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo, *states.shape[1:])
    if control > target:
        t0, t1 = psi[:, 1, :, 0], psi[:, 1, :, 1]
    else:
        t0, t1 = psi[:, 0, :, 1], psi[:, 1, :, 1]
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


def _apply_gate(states: np.ndarray, g: Gate) -> None:
    if g.kind == "CNOT":
        _apply_cnot(states, g.targets[0], g.targets[1])
        return
    m = _H if g.kind == "H" else _rotation(g.kind, float(g.angle))
    _apply_1q(states, m, g.targets[0], _KIND[g.kind])


def _term_runs(gates) -> dict:
    """The qubit pair (j, k) of each exact CNOT(j, k), RZ(k), CNOT(j, k)
    run in ``gates``, by the index of its first CNOT.  Anything else, such
    as RZ on the control or two different CNOTs, is no run."""
    runs = {}
    free = 0  # the first gate that no run found so far holds
    for i, (a, rz, b) in enumerate(zip(gates, gates[1:], gates[2:])):
        if (
            i < free
            or a.kind != "CNOT"
            or rz.kind != "RZ"
            or b.kind != "CNOT"
            or a.targets != b.targets
            or rz.targets != a.targets[1:]
        ):
            continue
        runs[i] = a.targets
        free = i + 3
    return runs


def _steps(runs: dict, lo: int, hi: int):
    """Gates lo..hi-1 as (i, pair): a run of ``runs`` from gate i that ends
    before hi, or gate i alone, with pair None."""
    i = lo
    while i < hi:
        pair = runs.get(i) if i + 3 <= hi else None
        yield i, pair
        i += 1 if pair is None else 3


def _apply_term(states: np.ndarray, pair, rz: Gate) -> None:
    """A term run's diagonal on the qubit pair, in place: RZ's m11 where
    x_j != x_k and its m00 elsewhere, on the left of each product as in
    ``_apply_1q``; ``states`` as for ``_apply_1q``.  The state is split at
    both bits, as in ``_apply_cnot``, and one multiply broadcasts the 2x2
    phase table over it, so no mask or state-sized temporary is built."""
    m00, _, _, m11 = _rotation("RZ", float(rz.angle))
    hi, lo = max(pair) - 1, min(pair) - 1
    psi = states.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo, *states.shape[1:])
    phase = np.array([m00, m11, m11, m00]).reshape(2, 1, 2, 1, *(1,) * (states.ndim - 1))
    np.multiply(phase, psi, out=psi)


def _check_circuit(c: ParamCircuit) -> None:
    check_qubits(c.num_qubits)
    if not c.is_bound:
        raise UnboundParameter("circuit has unbound symbolic parameters")


def check_shots(shots: int) -> None:
    """Refuse a shot count outside 1..SHOT_CAP."""
    if not 1 <= shots <= SHOT_CAP:
        raise ValueError(f"shots must be in 1..{SHOT_CAP}, got {shots}")


def _evolve(gates, q: int, runs: dict) -> np.ndarray:
    """|0...0> on q qubits through the given bound gates: one pass per
    term run of ``runs`` (``_term_runs``) that they hold whole, one per
    other gate."""
    state = np.zeros(1 << q, dtype=complex)
    state[0] = 1.0
    for i, pair in _steps(runs, 0, len(gates)):
        if pair is None:
            _apply_gate(state, gates[i])
        else:
            _apply_term(state, pair, gates[i + 1])
    return state


def simulate(c: ParamCircuit) -> Statevector:
    """Exact amplitudes of the bound circuit applied to |0...0>."""
    _check_circuit(c)
    q = c.num_qubits
    return Statevector(_evolve(c.gates, q, _term_runs(c.gates)), q)


def qaoa_state(h: DiagonalHamiltonian, gammas, betas, mixer: str = "RX") -> Statevector:
    """Fast QAOA evolution using the diagonality of the cost Hamiltonian.

    Each cost layer is a single elementwise phase; each mixer layer is a
    few Kronecker blocks up to 9 qubits and one rotation per qubit from
    10.  Matches gate-by-gate simulation of the built ansatz to rounding
    (the constant term is excluded, as the gate list also drops it).

    ``gammas`` and ``betas`` of shape (p,) give one state; of shape (B, p),
    one state per row, returned as the rows of (B, 2^q) amplitudes, each
    byte-identical to a call on its row alone.  All rows go through one
    routine, ``lockstep_rows(q)`` at a time as the rows of one array.
    """
    mixer = check_mixer(mixer)
    q = h.num_qubits
    check_qubits(q)
    gammas, betas = np.asarray(gammas, dtype=float), np.asarray(betas, dtype=float)
    if gammas.shape != betas.shape or gammas.ndim not in (1, 2):
        raise ValueError(
            f"gammas {gammas.shape} and betas {betas.shape} must both be (p,) or (B, p)"
        )
    if gammas.ndim == 1:
        state = _evolve_lockstep(h, gammas[None], betas[None], mixer)
        return Statevector(state[0], q)
    out = np.empty((len(gammas), 1 << q), dtype=complex)
    per_batch = lockstep_rows(q)
    for lo in range(0, len(out), per_batch):
        rows = slice(lo, lo + per_batch)
        out[rows] = _evolve_lockstep(h, gammas[rows], betas[rows], mixer)
    return Statevector(out, q)


def _block_indices(b: int) -> dict:
    """Per mixer, the (2^b, 2^b) index of each block entry [i, j] into the
    entries of one layer and row (``_block_tables``): w = popcount(i ^ j)
    for RX, and w plus b + 1 where popcount(j & ~i) is odd for RY."""
    ones = np.array([bin(v).count("1") for v in range(1 << b)])
    i, j = np.arange(1 << b)[:, None], np.arange(1 << b)
    flips = ones[i ^ j]
    return {"RX": flips, "RY": flips + (b + 1) * (ones[j & ~i] % 2)}


# Most qubits of one mixer block, and the block indices of each size
_BLOCK_QUBITS = 4
_BLOCK_INDICES = {b: _block_indices(b) for b in range(1, _BLOCK_QUBITS + 1)}
# Real and imaginary part of each block entry's factor, per sign (RY
# only) and count w of flipped bits: (-i)^w for RX, +1 and -1 for RY
_ENTRY_FACTORS = {
    "RX": np.array([[((1, 0), (0, -1), (-1, 0), (0, 1))[w % 4] for w in range(5)]], float),
    "RY": np.array([[(1, 0)] * 5, [(-1, 0)] * 5], float),
}


def _block_sizes(q: int) -> tuple:
    """Qubits per mixer block, lowest block first: the fewest blocks of at
    most ``_BLOCK_QUBITS`` qubits, as equal as possible."""
    n = -(-q // _BLOCK_QUBITS)
    return tuple(q // n + (i < q % n) for i in range(n))


def _block_tables(mixer: str, betas, sizes) -> dict:
    """For each block size b, every layer's and column's 2^b x 2^b mixer
    block, the Kronecker product of b copies of ``_rotation(mixer, 2 beta)``,
    as an array of shape (p, B, 2^b, 2^b).

    Entry [i, j] is c^(b-w) s^w with w = popcount(i ^ j), times (-i)^w for
    RX and (-1)^popcount(j & ~i) for RY, c and s the cosine and sine of
    beta.  The powers are taken once per call for all layers, by running
    products, and gathered through ``_BLOCK_INDICES``.
    """
    top = max(sizes, default=0)
    # per layer and column: c^k and s^k for k = 0..top, multiplied up
    powers = np.empty((*betas.T.shape, 2, top + 1))
    powers[..., 0] = 1.0
    powers[..., 0, 1:] = np.cos(betas.T)[..., None]
    powers[..., 1, 1:] = np.sin(betas.T)[..., None]
    for k in range(2, top + 1):
        powers[..., k] *= powers[..., k - 1]
    tables = {}
    for b in set(sizes):
        terms = powers[..., 0, b::-1] * powers[..., 1, : b + 1]  # c^(b-w) s^w
        factors = _ENTRY_FACTORS[mixer][:, : b + 1]
        entries = (terms[..., None, :, None] * factors).view(complex)
        entries = entries.reshape(*terms.shape[:-1], factors.size // 2)
        tables[b] = entries.take(_BLOCK_INDICES[b][mixer], axis=-1)
    return tables


def _evolve_lockstep(h: DiagonalHamiltonian, gammas, betas, mixer: str) -> np.ndarray:
    """The states of the (B, p) angle rows as the rows of one C-ordered
    (B, 2^q) array, each with the bytes of its row evolved alone.

    Each cost layer takes one ``exp`` per distinct energy level and row
    (``shifted_levels()``), gathered into a fresh (B, 2^q) phase: every
    entry is the same product of the same bytes as over all 2^q energies.
    The form ``state * <fresh phase>`` matters: numpy reuses a temporary
    of 256 KiB or more, which swaps the operands of the complex multiply
    exactly as for a state evolved alone, while an in-place multiply
    would not.

    Where rows share batches (``lockstep_rows(q) > 1``, up to 9 qubits),
    each mixer layer is a Kronecker block U per ``_block_sizes(q)`` entry
    (``_block_tables``), one stacked matmul per block: the lowest block
    as ``x @ U.T`` on (B, high, 2^b), every other as ``U @ x`` on (B,
    high, 2^b, low).  Each row's products are those of the row alone, and
    no GEMM has more than 4,096 multiply-adds (m n k), far below where
    OpenBLAS splits one across threads.  A lone column (from 10 qubits)
    takes one 2x2 rotation per qubit.
    """
    q = h.num_qubits
    dim, rows = 1 << q, len(gammas)
    scales = (-1j * gammas).T[:, :, None]
    levels, inverse = h.shifted_levels()
    state = np.full((rows, dim), 1.0 / math.sqrt(dim), dtype=complex)
    if lockstep_rows(q) == 1:
        kind = _KIND[mixer]
        for scale, beta in zip(scales, betas[0].tolist()):
            state = state * np.exp(scale * levels).take(inverse, axis=1)
            mat = _rotation(mixer, 2.0 * beta)
            for k in range(1, q + 1):
                _apply_1q(state[0], mat, k, kind)
        return state
    sizes = _block_sizes(q)
    tables = _block_tables(mixer, betas, sizes)
    for layer, scale in enumerate(scales):
        state = state * np.exp(scale * levels).take(inverse, axis=1)
        low = 0
        for b in sizes:
            u = tables[b][layer]
            if low:
                state = u[:, None] @ state.reshape(rows, -1, 1 << b, 1 << low)
            else:
                state = state.reshape(rows, -1, 1 << b) @ u.transpose(0, 2, 1)
            low += b
        state = state.reshape(rows, dim)
    return state


def expectation(s: Statevector, h: DiagonalHamiltonian):
    """<psi| H |psi> for a diagonal H; for a batch of states (amplitudes
    of shape (B, 2^q)), an array of one value per row.  Dot products of
    ``_DOT_CHUNK`` entries, added in order, keep it free of BLAS threads."""
    if h.num_qubits != s.num_qubits:
        raise DimensionMismatch(f"state has {s.num_qubits} qubits, operator {h.num_qubits}")
    probs, energies = s.probabilities(), h.energies()
    values = []
    for row in probs.reshape(-1, len(energies)):
        value = np.dot(row[:_DOT_CHUNK], energies[:_DOT_CHUNK])
        for lo in range(_DOT_CHUNK, len(energies), _DOT_CHUNK):
            value += np.dot(row[lo : lo + _DOT_CHUNK], energies[lo : lo + _DOT_CHUNK])
        values.append(float(value))
    return np.array(values) if probs.ndim == 2 else values[0]


def _substream(seed, tag: int) -> np.random.Generator:
    """Counter-derived RNG substream; seed may be an int or a tuple of ints."""
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng((*base, tag))


def _draw_outcomes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, uniforms, side="right")


def _counts(outcomes: np.ndarray, q: int) -> dict[str, int]:
    """Bitstring counts of outcome indices, keyed in order of first
    occurrence; only distinct outcomes are turned into strings.  Keys are
    interned, so every distribution held for one register shares one
    string per outcome."""
    values, first, counts = np.unique(outcomes, return_index=True, return_counts=True)
    order = np.argsort(first)
    keys = map(sys.intern, _bit_strings(values[order], q))
    return dict(zip(keys, counts[order].tolist()))


def sample(s: Statevector, shots: int, seed: int) -> Distribution:
    """Draw i.i.d. computational-basis measurements from |amplitude|^2."""
    check_shots(shots)
    if s.amplitudes.ndim != 1:
        raise DimensionMismatch("sample draws from one state, not a batch")
    outcomes = _draw_outcomes(s.probabilities(), _substream(seed, 1).random(shots))
    return Distribution(_counts(outcomes, s.num_qubits), shots)


def simulate_noisy(
    c: ParamCircuit,
    nm: NoiseModel,
    shots: int,
    seed: int,
) -> Distribution:
    """Pauli-trajectory sampling: one noisy circuit run per shot.

    With nm = (0, 0, 0) the output equals ``sample(simulate(c), ...)``
    for the same seed: no shot errs, so all draw as ``sample`` does.
    """
    _check_circuit(c)
    check_shots(shots)
    q = c.num_qubits
    outcomes = _trajectory_outcomes(c, nm, seed, _substream(seed, 1).random(shots))

    if nm.readout_flip > 0.0:
        ro_rng = _substream(seed, 4)
        flips = ro_rng.random((shots, q)) < nm.readout_flip
        masks = (flips * (1 << np.arange(q, dtype=np.int64))).sum(axis=1)
        outcomes = outcomes ^ masks

    return Distribution(_counts(outcomes, q), shots)


def _pauli_events(c: ParamCircuit, nm: NoiseModel, seed, shots: int):
    """Every gate error of every shot as (shot, gate, Pauli index) arrays,
    shot-major and gate-minor.

    Flags come from substream 2 in chunks of whole shots, and one Pauli
    index per flag from substream 3 (of 3 single-qubit or 15 two-qubit
    Paulis), in the order a shot-by-shot replay would draw them.  No flag
    is drawn when no gate can err: substream 2 feeds nothing else.
    """
    n = len(c.gates)
    two_qubit = np.array([g.kind == "CNOT" for g in c.gates], dtype=bool)
    p_gate = np.where(two_qubit, nm.p2, nm.p1)
    if not p_gate.any():
        none = np.empty(0, dtype=np.int64)
        return none, none, none
    flag_rng = _substream(seed, 2)
    pauli_rng = _substream(seed, 3)
    chunk = max(1, (1 << 20) // max(1, n))
    shot_ids, gate_ids = [], []
    for start in range(0, shots, chunk):
        flags = flag_rng.random((min(chunk, shots - start), n)) < p_gate
        t, i = np.nonzero(flags)
        shot_ids.append(t + start)
        gate_ids.append(i)
    ev_shot = np.concatenate(shot_ids)
    ev_gate = np.concatenate(gate_ids)
    sizes = np.where(two_qubit[ev_gate], len(_PAULI_2Q), len(_PAULI_1Q))
    ev_pauli = pauli_rng.integers(sizes)
    return ev_shot, ev_gate, ev_pauli


def _trajectory_outcomes(
    c: ParamCircuit, nm: NoiseModel, seed, u_meas: np.ndarray
) -> np.ndarray:
    """Measured index of every shot, replaying diverged shots in batches.

    The states to replay are the diverged shots, sorted (stably) by their
    first error gate, then the error-free state.  Consecutive states share
    a batch of up to ``_BATCH_AMPLITUDES`` amplitudes, so one pass over
    the gates, one numpy op per gate or term run, serves them all.  Each
    state goes through the arithmetic of a replay of its own, so outcomes
    do not depend on the batching.
    """
    q, n, shots = c.num_qubits, len(c.gates), len(u_meas)
    runs = _term_runs(c.gates)
    ev_shot, ev_gate, ev_pauli = _pauli_events(c, nm, seed, shots)
    diverged, first_event = np.unique(ev_shot, return_index=True)
    # the error-free state goes last: its "first error" n follows every gate
    first_gate = np.append(ev_gate[first_event], n)
    order = np.argsort(first_gate, kind="stable")
    col_shot, first_gate = np.append(diverged, -1)[order], first_gate[order]
    rank = np.empty(shots, dtype=np.int64)
    rank[col_shot[:-1]] = np.arange(len(diverged))
    ev_col = rank[ev_shot]
    by_col = np.argsort(ev_col, kind="stable")
    ev_col, ev_gate, ev_pauli = ev_col[by_col], ev_gate[by_col], ev_pauli[by_col]

    outcomes = np.empty(shots, dtype=np.int64)
    per_batch = max(1, _BATCH_AMPLITUDES >> q)
    for lo in range(0, len(col_shot), per_batch):
        hi = min(lo + per_batch, len(col_shot))
        a, b = np.searchsorted(ev_col, [lo, hi])
        batch = _replay(
            c, runs, first_gate[lo:hi], ev_col[a:b] - lo, ev_gate[a:b], ev_pauli[a:b]
        )
        shot = col_shot[lo:hi]
        if shot[-1] < 0:  # the error-free state draws for every clean shot
            clean = np.ones(shots, dtype=bool)
            clean[diverged] = False
            outcomes[clean] = _draw_outcomes(np.abs(batch[:, -1]) ** 2, u_meas[clean])
            batch, shot = batch[:, :-1], shot[:-1]
        cum = np.cumsum(np.abs(batch) ** 2, axis=0)
        cum[-1] = 1.0
        # the count of entries <= u is searchsorted(cum, u, side="right")
        outcomes[shot] = (cum <= u_meas[shot]).sum(axis=0)
    return outcomes


def _replay(c: ParamCircuit, runs: dict, first_gate, ev_col, ev_gate, ev_pauli) -> np.ndarray:
    """Final states of one batch, one per column: column r starts erring
    at gate first_gate[r] (ascending; len(c.gates) for never), and gets
    Pauli ev_pauli[e] after gate ev_gate[e] if ev_col[e] == r.

    The columns agree up to their earliest first error, so that prefix is
    run once on a single state.  After it, each term run of ``runs`` is
    one pass, with its errors moved to its edges: those after its first
    CNOT go before the diagonal and those after its RZ after it, both
    conjugated through CNOT (``_AFTER_CNOT``, ``_AFTER_RZ``).  The run
    that holds the first error itself goes gate by gate.
    """
    injections: dict[int, dict[int, list[int]]] = {}
    for r, i, k in zip(ev_col.tolist(), ev_gate.tolist(), ev_pauli.tolist()):
        injections.setdefault(i, {}).setdefault(k, []).append(r)
    gates, start = c.gates, int(first_gate[0])
    state = _evolve(gates[: start + 1], c.num_qubits, runs)
    batch = np.repeat(state[:, None], len(first_gate), axis=1)
    if start < len(gates):  # else the batch is the error-free state alone
        _inject_columns(batch, gates[start], injections[start])
    for i, pair in _steps(runs, start + 1, len(gates)):
        if pair is None:
            _apply_gate(batch, gates[i])
            _inject_columns(batch, gates[i], injections.get(i))
            continue
        _inject_columns(batch, gates[i], injections.get(i), _AFTER_CNOT)
        _apply_term(batch, pair, gates[i + 1])
        _inject_columns(batch, gates[i], injections.get(i + 1), _AFTER_RZ)
        _inject_columns(batch, gates[i + 2], injections.get(i + 2))
    return batch


def _inject_columns(batch: np.ndarray, g: Gate, by_pauli, moved=None) -> None:
    """Inject Pauli k of g's error set into the columns ``by_pauli[k]``
    of the batch, or Pauli ``moved[k]`` where a table is given."""
    for k, cols in (by_pauli or {}).items():
        sub = batch[:, cols]
        _inject(sub, g, k if moved is None else moved[k])
        batch[:, cols] = sub


def _inject(states: np.ndarray, g: Gate, k: int) -> None:
    """Apply Pauli number k of the gate's error set on its qubit(s), in place."""
    if g.kind == "CNOT":
        for label, qubit in zip(_PAULI_2Q[k], g.targets):
            if label != "I":
                _apply_1q(states, _PAULI[label], qubit, _KIND[label])
    else:
        label = _PAULI_1Q[k]
        _apply_1q(states, _PAULI[label], g.targets[0], _KIND[label])
