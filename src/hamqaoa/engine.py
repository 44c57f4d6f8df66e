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
``_BATCH_AMPLITUDES`` amplitudes.

Every batch of states, replayed or evolved by ``qaoa_state``, is one
C-ordered (B, 2^q) array, one state per row; the single-gate kernels
split only its last axis.

``simulate``, the prefix a batch shares and every batch run through one
routine, ``_evolve``, over the segments one scan of the gates finds
(``_segments``).  A maximal run of lone RZs and exact CNOT(j, k), RZ(k),
CNOT(j, k) runs (the ZZ terms of the ansatz) is one diagonal segment:
one phase exp(-i a(x)), its angle a matmul of half-register sign tables.
An RX or RY with one angle on every qubit is one mixer layer (``_mix``).
Any other gate goes alone.

A batch carries each row's errors as one pending Pauli, x and z bit
masks without its global phase.  CNOT is a Clifford gate, so an error
inside a term moves to the term's edges, conjugated through CNOT; one
after a mixer gate moves to the layer's end.  A diagonal segment takes a
pending X as sign flips of the steps it overlaps an odd number of times;
Z commutes with it.  The pending Paulis are applied, one gather for all
rows, before a mixer layer, before a single gate they touch and before
the draw.  So a replayed state equals its gate-by-gate replay to within
rounding (1e-12) and a global phase, not byte for byte; counts can differ
only where a uniform falls within rounding of a cumulative boundary.
With no error, ``simulate_noisy`` draws from the state ``simulate``
returns, byte for byte.

``qaoa_state`` evolves one row of angles or a batch of rows through one
routine, up to ``lockstep_rows(q)`` states at a time as the rows of one
array, so that one numpy operation per step serves them all; each state
keeps the bytes it would have evolved alone.  Every cost layer takes its
phase once per distinct energy level and gathers it.  Up to 9 qubits,
where rows share batches, each mixer layer is a few Kronecker blocks of
at most 4 qubits, each row's own, applied where they lie on the float
view of the rows; from 5 qubits RX runs as RY in the frame diag(1, i)
on every qubit, where its blocks are real.  A lone row (every state
from q = 10) takes one 2x2 rotation per qubit.

``_mix`` is the Kronecker-block kernel of ``simulate`` and the replay,
in place, with one block table that every row shares: each block is one
real GEMM on the float view of the rows into a scratch array, where the
block's qubits are the lowest axis, and one transpose copy back into the
rows then rotates the next block's qubits into that place.

Randomness is split into four counter-derived substreams of the user
seed - measurement, gate-error flags, Pauli choices, readout flips - so
that a zero-noise trajectory run reproduces noiseless sampling exactly.
"""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .circuit import Gate, ParamCircuit, check_mixer
from .errors import DimensionMismatch, UnboundParameter
from .hamiltonian import (
    _GEMM_MACS,
    DiagonalHamiltonian,
    _bit_strings,
    _half_sign_tables,
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
# at p=4 against one state at a time: 3 states of 2^9 amplitudes ran 1.52x
# faster together and 2 of 2^9 1.33x.  2 of 2^10 ran 1.1x faster together
# than alone through the same blocks, and 1.9x faster than alone through
# the per-qubit rotations they take from q = 10, whose bytes a larger
# value would change.  24 KiB at complex128, far below the 256 KiB from
# which numpy reuses temporaries (which would swap the operand order of
# ``state * phase``).
LOCKSTEP_AMPLITUDES = 3 << 9


# Entries per dot product in ``expectation``: OpenBLAS splits longer ones
# (past 10,000 entries) across threads, which reorders their sums.
_DOT_CHUNK = 1 << 13


def lockstep_rows(q: int) -> int:
    """Angle rows that ``qaoa_state`` evolves together on q qubits: as
    many states as fit ``LOCKSTEP_AMPLITUDES``, and at least one."""
    return max(1, LOCKSTEP_AMPLITUDES >> q)


# a 2x2 matrix as (m00, m01, m10, m11) of Python numbers
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


# Where a term's errors go (``_carried``): error k after its first CNOT, as
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


def _apply_1q(states: np.ndarray, m, k: int, exchange: bool) -> None:
    """Apply the 2x2 matrix ``m = (m00, m01, m10, m11)`` to qubit k (index
    bit k-1), in place: by the exchange update if ``exchange`` (an RX,
    where m00 == m11 and m01 == m10), else by the general one.

    ``states`` is one state of shape (2^q,) or one state per row of shape
    (B, 2^q).  Only the last axis is split, into half pairs of 2^(k-1)
    entries, so the view never copies.  Each entry of ``m`` is a Python
    number.

    Products keep the scalar on the left, as numpy's fused complex
    multiply rounds by operand order, and every amplitude gets
    ``m_i0 * a0 + m_i1 * a1`` with each product rounded before the sum.
    The exchange update does that in three full-size passes over the
    swapped pair; the general one updates the two halves in turn.
    """
    m00, m01, m10, m11 = m
    psi = states.reshape(*states.shape[:-1], -1, 2, 1 << (k - 1))
    if exchange:
        swapped = m01 * psi[..., ::-1, :]
        np.multiply(m00, psi, psi)
        psi += swapped
        return
    a0, a1 = psi[..., 0, :], psi[..., 1, :]
    tmp = m10 * a0
    np.multiply(m00, a0, a0)
    a0 += m01 * a1
    np.multiply(m11, a1, a1)
    a1 += tmp


def _apply_cnot(states: np.ndarray, control: int, target: int) -> None:
    """Swap the target pair where control = 1, in place; ``states`` as
    for ``_apply_1q``."""
    hi, lo = max(control, target) - 1, min(control, target) - 1
    psi = states.reshape(*states.shape[:-1], -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control > target:
        t0, t1 = psi[..., 1, :, 0, :], psi[..., 1, :, 1, :]
    else:
        t0, t1 = psi[..., 0, :, 1, :], psi[..., 1, :, 1, :]
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


def _apply_gate(states: np.ndarray, g: Gate) -> None:
    if g.kind == "CNOT":
        _apply_cnot(states, g.targets[0], g.targets[1])
        return
    m = _H if g.kind == "H" else _rotation(g.kind, float(g.angle))
    _apply_1q(states, m, g.targets[0], g.kind == "RX")


class _Segment(NamedTuple):
    """The gates of a circuit from gate ``lo`` that one pass replays
    (``_segments``).

    A diagonal segment lists the first gate of each step, a lone RZ or an
    exact term run, in ``steps``, with the qubit mask of the step's Z
    product in ``masks``, half its RZ angle in ``angles`` and the
    half-register sign tables of the masks in ``signs``
    (``_multiply_phases``).  A mixer layer holds the real form of one
    Kronecker block per ``_block_sizes`` entry in ``blocks``, lowest
    qubits first, each one (2^(b+1), 2^(b+1)) table for every row
    (``_mix``).  A single gate holds neither.
    """

    lo: int
    steps: tuple = ()
    masks: np.ndarray | None = None
    angles: np.ndarray | None = None
    signs: tuple = ()
    blocks: tuple = ()


def _is_term(gates, i: int) -> bool:
    """Whether gates i..i+2 are an exact CNOT(j, k), RZ(k), CNOT(j, k) run."""
    if i + 3 > len(gates):
        return False
    a, rz, b = gates[i : i + 3]
    return (
        a.kind == "CNOT"
        and rz.kind == "RZ"
        and b.kind == "CNOT"
        and a.targets == b.targets
        and rz.targets == a.targets[1:]
    )


def _is_layer(gates, q: int) -> bool:
    """Whether the gates are one RX or RY with one angle on every one of q
    qubits, each qubit once."""
    first = gates[0]
    return (
        len(gates) == q
        and first.kind in ("RX", "RY")
        and all(g.kind == first.kind and g.angle == first.angle for g in gates)
        and sorted(g.targets[0] for g in gates) == list(range(1, q + 1))
    )


def _segments(gates, q: int) -> list:
    """The gates as segments (``_Segment``), in order, in one scan: maximal
    runs of lone RZs and exact term runs, whole mixer layers, and single
    gates.  A near miss of a term run, such as RZ on the control, is no
    run; its RZ is a lone RZ and its CNOTs single gates."""
    segments, layers, signs = [], {}, {}
    i, n = 0, len(gates)
    while i < n:
        steps, masks, angles = [], [], []
        j = i
        while j < n:
            g = gates[j]
            if g.kind == "RZ":
                steps.append(j)
                masks.append(1 << (g.targets[0] - 1))
                angles.append(float(g.angle) / 2)
                j += 1
            elif g.kind == "CNOT" and _is_term(gates, j):
                control, target = g.targets
                steps.append(j)
                masks.append((1 << (control - 1)) | (1 << (target - 1)))
                angles.append(float(gates[j + 1].angle) / 2)
                j += 3
            else:
                break
        if steps:
            key = tuple(masks)
            if key not in signs:
                s_hi, s_lo = _half_sign_tables(masks, q)
                signs[key] = (np.ascontiguousarray(s_hi.T), s_lo)
            segments.append(
                _Segment(i, tuple(steps), np.array(masks), np.array(angles), signs[key])
            )
            i = j
        elif _is_layer(gates[i : i + q], q):
            layers.setdefault(gates[i].kind, []).append(len(segments))
            segments.append(_Segment(i))
            i += q
        else:
            segments.append(_Segment(i))
            i += 1
    sizes = _block_sizes(q)
    for mixer, at in layers.items():
        betas = np.array([[float(gates[segments[s].lo].angle) / 2 for s in at]])
        tables = _real_block_tables(mixer, betas, sizes)
        for layer, s in enumerate(at):
            segments[s] = segments[s]._replace(blocks=tuple(tables[b][layer, 0] for b in sizes))
    return segments


def _check_circuit(c: ParamCircuit) -> None:
    q = c.num_qubits
    check_qubits(q)
    if not c.is_bound:
        raise UnboundParameter("circuit has unbound symbolic parameters")
    for i, g in enumerate(c.gates):
        if not all(1 <= k <= q for k in g.targets):
            raise ValueError(f"gate {i} ({g.kind}) targets {g.targets} outside qubits 1..{q}")
        if g.angle is not None and not math.isfinite(g.angle):
            raise ValueError(f"gate {i} ({g.kind}) has a non-finite angle {g.angle!r}")


def check_shots(shots: int) -> None:
    """Refuse a shot count that is not an integer in 1..SHOT_CAP."""
    integer = isinstance(shots, Integral) and not isinstance(shots, bool)
    if not (integer and 1 <= shots <= SHOT_CAP):
        raise ValueError(f"shots must be in 1..{SHOT_CAP}, an integer, got {shots!r}")


def _ground(q: int) -> np.ndarray:
    """|0...0> on q qubits as one row, shape (1, 2^q)."""
    state = np.zeros((1, 1 << q), dtype=complex)
    state[0, 0] = 1.0
    return state


def _evolve(states: np.ndarray, segments, gates, events=None) -> np.ndarray:
    """The (B, 2^q) states, one per row, through the segments of
    ``_segments``, in place; returns ``states``.  ``events`` maps a
    segment's first gate to the errors that land in it (``_carried``).
    Each row carries them as one pending Pauli X^x Z^z, applied
    (``_flush``) before a mixer layer, before a single gate on a qubit it
    touches, and at the end.  One scratch array of the batch's shape
    serves every mixer layer (``_mix``) and flush."""
    px = np.zeros(len(states), dtype=np.int64)
    pz = np.zeros_like(px)
    buf = np.empty_like(states)
    for seg in segments:
        errors = events.get(seg.lo, ()) if events else ()
        if seg.steps:
            _diagonal(states, seg, px, pz, errors)
            continue
        if seg.blocks:
            _flush(states, px, pz, buf)
            _mix(states, seg.blocks, buf)
        else:
            g = gates[seg.lo]
            _flush(states, px, pz, buf, sum(1 << (k - 1) for k in g.targets))
            _apply_gate(states, g)
        for r, _, x, z in errors:
            px[r] ^= x
            pz[r] ^= z
    _flush(states, px, pz, buf)
    return states


# Most entries of one chunk of phases or of a pending-Pauli gather: the
# temporaries of every pass stay this small.
_CHUNK = 1 << 13


def _diagonal(states, seg: _Segment, px, pz, errors) -> None:
    """A diagonal segment on every row, in place: exp(-i a(x)) with
    a(x) = sum_t sigma_t angle_t (-1)^parity(x & mask_t).

    sigma_t is -1 where the row's pending X overlaps mask_t an odd number
    of times at step t: X^m D X^m is D at x ^ m.  Every row takes the
    phase with no flip, one vector for all; a row with flips then takes
    its own correction, exp(2i sum angle_t (-1)^parity(x & mask_t)) over
    its flipped steps.  An error at step t joins the pending Pauli before
    step t; its Z part commutes with every step.
    """
    _multiply_phases(states, seg, seg.angles[None], slice(None))
    for r, _, _, z in errors:
        pz[r] ^= z
    flips = np.array([(r, t, x) for r, t, x, _ in errors if x], dtype=np.int64).reshape(-1, 3)
    if not len(flips) and not px.any():
        return
    carrying = px != 0
    carrying[flips[:, 0]] = True
    carried = np.flatnonzero(carrying)
    x_at = np.zeros((len(carried), len(seg.steps) + 1), dtype=np.int64)
    x_at[:, 0] = px[carried]
    rank = np.cumsum(carrying) - 1  # the row of x_at of each carried row
    np.bitwise_xor.at(x_at, (rank[flips[:, 0]], flips[:, 1]), flips[:, 2])
    x_at = np.bitwise_xor.accumulate(x_at, axis=1)
    px[carried] = x_at[:, -1]
    odd = np.bitwise_count(x_at[:, :-1] & seg.masks) & 1
    flipped = odd.any(axis=1)
    if flipped.any():
        _multiply_phases(states, seg, -2.0 * seg.angles * odd[flipped], carried[flipped])


def _multiply_phases(states, seg: _Segment, weights, rows) -> None:
    """Multiply the rows ``rows`` of ``states`` by exp(-i a), in place,
    one phase per row of the (R, T) step ``weights`` (one row for all
    rows), where a(x) = sum_t weights_t (-1)^parity(x & mask_t).

    a is one stacked matmul of the half-register sign tables
    (``_half_sign_tables``): the high table times the low table scaled by
    the weights gives a over the indices (xh, xl).  No (2^q, T) table and
    no full phase vector is built: the high indices go in chunks of at
    most ``_CHUNK`` phases and, down to one index, ``_GEMM_MACS`` per
    GEMM.  a is reduced to [-pi, pi] first, where cos and sin are fastest.
    """
    s_hi, s_lo = seg.signs
    width = s_lo.shape[1]
    step = max(1, min(_GEMM_MACS // (len(s_lo) * width), _CHUNK // (len(weights) * width)))
    scaled = weights[:, :, None] * s_lo
    for lo in range(0, len(s_hi), step):
        a = s_hi[lo : lo + step] @ scaled
        a -= np.rint(a * (0.5 / math.pi)) * (2 * math.pi)
        phase = np.empty(a.shape, dtype=complex)
        np.cos(a, out=phase.real)
        np.sin(a, out=phase.imag)
        np.negative(phase.imag, out=phase.imag)
        states[rows, lo * width : (lo + step) * width] *= phase.reshape(len(a), -1)


def _mix(states, blocks, buf) -> None:
    """A mixer layer on the (B, 2^q) rows, in place, one Kronecker block
    at a time, lowest qubits first.  Each block is its real form R
    (``_real_block_tables``), one (2^(b+1), 2^(b+1)) table that every row
    shares.

    The block's qubits are the lowest axis, so the float view of the rows
    as (high, 2^(b+1)) times R is the float view of the block applied.
    The products go into the scratch array ``buf`` of the rows' shape, at
    most ``_GEMM_MACS`` multiply-adds per GEMM so that OpenBLAS runs each
    on one thread.  One transpose copy then writes them, as complex (B, high,
    2^b), back into ``states`` as (B, 2^b, high), so that the next block's
    qubits are lowest; after the last block the qubits are in order again.
    """
    rows = len(states)
    for r in blocks:
        width = len(r)
        x = states.view(float).reshape(-1, width)
        y = buf.view(float).reshape(x.shape)
        step = _GEMM_MACS // (width * width)
        for lo in range(0, len(x), step):
            np.matmul(x[lo : lo + step], r, out=y[lo : lo + step])
        y = y.view(complex).reshape(rows, -1, width // 2)
        states.reshape(rows, width // 2, -1)[...] = y.transpose(0, 2, 1)


def _flush(states, px, pz, buf, touch: int = -1) -> None:
    """Apply each row's pending Pauli X^x Z^z, in place, if any pending
    Pauli acts on a qubit of the mask ``touch``, and clear them.

    Row r becomes states[r, i ^ x_r] (-1)^popcount((i ^ x_r) & z_r) at
    every index i: one gather for all pending rows into the scratch array
    ``buf``, in chunks of at most ``_CHUNK`` entries, and one write back.
    """
    pending = px | pz
    if not (pending & touch).any():
        return
    rows = np.flatnonzero(pending)
    dim, x, z = states.shape[1], px[rows, None], pz[rows, None]
    moved = buf[: len(rows)]
    step = max(1, _CHUNK // len(rows))
    for lo in range(0, dim, step):
        src = np.arange(lo, min(lo + step, dim)) ^ x
        part = moved[:, lo : lo + step]
        # every index is in range; a mode other than "raise" writes the
        # strided chunk directly instead of through a buffer
        np.take(states.reshape(-1), src + rows[:, None] * dim, out=part, mode="wrap")
        odd = np.bitwise_count(src & z)
        odd &= 1
        part *= 1.0 - 2.0 * odd
    states[rows] = moved
    px[rows] = 0
    pz[rows] = 0


def simulate(c: ParamCircuit) -> Statevector:
    """Exact amplitudes of the bound circuit applied to |0...0>."""
    _check_circuit(c)
    q = c.num_qubits
    return Statevector(_evolve(_ground(q), _segments(c.gates, q), c.gates)[0], q)


def qaoa_state(h: DiagonalHamiltonian, gammas, betas, mixer: str = "RX") -> Statevector:
    """Fast QAOA evolution using the diagonality of the cost Hamiltonian.

    Each cost layer is a single elementwise phase; each mixer layer is a
    few Kronecker blocks up to 9 qubits (from 5 qubits, RX's as real
    blocks in the frame of ``_evolve_lockstep``) and one rotation per
    qubit from 10.  Matches gate-by-gate simulation of the built ansatz to
    rounding (the constant term is excluded, as the gate list also drops
    it).

    ``gammas`` and ``betas`` of shape (p,) give one state; of shape (B, p),
    one state per row, returned as the rows of (B, 2^q) amplitudes, each
    byte-identical to a call on its row alone.  All rows go through one
    routine, ``lockstep_rows(q)`` at a time as the rows of one array.
    Non-finite angles are refused before any work.
    """
    mixer = check_mixer(mixer)
    q = h.num_qubits
    check_qubits(q)
    gammas, betas = np.asarray(gammas, dtype=float), np.asarray(betas, dtype=float)
    if gammas.shape != betas.shape or gammas.ndim not in (1, 2):
        raise ValueError(
            f"gammas {gammas.shape} and betas {betas.shape} must both be (p,) or (B, p)"
        )
    if not all(map(math.isfinite, gammas.ravel().tolist() + betas.ravel().tolist())):
        raise ValueError("gammas and betas must be finite")
    if gammas.ndim == 1:
        return Statevector(_evolve_lockstep(h, gammas[None], betas[None], mixer)[0], q)
    per_batch = lockstep_rows(q)
    if 0 < len(gammas) <= per_batch:
        return Statevector(_evolve_lockstep(h, gammas, betas, mixer), q)
    out = np.empty((len(gammas), 1 << q), dtype=complex)
    for lo in range(0, len(out), per_batch):
        rows = slice(lo, lo + per_batch)
        out[rows] = _evolve_lockstep(h, gammas[rows], betas[rows], mixer)
    return Statevector(out, q)


def _block_indices(b: int) -> dict:
    """Per mixer, the flat (2^(b+1), 2^b) index of the complex pairs of
    the real form of a block into the entries of one layer and row
    (``_block_entries``).

    Block entry [i, j] is u = entry 2k, and i u is entry 2k + 1: w =
    popcount(i ^ j) for RX, and w plus b + 1 where popcount(j & ~i) is odd
    for RY.  The real form R acts on amplitudes as interleaved (re, im)
    pairs from the right: row (j, 0) of R holds the pairs of u[i, j] over
    i, and row (j, 1) those of i u[i, j].  A flat index gathers faster
    than a 2-d one.
    """
    ones = np.array([bin(v).count("1") for v in range(1 << b)])
    i, j = np.arange(1 << b)[:, None], np.arange(1 << b)
    flips = ones[i ^ j]
    indices = {}
    for mixer, k in (("RX", flips), ("RY", flips + (b + 1) * (ones[j & ~i] % 2))):
        indices[mixer] = (2 * k.T[:, None, :] + np.arange(2)[:, None]).ravel()
    return indices


# Most qubits of one mixer block, and the real block indices of each size
_BLOCK_QUBITS = 4
_BLOCK_INDICES = {b: _block_indices(b) for b in range(1, _BLOCK_QUBITS + 1)}
# Each block entry's factor f and i f as (re, im, re, im), per sign (RY
# only) and count w of flipped bits: f = (-i)^w for RX, +1 and -1 for RY
_ENTRY_FACTORS = {
    "RX": np.array(
        [[((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))[w % 4] for w in range(5)]],
        float,
    ),
    "RY": np.array([[(1, 0, 0, 1)] * 5, [(-1, 0, 0, -1)] * 5], float),
}


# i^popcount(x) for every basis state x of a lockstep register: the
# frame in which an RX mixer layer is real (``_evolve_lockstep``)
_FRAME = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(LOCKSTEP_AMPLITUDES)) % 4]


def _block_sizes(q: int) -> tuple:
    """Qubits per mixer block, lowest block first: the fewest blocks of at
    most ``_BLOCK_QUBITS`` qubits, as equal as possible."""
    n = -(-q // _BLOCK_QUBITS)
    return tuple(q // n + (i < q % n) for i in range(n))


def _block_entries(mixer: str, betas, sizes) -> dict:
    """For each block size b, the K distinct entries u (b + 1 for RX,
    2 (b + 1) for RY) of every layer's and row's mixer block, the
    Kronecker product of b copies of ``_rotation(mixer, 2 beta)``, each
    followed by i u, as complex arrays of shape (p, B, 2 K) that
    ``_BLOCK_INDICES`` gathers from.

    Entry [i, j] is c^(b-w) s^w with w = popcount(i ^ j), times (-i)^w for
    RX and (-1)^popcount(j & ~i) for RY, c and s the cosine and sine of
    beta.  The powers are taken once per call for all layers, by running
    products, and every entry is one multiply by ``_ENTRY_FACTORS``.
    """
    top = max(sizes, default=0)
    # per layer and row: c^k and s^k for k = 0..top, as running products
    powers = np.ones((*betas.T.shape, 2, top + 1))
    np.cos(betas.T[..., None], out=powers[..., 0, 1:])
    np.sin(betas.T[..., None], out=powers[..., 1, 1:])
    np.multiply.accumulate(powers, axis=-1, out=powers)
    entries = {}
    for b in set(sizes):
        terms = powers[..., 0, b::-1] * powers[..., 1, : b + 1]  # c^(b-w) s^w
        factors = _ENTRY_FACTORS[mixer][:, : b + 1]
        pairs = terms[..., None, :, None] * factors
        entries[b] = pairs.reshape(*terms.shape[:-1], factors.size).view(complex)
    return entries


def _real_block_tables(mixer: str, betas, sizes) -> dict:
    """For each block size b, the real form R (``_block_indices``) of every
    layer's and row's mixer block U (``_block_entries``), of shape (p, B,
    2^(b+1), 2^(b+1)): the float view of the amplitudes x times R is the
    float view of U x."""
    return {
        b: e.take(_BLOCK_INDICES[b][mixer], axis=-1)
        .view(float)
        .reshape(*e.shape[:-1], 2 << b, 2 << b)
        for b, e in _block_entries(mixer, betas, sizes).items()
    }


def _evolve_lockstep(h: DiagonalHamiltonian, gammas, betas, mixer: str) -> np.ndarray:
    """The states of the (B, p) angle rows as the rows of one C-ordered
    (B, 2^q) array, each with the bytes of its row evolved alone.

    Each cost layer takes one ``exp`` per distinct energy level and row
    (``shifted_levels()``), gathered into place: every entry is the same
    product of the same bytes as over all 2^q energies.  Up to 9 qubits
    every layer's phase is gathered at once, one (p, B, 2^q) array per
    call.  A lone row (from 10 qubits) gathers each layer's phase fresh:
    the form ``state * <fresh phase>`` matters there, as numpy reuses a
    temporary of 256 KiB or more, which swaps the operands of the complex
    multiply exactly as for a state evolved alone, while an in-place
    multiply would not.  A lone row then takes one 2x2 rotation per qubit.

    Where rows share batches (``lockstep_rows(q) > 1``, up to 9 qubits),
    each mixer layer is the Kronecker blocks of ``_block_sizes``, applied
    where they lie on the float view of the rows, with no transpose.  The
    lowest block is one GEMM of the rows as (B, high, 2^(b+1)) floats
    against each row's real form R (``_real_block_tables``).  An upper
    block is real, as R's even rows and columns read off, and is one
    broadcast matmul of each row's 2^b x 2^b block on its own axis of the
    rows as (B, high, 2^b, 2 low) floats.  Either way every row takes its
    own GEMMs, so its products are those of the row alone.  No GEMM has
    more than 16,384 multiply-adds (m n k: 64 x 16 x 16 and 8 x 128 x 8 at
    q = 9, 16 x 32 x 32 at q = 8), far below the ``_GEMM_MACS`` up to
    which OpenBLAS runs a GEMM on one thread.

    RY's blocks are real.  An RX evolution with upper blocks (q = 5 to 9)
    and at least one layer runs in the frame D = diag(1, i) on every qubit:
    D^-1 RX(2 beta) D = RY(-2 beta), and D commutes with every cost phase.
    So it is the RY(-2 beta) evolution of (-i)^popcount(x) / sqrt(2^q),
    times i^popcount(x) at the end (``_FRAME``); both factors are powers
    of i, so those multiplies are exact.
    """
    q = h.num_qubits
    dim, rows = 1 << q, len(gammas)
    scales = (-1j * gammas).T[:, :, None]
    levels, inverse = h.shifted_levels()
    state = np.full((rows, dim), 1.0 / math.sqrt(dim), dtype=complex)
    if lockstep_rows(q) == 1:
        for scale, beta in zip(scales, betas[0].tolist()):
            state = state * np.exp(scale * levels).take(inverse, axis=1)
            mat = _rotation(mixer, 2.0 * beta)
            for k in range(1, q + 1):
                _apply_1q(state[0], mat, k, mixer == "RX")
        return state
    sizes = _block_sizes(q)
    phases = np.exp(scales * levels).take(inverse, axis=2)
    if not sizes:  # no qubit to mix: each layer is its phase alone
        for phase in phases:
            state = state * phase
        return state
    framed = mixer == "RX" and len(sizes) > 1 and len(phases) > 0
    if framed:
        state *= _FRAME[:dim].conj()
    kind, angles = ("RY", -betas) if framed else (mixer, betas)
    tables = _real_block_tables(kind, angles, sizes)
    low, width = tables[sizes[0]], 2 << sizes[0]
    uppers = {
        b: np.ascontiguousarray(tables[b][..., ::2, ::2].swapaxes(-1, -2))[:, :, None]
        for b in set(sizes[1:])
    }
    for layer, phase in enumerate(phases):
        x = (state * phase).view(float).reshape(rows, -1, width) @ low[layer]
        below = width
        for b in sizes[1:]:
            x = np.matmul(uppers[b][layer], x.reshape(rows, -1, 1 << b, below))
            below <<= b
        state = x.reshape(rows, -1).view(complex)
    if framed:
        state *= _FRAME[:dim]
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
    the segments, one numpy op per segment or block, serves them all.
    """
    q, n, shots = c.num_qubits, len(c.gates), len(u_meas)
    segments = _segments(c.gates, q)
    ev_shot, ev_gate, ev_pauli = _pauli_events(c, nm, seed, shots)
    diverged, first_event = np.unique(ev_shot, return_index=True)
    # the error-free state goes last: its "first error" n follows every gate
    first_gate = np.append(ev_gate[first_event], n)
    order = np.argsort(first_gate, kind="stable")
    row_shot, first_gate = np.append(diverged, -1)[order], first_gate[order]
    rank = np.empty(shots, dtype=np.int64)
    rank[row_shot[:-1]] = np.arange(len(diverged))
    ev_row = rank[ev_shot]
    by_row = np.argsort(ev_row, kind="stable")
    ev_row, ev_gate, ev_pauli = ev_row[by_row], ev_gate[by_row], ev_pauli[by_row]

    outcomes = np.empty(shots, dtype=np.int64)
    per_batch = max(1, _BATCH_AMPLITUDES >> q)
    for lo in range(0, len(row_shot), per_batch):
        hi = min(lo + per_batch, len(row_shot))
        a, b = np.searchsorted(ev_row, [lo, hi])
        batch = _replay(
            c, segments, first_gate[lo:hi], ev_row[a:b] - lo, ev_gate[a:b], ev_pauli[a:b]
        )
        shot = row_shot[lo:hi]
        if shot[-1] < 0:  # the error-free state draws for every clean shot
            clean = np.ones(shots, dtype=bool)
            clean[diverged] = False
            outcomes[clean] = _draw_outcomes(np.abs(batch[-1]) ** 2, u_meas[clean])
            batch, shot = batch[:-1], shot[:-1]
        cum = np.cumsum(np.abs(batch) ** 2, axis=1)
        cum[:, -1] = 1.0
        # the count of entries <= u is searchsorted(cum, u, side="right")
        outcomes[shot] = (cum <= u_meas[shot, None]).sum(axis=1)
    return outcomes


def _replay(c: ParamCircuit, segments, first_gate, ev_row, ev_gate, ev_pauli) -> np.ndarray:
    """Final states of one batch, one per row: row r starts erring at gate
    first_gate[r] (ascending; len(c.gates) for never), and gets Pauli
    ev_pauli[e] after gate ev_gate[e] if ev_row[e] == r.

    The rows agree up to the segment that holds their earliest first
    error, so the segments before it run once on a single state.
    """
    starts = [seg.lo for seg in segments]
    start = bisect.bisect_right(starts, int(first_gate[0])) - 1
    if first_gate[0] == len(c.gates):  # the error-free state alone
        start = len(segments)
    prefix = _evolve(_ground(c.num_qubits), segments[:start], c.gates)
    batch = prefix if len(first_gate) == 1 else np.repeat(prefix, len(first_gate), axis=0)
    events = _carried(c.gates, segments, starts, ev_row, ev_gate, ev_pauli)
    return _evolve(batch, segments[start:], c.gates, events)


def _carried(gates, segments, starts, ev_row, ev_gate, ev_pauli) -> dict:
    """Each error as (row, step, x mask, z mask), listed under the first
    gate of its segment.

    In a diagonal segment, an error after a lone RZ or a term run's second
    CNOT joins before the next step.  CNOT is a Clifford gate, so one
    after a term's first CNOT equals its conjugate through CNOT
    (``_AFTER_CNOT``) before the term, and one after its RZ the pair
    ``_AFTER_RZ`` after it.  Elsewhere the step is unused.
    """
    events: dict[int, list] = {}
    for r, i, k in zip(ev_row.tolist(), ev_gate.tolist(), ev_pauli.tolist()):
        seg = segments[bisect.bisect_right(starts, i) - 1]
        g, step = gates[i], 0
        if seg.steps:
            step = bisect.bisect_right(seg.steps, i)
            first = seg.steps[step - 1]
            if gates[first].kind == "CNOT":
                g = gates[first]
                if i == first:
                    k, step = _AFTER_CNOT[k], step - 1
                elif i == first + 1:
                    k = _AFTER_RZ[k]
        labels = _PAULI_2Q[k] if g.kind == "CNOT" else (_PAULI_1Q[k],)
        x = z = 0
        for label, qubit in zip(labels, g.targets):
            x |= _XZ[label][0] << (qubit - 1)
            z |= _XZ[label][1] << (qubit - 1)
        events.setdefault(seg.lo, []).append((r, step, x, z))
    return events
