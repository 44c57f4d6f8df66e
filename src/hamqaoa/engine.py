"""Dense statevector simulation, sampling, and Pauli-trajectory noise.

Basis convention: bit k-1 of a flat state index is the measured value of
qubit k, matching the assignment-string convention (qubit 1 = leftmost
character).

Noise is a stochastic unraveling: each shot is one trajectory through
the circuit in which, after every gate, a uniformly random non-identity
Pauli is inserted on the touched qubit(s) with probability p1 (1-qubit
gates) or p2 (2-qubit gates), followed by an optional classical readout
flip per bit.  Every error is drawn before any state is evolved.  Shots
without errors share the error-free state; the others are replayed
together in batches of at most ``_BATCH_AMPLITUDES`` amplitudes, one
state per column, so one numpy operation per gate serves a whole batch.
Each replayed state sees the arithmetic of a replay of its own, so the
counts do not depend on the batching.

Randomness is split into four counter-derived substreams of the user
seed - measurement, gate-error flags, Pauli choices, readout flips - so
that a zero-noise trajectory run reproduces noiseless sampling exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, Param, ParamCircuit, check_mixer
from .errors import DimensionMismatch, TooManyQubits, UnboundParameter
from .hamiltonian import DiagonalHamiltonian, energy_of, index_to_bits

SIMULATOR_QUBIT_CAP = 24
DEFAULT_SHOTS = 10000

# Amplitudes in one batch of replayed trajectories (1 MiB at complex128,
# so that a batch and its temporaries stay in a core's cache); at least
# one state per batch.
_BATCH_AMPLITUDES = 1 << 16

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = [
    (a, b) for a in ("I", "X", "Y", "Z") for b in ("I", "X", "Y", "Z")
] [1:]  # all pairs except (I, I)


@dataclass(frozen=True)
class Statevector:
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


def _rotation(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])  # RZ


def _apply_1q(states: np.ndarray, mat: np.ndarray, k: int) -> None:
    """Apply a 2x2 matrix to qubit k (index bit k-1), in place.

    ``states`` is C-contiguous of shape (2^q,) or (2^q, B), one state per
    column, so that each half of the pair is a run of whole rows.
    Products keep the scalar on the left, as numpy's fused complex
    multiply rounds by operand order, and every amplitude gets
    ``m_i0 * a0 + m_i1 * a1`` with each product rounded before the sum.
    An exchange-symmetric matrix (``m00 == m11``, ``m01 == m10 != 0``:
    RX and X) does that in three full-size passes over the swapped pair;
    a diagonal matrix (RZ, Z) skips its zero products, which could only
    add signed zeros; any other matrix updates the two halves in turn.
    """
    (m00, m01), (m10, m11) = mat.tolist()
    psi = states.reshape(-1, 2, 1 << (k - 1), *states.shape[1:])
    if m00 == m11 and m01 == m10 != 0:
        swapped = m01 * psi[:, ::-1]
        np.multiply(m00, psi, psi)
        psi += swapped
        return
    a0, a1 = psi[:, 0], psi[:, 1]
    if m01 == 0 and m10 == 0:
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
    if g.kind == "H":
        _apply_1q(states, _H, g.targets[0])
    elif g.kind == "CNOT":
        _apply_cnot(states, g.targets[0], g.targets[1])
    elif isinstance(g.angle, Param):
        raise UnboundParameter(f"gate {g.kind} has symbolic angle {g.angle}")
    else:
        _apply_1q(states, _rotation(g.kind, float(g.angle)), g.targets[0])


def _check_circuit(c: ParamCircuit) -> None:
    if c.num_qubits > SIMULATOR_QUBIT_CAP:
        raise TooManyQubits(
            f"{c.num_qubits} qubits exceeds simulator cap {SIMULATOR_QUBIT_CAP}"
        )
    if not c.is_bound:
        raise UnboundParameter("circuit has unbound symbolic parameters")


def simulate(c: ParamCircuit) -> Statevector:
    """Exact amplitudes of the bound circuit applied to |0...0>."""
    _check_circuit(c)
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        _apply_gate(state, g)
    return Statevector(state, c.num_qubits)


def qaoa_state(
    h: DiagonalHamiltonian, gammas, betas, mixer: str = "RX"
) -> Statevector:
    """Fast QAOA evolution using the diagonality of the cost Hamiltonian.

    Each cost layer is a single elementwise phase; mixer layers apply one
    rotation per qubit.  Matches gate-by-gate simulation of the built
    ansatz exactly (the constant term is excluded, as the gate list also
    drops it).
    """
    mixer = check_mixer(mixer)
    q = h.num_qubits
    dim = 1 << q
    energies = h.energies() - h.constant
    state = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    for gamma, beta in zip(gammas, betas, strict=True):
        state = state * np.exp(-1j * float(gamma) * energies)
        mat = _rotation(mixer, 2.0 * float(beta))
        for k in range(1, q + 1):
            _apply_1q(state, mat, k)
    return Statevector(state, q)


def expectation(s: Statevector, h: DiagonalHamiltonian) -> float:
    """<psi| H |psi> for a diagonal H."""
    if h.num_qubits != s.num_qubits:
        raise DimensionMismatch(
            f"state has {s.num_qubits} qubits, operator {h.num_qubits}"
        )
    return float(np.dot(s.probabilities(), h.energies()))


def _substream(seed, tag: int) -> np.random.Generator:
    """Counter-derived RNG substream; seed may be an int or a tuple of ints."""
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng((*base, tag))


def _measure_stream(seed, shots: int) -> np.ndarray:
    return _substream(seed, 1).random(shots)


def _draw_outcomes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, uniforms, side="right")


def _counts(outcomes: np.ndarray, q: int) -> dict[str, int]:
    """Bitstring counts of outcome indices, keyed in order of first
    occurrence; only distinct outcomes are turned into strings."""
    values, first, counts = np.unique(outcomes, return_index=True, return_counts=True)
    return {
        index_to_bits(int(values[j]), q): int(counts[j]) for j in np.argsort(first)
    }


def sample(s: Statevector, shots: int, seed: int) -> Distribution:
    """Draw i.i.d. computational-basis measurements from |amplitude|^2."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    outcomes = _draw_outcomes(s.probabilities(), _measure_stream(seed, shots))
    return Distribution(_counts(outcomes, s.num_qubits), shots)


def _error_probs(c: ParamCircuit, nm: NoiseModel) -> np.ndarray:
    return np.array(
        [nm.p2 if g.kind == "CNOT" else nm.p1 for g in c.gates], dtype=float
    )


def simulate_noisy(
    c: ParamCircuit,
    nm: NoiseModel,
    shots: int,
    seed: int,
) -> Distribution:
    """Pauli-trajectory sampling: one noisy circuit run per shot.

    With nm = (0, 0, 0) the output equals ``sample(simulate(c), ...)``
    for the same seed, because the measurement substream is shared and no
    noise draws are consumed.
    """
    _check_circuit(c)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = c.num_qubits
    u_meas = _measure_stream(seed, shots)
    if nm.p1 == 0.0 and nm.p2 == 0.0:
        outcomes = _draw_outcomes(simulate(c).probabilities(), u_meas)
    else:
        outcomes = _trajectory_outcomes(c, nm, seed, u_meas)

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
    Paulis), in the order a shot-by-shot replay would draw them.
    """
    n = len(c.gates)
    p_gate = _error_probs(c, nm)
    two_qubit = np.array([g.kind == "CNOT" for g in c.gates], dtype=bool)
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
    ev_pauli = np.array([pauli_rng.integers(k) for k in sizes], dtype=np.int64)
    return ev_shot, ev_gate, ev_pauli


def _trajectory_outcomes(
    c: ParamCircuit, nm: NoiseModel, seed, u_meas: np.ndarray
) -> np.ndarray:
    """Measured index of every shot, replaying diverged shots in batches.

    The states to replay are the diverged shots, sorted (stably) by their
    first error gate, then the error-free state.  Consecutive states share
    a batch of up to ``_BATCH_AMPLITUDES`` amplitudes, so one pass over
    the gates, one numpy op per gate, serves them all.  Each state goes
    through the arithmetic of a replay of its own, so outcomes do not
    depend on the batching.
    """
    q, n, shots = c.num_qubits, len(c.gates), len(u_meas)
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
            c, first_gate[lo:hi], ev_col[a:b] - lo, ev_gate[a:b], ev_pauli[a:b]
        )
        cum = np.cumsum(np.abs(batch) ** 2, axis=0)
        cum[-1] = 1.0
        shot = col_shot[lo:hi]
        if shot[-1] < 0:  # the error-free state draws for every clean shot
            clean = np.ones(shots, dtype=bool)
            clean[diverged] = False
            outcomes[clean] = np.searchsorted(cum[:, -1], u_meas[clean], side="right")
            cum, shot = cum[:, :-1], shot[:-1]
        # the count of entries <= u is searchsorted(cum, u, side="right")
        outcomes[shot] = (cum <= u_meas[shot]).sum(axis=0)
    return outcomes


def _replay(c: ParamCircuit, first_gate, ev_col, ev_gate, ev_pauli) -> np.ndarray:
    """Final states of one batch, one per column: column r starts erring
    at gate first_gate[r] (ascending; len(c.gates) for never), and gets
    Pauli ev_pauli[e] after gate ev_gate[e] if ev_col[e] == r.

    The columns agree up to their earliest first error, so that prefix is
    run once on a single state.
    """
    injections: dict[int, dict[int, list[int]]] = {}
    for r, i, k in zip(ev_col.tolist(), ev_gate.tolist(), ev_pauli.tolist()):
        injections.setdefault(i, {}).setdefault(k, []).append(r)
    start = int(first_gate[0])
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates[: start + 1]:
        _apply_gate(state, g)
    batch = np.repeat(state[:, None], len(first_gate), axis=1)
    for i in range(start, len(c.gates)):
        g = c.gates[i]
        if i > start:
            _apply_gate(batch, g)
        for k, cols in injections.get(i, {}).items():
            sub = batch[:, cols]
            _inject(sub, g, k)
            batch[:, cols] = sub
    return batch


def _inject(states: np.ndarray, g: Gate, k: int) -> None:
    """Apply Pauli number k of the gate's error set on its qubit(s), in place."""
    if g.kind == "CNOT":
        for label, qubit in zip(_PAULI_2Q[k], g.targets):
            if label != "I":
                _apply_1q(states, _PAULI[label], qubit)
    else:
        _apply_1q(states, _PAULI[_PAULI_1Q[k]], g.targets[0])
