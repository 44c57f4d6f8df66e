"""Dense statevector simulation, sampling, and Pauli-trajectory noise.

Basis convention: bit k-1 of a flat state index is the measured value of
qubit k, matching the assignment-string convention (qubit 1 = leftmost
character).

Noise is a stochastic unraveling: each shot is one trajectory through
the circuit in which, after every gate, a uniformly random non-identity
Pauli is inserted on the touched qubit(s) with probability p1 (1-qubit
gates) or p2 (2-qubit gates), followed by an optional classical readout
flip per bit.  Memory stays at one statevector.

Randomness is split into four counter-derived substreams of the user
seed - measurement, gate-error flags, Pauli choices, readout flips - so
that a zero-noise trajectory run reproduces noiseless sampling exactly.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, Param, ParamCircuit, check_mixer
from .errors import DimensionMismatch, TooManyQubits, UnboundParameter
from .hamiltonian import DiagonalHamiltonian, energy_of, index_to_bits

SIMULATOR_QUBIT_CAP = 24
DEFAULT_SHOTS = 10000

# Prefix states are cached for trajectory restarts only up to this many
# complex amplitudes in total.
_PREFIX_CACHE_BUDGET = 1 << 22

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


def _apply_1q(state: np.ndarray, mat: np.ndarray, k: int) -> np.ndarray:
    """Apply a 2x2 matrix to qubit k (index bit k-1) of a flat state."""
    psi = state.reshape(-1, 2, 1 << (k - 1))
    out = np.empty_like(psi)
    out[:, 0, :] = mat[0, 0] * psi[:, 0, :] + mat[0, 1] * psi[:, 1, :]
    out[:, 1, :] = mat[1, 0] * psi[:, 0, :] + mat[1, 1] * psi[:, 1, :]
    return out.reshape(-1)


def _apply_cnot(state: np.ndarray, control: int, target: int, q: int) -> np.ndarray:
    psi = state.reshape([2] * q)
    ax_c, ax_t = q - control, q - target
    sel10 = [slice(None)] * q
    sel11 = [slice(None)] * q
    sel10[ax_c], sel10[ax_t] = 1, 0
    sel11[ax_c], sel11[ax_t] = 1, 1
    out = psi.copy()
    out[tuple(sel10)] = psi[tuple(sel11)]
    out[tuple(sel11)] = psi[tuple(sel10)]
    return out.reshape(-1)


def _apply_gate(state: np.ndarray, g: Gate, q: int) -> np.ndarray:
    if g.kind == "H":
        return _apply_1q(state, _H, g.targets[0])
    if g.kind == "CNOT":
        return _apply_cnot(state, g.targets[0], g.targets[1], q)
    if isinstance(g.angle, Param):
        raise UnboundParameter(f"gate {g.kind} has symbolic angle {g.angle}")
    return _apply_1q(state, _rotation(g.kind, float(g.angle)), g.targets[0])


def _check_circuit(c: ParamCircuit, cap: int) -> None:
    if c.num_qubits > cap:
        raise TooManyQubits(f"{c.num_qubits} qubits exceeds simulator cap {cap}")
    if not c.is_bound:
        raise UnboundParameter("circuit has unbound symbolic parameters")


def simulate(c: ParamCircuit, cap: int = SIMULATOR_QUBIT_CAP) -> Statevector:
    """Exact amplitudes of the bound circuit applied to |0...0>."""
    _check_circuit(c, cap)
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        state = _apply_gate(state, g, c.num_qubits)
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
            state = _apply_1q(state, mat, k)
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


def sample(s: Statevector, shots: int, seed: int) -> Distribution:
    """Draw i.i.d. computational-basis measurements from |amplitude|^2."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    outcomes = _draw_outcomes(s.probabilities(), _measure_stream(seed, shots))
    counts = Counter(index_to_bits(int(i), s.num_qubits) for i in outcomes)
    return Distribution(dict(counts), shots)


def _error_probs(c: ParamCircuit, nm: NoiseModel) -> np.ndarray:
    return np.array(
        [nm.p2 if g.kind == "CNOT" else nm.p1 for g in c.gates], dtype=float
    )


def _inject(state: np.ndarray, g: Gate, q: int, rng: np.random.Generator) -> np.ndarray:
    """Insert a random non-identity Pauli on the qubit(s) touched by g."""
    if g.kind == "CNOT":
        pa, pb = _PAULI_2Q[rng.integers(len(_PAULI_2Q))]
        for label, qubit in ((pa, g.targets[0]), (pb, g.targets[1])):
            if label != "I":
                state = _apply_1q(state, _PAULI[label], qubit)
        return state
    label = _PAULI_1Q[rng.integers(3)]
    return _apply_1q(state, _PAULI[label], g.targets[0])


def simulate_noisy(
    c: ParamCircuit,
    nm: NoiseModel,
    shots: int,
    seed: int,
    cap: int = SIMULATOR_QUBIT_CAP,
) -> Distribution:
    """Pauli-trajectory sampling: one noisy circuit run per shot.

    With nm = (0, 0, 0) the output equals ``sample(simulate(c), ...)``
    for the same seed, because the measurement substream is shared and no
    noise draws are consumed.
    """
    _check_circuit(c, cap)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = c.num_qubits
    gates = c.gates
    clean = simulate(c, cap).amplitudes
    clean_cum = np.cumsum(np.abs(clean) ** 2)
    clean_cum[-1] = 1.0

    u_meas = _measure_stream(seed, shots)
    outcomes = np.empty(shots, dtype=np.int64)

    p_gate = _error_probs(c, nm)
    if nm.p1 == 0.0 and nm.p2 == 0.0:
        outcomes = np.searchsorted(clean_cum, u_meas, side="right")
    else:
        prefixes = _prefix_states(c) if (len(gates) + 1) * (1 << q) <= _PREFIX_CACHE_BUDGET else None
        flag_rng = _substream(seed, 2)
        pauli_rng = _substream(seed, 3)
        chunk = max(1, (1 << 20) // max(1, len(gates)))
        for start in range(0, shots, chunk):
            stop = min(start + chunk, shots)
            flags = flag_rng.random((stop - start, len(gates))) < p_gate
            for t in range(start, stop):
                row = flags[t - start]
                if not row.any():
                    outcomes[t] = np.searchsorted(clean_cum, u_meas[t], side="right")
                    continue
                first = int(np.argmax(row))
                if prefixes is not None:
                    state = prefixes[first + 1].copy()
                else:
                    state = np.zeros(1 << q, dtype=complex)
                    state[0] = 1.0
                    for i in range(first + 1):
                        state = _apply_gate(state, gates[i], q)
                state = _inject(state, gates[first], q, pauli_rng)
                for i in range(first + 1, len(gates)):
                    state = _apply_gate(state, gates[i], q)
                    if row[i]:
                        state = _inject(state, gates[i], q, pauli_rng)
                outcomes[t] = _draw_outcomes(np.abs(state) ** 2, u_meas[t : t + 1])[0]

    if nm.readout_flip > 0.0:
        ro_rng = _substream(seed, 4)
        flips = ro_rng.random((shots, q)) < nm.readout_flip
        masks = (flips * (1 << np.arange(q, dtype=np.int64))).sum(axis=1)
        outcomes = outcomes ^ masks

    counts = Counter(index_to_bits(int(i), q) for i in outcomes)
    return Distribution(dict(counts), shots)


def _prefix_states(c: ParamCircuit) -> list[np.ndarray]:
    """States after each gate; prefixes[i] is the state before gate i."""
    state = np.zeros(1 << c.num_qubits, dtype=complex)
    state[0] = 1.0
    out = [state]
    for g in c.gates:
        state = _apply_gate(state, g, c.num_qubits)
        out.append(state)
    return out
