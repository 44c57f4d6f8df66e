"""Independent brute-force oracles used to validate the fast paths.

The dense simulator builds every gate as an explicit Kronecker-product
matrix and multiplies them out; it shares no code with the engine.
"""
import math

import numpy as np

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_EYE = np.eye(2)
_P0 = np.array([[1, 0], [0, 0]])
_P1 = np.array([[0, 0], [0, 1]])
_X = np.array([[0, 1], [1, 0]])


def _rotation(kind, theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _embed_single(mat, k, q):
    # qubit k lives on index bit k-1; np.kron puts its first factor on the
    # most significant bits, so iterate qubits from q down to 1
    out = np.array([[1.0]])
    for qq in range(q, 0, -1):
        out = np.kron(out, mat if qq == k else _EYE)
    return out


def _embed_cnot(control, target, q):
    a = np.array([[1.0]])
    b = np.array([[1.0]])
    for qq in range(q, 0, -1):
        a = np.kron(a, _P0 if qq == control else _EYE)
        b = np.kron(b, _P1 if qq == control else (_X if qq == target else _EYE))
    return a + b


def dense_statevector(circuit):
    """Amplitudes of the circuit on |0...0>, via full-unitary products."""
    q = circuit.num_qubits
    unitary = np.eye(1 << q, dtype=complex)
    for g in circuit.gates:
        if g.kind == "H":
            mat = _embed_single(_H, g.targets[0], q)
        elif g.kind == "CNOT":
            mat = _embed_cnot(g.targets[0], g.targets[1], q)
        else:
            mat = _embed_single(_rotation(g.kind, g.angle), g.targets[0], q)
        unitary = mat @ unitary
    return unitary[:, 0]


def random_circuit(rng, max_qubits=4, min_gates=5, max_gates=25):
    """A random bound circuit over the supported gate set."""
    from hamqaoa.circuit import Gate, ParamCircuit

    q = int(rng.integers(1, max_qubits + 1))
    gates = []
    for _ in range(int(rng.integers(min_gates, max_gates + 1))):
        kind = str(rng.choice(["H", "RX", "RY", "RZ", "CNOT"]))
        if kind == "CNOT":
            if q < 2:
                continue
            c, t = rng.choice(np.arange(1, q + 1), size=2, replace=False)
            gates.append(Gate("CNOT", (int(c), int(t))))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.integers(1, q + 1)),)))
        else:
            gates.append(
                Gate(kind, (int(rng.integers(1, q + 1)),), float(rng.uniform(0, 2 * math.pi)))
            )
    return ParamCircuit(q, tuple(gates), 0)


def grouped_spectrum(h):
    """Spectrum of a DiagonalHamiltonian by walking its basis states one at
    a time in energy order, as a reference for ``full_spectrum``."""
    from hamqaoa.hamiltonian import index_to_bits

    energies = np.round(h.energies(), 9)
    order = np.argsort(energies, kind="stable")
    levels = []
    current = []
    current_e = None
    for idx in order:
        e = float(energies[idx])
        if current_e is None or e != current_e:
            if current:
                levels.append((current_e, tuple(current)))
            current_e, current = e, []
        current.append(index_to_bits(int(idx), h.num_qubits))
    if current:
        levels.append((current_e, tuple(current)))
    ground_energy, ground_states = levels[0]
    return {
        "levels": tuple(levels),
        "ground_energy": ground_energy,
        "ground_states": frozenset(ground_states),
        "gap": levels[1][0] - ground_energy if len(levels) > 1 else 0.0,
        "mean_energy": sum(e * len(s) for e, s in levels) / len(energies),
    }
