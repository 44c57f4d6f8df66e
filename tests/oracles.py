"""Independent brute-force oracles used to validate the fast paths.

The dense simulator builds every gate as an explicit Kronecker-product
matrix and multiplies them out; it shares no code with the engine.
"""
import itertools
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


def general_apply_1q(states, mat, k):
    """A 2x2 matrix on qubit k, in place, updating the two halves in turn:
    the engine's kernel before its exchange-symmetric branch, kept as the
    reference for that branch.  Same layout and operand order as
    ``engine._apply_1q``."""
    (m00, m01), (m10, m11) = mat.tolist()
    psi = states.reshape(-1, 2, 1 << (k - 1), *states.shape[1:])
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


def _rng(seed, tag):
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng((*base, tag))


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]


def per_shot_trajectories(circuit, nm, shots, seed):
    """Pauli-trajectory counts with every diverged shot replayed on its own,
    as a reference for the batched replay in ``simulate_noisy``.

    Same random substreams and draw order as the engine: measurement
    uniforms (tag 1), gate-error flags in chunks of whole shots (tag 2),
    one Pauli index per flagged gate, shot by shot and gate by gate
    (tag 3), readout flips (tag 4).  Gate math comes from
    ``engine._apply_gate``, which the dense oracle already checks.
    """
    from hamqaoa.engine import _apply_1q, _apply_gate
    from hamqaoa.hamiltonian import index_to_bits

    q, gates = circuit.num_qubits, circuit.gates
    u_meas = _rng(seed, 1).random(shots)
    flag_rng, pauli_rng = _rng(seed, 2), _rng(seed, 3)
    p_gate = np.array([nm.p2 if g.kind == "CNOT" else nm.p1 for g in gates])

    def prefix(stop):
        state = np.zeros(1 << q, dtype=complex)
        state[0] = 1.0
        for g in gates[:stop]:
            _apply_gate(state, g)
        return state

    def inject(state, g):
        if g.kind == "CNOT":
            pair = _PAULI_2Q[pauli_rng.integers(len(_PAULI_2Q))]
            for label, qubit in zip(pair, g.targets):
                if label != "I":
                    _apply_1q(state, _PAULI[label], qubit)
        else:
            _apply_1q(state, _PAULI[_PAULI_1Q[pauli_rng.integers(3)]], g.targets[0])

    def draw(state, u):
        cum = np.cumsum(np.abs(state) ** 2)
        cum[-1] = 1.0
        return int(np.searchsorted(cum, u, side="right"))

    clean = prefix(len(gates))
    outcomes = []
    chunk = max(1, (1 << 20) // max(1, len(gates)))
    for start in range(0, shots, chunk):
        stop = min(start + chunk, shots)
        flags = flag_rng.random((stop - start, len(gates))) < p_gate
        for t in range(start, stop):
            row = flags[t - start]
            if not row.any():
                outcomes.append(draw(clean, u_meas[t]))
                continue
            first = int(np.argmax(row))
            state = prefix(first + 1)
            inject(state, gates[first])
            for i in range(first + 1, len(gates)):
                _apply_gate(state, gates[i])
                if row[i]:
                    inject(state, gates[i])
            outcomes.append(draw(state, u_meas[t]))

    if nm.readout_flip > 0.0:
        flips = _rng(seed, 4).random((shots, q)) < nm.readout_flip
        outcomes = [o ^ sum(1 << k for k in range(q) if f[k]) for o, f in zip(outcomes, flips)]
    counts = {}
    for o in outcomes:
        bits = index_to_bits(o, q)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def _select(axes, bits, q):
    """Index fixing the given axes of a density tensor to the given bits."""
    idx = [slice(None)] * (2 * q)
    for axis, v in zip(axes, bits):
        idx[axis] = v
    return tuple(idx)


def _conjugate(rho, mat, qubits, q):
    """M rho M^dagger for a 2^k x 2^k matrix M acting on the given qubits;
    rho is a tensor with q row axes then q column axes, axis q-k (row)
    and 2q-k (column) belonging to qubit k."""
    combos = list(itertools.product((0, 1), repeat=len(qubits)))
    mat = np.asarray(mat, dtype=complex)
    # rows: (M rho)[a] = sum_b M[a, b] rho[b]; columns: the same with conj(M)
    for axes, m in (([q - b for b in qubits], mat), ([2 * q - b for b in qubits], mat.conj())):
        out = np.zeros_like(rho)
        for a, bits_a in enumerate(combos):
            for b, bits_b in enumerate(combos):
                if m[a, b] != 0:
                    out[_select(axes, bits_a, q)] += m[a, b] * rho[_select(axes, bits_b, q)]
        rho = out
    return rho


def _depolarize(rho, p, qubits, q):
    """(1 - p) rho + p/(4^k - 1) * sum of P rho P over the non-identity
    Paulis P on the k touched qubits, where that sum is
    2^(2k) (Tr_touched rho (x) I/2^k) - rho."""
    if p == 0.0:
        return rho
    k, share = len(qubits), p / (4 ** len(qubits) - 1)
    # the blocks with touched rows and columns fixed to the same bits;
    # the partial trace is their sum
    axes = [q - b for b in qubits] + [2 * q - b for b in qubits]
    blocks = [_select(axes, bits * 2, q) for bits in itertools.product((0, 1), repeat=k)]
    reduced = sum(rho[idx] for idx in blocks)
    out = (1 - p - share) * rho
    for idx in blocks:
        out[idx] += share * 2**k * reduced
    return out


def density_matrix_distribution(circuit, nm):
    """Exact outcome distribution of the noisy circuit, {bits: probability}.

    Evolves the density matrix: each gate as U rho U^dagger, then the
    depolarizing channel of the noise model on the gate's qubits (p2 for
    CNOT, p1 otherwise), then independent readout flips per bit.  Shares
    no code with the engine; for up to 9 qubits.
    """
    q = circuit.num_qubits
    if q > 9:
        raise ValueError("density-matrix oracle is for at most 9 qubits")
    rho = np.zeros([2] * (2 * q), dtype=complex)
    rho[(0,) * (2 * q)] = 1.0
    for g in circuit.gates:
        if g.kind == "CNOT":
            rho = _conjugate(rho, _CNOT, list(g.targets), q)
            rho = _depolarize(rho, nm.p2, list(g.targets), q)
        else:
            mat = _H if g.kind == "H" else _rotation(g.kind, g.angle)
            rho = _conjugate(rho, mat, list(g.targets), q)
            rho = _depolarize(rho, nm.p1, list(g.targets), q)
    probs = np.real(np.diagonal(rho.reshape(1 << q, 1 << q))).reshape([2] * q)
    for axis in range(q):
        probs = (1 - nm.readout_flip) * probs + nm.readout_flip * np.flip(probs, axis)
    return {format(i, f"0{q}b")[::-1]: float(v) for i, v in enumerate(probs.reshape(-1))}


def delta_tv(a, b):
    """Total-variation distance between two {outcome: probability} maps."""
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


class _BudgetExhausted(Exception):
    pass


def _closure_nelder_mead(f, x0, budget, xtol, ftol):
    """One simplex run; returns (best_x, best_f, evals, converged, history)."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    d = len(x0)
    history = []
    evals = 0
    best_x, best_f = None, np.inf

    def call(x):
        nonlocal evals, best_x, best_f
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        v = float(f(x))
        history.append(v)
        if v < best_f:
            best_x, best_f = np.array(x), v
        return v

    step = np.where(np.abs(x0) > 1e-12, 0.1 * np.abs(x0) + 0.25, 0.25)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(d):
        x = simplex[0].copy()
        x[i] += step[i]
        simplex.append(x)
    converged = False

    try:
        values = [call(x) for x in simplex]
        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            spread = np.max(np.abs(np.array(simplex[1:]) - simplex[0]))
            if spread < xtol and values[-1] - values[0] < ftol:
                converged = True
                break
            centroid = np.mean(simplex[:-1], axis=0)
            reflected = centroid + alpha * (centroid - simplex[-1])
            fr = call(reflected)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
            elif fr < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                fe = call(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
            else:
                contracted = centroid + rho * (simplex[-1] - centroid)
                fc = call(contracted)
                if fc < values[-1]:
                    simplex[-1], values[-1] = contracted, fc
                else:
                    for i in range(1, d + 1):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        values[i] = call(simplex[i])
    except _BudgetExhausted:
        pass

    return best_x, best_f, evals, converged, history


def closure_minimize(f, x0, cfg):
    """Nelder-Mead with restarts as a closure that counts the budget and
    keeps the best point, stopping by exception: ``optimizer.minimize``
    before it drove an ask/tell generator, kept as its reference."""
    from hamqaoa.optimizer import OptimizationResult

    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    if d < 1:
        raise ValueError("need at least one parameter")
    lo, hi = 0.0, 2.0 * np.pi
    starts = [x0]
    for r in range(1, cfg.restarts):
        rng = np.random.default_rng((cfg.seed, r))
        starts.append(lo + (hi - lo) * rng.random(d))

    per_restart = max(d + 2, cfg.max_evals // cfg.restarts)
    trace = []
    best_x, best_f, best_converged = None, np.inf, False
    total = 0
    for start in starts:
        if total >= cfg.max_evals:
            break
        budget = min(per_restart, cfg.max_evals - total)
        x, fx, used, conv, history = _closure_nelder_mead(f, start, budget, 1e-6, 1e-9)
        trace.extend((total + i + 1, v) for i, v in enumerate(history))
        total += used
        if fx < best_f:
            best_x, best_f, best_converged = x, fx, conv
    return OptimizationResult(
        best_params=np.asarray(best_x),
        best_value=best_f,
        trace=trace,
        evals_used=total,
        converged=best_converged,
    )
