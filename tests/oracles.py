"""Independent brute-force oracles used to validate the fast paths.

The dense simulator builds every gate as an explicit Kronecker-product
matrix and multiplies them out; it shares no code with the engine.
"""
import math
from fractions import Fraction

import numpy as np

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_EYE = np.eye(2)
_P0 = np.array([[1, 0], [0, 0]])
_P1 = np.array([[0, 0], [0, 1]])
_X = np.array([[0, 1], [1, 0]])
# the Paulis as (m00, m01, m10, m11) of Python numbers, the layout of the
# engine's 2x2 matrices
PAULI = {"X": (0, 1, 1, 0), "Y": (0, -1j, 1j, 0), "Z": (1, 0, 0, -1)}


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


def general_apply_1q(states, m, k, exchange):
    """A 2x2 matrix on qubit k, in place, updating the two halves in turn
    (or, when both off-diagonal entries are zero, each alone): the
    engine's kernel before its exchange-symmetric branch, kept as the
    reference for that branch.  Same layouts, operand order and arguments
    as ``engine._apply_1q``; ``exchange`` is ignored here."""
    m00, m01, m10, m11 = m
    psi = states.reshape(*states.shape[:-1], -1, 2, 1 << (k - 1))
    a0, a1 = psi[..., 0, :], psi[..., 1, :]
    if not np.any(m01) and not np.any(m10):
        np.multiply(m00, a0, a0)
        np.multiply(m11, a1, a1)
        return
    tmp = m10 * a0
    np.multiply(m00, a0, a0)
    a0 += m01 * a1
    np.multiply(m11, a1, a1)
    a1 += tmp


def single_qaoa_state(h, gammas, betas, mixer="RX"):
    """``engine.qaoa_state`` before it took batches of angle rows: one
    state, evolved alone, with the energies shifted on every call; the
    reference for every row of a batch."""
    from hamqaoa.engine import Statevector, _apply_1q, _rotation

    q = h.num_qubits
    dim = 1 << q
    energies = h.energies() - h.constant
    state = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    for gamma, beta in zip(gammas, betas, strict=True):
        state = state * np.exp(-1j * float(gamma) * energies)
        mat = _rotation(mixer, 2.0 * float(beta))
        for k in range(1, q + 1):
            _apply_1q(state, mat, k, mixer == "RX")
    return Statevector(state, q)


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


def parity_energies(h):
    """Energy vector of a DiagonalHamiltonian by one pass over the full
    register per term, as a reference for ``DiagonalHamiltonian.energies``."""
    idx = np.arange(1 << h.num_qubits, dtype=np.uint64)
    out = np.full(idx.shape, h.constant)
    for mask, coeff in h.terms:
        parity = np.bitwise_count(idx & np.uint64(mask)) & 1
        out += coeff * (1.0 - 2.0 * parity)
    return out


def _rng(seed, tag):
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng((*base, tag))


_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]


def per_shot_trajectories(circuit, nm, shots, seed):
    """Pauli-trajectory counts with every diverged shot replayed on its own,
    as a reference for the batched replay in ``simulate_noisy``.

    Same random substreams and draw order as the engine: measurement
    uniforms (tag 1), gate-error flags in chunks of whole shots (tag 2),
    one Pauli index per flagged gate, shot by shot and gate by gate
    (tag 3), readout flips (tag 4).  Gate math comes from
    ``engine._apply_gate``, which the dense oracle already checks; each
    Pauli of an error is its ``PAULI`` matrix, applied by
    ``general_apply_1q`` on its own qubit.
    """
    from hamqaoa.engine import _apply_gate
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
                    general_apply_1q(state, PAULI[label], qubit, False)
        else:
            label = _PAULI_1Q[pauli_rng.integers(3)]
            general_apply_1q(state, PAULI[label], g.targets[0], False)

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


def _conjugation(mat):
    """The superoperator of rho -> M rho M^dagger for a 2^k x 2^k matrix M:
    (M rho M^dagger)[a, a'] = sum_bb' M[a, b] conj(M)[a', b'] rho[b, b'],
    indexed (a, a') by (b, b')."""
    mat = np.asarray(mat, dtype=complex)
    return np.kron(mat, mat.conj())


def _depolarizing(p, k):
    """The superoperator of (1 - p) rho + p/(4^k - 1) * sum of P rho P over
    the non-identity Paulis P on k qubits, where that sum is
    2^(2k) (Tr rho (x) I/2^k) - rho: |b><b'| goes to
    (1 - p - share) |b><b'| + share 2^k delta_bb' I."""
    share = p / (4**k - 1)
    eye = np.eye(1 << k).reshape(-1)
    return (1 - p - share) * np.eye(4**k) + share * 2**k * np.outer(eye, eye)


def _superoperate(rho, sup, qubits, q):
    """Apply a 4^k x 4^k superoperator to the k given qubits of rho, a
    tensor with q row axes then q column axes, axis q-j (row) and 2q-j
    (column) belonging to qubit j.  The superoperator's index is the
    touched row bits then the touched column bits, the first qubit the
    most significant of each."""
    k2 = 2 * len(qubits)
    axes = [q - j for j in qubits] + [2 * q - j for j in qubits]
    out = np.tensordot(sup.reshape([2] * (2 * k2)), rho, axes=(list(range(k2, 2 * k2)), axes))
    return np.moveaxis(out, range(k2), axes)


def density_matrix_distribution(circuit, nm):
    """Exact outcome distribution of the noisy circuit, {bits: probability}.

    Evolves the density matrix gate by gate: each gate as U rho U^dagger,
    then the depolarizing channel of the noise model on the gate's qubits
    (p2 for CNOT, p1 otherwise), the two composed into one superoperator
    on the gate's qubits; then independent readout flips per bit.  Shares
    no code with the engine; for up to 9 qubits.
    """
    q = circuit.num_qubits
    if q > 9:
        raise ValueError("density-matrix oracle is for at most 9 qubits")
    rho = np.zeros([2] * (2 * q), dtype=complex)
    rho[(0,) * (2 * q)] = 1.0
    for g in circuit.gates:
        if g.kind == "CNOT":
            mat, p = _CNOT, nm.p2
        else:
            mat, p = (_H if g.kind == "H" else _rotation(g.kind, g.angle)), nm.p1
        sup = _depolarizing(p, len(g.targets)) @ _conjugation(mat)
        rho = _superoperate(rho, sup, list(g.targets), q)
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


class _RewrappingQubo:
    """Penalty polynomial that copies every coefficient into a new Fraction
    on each construction, sum and scaling."""

    def __init__(self, constant=0, linear=None, quadratic=None):
        self.constant = Fraction(constant)
        self.linear = {k: Fraction(c) for k, c in (linear or {}).items() if c != 0}
        self.quadratic = {
            k: Fraction(c) for k, c in (quadratic or {}).items() if c != 0
        }

    def __add__(self, other):
        lin = dict(self.linear)
        for k, c in other.linear.items():
            lin[k] = lin.get(k, Fraction(0)) + c
        quad = dict(self.quadratic)
        for k, c in other.quadratic.items():
            quad[k] = quad.get(k, Fraction(0)) + c
        return _RewrappingQubo(self.constant + other.constant, lin, quad)

    def scale(self, factor):
        f = Fraction(factor)
        return _RewrappingQubo(
            self.constant * f,
            {k: c * f for k, c in self.linear.items()},
            {k: c * f for k, c in self.quadratic.items()},
        )


def _rewrapping_row_penalty(terms):
    def pair(a, b):
        return (a, b) if a < b else (b, a)

    lin = {t: Fraction(-1) for t in terms}
    quad = {}
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            quad[pair(terms[i], terms[j])] = Fraction(2)
    return _RewrappingQubo(1, lin, quad)


def rewrapping_compile(g, weight=1):
    """(constant, linear, quadratic) of the Ising model of graph g, built by
    summing one penalty row at a time and re-wrapping every coefficient, as
    a reference for ``to_ising(assemble(g, weight), g.n)``."""
    from hamqaoa.graph import non_edges

    n = g.n
    poly = _RewrappingQubo()
    for v in range(2, n + 1):
        poly = poly + _rewrapping_row_penalty([(v, j) for j in range(2, n + 1)])
    for j in range(2, n + 1):
        poly = poly + _rewrapping_row_penalty([(v, j) for v in range(2, n + 1)])
    lin, quad = {}, {}
    for u, v in sorted(non_edges(g)):
        if u == 1:
            for k in (2, n):
                lin[(v, k)] = lin.get((v, k), Fraction(0)) + 1
            continue
        for a, b in ((u, v), (v, u)):
            for j in range(2, n):
                key = ((a, j), (b, j + 1)) if (a, j) < (b, j + 1) else ((b, j + 1), (a, j))
                quad[key] = quad.get(key, Fraction(0)) + 1
    poly = (poly + _RewrappingQubo(0, lin, quad)).scale(weight)
    return fraction_to_ising(poly, n)


def fraction_to_ising(poly, n):
    """(constant, linear, quadratic) of the Ising model of a QUBO polynomial
    on n vertices, x -> (1 - Z)/2 applied Fraction by Fraction, as a
    reference for ``to_ising``."""
    from hamqaoa.graph import qubit_index

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    constant = poly.constant
    linear, quadratic = {}, {}
    for (v, j), c in poly.linear.items():
        k = qubit_index(v, j, n)
        constant += c * half
        linear[k] = linear.get(k, Fraction(0)) - c * half
    for (a, b), c in poly.quadratic.items():
        ja, jb = qubit_index(*a, n), qubit_index(*b, n)
        constant += c * quarter
        linear[ja] = linear.get(ja, Fraction(0)) - c * quarter
        linear[jb] = linear.get(jb, Fraction(0)) - c * quarter
        key = (min(ja, jb), max(ja, jb))
        quadratic[key] = quadratic.get(key, Fraction(0)) + c * quarter
    return (
        constant,
        {k: c for k, c in linear.items() if c != 0},
        {k: c for k, c in quadratic.items() if c != 0},
    )
