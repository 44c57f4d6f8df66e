"""Nelder-Mead minimization and the end-to-end QAOA solve loop.

The simplex method is self-contained (reflection / expansion /
contraction / shrink with standard coefficients) and written as an
ask/tell generator; ``minimize`` drives it through random restarts drawn
from [0, 2pi).  Restarts share a global evaluation budget, split before
the first evaluation; the best restart wins, ties broken by lowest
restart index.  Restarts may run in lockstep, one batch of points per
call of the objective, and a batch's spare rows carry the points each
restart may ask for next, evaluated before it asks.  ``qaoa_solve`` does
so for the exact noiseless objective on registers where a batch of states
is faster than one state at a time, and the result is the same as running
the restarts one by one, a point at a time.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .circuit import bind, build_ansatz, check_ansatz
from .engine import (
    DEFAULT_SHOTS,
    Distribution,
    NoiseModel,
    check_shots,
    expectation,
    lockstep_rows,
    noise_record,
    qaoa_expectation,
    qaoa_state,
    sample,
    simulate_noisy,
)
from .hamiltonian import SIMULATOR_QUBIT_CAP, DiagonalHamiltonian, check_qubits, full_spectrum
from .qubo import IsingModel

TWO_PI = 2.0 * np.pi
XTOL = 1e-6
FTOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 4000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        # a float budget would never equal a restart's count of evaluations
        for name, least in (("max_evals", 1), ("restarts", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    trace: list[tuple[int, float]]
    evals_used: int
    converged: bool


def _nelder_mead(x0, lookahead: bool = True):
    """One simplex run from x0: yields each point to evaluate with the
    points it may ask for next, takes the point's value through ``send``
    and returns once the simplex has converged.  A point it asks for next
    is the very object it offered.  Without ``lookahead`` a step offers
    neither its expansion nor its contraction, and computes only the one
    it asks for."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    d = len(x0)
    step = np.where(np.abs(x0) > 1e-12, 0.1 * np.abs(x0) + 0.25, 0.25)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(d):
        x = simplex[0].copy()
        x[i] += step[i]
        simplex.append(x)
    values = []
    for i, x in enumerate(simplex):
        values.append((yield x, simplex[i + 1 :]))

    while True:
        # np.argsort's kernel and tie order, without its dispatch on a
        # list; a stable sort would order tied values otherwise
        order = np.array(values).argsort().tolist()
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        # the value test first: it is cheaper and rarely passes
        if values[-1] - values[0] < FTOL:
            spread = np.max(np.abs(np.array(simplex[1:]) - simplex[0]))
            if spread < XTOL:
                return
        # np.mean's sum and division, without its checks
        centroid = np.add.reduce(np.array(simplex[:-1]), axis=0) / d
        reflected = centroid + alpha * (centroid - simplex[-1])
        ahead = ()
        if lookahead:
            # neither depends on fr; the contraction is the likelier ask
            expanded = centroid + gamma * (reflected - centroid)
            contracted = centroid + rho * (simplex[-1] - centroid)
            ahead = (contracted, expanded)
        fr = yield reflected, ahead
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        elif fr < values[0]:
            if not lookahead:
                expanded = centroid + gamma * (reflected - centroid)
            fe = yield expanded, ()
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        else:
            if not lookahead:
                contracted = centroid + rho * (simplex[-1] - centroid)
            fc = yield contracted, ()
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                shrunk = [simplex[0] + sigma * (x - simplex[0]) for x in simplex[1:]]
                for i in range(1, d + 1):
                    simplex[i] = shrunk[i - 1]
                    values[i] = yield simplex[i], shrunk[i:]


class _Restart:
    """One simplex run of ``minimize``: its next point, the points it may
    ask for after that, its budget and its values."""

    def __init__(self, start, budget: int, lookahead: bool = True):
        self.search = _nelder_mead(start, lookahead)
        self.x, self.ahead = next(self.search)
        self.budget = budget
        self.values: list[float] = []
        self.best_x, self.best_f = None, np.inf
        self.converged = self.done = False

    def tell(self, v: float, ahead_values=()) -> None:
        """Take x's value.  ``ahead_values`` are the values of the first
        points of ``ahead``: while the search asks for one of them next, it
        takes that value too; the rest are dropped."""
        offered = self.ahead
        while True:
            self.values.append(v)
            if v < self.best_f:
                self.best_x, self.best_f = np.array(self.x), v
            try:
                self.x, self.ahead = self.search.send(v)
            except StopIteration:
                self.converged = self.done = True
                return
            self.done = len(self.values) == self.budget
            if self.done or not ahead_values:
                return
            # the next point's value, if it was evaluated with x
            for x, v in zip(offered, ahead_values):
                if x is self.x:
                    break
            else:
                return


def _share(running: list, room: int) -> None:
    """Cut the candidates of the running restarts to ``room`` in all: the
    first of every restart, in restart order, then the second, and so on."""
    keep = [0] * len(running)
    level = 0
    while room:
        for i, run in enumerate(running):
            if room and len(run.ahead) > level:
                keep[i] += 1
                room -= 1
        level += 1
    for run, k in zip(running, keep):
        run.ahead = run.ahead[:k]


def minimize(f, x0, cfg: OptimizerConfig, width: int = 1) -> OptimizationResult:
    """Minimize f over real vectors, with random restarts.

    Restart 0 starts at x0; restart r, as it begins, draws a uniform
    start from [0, 2pi) with seed (cfg.seed, r), so results are
    deterministic.  Raises ValueError if f never returns a value below +inf.

    Each restart may spend ``max(d + 2, max_evals // restarts)``
    evaluations, cut to what the earlier restarts leave of the budget; a
    restart left nothing never starts.  ``width`` is the most rows one
    call of f takes.  Up to ``width`` restarts run in lockstep, joining in
    restart order as slots free up: f takes their due points as the first
    rows of one (n, d) array and returns n values.  The rows left carry
    candidates, points a restart may ask for next: the rest of its initial
    simplex or of a shrink and, where ``width`` holds three rows for every
    restart, a step's contraction and expansion beside its reflection.
    They fill those rows a level of every restart at a time, never more
    than a restart's budget could use.  A restart takes a candidate's value
    only when it asks for that point, so for an f without side effects,
    which f must be when ``width`` > 1, the result does not depend on
    ``width``; at width 1, f takes one point at a time, in restart order.
    """
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    if d < 1:
        raise ValueError("need at least one parameter")
    if width < 1:
        raise ValueError("width must be >= 1")
    per_restart = max(d + 2, cfg.max_evals // cfg.restarts)
    # Only a share of d + 2 can overrun max_evals: max_evals // restarts
    # shares always fit.  No simplex converges within d + 2 evaluations, as
    # at its first two convergence tests some vertices still differ by the
    # initial step (at least 0.25, far above XTOL); so every restart before
    # a cut one spends its whole share.  Restarts left nothing never start.
    restarts = min(cfg.restarts, -(-cfg.max_evals // per_restart))
    budgets = [min(per_restart, cfg.max_evals - r * per_restart) for r in range(restarts)]
    # a step's expansion and contraction cost time to compute and rows to
    # evaluate: offered only where every restart's three points fit one call
    lookahead = width >= 3 * len(budgets)
    runs: list[_Restart] = []
    running: list[_Restart] = []
    while True:
        while len(runs) < len(budgets) and len(running) < width:
            r = len(runs)
            start = x0
            if r > 0:
                start = TWO_PI * np.random.default_rng((cfg.seed, r)).random(d)
            runs.append(_Restart(start, budgets[r], lookahead))
            running.append(runs[-1])
        if not running:
            break
        # the due points first, then the candidates in the rows left, as
        # many of each restart's as its budget could use after its due point
        n = len(running)
        points = [run.x for run in running]
        if width > n:
            for run in running:
                run.ahead = run.ahead[: run.budget - len(run.values) - 1]
            points += [x for run in running for x in run.ahead]
            if len(points) > width:
                _share(running, width - n)
                points[n:] = [x for run in running for x in run.ahead]
        if width == 1:
            values = [float(f(points[0]))]
        else:
            values = np.asarray(f(np.array(points)), dtype=float)
            if values.shape != (len(points),):
                raise ValueError(
                    f"objective gave {values.shape} values for {len(points)} points"
                )
            values = values.tolist()
        if len(points) == n:
            for run, v in zip(running, values):
                run.tell(v)
        else:
            lo = n
            for run, v in zip(running, values):
                hi = lo + len(run.ahead)
                run.tell(v, values[lo:hi])
                lo = hi
        running = [run for run in running if not run.done]

    values = [v for run in runs for v in run.values]
    # min keeps the first of equal values: ties go to the lowest restart
    best = min(runs, key=lambda run: run.best_f)
    if best.best_x is None:
        raise ValueError("the objective returned no finite value")
    return OptimizationResult(
        best_params=best.best_x,
        best_value=best.best_f,
        trace=list(enumerate(values, start=1)),
        evals_used=len(values),
        converged=best.converged,
    )


@dataclass
class SolveReport:
    optimization: OptimizationResult
    final_distribution: Distribution
    ground_state_mass: float
    expectation_final: float
    ground_energy: float
    ground_states: frozenset[str]
    p: int
    mixer: str
    shots: int
    seed: int
    noise: NoiseModel | None = None
    manifest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report as its JSON output records it."""
        return {
            "p": self.p,
            "mixer": self.mixer,
            "shots": self.shots,
            "seed": self.seed,
            "noise": noise_record(self.noise),
            "best_params": [float(v) for v in self.optimization.best_params],
            "best_value": self.optimization.best_value,
            "evals_used": self.optimization.evals_used,
            "converged": self.optimization.converged,
            "expectation_final": self.expectation_final,
            "ground_energy": self.ground_energy,
            "ground_states": sorted(self.ground_states),
            "ground_state_mass": self.ground_state_mass,
            "counts": dict(sorted(self.final_distribution.counts.items())),
            "manifest": self.manifest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def qaoa_solve(
    m: IsingModel,
    p: int,
    mixer: str = "RX",
    nm: NoiseModel | None = None,
    cfg: OptimizerConfig | None = None,
    shots: int = DEFAULT_SHOTS,
    sampled_objective: bool = False,
    manifest: dict | None = None,
) -> SolveReport:
    """Optimize a QAOA ansatz for the model and report the final sampling.

    Objective: exact expectation of the ansatz state when noiseless
    (unless sampled_objective is set), or the sampled mean energy of
    trajectory runs when a noise model is given.  Initial parameters are
    drawn uniformly from [0, 2pi) using cfg.seed.  At p = 0 the ansatz is
    the Hadamard row alone: nothing is optimized, and the final sampling
    runs as for any other depth.
    """
    cfg = cfg or OptimizerConfig()
    check_shots(shots)
    check_qubits(m.num_qubits)
    mixer = check_ansatz(m, p, mixer)
    h = DiagonalHamiltonian.from_ising(m)
    spec = full_spectrum(h, SIMULATOR_QUBIT_CAP)
    noisy = nm is not None and not nm.is_trivial
    # only the trajectories run the gates
    circuit = build_ansatz(m, p, mixer) if noisy else None
    if manifest is None:
        manifest = {}

    def measure(params, seed) -> Distribution:
        """Shots of the ansatz at params: noisy trajectories, or exact sampling."""
        gammas, betas = params[:p], params[p:]
        if noisy:
            return simulate_noisy(bind(circuit, gammas, betas), nm, shots, seed)
        return sample(qaoa_state(h, gammas, betas, mixer), shots, seed)

    eval_index = itertools.count(1)

    def objective(params):
        if noisy or sampled_objective:
            return measure(params, (cfg.seed, next(eval_index))).mean_energy(h)
        return qaoa_expectation(h, params[..., :p], params[..., p:], mixer)

    # The exact objective is pure, so restarts may share its calls, their
    # due points and the points they may ask for next, one row of angles
    # each, as many as fit one lockstep batch; the sampled ones seed each
    # call by its index, so they keep one call per point.
    width = 1
    if not (noisy or sampled_objective):
        width = lockstep_rows(h.num_qubits)

    if p == 0:
        params = np.zeros(0)
    else:
        x0 = TWO_PI * np.random.default_rng((cfg.seed, 0)).random(2 * p)
        result = minimize(objective, x0, cfg, width=width)
        params = result.best_params

    if noisy:
        dist = measure(params, cfg.seed)
        exp_final = dist.mean_energy(h)
    else:
        state = qaoa_state(h, params[:p], params[p:], mixer)
        dist = sample(state, shots, cfg.seed)
        exp_final = expectation(state, h)
    if p == 0:
        result = OptimizationResult(params, exp_final, [], 0, True)

    return SolveReport(
        optimization=result,
        final_distribution=dist,
        ground_state_mass=dist.mass(spec.ground_states),
        expectation_final=exp_final,
        ground_energy=spec.ground_energy,
        ground_states=spec.ground_states,
        p=p,
        mixer=mixer,
        shots=shots,
        seed=cfg.seed,
        noise=nm,
        manifest=manifest,
    )
