"""Nelder-Mead minimization and the end-to-end QAOA solve loop.

The simplex method is self-contained (reflection / expansion /
contraction / shrink with standard coefficients) and written as an
ask/tell generator; ``minimize`` drives it through random restarts drawn
from [0, 2pi).  Restarts share a global evaluation budget; the best
restart wins, ties broken by lowest restart index.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .circuit import bind, build_ansatz
from .engine import (
    DEFAULT_SHOTS,
    SIMULATOR_QUBIT_CAP,
    Distribution,
    NoiseModel,
    check_shots,
    expectation,
    qaoa_state,
    sample,
    simulate_noisy,
)
from .hamiltonian import DiagonalHamiltonian, full_spectrum
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
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    trace: list[tuple[int, float]]
    evals_used: int
    converged: bool


def _nelder_mead(x0):
    """One simplex run from x0: yields each point to evaluate, takes its
    value through ``send`` and returns once the simplex has converged."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    d = len(x0)
    step = np.where(np.abs(x0) > 1e-12, 0.1 * np.abs(x0) + 0.25, 0.25)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(d):
        x = simplex[0].copy()
        x[i] += step[i]
        simplex.append(x)
    values = []
    for x in simplex:
        values.append((yield x))

    while True:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = np.max(np.abs(np.array(simplex[1:]) - simplex[0]))
        if spread < XTOL and values[-1] - values[0] < FTOL:
            return
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        fr = yield reflected
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        elif fr < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            fe = yield expanded
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + rho * (simplex[-1] - centroid)
            fc = yield contracted
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = yield simplex[i]


def minimize(f, x0, cfg: OptimizerConfig) -> OptimizationResult:
    """Minimize f over real vectors, with random restarts.

    Restart 0 starts at x0; restart r, as it begins, draws a uniform
    start from [0, 2pi) with seed (cfg.seed, r), so results are
    deterministic.  Raises ValueError if f never returns a value below +inf.
    """
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    if d < 1:
        raise ValueError("need at least one parameter")
    per_restart = max(d + 2, cfg.max_evals // cfg.restarts)
    trace: list[tuple[int, float]] = []
    best_x, best_f, best_converged = None, np.inf, False
    for r in range(cfg.restarts):
        if len(trace) >= cfg.max_evals:
            break
        start = x0
        if r > 0:
            start = TWO_PI * np.random.default_rng((cfg.seed, r)).random(d)
        search = _nelder_mead(start)
        x = next(search)
        improved = converged = False
        for _ in range(min(per_restart, cfg.max_evals - len(trace))):
            v = float(f(x))
            trace.append((len(trace) + 1, v))
            if v < best_f:
                best_x, best_f, improved = np.array(x), v, True
            try:
                x = search.send(v)
            except StopIteration:
                converged = True
                break
        if improved:
            best_converged = converged
    if best_x is None:
        raise ValueError("the objective returned no finite value")
    return OptimizationResult(
        best_params=best_x,
        best_value=best_f,
        trace=trace,
        evals_used=len(trace),
        converged=best_converged,
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

    def to_json(self) -> str:
        obj = {
            "p": self.p,
            "mixer": self.mixer,
            "shots": self.shots,
            "seed": self.seed,
            "noise": None
            if self.noise is None
            else {
                "p1": self.noise.p1,
                "p2": self.noise.p2,
                "readout_flip": self.noise.readout_flip,
            },
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
        return json.dumps(obj, indent=2)


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
    circuit = build_ansatz(m, p, mixer)
    mixer = circuit.mixer_kind
    h = DiagonalHamiltonian.from_ising(m)
    spec = full_spectrum(h, SIMULATOR_QUBIT_CAP)
    noisy = nm is not None and not nm.is_trivial
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
        return expectation(qaoa_state(h, params[:p], params[p:], mixer), h)

    if p == 0:
        params = np.zeros(0)
    else:
        x0 = TWO_PI * np.random.default_rng((cfg.seed, 0)).random(2 * p)
        result = minimize(objective, x0, cfg)
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
