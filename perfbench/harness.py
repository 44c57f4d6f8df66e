"""One benchmark run: set up, then time operations and spectrum jobs.

The run is single-process and single-threaded and closed-loop: the next
operation starts when the previous one has returned and been checked.
A new operation starts only if half the median operation so far would
still end before the deadline, so a run lasts about ``seconds`` even
when one operation takes several seconds; every run makes at least one
operation.

Side work fills the gaps between operations and, inside a solve, the
gaps between objective evaluations: the reference kernel every
``reference.EVERY_S`` and spectrum jobs whenever they have had less than
``SPECTRUM_SHARE`` of the run's time.  Side work is timed on its own and
subtracted from the operation it interrupts, and it samples the machine
all through the run rather than in one stretch of it.

The machine's speed drifts (see ``reference.py``), so every time is
multiplied by a scale: the reference kernel's trimmed mean time on the
baseline machine over its trimmed mean time in the same stretch of run.

- ``spectrum_s``: trimmed mean spectrum-job time, scaled by the kernel's
  Python part over the whole run (spectrum jobs are interpreter-bound);
- ``op_s``: median over operations of each operation's time, scaled by
  the whole kernel from just before to just after that operation (and a
  few samples either side);
- ``work_per_s``: median over operations of evaluations (or shots) per
  second, scaled like that operation's time.

The unscaled figures are kept as ``raw``.
"""
from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from reference import Reference, trimmed_mean
from spans import EvalGaps, Tracer
from workloads import NOISE, WORKLOADS, Inputs, OpOutput, Workload, hamiltonian_tours

SPECTRUM_SHARE = 0.2
# Tracer tags outside an operation (operations are tagged 0, 1, 2, ...).
SETUP, SPECTRUM, CHECK = -1, -2, -3


@dataclass
class RunResult:
    workload: str
    seed: int
    inputs: Inputs
    spectrum_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_samples: list[tuple[int, int]] = field(default_factory=list)
    ops: list[OpOutput] = field(default_factory=list)
    spectrum_failures: list[str] = field(default_factory=list)
    reference: Reference = field(default_factory=Reference)
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.spectrum_s) + len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if o.failures) + len(self.spectrum_failures)


class SideWork:
    """The reference kernel and spectrum jobs, run in the gaps of operations."""

    def __init__(self, wl: Workload, res: RunResult, set_tag):
        self.wl = wl
        self.res = res
        self.set_tag = set_tag
        self.tag = SETUP
        self.start = time.perf_counter()
        self.spent = 0.0
        self.spectrum_total = 0.0

    def spectrum_job(self) -> None:
        self.set_tag(SPECTRUM)
        t0 = time.perf_counter()
        spec = self.wl.spectrum_job(self.res.inputs)
        t1 = time.perf_counter()
        self.set_tag(CHECK)
        self.res.spectrum_s.append(t1 - t0)
        self.spectrum_total += t1 - t0
        self.res.spectrum_failures += self.wl.check_spectrum(self.res.inputs, spec)
        self.set_tag(self.tag)

    def spectrum_due(self) -> bool:
        return self.spectrum_total < SPECTRUM_SHARE * (time.perf_counter() - self.start)

    def __call__(self) -> None:
        """One gap: at most one kernel run and one spectrum job."""
        t0 = time.perf_counter()
        self.res.reference.maybe_sample()
        if self.spectrum_due():
            self.spectrum_job()
        self.spent += time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, tracer: Tracer | None = None) -> RunResult:
    wl = WORKLOADS[name]
    ref = Reference()
    if tracer:
        ref.kernel = tracer.wrap("bench.reference", ref.kernel)

    def set_tag(t):
        if tracer:
            tracer.tag = t

    set_tag(SETUP)
    with tracer.installed() if tracer else nullcontext():
        inputs = wl.setup(seed)
        inputs.tours = hamiltonian_tours(inputs.graph)
        res = RunResult(name, seed, inputs, reference=ref, tracer=tracer)
        side = SideWork(wl, res, set_tag)
        # Traced, side work is one span, so no layer's self time holds it.
        gaps = EvalGaps(tracer.wrap("bench.side", side) if tracer else side)
        with gaps.installed():
            deadline = side.start + seconds
            side.spectrum_job()
            walls = []
            i = 0
            while True:
                ref.sample()
                first_sample = len(ref.python) - 1
                side.tag = i
                set_tag(i)
                spent = side.spent
                t0 = time.perf_counter()
                if tracer:
                    with tracer.span("bench.op"):
                        out = wl.op(inputs, i)
                else:
                    out = wl.op(inputs, i)
                t1 = time.perf_counter()
                side.tag = CHECK
                set_tag(CHECK)
                walls.append(t1 - t0)
                op_s = t1 - t0 - (side.spent - spent)
                ref.sample()
                res.op_s.append(op_s)
                res.op_samples.append((first_sample, len(ref.python) - 1))
                res.ops.append(wl.inspect(inputs, i, out))
                i += 1
                while side.spectrum_due():
                    side()
                # Overshoot the deadline by half an operation at most, on average.
                if time.perf_counter() + statistics.median(walls) / 2 > deadline:
                    break
    return res


def raw(res: RunResult) -> dict[str, float]:
    """Unscaled figures behind the end-to-end metrics."""
    ref = res.reference
    return {
        "spectrum_mean_s": trimmed_mean(res.spectrum_s),
        "op_median_s": statistics.median(res.op_s),
        "work_median_per_s": statistics.median(o.work / s for o, s in zip(res.ops, res.op_s)),
        "reference_python_mean_s": trimmed_mean(ref.python),
        "reference_numpy_mean_s": trimmed_mean(ref.numpy),
        "reference_samples": len(ref.python),
    }


def end_to_end(res: RunResult) -> dict[str, float]:
    """Scaled metrics; setup_s and peak_rss_mb are added by the caller."""
    scales = [res.reference.scale(first, last) for first, last in res.op_samples]
    ops = list(zip(res.ops, res.op_s, scales))
    return {
        "spectrum_s": trimmed_mean(res.spectrum_s) * res.reference.python_scale(),
        "op_s": statistics.median(s * c for _, s, c in ops),
        "work_per_s": statistics.median(o.work / (s * c) for o, s, c in ops),
    }


def quality(res: RunResult) -> dict[str, float]:
    """Output quality over the run's operations; reported, never bounded."""
    out = {
        "ground_state_mass": float(np.mean([o.ground_state_mass for o in res.ops])),
        "failed_frac": res.failed / res.attempted,
    }
    for label in res.ops[0].quality:
        out[label] = float(np.mean([o.quality[label] for o in res.ops]))
    return out


def _mixer_bytes(inputs: Inputs, p: int) -> int:
    """Bytes one qaoa_state call's mixer reads and writes, as computed.

    Each of p layers applies q single-qubit rotations, each reading and
    writing the whole complex128 state.
    """
    q = inputs.model.num_qubits
    return p * q * (1 << q) * 16 * 2


def _noise_counts(res: RunResult) -> tuple[float, float]:
    """Expected injected errors per shot and share of error-free shots."""
    if res.inputs.bound is None:
        return 0.0, 1.0
    p_gate = np.array(
        [NOISE.p2 if g.kind == "CNOT" else NOISE.p1 for g in res.inputs.bound.gates]
    )
    return float(p_gate.sum()), float(np.prod(1.0 - p_gate))


def percentile(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def per_layer(res: RunResult) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans of a traced run.

    Returns (listed, extra).  ``listed`` holds the metrics that are
    defined on every workload: seconds per call for functions every
    workload calls, shares of operation wall time, and counts (taken from
    operation 0, so they repeat exactly for a seed).  ``extra`` holds the
    seconds-per-operation figures of functions only some workloads call;
    they would read 0 elsewhere.
    """
    t = res.tracer
    a = t.arrays()
    ids = {n: i for i, n in enumerate(t.names)}
    in_op = a["tag"] >= 0
    op_wall = float(np.sum(res.op_s))
    n_ops = len(res.op_s)

    def sel(name, mask=None):
        m = a["name"] == ids.get(name, -1)
        return m if mask is None else m & mask

    def per_call(name, key="dur"):
        m = sel(name)
        return float(np.mean(a[key][m])) if m.any() else 0.0

    def op_self(name):
        return float(np.sum(a["self"][sel(name, in_op)]))

    def calls_op0(name):
        return int(np.sum(sel(name, a["tag"] == 0)))

    wl = WORKLOADS[res.workload]
    layer_names = [n for n in t.names if not n.startswith("bench.")]
    covered = sum(op_self(n) for n in layer_names)
    # Side work runs inside objective spans; it is not the objective's latency.
    side = sel("bench.side") & (a["parent"] >= 0)
    side_inside = np.bincount(a["parent"][side], weights=a["dur"][side], minlength=len(a["dur"]))
    objective = sel("optimizer.objective", in_op)
    objective_ms = 1e3 * (a["dur"] - side_inside)[objective]
    errors, clean = _noise_counts(res)
    model = res.inputs.model

    listed = {
        "qubo.assemble_s": per_call("qubo.assemble"),
        "qubo.to_ising_s": per_call("qubo.to_ising"),
        "qubo.terms": len(model.linear) + len(model.quadratic),
        "hamiltonian.energies_s": per_call("hamiltonian.energies"),
        "hamiltonian.energies_calls": calls_op0("hamiltonian.energies"),
        "hamiltonian.energies_share": op_self("hamiltonian.energies") / op_wall,
        "hamiltonian.full_spectrum_self_s": per_call("hamiltonian.full_spectrum", "self"),
        "circuit.build_ansatz_s": per_call("circuit.build_ansatz"),
        "circuit.gates": len(res.inputs.ansatz.gates),
        "engine.qaoa_state_calls": calls_op0("engine.qaoa_state"),
        "engine.qaoa_state_share": op_self("engine.qaoa_state") / op_wall,
        "engine.expectation_share": op_self("engine.expectation") / op_wall,
        "engine.sample_share": op_self("engine.sample") / op_wall,
        "engine.simulate_share": op_self("engine.simulate") / op_wall,
        "engine.simulate_noisy_share": op_self("engine.simulate_noisy") / op_wall,
        "engine.mixer_bytes": calls_op0("engine.qaoa_state") * _mixer_bytes(res.inputs, wl.p),
        "engine.expected_errors_per_shot": errors,
        "engine.clean_shot_frac": clean,
        "optimizer.evals": res.ops[0].evals,
        "optimizer.self_share": op_self("optimizer.minimize") / op_wall,
        "trace.covered_share": covered / op_wall,
    }
    extra = {
        "circuit.bind_s": per_call("circuit.bind"),
        "hamiltonian.energies_op_s": op_self("hamiltonian.energies") / n_ops,
        "engine.qaoa_state_self_s": op_self("engine.qaoa_state") / n_ops,
        "engine.expectation_self_s": op_self("engine.expectation") / n_ops,
        "engine.sample_s": op_self("engine.sample") / n_ops,
        "engine.simulate_s": op_self("engine.simulate") / n_ops,
        "engine.simulate_noisy_self_s": op_self("engine.simulate_noisy") / n_ops,
        "optimizer.self_s": op_self("optimizer.minimize") / n_ops,
        "optimizer.objective_ms.p50": percentile(objective_ms, 50),
        "optimizer.objective_ms.p99": percentile(objective_ms, 99),
        "optimizer.objective_samples": int(objective_ms.size),
    }
    return listed, extra
