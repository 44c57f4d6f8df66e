#!/usr/bin/env python3
"""Benchmark of hamqaoa: one workload, one seed, one run.

    python3 perfbench/run.py --workload square-p8 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  ``--trace 0``
reports the end-to-end metrics of an untraced run, ``--trace 1`` the
per-layer metrics of a run whose calls into hamqaoa are wrapped (see
``spans.py``).  A table of every metric goes to stderr, a record with
the environment to ``perfbench/out/``, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the metric names and units of ``BENCHMARK.json``.
"""
import os

# A single-threaded load: pin the BLAS and OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 5
# Kernel runs after each set-up, to scale it like the spectrum job.
SETUP_KERNELS = 20
PROBE_TIMEOUT_S = 60

# Metric names and units, as BENCHMARK.json declares them.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
# Reported in the table and the record only: each reads 0 on some workload.
EXTRA_UNITS = {
    "circuit.bind_s": "s",
    "hamiltonian.energies_op_s": "s",
    "engine.qaoa_state_self_s": "s",
    "engine.expectation_self_s": "s",
    "engine.sample_s": "s",
    "engine.simulate_s": "s",
    "engine.simulate_noisy_self_s": "s",
    "optimizer.self_s": "s",
    "optimizer.objective_ms.p50": "ms",
    "optimizer.objective_ms.p99": "ms",
    "optimizer.objective_samples": "count",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Import hamqaoa from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "hamqaoa" / "__init__.py").is_file():
        fail(f"no hamqaoa source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def setup_probe(workload: str, seed: int) -> None:
    """Print the seconds to import hamqaoa and build the workload's inputs,
    then the Python scale of ``reference.py`` measured right after."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].setup(seed)
    elapsed = time.perf_counter() - t0
    from reference import Reference

    ref = Reference()
    for _ in range(SETUP_KERNELS):
        ref.sample()
    print(repr(elapsed), repr(ref.python_scale()))


def time_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, Python scale) of each set-up probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        seconds, scale = done.stdout.split()
        times.append((float(seconds), float(scale)))
    return times


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cache": cache_sizes(),
        "machine": platform.machine(),
    }


def print_table(title: str, values: dict, units: dict) -> None:
    print(f"-- {title}", file=sys.stderr)
    for name, value in values.items():
        unit = units.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:40s} {shown:>14s} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    use_checkout_source()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import harness
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup_s = time_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    res = harness.run(args.workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e = {"setup_s": statistics.median(s * c for s, c in setup_s), **harness.end_to_end(res),
           "peak_rss_mb": peak_rss_mb}
    quality = harness.quality(res)
    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res.ops)} operations ({wl.work_unit}), "
          f"{len(res.spectrum_s)} spectrum jobs", file=sys.stderr)
    print_table("end to end" + (" (traced: not the reported numbers)" if args.trace else ""),
                e2e, END_TO_END_UNITS)
    print_table("quality", quality, {"ground_state_mass": "fraction", "failed_frac": "fraction"})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_probes_s": setup_s,
        "end_to_end": e2e,
        "quality": quality,
        "raw": harness.raw(res),
        "op_s": res.op_s,
        "op_work": [o.work for o in res.ops],
        "op_ground_state_mass": [o.ground_state_mass for o in res.ops],
        "failures": res.spectrum_failures + [f for o in res.ops for f in o.failures],
        "units": {**END_TO_END_UNITS, **PER_LAYER_UNITS, **EXTRA_UNITS},
    }
    if args.trace:
        listed, extra = harness.per_layer(res)
        print_table("per layer", listed, PER_LAYER_UNITS)
        print_table("per layer, on the workloads that call them", extra, EXTRA_UNITS)
        record["per_layer"] = listed
        record["per_layer_extra"] = extra
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in listed.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    for f in record["failures"]:
        print(f"   FAILED: {f}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.save(OUT / f"spans-{args.workload}.npz")

    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
