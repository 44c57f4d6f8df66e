#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one table.

    python3 perfbench/report.py --seed 0 --seconds 20

Each workload runs twice through ``run.py`` with the same seed: once with
``--trace 0`` for the end-to-end numbers and once with ``--trace 1`` for
the per-layer numbers.  The table names the end-to-end metrics as a user
of each workload knows them (``solve_s`` and ``evals_per_s`` for solves,
``shots_per_s`` for trajectory sampling), adds the tracing overhead
(traced minus untraced seconds per operation) and the share of traced
operation time that the layer spans account for.  The combined record
goes to ``perfbench/out/report-seed<N>.json``.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("triangle-p2", "square-p8", "square-p8-noisy", "pentagon-p4")
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["result"] = result
    return record


def user_metrics(workload: str, plain: dict) -> dict:
    """End-to-end numbers under the names a user of each workload knows."""
    e = plain["end_to_end"]
    q = plain["quality"]
    noisy = workload == "square-p8-noisy"
    rows = {
        "setup_s": (e["setup_s"], "s"),
        "spectrum_s": (e["spectrum_s"], "s"),
        "solve_s": (None if noisy else e["op_s"], "s"),
        "evals_per_s": (None if noisy else e["work_per_s"], "1/s"),
        "shots_per_s": (e["work_per_s"] if noisy else None, "1/s"),
        "ground_state_mass": (q["ground_state_mass"], "fraction"),
        "failed_frac": (q["failed_frac"], "fraction"),
        "peak_rss_mb": (e["peak_rss_mb"], "MB"),
    }
    for label, value in q.items():
        if label not in rows:
            rows[label] = (value, "fraction")
    return rows


def show(title: str, rows: dict) -> None:
    print(f"  {title}")
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {name:40s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        # both scaled the same way, so drift between the two runs cancels
        untraced_op = plain["end_to_end"]["op_s"]
        traced_op = traced["end_to_end"]["op_s"]
        overhead = {
            "trace.overhead_s": (traced_op - untraced_op, "s"),
            "trace.overhead_share": ((traced_op - untraced_op) / untraced_op, "fraction"),
            "trace.covered_share": (traced["per_layer"]["trace.covered_share"], "fraction"),
        }
        print(f"{w} (seed {args.seed}, {args.seconds:g} s per run)")
        show("end to end, untraced", user_metrics(w, plain))
        units = traced["units"]
        show("per layer, traced", {k: (v, units[k]) for k, v in traced["per_layer"].items()})
        show("per layer, where called",
             {k: (v, units[k]) for k, v in traced["per_layer_extra"].items()})
        show("tracing", overhead)
        report["workloads"][w] = {
            "untraced": plain,
            "traced": traced,
            "overhead": {k: v for k, (v, _) in overhead.items()},
        }
        report["environment"] = plain["environment"]

    path = OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(r["untraced"]["result"]["failed"] + r["traced"]["result"]["failed"]
                 for r in report["workloads"].values())
    print(f"record: {path}; failed operations: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
