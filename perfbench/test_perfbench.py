"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The wrappers must be transparent: a traced and an untraced run on the
same seed compute the same results, and the exact counts repeat.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from spans import Tracer  # noqa: E402


def first_op(res):
    op = res.ops[0]
    return op.evals, op.ground_state_mass, op.counts, op.failures


@pytest.mark.parametrize("workload", ["triangle-p2", "square-p8-noisy"])
def test_traced_run_computes_what_untraced_run_computes(workload):
    # seconds=0 still makes one spectrum job and one operation
    plain = harness.run(workload, seed=5, seconds=0)
    traced = harness.run(workload, seed=5, seconds=0, tracer=Tracer())
    assert first_op(traced) == first_op(plain)
    assert plain.failed == traced.failed == 0
    assert len(traced.tracer.start) > 0


def test_untraced_run_computes_what_a_bare_call_computes():
    import hamqaoa
    from workloads import derived_seed

    res = harness.run("triangle-p2", seed=4, seconds=0)
    bare = hamqaoa.qaoa_solve(
        res.inputs.model, 2, "RX", cfg=hamqaoa.OptimizerConfig(seed=derived_seed(4, 0))
    )
    assert res.ops[0].evals == bare.optimization.evals_used
    assert res.ops[0].counts == bare.final_distribution.counts


def test_exact_counts_repeat_for_a_seed():
    a, _ = harness.per_layer(harness.run("triangle-p2", seed=2, seconds=0, tracer=Tracer()))
    b, _ = harness.per_layer(harness.run("triangle-p2", seed=2, seconds=0, tracer=Tracer()))
    counts = [
        "hamiltonian.energies_calls",
        "engine.qaoa_state_calls",
        "optimizer.evals",
        "circuit.gates",
        "qubo.terms",
    ]
    assert [a[k] for k in counts] == [b[k] for k in counts]
    assert a["optimizer.evals"] > 0
    # two energies() calls per evaluation, plus the spectrum and the final state
    assert a["hamiltonian.energies_calls"] == 2 * a["optimizer.evals"] + 3


def test_wrappers_are_removed_after_a_traced_run():
    import hamqaoa.hamiltonian
    import hamqaoa.optimizer

    before = (hamqaoa.optimizer.minimize, hamqaoa.hamiltonian.DiagonalHamiltonian.energies)
    harness.run("triangle-p2", seed=0, seconds=0, tracer=Tracer())
    after = (hamqaoa.optimizer.minimize, hamqaoa.hamiltonian.DiagonalHamiltonian.energies)
    assert before == after


def test_span_self_times_cover_the_operation():
    res = harness.run("triangle-p2", seed=1, seconds=0, tracer=Tracer())
    listed, _ = harness.per_layer(res)
    assert 0.9 < listed["trace.covered_share"] <= 1.0


def test_run_without_the_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "triangle-p2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
