"""Smoke test for the benchmark runner.

    python3 bench/smoke_test.py
    python3 -m pytest bench/smoke_test.py

Runs every workload on tiny instances and budgets (``--scale smoke``),
traced and untraced, and checks that each run passes its own correctness
checks and emits exactly the metrics, with the units, that BENCHMARK.json
names, and that each per-layer metric is measured on some workload.  It
also checks that budget-capped CLI searches accept a decided answer, and
that the runner refuses to run, printing no result, when the ncchar
sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(runner: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(runner), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_every_declared_metric_is_emitted():
    measured = set()  # per-layer metrics that read non-zero on some workload
    for workload in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(HERE / "run.py", "--workload", workload["name"], "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
                        cwd=ROOT)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert emitted == declared, (workload["name"], trace)
            if trace:
                measured |= {name for name, m in result["metrics"].items() if m["value"]}
    # a per-layer metric reads 0 on a workload that does not exercise its layer
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_budget_capped_commands_accept_a_decision():
    """A capped CLI search passes when it ends inconclusive and also when
    better pruning lets it certify UNSOLVABLE within its budget."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from workloads import EXIT_IMPOSSIBLE, EXIT_INCONCLUSIVE, CliSession

    workdir = ROOT / ".bench_work" / "capped"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = CliSession(run.fresh_import(), 0, "smoke", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    capped = [cmd for cmd in session.commands if "--budget" in cmd.argv]
    assert capped
    for cmd in capped:
        assert {EXIT_IMPOSSIBLE, EXIT_INCONCLUSIVE} <= set(cmd.exits), cmd.argv


def test_refuses_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for workload in SPEC["workloads"]:
            proc = _run(bare / HERE.name / "run.py", "--workload", workload["name"],
                        "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
            assert proc.returncode != 0
            assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_declared_metric_is_emitted()
    test_budget_capped_commands_accept_a_decision()
    test_refuses_without_sources()
    print("smoke test passed")
