"""Self-test of the benchmark: each workload once on tiny inputs, traced and untraced.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that every op passes its checks, that two traced runs at one seed report
identical counts and estimates, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = run(workload, trace=0)
    metrics = last_json(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        assert m["name"] in proc.stdout.split("\n", 1)[1]  # the human-readable table names it too


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_estimates(workload, tmp_path):
    first = last_json(run(workload, trace=1))["metrics"]
    result = ROOT / ".bench_out" / f"{workload}-seed5-trace1.json"
    shutil.copy(result, tmp_path / "first.json")
    last_json(run(workload, trace=1))

    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first[m["name"]]["unit"] == m["unit"]
    cmp = subprocess.run([sys.executable, str(HERE / "compare.py"), str(tmp_path / "first.json"), str(result)],
                         capture_output=True, text=True, timeout=60)
    assert cmp.returncode == 0, cmp.stdout + cmp.stderr
    assert "counts: match" in cmp.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
