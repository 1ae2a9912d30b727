"""Smoke test of the benchmark itself: tiny runs, every metric present.

Run with ``python3 -m pytest bench/test_smoke.py``.  It has no timing
gate; it checks that each workload runs untraced and traced, that every
metric named in BENCHMARK.json is emitted with its unit, and that no
operation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--ops", "30", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_end_to_end_metrics(workload):
    lines, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    failed_ratio = [line.split() for line in lines if line.split()[:1] == ["failed_ratio"]]
    assert failed_ratio == [["failed_ratio", "0", "1"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_per_layer_metrics(workload):
    lines, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any("overhead" in line for line in lines)


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and done.stdout == ""
