"""Smoke gate for the benchmark: ``run.py --quick`` passes, in budget.

Not collected by the tier-1 run (``testpaths = ["tests"]``); CI can adopt
it with ``python -m pytest bench/test_bench_smoke.py``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
QUICK_BUDGET_S = 30


def test_quick_run_passes_every_check(tmp_path):
    out = tmp_path / "quick.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < QUICK_BUDGET_S, f"--quick took {elapsed:.1f}s"
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    report = json.loads(out.read_text())
    assert [w["workload"] for w in report["workloads"]] == [
        w["name"] for w in spec["workloads"]
    ]
    for workload in report["workloads"]:
        assert workload["correct"] and workload["failed"] == 0, workload["problems"]
        assert workload["attempted"] > 0
        assert set(workload["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}


def test_driver_line_is_the_contract_object():
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--quick",
            "--workload", "backbone_peak", "--seed", "3", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert "setup_s" in result["metrics"]
