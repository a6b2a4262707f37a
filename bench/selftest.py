#!/usr/bin/env python3
"""Checker self-test: "outputs correct" must not be able to pass vacuously.

For every workload: run it at the quick size, confirm its oracle accepts
the honest result, then feed the oracle the same result with one
delivery dropped, one duplicated and one made to a non-subscriber, and
assert each is rejected.  Finally run the whole benchmark at the quick
size on seeds 42 and 7 and assert both pass.

    python bench/selftest.py        (or: python bench/run.py --selftest)
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402,F401 - puts src/ on sys.path and TMPDIR inside the checkout

SEED = 42


def _mutate_deliveries(kind: str, inputs: Dict[str, Any], result: Any) -> Any:
    """``result`` with one delivery dropped / duplicated / misdelivered."""
    from oracles import expected_deliveries

    expected = expected_deliveries(inputs["events"], inputs["subscriptions"])
    mutated = copy.copy(result)
    mutated.received = {host: list(keys) for host, keys in result.received.items()}
    victim = next(host for host, keys in mutated.received.items() if keys)
    if kind == "dropped":
        mutated.received[victim].pop()
    elif kind == "duplicated":
        mutated.received[victim].append(mutated.received[victim][0])
    else:
        key, host = next(
            (key, host)
            for key, _publisher, _cd in inputs["events"]
            for host in expected
            if not expected[host][key]
        )
        mutated.received.setdefault(host, []).append(key)
    return mutated


def _mutate_chaos(kind: str, inputs: Dict[str, Any], result: Any) -> Any:
    """The same three faults, as the scenario harness would report them.

    A duplicate or a phantom delivery shows up as a monitor violation.  A
    dropped delivery lowers ``deliveries_got``; it is planted in the cell
    the oracle re-runs, whose digest then no longer reproduces.
    """
    import random

    mutated = copy.copy(result)
    reports = [copy.copy(r) for r in result.extra["reports"]]
    mutated.extra = {**result.extra, "reports": reports}
    index = random.Random(inputs["cells"][0][2]).randrange(len(reports))
    report = reports[index]
    if kind == "dropped":
        report.deliveries_got -= 1
    else:
        violation = "duplicate_delivery" if kind == "duplicated" else "phantom_delivery"
        report.verdict = {**report.verdict, "violation_kinds": {violation: 1}}
    return mutated


def check_oracles() -> int:
    from oracles import CHECKS
    from workloads import SIZES, WORKLOADS, PhaseClock

    failures = 0
    for name, workload in WORKLOADS.items():
        inputs, result = workload(SEED, SIZES[name]["quick"], PhaseClock())
        honest = CHECKS[name](inputs, result)
        status = "accepted" if honest.correct and not honest.failed else "REJECTED"
        print(f"{name}: honest result {status} ({honest.attempted} operations)")
        failures += not (honest.correct and not honest.failed)
        mutate: Callable[..., Any] = (
            _mutate_chaos if name == "chaos_matrix" else _mutate_deliveries
        )
        for kind in ("dropped", "duplicated", "misdelivered"):
            verdict = CHECKS[name](inputs, mutate(kind, inputs, result))
            rejected = not verdict.correct
            print(
                f"{name}: one delivery {kind:<12} -> "
                f"{'rejected' if rejected else 'NOT REJECTED'}"
                f" ({'; '.join(verdict.problems) or 'no problem reported'})"
            )
            failures += not rejected
    return failures


def check_seeds() -> int:
    failures = 0
    for seed in (42, 7):
        code = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--seed", str(seed)],
            stdout=subprocess.DEVNULL,
        ).returncode
        print(f"run.py --quick --seed {seed}: exit {code}")
        failures += code != 0
    return failures


def main() -> int:
    failures = check_oracles() + check_seeds()
    print("selftest passed" if not failures else f"selftest FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
