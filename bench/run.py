#!/usr/bin/env python3
"""One end-to-end benchmark for the G-COPSS update path.

    python bench/run.py [--seed N] [--workloads a,b] [--traced] [--out FILE]
    python bench/run.py --quick            # every workload at ~1/20 size
    python bench/run.py --selftest         # prove the oracles can fail

and, as the driver calls it (see ``BENCHMARK.json``):

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Every workload pass runs in a fresh ``python`` subprocess (RSS and GC
state do not leak between passes) after a warm-up of the same code path
at the quick size.  Passes of the fixed input are repeated until the
timed phases add up to ``--seconds``; times are reported as medians.
End-to-end numbers come from untraced passes only; ``--traced`` adds a
separate pass under span timers plus the layer drivers.  The outputs of
every pass are checked against oracles computed from that pass's own
inputs, and the exit code is non-zero if a check fails.

With ``--workload`` the last line of standard output is the driver's
result object.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure ({REPO_ROOT / 'src' / 'repro'} is missing)")
# No PYTHONPATH needed; and nothing may be written outside the checkout,
# so temporary files (the live testbed's spec) go under bench/out/.
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]
(OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
os.environ["TMPDIR"] = str(OUT_DIR / "tmp")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

#: Set-up samples per measured pass (the last one feeds the timed phase).
SETUP_REPEATS = 3
PASS_TIMEOUT_S = 170

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# One pass, in this (child) process
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def run_pass(kind: str, name: str, seed: int, size_name: str) -> Dict[str, Any]:
    """``measure`` (untraced) or ``trace`` (under span timers) one workload."""
    # Importing the program is set-up a user pays on every run, and where
    # work moved to module level would hide; it is part of every sample.
    import_started = time.perf_counter()
    from oracles import CHECKS, simulated_metrics
    from workloads import SIZES, WORKLOADS, PhaseClock, sharded_scale_inproc

    import_s = time.perf_counter() - import_started

    recorder = None
    if kind == "trace":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()  # before any world is built
    workload = WORKLOADS[name]
    size = SIZES[name][size_name]
    if size_name == "full":
        # Warm-up: imports, .pyc, first process spawn, same code path.
        workload(seed, SIZES[name]["quick"], PhaseClock())
    setups: List[float] = []
    for _ in range(SETUP_REPEATS - 1 if kind == "measure" else 0):
        gc.collect()
        clock = PhaseClock()
        workload(seed, size, clock, setup_only=True)
        setups.append(import_s + clock.setup_s)
    gc.collect()
    clock = PhaseClock(recorder)
    inputs, result = workload(seed, size, clock)
    setups.append(import_s + clock.setup_s)
    traced_wall_s = clock.wall_s
    if recorder is not None and name == "sharded_scale":
        extra_clock = PhaseClock(recorder)
        inproc = sharded_scale_inproc(inputs["spec"], extra_clock)
        result.extra["inproc_digest"] = inproc.extra["digest"]
        traced_wall_s += extra_clock.wall_s
    rss = peak_rss_mb()  # before the oracle allocates its expectation

    verdict = CHECKS[name](inputs, result)
    deliveries = result.extra.get(
        "deliveries", sum(len(keys) for keys in result.received.values())
    )
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "size": size,
        "import_s": import_s,
        "setup_samples_s": setups,
        "wall_s": clock.wall_s,
        "deliveries": deliveries,
        "peak_rss_mb": rss,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failure_counts": {
            "missing": verdict.missing,
            "duplicate": verdict.duplicate,
            "unexpected": verdict.unexpected,
            "chaos_permanent_misses": verdict.misses,
            "chaos_deliveries_expected": verdict.misses_of,
        },
        "problems": verdict.problems,
        "simulated": simulated_metrics(name, result, verdict),
        "counts": result.counts,
        "readings": result.readings,
        "latency_samples": result.extra.get("latency_samples", len(result.latencies_ms)),
    }
    if recorder is not None:
        out["traced_wall_s"] = traced_wall_s
        out["spans"] = recorder.by_layer()
        recorder.write(OUT_DIR / f"spans-{name}-seed{seed}.json")
    return out


def child_main(args: argparse.Namespace) -> int:
    if args.pass_kind == "layers":
        import layers

        body = layers.run_all(args.seed)
    else:
        body = run_pass(args.pass_kind, args.workload, args.seed, args.size)
    print(json.dumps(body))
    return 0


# ----------------------------------------------------------------------
# Orchestration, in the parent
# ----------------------------------------------------------------------
def spawn_pass(kind: str, name: str, seed: int, size_name: str) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--pass", kind, "--workload", name, "--seed", str(seed), "--size", size_name,
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, cwd=REPO_ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass of {name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_checks(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the passes' verdicts; simulated values must repeat exactly."""
    problems = [p for run in passes for p in run["problems"]]
    first = passes[0]
    for run in passes[1:]:
        for block in ("simulated", "counts"):
            if run[block] != first[block]:
                problems.append(f"{block} values differ between passes of one seed")
        if run["deliveries"] != first["deliveries"]:
            problems.append("delivery count differs between passes of one seed")
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(run["attempted"] for run in passes),
        "failed": sum(run["failed"] for run in passes),
        "failure_counts": {
            key: sum(run["failure_counts"][key] for run in passes)
            for key in first["failure_counts"]
        },
    }


def measure_workload(name: str, seed: int, seconds: float, size_name: str) -> Dict[str, Any]:
    """Untraced passes until the timed phases add up to ``seconds``."""
    passes: List[Dict[str, Any]] = []
    while not passes or sum(run["wall_s"] for run in passes) < seconds:
        passes.append(spawn_pass("measure", name, seed, size_name))
    walls = [run["wall_s"] for run in passes]
    setups = [s for run in passes for s in run["setup_samples_s"]]
    out = merge_checks(passes)
    out.update(
        workload=name,
        seed=seed,
        size=passes[0]["size"],
        passes=len(passes),
        samples={"wall_s": walls, "setup_s": setups},
        deliveries=passes[0]["deliveries"],
        latency_samples=passes[0]["latency_samples"],
        end_to_end={
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "deliveries_per_s": statistics.median(
                run["deliveries"] / run["wall_s"] for run in passes
            ),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in passes),
        },
        simulated=passes[0]["simulated"],
        counts=passes[0]["counts"],
        readings=passes[0]["readings"],
    )
    return out


def trace_workload(
    name: str, seed: int, size_name: str, untraced: Dict[str, Any]
) -> Dict[str, Any]:
    """The traced pass plus the layer drivers, as per-layer metrics."""
    traced = spawn_pass("trace", name, seed, size_name)
    drivers = spawn_pass("layers", name, seed, size_name)
    layer: Dict[str, float] = {metric: 0.0 for metric in PER_LAYER}
    for layer_name, cell in traced["spans"].items():
        layer[f"{layer_name}.self_s"] = cell["self_s"]
        if layer_name != "bench.unattributed":
            layer[f"{layer_name}.calls"] = cell["calls"]
    layer["bench.traced_wall_s"] = traced["traced_wall_s"]
    layer["bench.trace_overhead_x"] = traced["wall_s"] / untraced["end_to_end"]["wall_s"]
    layer["deliveries"] = untraced["deliveries"]
    layer.update(untraced["simulated"])
    layer.update(untraced["counts"])
    layer.update(untraced["readings"])
    layer.update(drivers)
    unknown = sorted(set(layer) - set(PER_LAYER))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    problems = list(traced["problems"])
    if traced["simulated"] != untraced["simulated"] or traced["counts"] != untraced["counts"]:
        problems.append("traced pass changed simulated values or counts")
    span_sum = sum(cell["self_s"] for cell in traced["spans"].values())
    if abs(span_sum - traced["traced_wall_s"]) > 0.02 * traced["traced_wall_s"]:
        problems.append(
            f"layer self times sum to {span_sum:.3f}s, traced wall is "
            f"{traced['traced_wall_s']:.3f}s"
        )
    return {
        "per_layer": layer,
        "problems": problems,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
    }


def host_block() -> Dict[str, Any]:
    commit = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO_ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_workload(report: Dict[str, Any]) -> None:
    name = report["workload"]
    print(f"\n== {name}  seed={report['seed']}  size={report['size']}")
    if "end_to_end" in report:
        print(
            f"  passes: {report['passes']} (a fresh subprocess each), "
            f"{report['deliveries']} deliveries per pass"
        )
        for metric, value in report["end_to_end"].items():
            print(f"  {metric:<26} {value:>14.4f} {E2E[metric]['unit']}")
        for metric, value in report["simulated"].items():
            note = ""
            if metric.startswith("sim_latency"):
                note = f"  (n={report['latency_samples']}, simulated)"
            print(f"  {metric:<26} {value:>14.6f} {PER_LAYER[metric]['unit']}{note}")
        counts = report["failure_counts"]
        print(
            f"  failed/attempted           {report['failed']}/{report['attempted']}"
            f"  (missing {counts['missing']}, duplicate {counts['duplicate']},"
            f" unexpected {counts['unexpected']})"
        )
        if counts["chaos_deliveries_expected"]:
            print(
                f"  permanent misses           {counts['chaos_permanent_misses']}/"
                f"{counts['chaos_deliveries_expected']} expected in the strict windows"
                " (reported, not gated)"
            )
        if name == "live_wire":
            print("  traffic crossed the host's loopback interface, not a link")
    if "per_layer" in report:
        print("  per-layer (traced pass, counts, layer drivers):")
        for metric in PER_LAYER:
            value = report["per_layer"][metric]
            if value:
                print(f"    {metric:<48} {value:>16.6g} {PER_LAYER[metric]['unit']}")
    print(
        "  outputs correct, simulated values and counts identical in every pass"
        if report["correct"]
        else "  OUTPUTS INCORRECT"
    )
    for problem in report["problems"]:
        print(f"  !! {problem}")


def driver_line(report: Dict[str, Any], trace: int) -> str:
    """The contract's result object: the last line of standard output."""
    if trace:
        metrics = {
            m: {"value": report["per_layer"][m], "unit": PER_LAYER[m]["unit"]}
            for m in PER_LAYER
        }
    else:
        metrics = {
            m: {"value": report["end_to_end"][m], "unit": E2E[m]["unit"]} for m in E2E
        }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": max(1, report["attempted"]),
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workloads", help="comma-separated subset (default: all five)")
    parser.add_argument("--workload", help="one workload; prints the driver's result line")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="end-to-end metrics and, from a separate traced pass, per-layer")
    parser.add_argument("--quick", action="store_true", help="~1/20 size, checks on")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    parser.add_argument("--pass", dest="pass_kind", choices=("measure", "trace", "layers"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.pass_kind:
        return child_main(args)
    if args.selftest:
        import selftest

        return selftest.main()
    names = [args.workload] if args.workload else (
        args.workloads.split(",") if args.workloads else WORKLOAD_NAMES
    )
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}")
    size_name = "quick" if args.quick else "full"
    seconds = 0.0 if args.quick else args.seconds
    # The driver asks for one kind of metric per run; a person gets both.
    want_e2e = not (args.workload and args.trace)

    host = host_block()
    print(f"host: {host}")
    reports = []
    for name in names:
        # Per-layer counts and simulated values come from an untraced
        # pass either way; only the repeats are skipped with --trace 1.
        report = measure_workload(name, args.seed, seconds if want_e2e else 0.0, size_name)
        if args.trace:
            traced = trace_workload(name, args.seed, size_name, report)
            report["per_layer"] = traced["per_layer"]
            report["problems"] += traced["problems"]
            report["correct"] = not report["problems"]
            report["attempted"] += traced["attempted"]
            report["failed"] += traced["failed"]
        if not want_e2e:
            del report["end_to_end"]
        print_workload(report)
        reports.append(report)
    if args.out:
        args.out.write_text(
            json.dumps({"host": host, "seed": args.seed, "size": size_name,
                        "workloads": reports}, indent=1) + "\n"
        )
    if args.workload:
        print(driver_line(reports[0], args.trace))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
