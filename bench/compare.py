#!/usr/bin/env python3
"""Compare benchmark reports written by ``run.py --out``.

    python bench/compare.py A.json B.json
        A is the parent, B the change.  One row per (workload, metric):
        better / same / worse by the metric's bound from BENCHMARK.json,
        or unresolved when the spread between passes is wider than the
        bound and the two sides' samples overlap.  Simulated metrics and
        counts must be identical.  Exits non-zero on any "worse".

    python bench/compare.py --pairs P1.json C1.json P2.json C2.json ...
        Alternating parent/change runs (ten pairs to claim a gain):
        medians and quartiles per side, pairs won, and whether the
        choosing-metrics rule for a gain is met — the change wins at
        least nine tenths of the pairs and the medians differ by more
        than the distance between the parent's own quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> Dict[str, Dict[str, Any]]:
    return {w["workload"]: w for w in json.loads(Path(path).read_text())["workloads"]}


def worsening(metric: Dict[str, Any], parent: float, change: float) -> float:
    """Relative change, signed so that positive means worse."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def samples_of(report: Dict[str, Any], metric: str) -> List[float]:
    """The per-pass samples behind an end-to-end median, where kept."""
    samples = report.get("samples", {})
    if metric == "deliveries_per_s":
        return [report["deliveries"] / wall for wall in samples.get("wall_s", [])]
    return samples.get(metric, [])


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def judge(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float]:
    name, bound = metric["name"], metric["bound"]
    delta = worsening(metric, a["end_to_end"][name], b["end_to_end"][name])
    sa, sb = samples_of(a, name), samples_of(b, name)
    if max(spread(sa), spread(sb)) > bound:
        lower_better = metric["better"] == "lower"
        if (max(sb) < min(sa)) if lower_better else (min(sb) > max(sa)):
            return "better", delta
        if (min(sb) > max(sa)) if lower_better else (max(sb) < min(sa)):
            return "worse", delta
        return "unresolved", delta
    if delta > bound:
        return "worse", delta
    return ("better" if delta < -bound else "same"), delta


def exact_rows(a: Dict[str, Any], b: Dict[str, Any]) -> Iterator[Tuple[str, str, str]]:
    """Simulated metrics and counts: identical or worse, nothing between."""
    for block in ("simulated", "counts"):
        for name in sorted(set(a.get(block, {})) | set(b.get(block, {}))):
            va, vb = a[block].get(name), b[block].get(name)
            yield name, ("same" if va == vb else "worse"), f"{va!r} -> {vb!r}"


def compare(path_a: str, path_b: str) -> int:
    a_all, b_all = load(path_a), load(path_b)
    worse = 0
    for workload in a_all:
        if workload not in b_all:
            print(f"{workload}: missing from {path_b}")
            worse += 1
            continue
        a, b = a_all[workload], b_all[workload]
        for metric in E2E.values():
            verdict, delta = judge(metric, a, b)
            worse += verdict == "worse"
            print(
                f"{workload:<16} {metric['name']:<20} {verdict:<10} "
                f"{a['end_to_end'][metric['name']]:.4f} -> "
                f"{b['end_to_end'][metric['name']]:.4f} {metric['unit']} "
                f"({delta:+.1%} worse, bound {metric['bound']:.0%})"
            )
        for name, verdict, detail in exact_rows(a, b):
            worse += verdict == "worse"
            if verdict != "same":
                print(f"{workload:<16} {name:<20} {verdict:<10} {detail} (must be identical)")
        if b["failed"] > a["failed"] or not b["correct"]:
            worse += 1
            print(f"{workload:<16} failed {a['failed']} -> {b['failed']}, correct={b['correct']}")
    print("exact metrics and counts: identical" if not worse else f"{worse} worse")
    return 1 if worse else 0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_pairs(paths: List[str]) -> int:
    if len(paths) < 2 or len(paths) % 2:
        sys.exit("--pairs needs alternating parent/change files, an even number")
    parents = [load(p) for p in paths[0::2]]
    changes = [load(p) for p in paths[1::2]]
    pairs = len(parents)
    if pairs < 10:
        print(f"note: {pairs} pairs; a gain may be claimed only on ten or more")
    for workload in parents[0]:
        for metric in E2E.values():
            name = metric["name"]
            pa = [run[workload]["end_to_end"][name] for run in parents]
            ch = [run[workload]["end_to_end"][name] for run in changes]
            lower = metric["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pa, ch))
            losses = sum((c > p) if lower else (c < p) for p, c in zip(pa, ch))
            p1, p2, p3 = quartiles(pa)
            c1, c2, c3 = quartiles(ch)
            gain = (
                pairs >= 10
                and wins >= 0.9 * pairs
                and abs(c2 - p2) > (p3 - p1)
                and ((c2 < p2) if lower else (c2 > p2))
            )
            print(
                f"{workload:<16} {name:<18} parent {p2:.4f} [{p1:.4f}, {p3:.4f}]  "
                f"change {c2:.4f} [{c1:.4f}, {c3:.4f}] {metric['unit']}  "
                f"won {wins}/{pairs}, lost {losses}  "
                f"{'GAIN' if gain else 'no gain claimable'}"
            )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", action="store_true")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.pairs:
        return compare_pairs(args.files)
    if len(args.files) != 2:
        parser.error("give exactly two reports: A.json B.json")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
