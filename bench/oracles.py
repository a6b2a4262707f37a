"""Output oracles, computed in the run from the workload inputs.

Nothing here is a pinned digest, count or latency: every expectation is
derived from the inputs the workload generated from ``--seed``, so the
checks hold for any seed.

The delivery rule (verified against ``run_gcopss_backbone``,
``run_scale`` and the live testbed on several seeds): an update
published under CD ``c`` by host ``p`` is delivered exactly once to
every host other than ``p`` whose subscription set holds a prefix of
``c``.  :func:`tally` compares that expectation with what was received
and counts three kinds of failure separately — a delivery that is
missing, one made twice, and one made to a host that must not get it.

``chaos_matrix`` is judged differently, because on the seed commit the
protocol itself loses deliveries on some seeds (RP-split transients even
under the ``none`` plan, liveness misses under ``rp-split-burst``,
ownership gaps under ``rp-crash``; see the README for measured rates):
its hard checks are the guarantees that do hold for every seed —
at-most-once and no-phantom delivery, no injected drops under ``none``,
monitor and harness agreeing on the delivery set, and a seed-chosen cell
reproducing its digest — while permanent misses are *reported*
(``failed_frac``, with both counts), not hidden and not gated.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from workloads import Result, audience, live_reference_mismatches, run_cell

PLAYABLE_MS = 100.0


@dataclass
class Verdict:
    """Outcome of checking one pass."""

    #: Operations attempted: oracle-expected deliveries (on
    #: ``chaos_matrix``: deliveries made, each held to the safety rules).
    attempted: int = 0
    missing: int = 0
    duplicate: int = 0
    unexpected: int = 0
    #: Failed hard checks, human-readable; empty means outputs correct.
    problems: List[str] = field(default_factory=list)
    #: Reported, not gated (see module docstring): chaos liveness misses.
    misses: int = 0
    misses_of: int = 0

    @property
    def failed(self) -> int:
        return self.missing + self.duplicate + self.unexpected

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed_frac(self) -> float:
        if self.misses_of:
            return self.misses / self.misses_of
        return self.failed / self.attempted if self.attempted else 0.0


def expected_deliveries(
    events: Iterable[Tuple[Any, str, Any]], subscriptions: Dict[str, Any]
) -> Dict[str, Counter]:
    """``{host: Counter(delivery keys)}`` the delivery rule demands.

    ``events`` are ``(key, publisher, cd)``; ``subscriptions`` maps each
    host to the set of CD names it subscribed to.
    """
    expected: Dict[str, Counter] = {host: Counter() for host in subscriptions}
    audiences: Dict[Any, List[str]] = {}
    for key, publisher, cd in events:
        hosts = audiences.get(cd)
        if hosts is None:
            hosts = audiences[cd] = audience(cd, subscriptions)
        for host in hosts:
            if host != publisher:
                expected[host][key] += 1
    return expected


def tally(
    expected: Dict[str, Counter], received: Dict[str, Sequence[Any]]
) -> Tuple[int, int, int, int]:
    """``(attempted, missing, duplicate, unexpected)`` over all hosts."""
    attempted = sum(sum(c.values()) for c in expected.values())
    missing = duplicate = unexpected = 0
    for host in set(expected) | set(received):
        want = expected.get(host, Counter())
        got = Counter(received.get(host, ()))
        if got == want:
            continue
        for key, n in want.items():
            have = got.get(key, 0)
            if have < n:
                missing += n - have
            elif have > n:
                duplicate += have - n
        unexpected += sum(n for key, n in got.items() if key not in want)
    return attempted, missing, duplicate, unexpected


def _check_deliveries(inputs: Dict[str, Any], result: Result) -> Verdict:
    expected = expected_deliveries(inputs["events"], inputs["subscriptions"])
    attempted, missing, duplicate, unexpected = tally(expected, result.received)
    verdict = Verdict(attempted, missing, duplicate, unexpected)
    if verdict.failed:
        verdict.problems.append(
            f"deliveries differ from the oracle: {missing} missing, "
            f"{duplicate} duplicate, {unexpected} unexpected of {attempted}"
        )
    return verdict


def check_replay(inputs: Dict[str, Any], result: Result) -> Verdict:
    """``backbone_peak`` / ``fig4_telemetry``: per-host exact delivery sets."""
    verdict = _check_deliveries(inputs, result)
    made = sum(len(seqs) for seqs in result.received.values())
    if len(result.latencies_ms) != made:
        verdict.problems.append(
            f"{len(result.latencies_ms)} latency samples for {made} deliveries"
        )
    return verdict


def check_sharded_scale(inputs: Dict[str, Any], result: Result) -> Verdict:
    """Exact sets, the closed form, and digest equality with ``inproc:2``."""
    verdict = _check_deliveries(inputs, result)
    spec = inputs["spec"]
    total_access = spec.regions * spec.access_per_region
    region_size = Counter(
        (i % total_access) // spec.access_per_region for i in range(spec.players)
    )
    world = spec.world_cd
    closed_form = 0
    for _key, publisher, cd in inputs["events"]:
        if cd == world:
            closed_form += spec.players - 1
        else:
            region = (int(publisher[1:]) % total_access) // spec.access_per_region
            closed_form += region_size[region] - 1
    if closed_form != verdict.attempted:
        verdict.problems.append(
            f"closed form expects {closed_form} deliveries, prefix rule {verdict.attempted}"
        )
    inproc_digest = result.extra.get("inproc_digest")
    if inproc_digest is not None and inproc_digest != result.extra["digest"]:
        verdict.problems.append("proc:2 and inproc:2 delivery digests differ")
    return verdict


def check_live_wire(inputs: Dict[str, Any], result: Result) -> Verdict:
    """Per-host per-CD tallies, and an empty diff against the simulator."""
    verdict = _check_deliveries(inputs, result)
    mismatches = live_reference_mismatches(inputs, result)
    if mismatches:
        verdict.problems.append(
            f"live report differs from run_reference: {mismatches[:3]}"
        )
    return verdict


def check_chaos_matrix(inputs: Dict[str, Any], result: Result) -> Verdict:
    reports = result.extra["reports"]
    verdict = Verdict(
        attempted=sum(r.deliveries_got for r in reports),
        misses=sum(r.permanent_misses for r in reports),
        misses_of=sum(r.deliveries_expected for r in reports),
    )
    if len(reports) != len(inputs["cells"]):
        verdict.problems.append(
            f"{len(reports)} reports for {len(inputs['cells'])} cells"
        )
    for (scenario, plan, seed), report in zip(inputs["cells"], reports):
        cell = f"{scenario}|{plan}"
        kinds = report.verdict["violation_kinds"]
        verdict.duplicate += kinds.get("duplicate_delivery", 0)
        verdict.unexpected += kinds.get("phantom_delivery", 0)
        if kinds.get("monitor_divergence"):
            verdict.problems.append(f"{cell}: monitor and harness delivery sets differ")
        if plan == "none" and report.fault_stats["dropped"]:
            verdict.problems.append(f"{cell}: drops injected under the none plan")
        if report.scenario["script_digest"] != inputs["script_digests"][scenario, seed]:
            verdict.problems.append(f"{cell}: script differs from the generated input")
    if verdict.failed:
        verdict.problems.append(
            f"{verdict.duplicate} duplicate and {verdict.unexpected} phantom deliveries"
        )
    # One seed-chosen cell, re-run: same inputs must give the same digest.
    index = random.Random(inputs["cells"][0][2]).randrange(len(inputs["cells"]))
    again = run_cell(inputs["cells"][index], inputs["scale"])
    if again.digest() != reports[index].digest():
        verdict.problems.append(f"cell {inputs['cells'][index]} did not reproduce its digest")
    return verdict


CHECKS = {
    "backbone_peak": check_replay,
    "fig4_telemetry": check_replay,
    "sharded_scale": check_sharded_scale,
    "live_wire": check_live_wire,
    "chaos_matrix": check_chaos_matrix,
}


def simulated_metrics(name: str, result: Result, verdict: Verdict) -> Dict[str, float]:
    """The quantities the paper reports; exact for a given seed."""
    out = {"failed_frac": verdict.failed_frac}
    if name == "chaos_matrix":
        out["sim_latency_mean_ms"] = result.extra["latency_mean_ms"]
        out["sim_latency_p95_ms"] = result.extra["latency_p95_ms"]
        out["recovery_ms_max"] = result.extra["recovery_ms_max"]
        return out
    out["sim_network_mb"] = result.counts["sim.network.bytes"] / 1e6
    latencies = sorted(result.latencies_ms)
    if latencies:
        n = len(latencies)
        out["sim_latency_mean_ms"] = sum(latencies) / n
        out["sim_latency_p95_ms"] = latencies[min(n - 1, int(n * 0.95))]
        # Missing deliveries count as late.
        within = sum(1 for x in latencies if x <= PLAYABLE_MS)
        out["playable_frac"] = within / max(n, verdict.attempted)
    return out
