"""Scenario × chaos matrix harness: replay any script under any plan.

One :func:`run_scenario` call is one matrix cell: a registered scenario
script (the workload), a named :class:`~repro.sim.faults.FaultPlan`
(the weather) and a seed, replayed on the Fig. 3b testbed with the full
recovery stack, judged by the :class:`~repro.sim.invariants
.InvariantMonitor` instead of the chaos harness's hand-rolled
bookkeeping.  The report digest covers the checked miss set, delivery
counts, injected drops, node counters and the script's own content
hash, so a cell is reproducible byte-for-byte across processes and
executor backends — ``tests/data/scenario_matrix.json`` commits those
digests and tier-1 replays the whole matrix against them.

Division of labour with the monitor:

* the harness owns the *ground truth*: it drives every subscription
  change through the :class:`~repro.sim.invariants.SubscriptionLedger`
  and records deliveries with its own ``on_update`` recorder;
* the monitor owns the *online safety checks* (duplicates, phantoms)
  and the orphaned-ST sweep audit;
* liveness is judged by the shared pure
  :func:`~repro.sim.invariants.expected_deliveries`, always fed the
  harness's delivery record — so a monitored and an unmonitored run
  produce the identical digest (``test_cell_smoke_and_monitor_parity``
  in ``tests/test_scenarios.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.balancer import RpLoadBalancer
from repro.core.federation import relay_safe
from repro.core.snapshot import QrSnapshotFetcher, SnapshotBroker, snapshot_name
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.chaos import ChaosTimeline, build_plan
from repro.experiments.scenarios.base import Scenario, ScenarioScript
from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.experiments.scenarios.generators import BUILTIN_SCENARIOS
from repro.experiments.testbed import build_testbed
from repro.game.map import GameMap
from repro.names import Name
from repro.ndn.engine import install_routes
from repro.obs.session import TelemetrySession
from repro.parallel.digest import json_digest
from repro.sim.invariants import (
    InvariantMonitor,
    SubscriptionLedger,
    Violation,
    refresh_budget,
)
from repro.sim.stats import summarize

__all__ = [
    "SCENARIO_NAMES",
    "get_scenario",
    "register_scenario",
    "ScenarioReport",
    "run_scenario",
    "run_matrix",
]

#: Broker connectivity (access router, one-way delay) when a scenario
#: declares ``uses_broker``; R1 so the broker sits beside the root RP.
_BROKER_ROUTER = "R1"
_BROKER_DELAY_MS = 0.5

#: Which router a scripted ``split`` event sheds to.  The cascade shape
#: mirrors the chaos harness (R1 -> R4) and extends it one hop for the
#: flash-crowd second-stage split (R4 -> R5).
_SPLIT_CANDIDATES: Dict[str, List[str]] = {"R1": ["R4"], "R4": ["R5"]}

#: Objects fetched per visible CD on a reconnect snapshot pull — enough
#: to push real QR traffic through the broker without drowning the run.
_SNAPSHOT_OBJECTS_PER_CD = 3

_REGISTRY: Dict[str, Scenario] = {s.name: s for s in BUILTIN_SCENARIOS}

SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {tuple(sorted(_REGISTRY))}"
        ) from None


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (tests and extensions)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


@dataclass
class ScenarioReport:
    """One (scenario, plan, seed) matrix cell, JSON-serialisable.

    Carries the same headline keys as
    :class:`~repro.experiments.chaos.ChaosReport` (the chaos CLI prints
    either interchangeably) plus the scenario block, the invariant
    verdict and the recovery-SLO numbers.
    """

    scenario: dict
    plan: dict
    seed: int
    scale: float
    loss: float
    check_after_ms: float
    events_total: int
    events_checked: int
    deliveries_expected: int
    deliveries_got: int
    #: Same window as ``deliveries_expected``; outside the digest.
    deliveries_got_checked: int
    permanent_misses: int
    missed_sample: List[Tuple[int, str]]
    invariant_ok: bool
    split: Optional[Tuple[str, List[str]]]
    splits: List[Tuple[str, Optional[str]]]
    fault_stats: dict
    node_counters: Dict[str, int]
    latency: dict
    verdict: dict
    slo: dict
    timeline: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)
    #: Telemetry findings when recorded; outside the digest so traced
    #: and untraced runs stay digest-comparable (same rule as chaos).
    trace: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Content hash for cell-level reproducibility checks."""
        return json_digest(
            {
                "script": self.scenario.get("script_digest"),
                "missed": sorted(self.missed_sample),
                "expected": self.deliveries_expected,
                "got": self.deliveries_got,
                "dropped": self.fault_stats.get("dropped", 0),
                "counters": self.node_counters,
            }
        )

    def as_dict(self) -> dict:
        """JSON-serialisable report body (CLI output and smoke tests)."""
        return {
            "scenario": self.scenario,
            "plan": self.plan,
            "seed": self.seed,
            "scale": self.scale,
            "loss": self.loss,
            "check_after_ms": self.check_after_ms,
            "events_total": self.events_total,
            "events_checked": self.events_checked,
            "deliveries_expected": self.deliveries_expected,
            "deliveries_got": self.deliveries_got,
            "deliveries_got_checked": self.deliveries_got_checked,
            "permanent_misses": self.permanent_misses,
            "missed_sample": self.missed_sample[:50],
            "invariant_ok": self.invariant_ok,
            "split": self.split,
            "splits": self.splits,
            "fault_stats": self.fault_stats,
            "node_counters": self.node_counters,
            "latency": self.latency,
            "verdict": self.verdict,
            "slo": self.slo,
            "timeline": self.timeline,
            "snapshot": self.snapshot,
            "trace": self.trace,
            "digest": self.digest(),
        }


def run_scenario(
    scenario: str = "flash-crowd",
    plan_name: str = "none",
    seed: int = 1,
    scale: float = 1.0,
    loss: float = 0.05,
    timeline: Optional[ChaosTimeline] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    telemetry: Optional[TelemetrySession] = None,
    executor_factory=None,
    monitor: bool = True,
) -> ScenarioReport:
    """Replay one scenario script under one fault plan and judge it.

    Deterministic in ``(scenario, plan, seed, scale, loss, timeline)``
    — and, by construction, in everything else: the report digest is
    identical with ``monitor`` on or off, with or without ``telemetry``,
    and across serial and sharded ``executor_factory`` backends.
    """
    script = get_scenario(scenario)(seed, scale)
    if timeline is None:
        timeline = ChaosTimeline(refresh_interval_ms=script.refresh_interval_ms)
    refresh = timeline.refresh_interval_ms

    game_map = GameMap(seed=seed)
    hierarchy = game_map.hierarchy

    def attach_broker(network) -> SnapshotBroker:
        node = SnapshotBroker(
            network, "broker", objects_by_cd=game_map.objects_by_cd()
        )
        network.connect(node, network.nodes[_BROKER_ROUTER], _BROKER_DELAY_MS)
        return node

    testbed = build_testbed(
        hierarchy,
        microbenchmark_placement(game_map),
        calibration,
        executor_factory,
        extra_node=attach_broker if script.uses_broker else None,
    )
    network, executor, hosts = testbed.network, testbed.executor, testbed.hosts
    broker: Optional[SnapshotBroker] = testbed.extra  # type: ignore[assignment]
    recovery = testbed.enable_recovery(refresh)

    # Ground truth from the first instant: the ledger's t=0 epochs are
    # the initial placement, and every scripted move/offline/reconnect
    # below re-notes it from inside the scheduled callback.
    ledger = SubscriptionLedger()
    for player, subs in testbed.subscribe(refresh).items():
        ledger.note(player, 0.0, subs)
    if broker is not None:
        broker.start()
        broker.start_refresh(refresh)
        for cd in broker.objects:
            install_routes(network, snapshot_name(cd, 0).parent, broker)
        ledger.note("broker", 0.0, broker.objects.keys())

    testbed.converge(until=timeline.subscribe_ms)  # fault-free

    plan = build_plan(plan_name, seed, loss, timeline)
    injector = testbed.arm(plan, telemetry)

    # The monitor tees behind the telemetry tracer on the node slots, so
    # it must install last — after the injector and the tracer.  Phantom
    # grace = the orphan-audit bound: deliveries riding an ST entry the
    # sweep hasn't reaped yet are soft-state residue, not leaks.
    inv = InvariantMonitor(
        ledger,
        phantom_grace_ms=recovery.st_ttl_ms + 2 * recovery.sweep_interval_ms,
    )
    if monitor:
        inv.install(network)

    # Balancers for every router the script splits; candidates follow
    # the chaos cascade map.
    split_events = [e for e in script.events if e.kind == "split"]
    on_split_log: List[Tuple[str, Tuple[Name, ...]]] = []
    balancers: Dict[str, RpLoadBalancer] = {}
    for event in split_events:
        router_name = event.player
        if router_name in balancers:
            continue
        if router_name not in _SPLIT_CANDIDATES:
            raise ValueError(f"no split candidates declared for {router_name!r}")
        balancers[router_name] = testbed.scripted_balancer(
            router_name,
            _SPLIT_CANDIDATES[router_name],
            random.Random(f"balancer:{router_name}:{seed}"),
            lambda new_rp, moved: on_split_log.append((new_rp, moved)),
        )

    # Delivery bookkeeping (the harness's own, independent of the
    # monitor — see the module docstring on why both exist).
    got, latency = testbed.record_deliveries("scenario")

    split_results: List[Tuple[str, Optional[str]]] = []
    fetch_stats = {"started": 0, "completed": 0}
    fetchers: List[QrSnapshotFetcher] = []

    def do_move(player: str, area: str) -> None:
        host = hosts[player]
        subs = hierarchy.subscriptions_for(area)
        host.set_subscriptions(subs)
        ledger.note(player, host.sim.now, subs)

    def do_offline(player: str) -> None:
        host = hosts[player]
        host.stop_refresh()
        host.unsubscribe(list(host.subscriptions))
        ledger.note_offline(player, host.sim.now)

    def do_reconnect(player: str, area: str) -> None:
        host = hosts[player]
        subs = hierarchy.subscriptions_for(area)
        host.subscribe(subs)
        host.start_refresh(refresh)
        ledger.note(player, host.sim.now, subs)
        if broker is not None:
            # The snapshot storm: catch up on every visible object.
            needed = {
                cd: game_map.objects_in(cd)[:_SNAPSHOT_OBJECTS_PER_CD]
                for cd in sorted(hierarchy.visible_leaf_cds(area))
            }
            fetch_stats["started"] += 1

            def done(_fetcher) -> None:
                fetch_stats["completed"] += 1

            fetchers.append(
                QrSnapshotFetcher(
                    host,
                    needed,
                    window=5,
                    on_complete=done,
                    interest_lifetime=1000.0,
                    max_retries=3,
                    retry_backoff_ms=200.0,
                )
            )

    # A scripted split can race the plan: a cascade's second stage finds
    # no prefixes while the first handoff retries through a blackout, so
    # re-attempt on the refresh cadence — the stand-in for the pressure
    # trigger, which would also keep firing once load reaches the RP.
    _SPLIT_ATTEMPTS = 6

    def do_split(router_name: str, attempt: int = 0) -> None:
        result = balancers[router_name].split()
        retry_at = executor.now + refresh
        if result is None and attempt + 1 < _SPLIT_ATTEMPTS and retry_at < horizon:
            executor.schedule_external(
                router_name, retry_at, do_split, router_name, attempt + 1
            )
            return
        split_results.append((router_name, result))

    # Merge / migrate mirror the split's retry loop but hand off to the
    # router the script names (the ``area`` field) instead of consulting
    # a balancer — the scripted stand-in for the federation autoscaler's
    # scale-in and rebalance actions.  Both are gated by the same
    # relay-safety rule the autoscaler applies: a target holding a stale
    # foreign relay entry for a prefix would refuse the adoption (the
    # PR-8 replay guard) and black-hole it.
    def do_handoff(
        kind: str, router_name: str, target_name: str, attempt: int = 0
    ) -> None:
        source = network.nodes[router_name]
        target = network.nodes[target_name]
        prefixes = sorted(source.rp_prefixes)  # type: ignore[attr-defined]
        if kind == "migrate":
            prefixes = prefixes[:1]
        ready = bool(prefixes) and relay_safe(target, prefixes, router_name)
        retry_at = executor.now + refresh
        if not ready:
            if attempt + 1 < _SPLIT_ATTEMPTS and retry_at < horizon:
                executor.schedule_external(
                    router_name, retry_at, do_handoff, kind, router_name,
                    target_name, attempt + 1,
                )
                return
            split_results.append((router_name, None))
            return
        source.initiate_handoff(prefixes, target_name)  # type: ignore[attr-defined]
        split_results.append((router_name, target_name))

    for sequence, event in script.publishes():
        testbed.schedule(
            event.player,
            event.at_ms,
            testbed.publish,
            sequence,
            event.player,
            event.cd,
            event.size,
        )
    for event in script.events:
        if event.kind == "move":
            testbed.schedule(event.player, event.at_ms, do_move, event.player, event.area)
        elif event.kind == "offline":
            testbed.schedule(event.player, event.at_ms, do_offline, event.player)
        elif event.kind == "reconnect":
            testbed.schedule(
                event.player, event.at_ms, do_reconnect, event.player, event.area
            )
        elif event.kind == "split":
            testbed.schedule(event.player, event.at_ms, do_split, event.player)
        elif event.kind in ("merge", "migrate"):
            testbed.schedule(
                event.player, event.at_ms, do_handoff, event.kind, event.player,
                event.area,
            )

    offset = testbed.offset
    horizon = offset + script.duration_ms + timeline.drain_ms
    if telemetry is not None:
        telemetry.schedule_metrics(horizon)
    executor.run(until=horizon)

    # ------------------------------------------------------------------
    # Judgement
    # ------------------------------------------------------------------
    publishes = [
        (sequence, offset + event.at_ms, Name.coerce(event.cd), event.player)
        for sequence, event in script.publishes()
    ]
    clear = plan.data_blackout_clear_ms()
    fault_clear = clear if clear is not None else 0.0
    check_after = timeline.check_after_ms(plan, script.extra_recovery_margin_ms)

    if monitor and set(inv.deliveries) != set(got):
        only_monitor = len(set(inv.deliveries) - set(got))
        only_harness = len(set(got) - set(inv.deliveries))
        inv.violations.append(
            Violation(
                t=executor.now,
                kind="monitor_divergence",
                host="-",
                detail=(
                    f"monitor-only deliveries: {only_monitor}, "
                    f"harness-only: {only_harness}"
                ),
            )
        )

    # Orphan audit: one TTL for refreshes to stop landing, plus two
    # sweep periods of slack for the reaper to run.
    inv.check_subscription_tables(
        network, executor.now, grace_ms=recovery.st_ttl_ms + 2 * recovery.sweep_interval_ms
    )

    # Ownership audit: after every scripted split / merge / migrate (and
    # whatever the fault plan did to them), exactly one RP serves each
    # prefix and every published CD still resolves to an owner — directly
    # or through a bounded relay chain.
    inv.check_ownership(
        network,
        executor.now,
        expected_cover=sorted({e.cd for e in script.events if e.kind == "publish"}),
    )

    counters = testbed.recovery_counters()
    refreshes = counters["subscription_refreshes"]
    budget = refresh_budget(
        len(testbed.all_hosts), horizon, refresh, script.refresh_churn_factor
    )
    if refreshes > budget:
        inv.violations.append(
            Violation(
                t=executor.now,
                kind="refresh_churn",
                host="-",
                detail=f"{refreshes} re-Subscribes over budget {budget:.0f}",
            )
        )

    verdict = inv.verdict(
        publishes,
        check_after_ms=check_after,
        horizon_ms=horizon,
        stability_window_ms=script.stability_window_ms,
        fault_clear_ms=fault_clear,
        deliveries=got,  # always the harness record: digest parity on/off
        join_margin_ms=timeline.recovery_margin_ms,
    )
    if monitor:
        inv.uninstall()

    # Every scripted handoff (split, merge or migrate) must have resolved
    # (not still mid-retry at the horizon) and succeeded.
    handoff_events = [
        e for e in script.events if e.kind in ("split", "merge", "migrate")
    ]
    splits_ok = len(split_results) == len(handoff_events) and all(
        new_rp is not None for _router, new_rp in split_results
    )

    return ScenarioReport(
        scenario={
            "name": script.name,
            "description": get_scenario(scenario).description,
            "script_digest": script.digest(),
            "counts": script.counts(),
            "duration_ms": script.duration_ms,
            "uses_broker": script.uses_broker,
            "monitored": monitor,
        },
        plan=plan.describe(),
        seed=seed,
        scale=scale,
        loss=loss,
        check_after_ms=check_after,
        events_total=script.counts()["publish"],
        events_checked=verdict.events_checked,
        deliveries_expected=verdict.deliveries_expected,
        deliveries_got=verdict.deliveries_got,
        deliveries_got_checked=verdict.deliveries_got_checked,
        permanent_misses=verdict.permanent_misses,
        missed_sample=verdict.missed_sample,
        invariant_ok=verdict.ok and splits_ok,
        split=(
            (on_split_log[0][0], [str(p) for p in on_split_log[0][1]])
            if on_split_log
            else None
        ),
        splits=split_results,
        fault_stats=injector.stats.as_dict(),
        node_counters=counters,
        latency=summarize(latency),
        verdict=verdict.as_dict(),
        slo={
            "check_after_ms": check_after,
            "fault_clear_ms": fault_clear,
            "last_miss_ms": verdict.last_miss_ms,
            "recovery_time_ms": verdict.recovery_time_ms,
            "refreshes": refreshes,
            "refresh_budget": budget,
        },
        timeline={
            "subscribe_ms": timeline.subscribe_ms,
            "horizon_ms": horizon,
        },
        snapshot=dict(fetch_stats),
        trace=testbed.finish_trace(telemetry, verdict.missed_sample),
    )


def run_matrix(
    scenarios: Optional[List[str]] = None,
    plans: Optional[List[str]] = None,
    seeds: Tuple[int, ...] = (1,),
    scale: float = 1.0,
    loss: float = 0.05,
    executor_factory=None,
    monitor: bool = True,
    progress: Optional[Callable[[str, ScenarioReport], None]] = None,
) -> dict:
    """Run the scenario × plan × seed matrix; return its JSON body.

    The output is the ``tests/data/scenario_matrix.json`` schema: deterministic
    (no timestamps), one cell per ``"<scenario>|<plan>|<seed>"`` key,
    each carrying the digest plus the recovery-SLO numbers.
    """
    from repro.experiments.chaos import PLAN_NAMES

    scenario_names = list(scenarios) if scenarios else list(SCENARIO_NAMES)
    plan_names = list(plans) if plans else list(PLAN_NAMES)
    cells: Dict[str, dict] = {}
    for scenario_name in scenario_names:
        for plan_name in plan_names:
            for seed in seeds:
                report = run_scenario(
                    scenario=scenario_name,
                    plan_name=plan_name,
                    seed=seed,
                    scale=scale,
                    loss=loss,
                    executor_factory=executor_factory,
                    monitor=monitor,
                )
                key = f"{scenario_name}|{plan_name}|{seed}"
                cells[key] = {
                    "digest": report.digest(),
                    "script_digest": report.scenario["script_digest"],
                    "invariant_ok": report.invariant_ok,
                    "safety_ok": report.verdict["safety_ok"],
                    "liveness_ok": report.verdict["liveness_ok"],
                    "violation_kinds": report.verdict["violation_kinds"],
                    "permanent_misses": report.permanent_misses,
                    "deliveries_expected": report.deliveries_expected,
                    "deliveries_got": report.deliveries_got,
                    "check_after_ms": report.check_after_ms,
                    "last_miss_ms": report.slo["last_miss_ms"],
                    "recovery_time_ms": report.slo["recovery_time_ms"],
                    "refreshes": report.slo["refreshes"],
                    "injected_drops": report.fault_stats.get("dropped", 0),
                    "splits": [list(s) for s in report.splits],
                }
                if progress is not None:
                    progress(key, report)
    return {
        "schema": 1,
        "scale": scale,
        "loss": loss,
        "scenarios": scenario_names,
        "plans": plan_names,
        "seeds": list(seeds),
        "cells": cells,
    }
