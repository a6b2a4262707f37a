"""Chaos harness: the lossless-handover claim under injected faults.

The paper's §IV-B protocol is advertised as losing no packets through an
RP split.  Every other experiment in this repo exercises it over a
perfect fabric; this one replays the Fig. 4 microbenchmark workload while
a :class:`~repro.sim.faults.FaultInjector` degrades the network — control
-plane loss, burst loss, a flapping backbone link or a crashing RP — and
then checks the **delivery invariant**: no subscriber permanently misses
an update for a CD it holds, even though the CD migrated RPs mid-run.

Mechanics:

* the 62-player testbed (Fig. 3b) converges subscriptions fault-free,
  with the full recovery stack enabled (soft-state ST + refresh +
  handshake retransmission, see
  :class:`~repro.core.planes.RecoveryConfig`) and every host running the
  periodic re-Subscribe keep-alive;
* the fault plan arms exactly when the workload starts, and a forced
  balancer split moves half of R1's CD set to R4 mid-trace — the same
  three-stage handoff/join/confirm/leave path the auto-balancer takes;
* every publish goes through :meth:`GCopssHost.publish`, so updates carry
  ``pub_seq`` and receivers count gaps in ``NodeStats`` (loss
  observability) independent of the invariant bookkeeping;
* every player's area subscriptions are noted in a
  :class:`~repro.sim.invariants.SubscriptionLedger` at t = 0, every
  delivery is recorded by an :class:`~repro.sim.invariants
  .InvariantMonitor`, and after a drain period
  :meth:`~repro.sim.invariants.InvariantMonitor.verdict` — the judge the
  scenario matrix uses too — checks who *should* have received each
  update (every covering subscriber but the publisher) against who did,
  plus at-most-once and no-phantom delivery.

Plans whose faults only touch the control plane must deliver **every**
update (``check_after_ms == 0``): data packets are never dropped, so any
miss is the protocol losing the tree.  Plans that black-hole data too (a
down link, a crashed RP) assert recovery instead: every update published
after the fault clears plus a recovery margin must be delivered.

Reports are JSON with a content digest over the miss set, delivery count
and injected-drop tally, so two runs of the same (plan, seed, scale) can
be compared byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.fig4_microbench import microbenchmark_workload
from repro.experiments.testbed import build_testbed
from repro.names import Name
from repro.sim.faults import FaultPlan, GilbertElliott, LinkFaults, NodeFaults
from repro.obs.session import TelemetrySession
from repro.parallel.digest import json_digest
from repro.sim.invariants import SubscriptionLedger
from repro.sim.stats import summarize

__all__ = [
    "ChaosReport",
    "PLAN_NAMES",
    "build_plan",
    "check_after_ms",
    "recovery_margin_ms",
    "run_chaos",
]

#: The RP the forced split sheds load to.
NEW_RP = "R4"


#: Absolute simulated-ms schedule of every chaos and scenario run.
#: Phase 0 (0 .. ``SUBSCRIBE_MS``) converges subscriptions fault-free;
#: the workload, the armed fault plan and the forced split all start
#: after it.  Fault windows are absolute sim time so the plan, the trace
#: and the invariant window line up exactly.
SUBSCRIBE_MS = 500.0
#: The fig-4 run's forced split, this long after the workload starts.
SPLIT_OFFSET_MS = 600.0
FLAP_WINDOW_MS = (1000.0, 1600.0)
CRASH_AT_MS = 1500.0
RESTART_AT_MS = 2500.0
#: Run time after the last publish for recovery and deliveries to land.
DRAIN_MS = 2500.0
#: Soft-state refresh interval of the fig-4 run; a scenario script
#: carries its own.
REFRESH_MS = 500.0


def recovery_margin_ms(refresh_ms: float) -> float:
    """Refresh rounds needed to rebuild state after a blackout ends."""
    return 2 * refresh_ms + 500.0


def check_after_ms(
    plan: FaultPlan, refresh_ms: float, extra_margin_ms: float = 0.0
) -> float:
    """Absolute time from which the delivery invariant is strict.

    Declared by the plan's own fault data (see
    :meth:`~repro.sim.faults.FaultPlan.data_blackout_clear_ms`) rather
    than by plan name: a plan that never touches data packets must
    deliver everything (``0.0``); a plan whose blackout clears at ``T``
    is held to every update published after ``T`` plus the
    refresh-driven recovery margin.  ``extra_margin_ms`` lets a scenario
    declare additional slack (e.g. snapshot catch-up after reconnect
    storms) without touching the plan.
    """
    clear = plan.data_blackout_clear_ms()
    if clear is None:
        return 0.0
    return clear + recovery_margin_ms(refresh_ms) + extra_margin_ms


def _plan_none(seed: int, loss: float) -> FaultPlan:
    return FaultPlan(seed=seed, name="none")


def _plan_rp_split_lossy(seed: int, loss: float) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="rp-split-lossy",
        default=LinkFaults(loss=loss, scope="control"),
    )


def _plan_rp_split_burst(seed: int, loss: float) -> FaultPlan:
    # Mean burst of 2 lost control packets; stationary loss fraction
    # loss / (loss + 0.5), i.e. ~9% at the default 5% entry probability.
    # The chain advances per control packet, so on a quiet access link a
    # burst spans real time — long bad dwells model short partitions,
    # and a partition outlasting the soft-state TTL is *supposed* to
    # lose deliveries.  Keep mean bursts well under TTL/refresh.
    return FaultPlan(
        seed=seed,
        name="rp-split-burst",
        default=LinkFaults(
            burst=GilbertElliott(p_good_to_bad=min(1.0, loss), p_bad_to_good=0.5),
            scope="control",
        ),
    )


def _plan_link_flap(seed: int, loss: float) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="link-flap",
        links={"R1<->R2": LinkFaults(down=(FLAP_WINDOW_MS,))},
        default=LinkFaults(loss=loss, scope="control"),
    )


def _plan_rp_crash(seed: int, loss: float) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="rp-crash",
        nodes={NEW_RP: NodeFaults(crash_at=CRASH_AT_MS, restart_at=RESTART_AT_MS)},
        default=LinkFaults(loss=loss, scope="control"),
    )


_PLAN_BUILDERS: Dict[str, Callable[[int, float], FaultPlan]] = {
    "none": _plan_none,
    "rp-split-lossy": _plan_rp_split_lossy,
    "rp-split-burst": _plan_rp_split_burst,
    "link-flap": _plan_link_flap,
    "rp-crash": _plan_rp_crash,
}

PLAN_NAMES: Tuple[str, ...] = tuple(sorted(_PLAN_BUILDERS))


def build_plan(name: str, seed: int, loss: float) -> FaultPlan:
    """Instantiate one of the named fault plans."""
    try:
        builder = _PLAN_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown plan {name!r}; choose from {PLAN_NAMES}") from None
    return builder(seed, loss)


@dataclass
class ChaosReport:
    """Everything one fault run produced, JSON-serialisable.

    A run replays the fig-4 trace (:func:`run_chaos`) or a scenario
    script (:func:`~repro.experiments.scenarios.harness.run_scenario`)
    under one plan; a scenario run also fills the ``scenario``,
    ``splits``, ``slo`` and ``snapshot`` blocks.
    """

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
    fault_stats: dict
    node_counters: Dict[str, int]
    latency: dict
    #: The invariant monitor's verdict (``InvariantVerdict.as_dict``);
    #: outside :meth:`digest`.
    verdict: dict
    timeline: dict = field(default_factory=dict)
    #: Telemetry findings (hop chains of missed deliveries, drop reasons)
    #: when the run was recorded; empty otherwise.  Deliberately outside
    #: :meth:`digest` so traced and untraced runs stay digest-comparable.
    trace: dict = field(default_factory=dict)
    #: The script's name, description, content hash and event counts.
    scenario: dict = field(default_factory=dict)
    #: ``(router, new RP or None)`` per scripted split, merge or migrate.
    splits: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: Recovery-SLO numbers (fault clear, last miss, refresh budget).
    slo: dict = field(default_factory=dict)
    #: Snapshot pulls started and completed on reconnects.
    snapshot: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Content hash for reproducibility checks across runs."""
        body = {
            "missed": sorted(self.missed_sample),
            "expected": self.deliveries_expected,
            "got": self.deliveries_got,
            "dropped": self.fault_stats.get("dropped", 0),
            "counters": self.node_counters,
        }
        if self.scenario:
            body["script"] = self.scenario["script_digest"]
        return json_digest(body)

    def as_dict(self) -> dict:
        """The JSON report body (digest included)."""
        body = asdict(self)
        body["missed_sample"] = body["missed_sample"][:50]
        body["digest"] = self.digest()
        return body


def run_chaos(
    plan_name: str = "rp-split-lossy",
    seed: int = 1,
    scale: float = 0.05,
    loss: float = 0.05,
    telemetry: Optional[TelemetrySession] = None,
    executor_factory=None,
    scenario: Optional[str] = None,
) -> ChaosReport:
    """Run the fig-4 workload under ``plan_name`` and check delivery.

    ``scale`` shrinks the 12,440-event trace; ``loss`` parameterises the
    plan's loss knob (Bernoulli rate, or burst entry probability).  The
    run is fully deterministic in (plan, seed, scale, loss); its schedule
    is the module's constants (``SUBSCRIBE_MS`` … ``REFRESH_MS``).

    Passing a :class:`~repro.obs.session.TelemetrySession` records the
    faulted phase: the report's ``trace`` block then carries the full
    hop chain of the first missed deliveries (drop reason included) and
    a drop-reason summary — everything else, digest included, is
    bit-identical to an untraced run.

    ``executor_factory`` plugs in the sharded execution backend; the
    report digest must come out identical to the serial default.  Note
    the forced split keeps ``spawn_on_split=False``: the sharded
    executor fixes the topology at construction, so mid-run node
    spawning is (deliberately) unsupported under sharding.

    ``scenario`` retargets the same plan machinery at a registered
    scenario from :mod:`repro.experiments.scenarios` instead of the
    built-in fig-4 workload.
    """
    if scenario is not None:
        from repro.experiments.scenarios import run_scenario

        return run_scenario(
            scenario=scenario,
            plan_name=plan_name,
            seed=seed,
            scale=scale,
            loss=loss,
            telemetry=telemetry,
            executor_factory=executor_factory,
        )
    game_map, placement, events = microbenchmark_workload(scale, seed)
    testbed = build_testbed(game_map.hierarchy, placement, executor_factory)
    executor = testbed.executor
    recovery = testbed.enable_recovery(REFRESH_MS)
    # Ground truth: players never move, so each keeps its t = 0 epoch.
    ledger = SubscriptionLedger()
    for player, subs in testbed.subscribe(REFRESH_MS).items():
        ledger.note(player, 0.0, subs)
    testbed.converge(until=SUBSCRIBE_MS)  # fault-free

    # Arm the faults for the workload phase.
    plan = build_plan(plan_name, seed, loss)
    injector = testbed.arm(plan, telemetry)

    # Forced mid-trace split R1 -> R4 through the regular balancer path.
    splits: List[Tuple[str, Tuple[Name, ...]]] = []
    balancer = testbed.scripted_balancer(
        "R1",
        [NEW_RP],
        random.Random(seed),
        lambda new_rp, moved: splits.append((new_rp, moved)),
    )
    split_at = SUBSCRIBE_MS + SPLIT_OFFSET_MS
    executor.schedule_external("R1", split_at, balancer.split)

    inv = testbed.record_deliveries(ledger, recovery)
    testbed.replay(events)

    offset = testbed.offset
    horizon = offset + (events[-1].time_ms if events else 0.0) + DRAIN_MS
    if telemetry is not None:
        telemetry.schedule_metrics(horizon)
    executor.run(until=horizon)

    check_after = check_after_ms(plan, REFRESH_MS)
    verdict = inv.verdict(
        [
            (i, offset + event.time_ms, Name.coerce(event.cd), event.player)
            for i, event in enumerate(events)
        ],
        check_after_ms=check_after,
        horizon_ms=horizon,
        # No epoch follows t = 0, so every window sees the same subscribers.
        stability_window_ms=0.0,
    )
    inv.uninstall()

    return ChaosReport(
        plan=plan.describe(),
        seed=seed,
        scale=scale,
        loss=loss,
        check_after_ms=check_after,
        events_total=len(events),
        events_checked=verdict.events_checked,
        deliveries_expected=verdict.deliveries_expected,
        deliveries_got=len(inv.deliveries),
        deliveries_got_checked=verdict.deliveries_got_checked,
        permanent_misses=verdict.permanent_misses,
        missed_sample=verdict.missed_sample,
        invariant_ok=verdict.ok and bool(splits),
        split=(
            (splits[0][0], [str(p) for p in splits[0][1]]) if splits else None
        ),
        fault_stats=injector.stats.as_dict(),
        node_counters=testbed.recovery_counters(),
        latency=summarize(inv.latency("chaos")),
        verdict=verdict.as_dict(),
        timeline={
            "subscribe_ms": SUBSCRIBE_MS,
            "split_at_ms": split_at,
            "horizon_ms": horizon,
        },
        trace=testbed.finish_trace(telemetry, verdict.missed_sample),
    )
