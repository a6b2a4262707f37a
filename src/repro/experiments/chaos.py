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
* after a drain period the harness compares who *should* have received
  each update (visibility map minus the publisher) with who did.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.common import subscribers_by_leaf_cd
from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.experiments.testbed import build_testbed
from repro.game.map import GameMap
from repro.names import Name
from repro.sim.faults import FaultPlan, GilbertElliott, LinkFaults, NodeFaults
from repro.obs.session import TelemetrySession
from repro.parallel.digest import json_digest
from repro.sim.stats import summarize
from repro.trace.generator import CounterStrikeTraceGenerator, microbenchmark_spec

__all__ = ["ChaosTimeline", "ChaosReport", "PLAN_NAMES", "build_plan", "run_chaos"]

#: The RP the forced split sheds load to.
NEW_RP = "R4"


@dataclass
class ChaosTimeline:
    """Absolute simulated-ms schedule of one chaos run.

    Phase 0 (0 .. ``subscribe_ms``) converges subscriptions fault-free;
    the workload, the armed fault plan and the forced split all start
    after it.  Fault windows are expressed in absolute sim time so the
    plan, the trace and the invariant window line up exactly.
    """

    subscribe_ms: float = 500.0
    split_offset_ms: float = 600.0       # split at subscribe_ms + offset
    flap_window_ms: Tuple[float, float] = (1000.0, 1600.0)
    crash_at_ms: float = 1500.0
    restart_at_ms: float = 2500.0
    drain_ms: float = 2500.0
    refresh_interval_ms: float = 500.0

    @property
    def split_at_ms(self) -> float:
        return self.subscribe_ms + self.split_offset_ms

    @property
    def recovery_margin_ms(self) -> float:
        """Refresh rounds needed to rebuild state after a blackout ends."""
        return 2 * self.refresh_interval_ms + 500.0

    def check_after_ms(self, plan: FaultPlan, extra_margin_ms: float = 0.0) -> float:
        """Absolute time from which the delivery invariant is strict.

        Declared by the plan's own fault data (see
        :meth:`~repro.sim.faults.FaultPlan.data_blackout_clear_ms`)
        rather than by plan name: a plan that never touches data packets
        must deliver everything (``0.0``); a plan whose blackout clears
        at ``T`` is held to every update published after ``T`` plus the
        refresh-driven recovery margin.  ``extra_margin_ms`` lets a
        scenario declare additional slack (e.g. snapshot catch-up after
        reconnect storms) without touching the plan.
        """
        clear = plan.data_blackout_clear_ms()
        if clear is None:
            return 0.0
        return clear + self.recovery_margin_ms + extra_margin_ms


def _plan_none(seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
    return FaultPlan(seed=seed, name="none")


def _plan_rp_split_lossy(seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="rp-split-lossy",
        default=LinkFaults(loss=loss, scope="control"),
    )


def _plan_rp_split_burst(seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
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


def _plan_link_flap(seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="link-flap",
        links={"R1<->R2": LinkFaults(down=(timeline.flap_window_ms,))},
        default=LinkFaults(loss=loss, scope="control"),
    )


def _plan_rp_crash(seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="rp-crash",
        nodes={
            NEW_RP: NodeFaults(
                crash_at=timeline.crash_at_ms, restart_at=timeline.restart_at_ms
            )
        },
        default=LinkFaults(loss=loss, scope="control"),
    )


_PLAN_BUILDERS: Dict[str, Callable[[int, float, ChaosTimeline], FaultPlan]] = {
    "none": _plan_none,
    "rp-split-lossy": _plan_rp_split_lossy,
    "rp-split-burst": _plan_rp_split_burst,
    "link-flap": _plan_link_flap,
    "rp-crash": _plan_rp_crash,
}

PLAN_NAMES: Tuple[str, ...] = tuple(sorted(_PLAN_BUILDERS))


def build_plan(name: str, seed: int, loss: float, timeline: ChaosTimeline) -> FaultPlan:
    """Instantiate one of the named fault plans."""
    try:
        builder = _PLAN_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown plan {name!r}; choose from {PLAN_NAMES}") from None
    return builder(seed, loss, timeline)


@dataclass
class ChaosReport:
    """Everything one chaos run produced, JSON-serialisable."""

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
    timeline: dict = field(default_factory=dict)
    #: Telemetry findings (hop chains of missed deliveries, drop reasons)
    #: when the run was recorded; empty otherwise.  Deliberately outside
    #: :meth:`digest` so traced and untraced runs stay digest-comparable.
    trace: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Content hash for reproducibility checks across runs."""
        return json_digest(
            {
                "missed": sorted(self.missed_sample),
                "expected": self.deliveries_expected,
                "got": self.deliveries_got,
                "dropped": self.fault_stats.get("dropped", 0),
                "counters": self.node_counters,
            }
        )

    def as_dict(self) -> dict:
        """The JSON report body (digest included)."""
        return {
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
            "fault_stats": self.fault_stats,
            "node_counters": self.node_counters,
            "latency": self.latency,
            "timeline": self.timeline,
            "trace": self.trace,
            "digest": self.digest(),
        }


def run_chaos(
    plan_name: str = "rp-split-lossy",
    seed: int = 1,
    scale: float = 0.05,
    loss: float = 0.05,
    timeline: Optional[ChaosTimeline] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    telemetry: Optional[TelemetrySession] = None,
    executor_factory=None,
    scenario: Optional[str] = None,
):
    """Run the fig-4 workload under ``plan_name`` and check delivery.

    ``scale`` shrinks the 12,440-event trace; ``loss`` parameterises the
    plan's loss knob (Bernoulli rate, or burst entry probability).  The
    run is fully deterministic in (plan, seed, scale, loss, timeline).

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
    built-in fig-4 workload; the run then returns a
    :class:`~repro.experiments.scenarios.harness.ScenarioReport`, whose
    ``as_dict`` carries the same headline keys as :class:`ChaosReport`.
    """
    if scenario is not None:
        from repro.experiments.scenarios import run_scenario

        return run_scenario(
            scenario=scenario,
            plan_name=plan_name,
            seed=seed,
            scale=scale,
            loss=loss,
            timeline=timeline,
            calibration=calibration,
            telemetry=telemetry,
            executor_factory=executor_factory,
        )
    timeline = timeline if timeline is not None else ChaosTimeline()
    game_map = GameMap(seed=seed)
    placement = microbenchmark_placement(game_map)
    spec = microbenchmark_spec(scale=scale, seed=seed)
    events = CounterStrikeTraceGenerator(game_map, spec, placement=placement).generate()

    testbed = build_testbed(
        game_map.hierarchy, placement, calibration, executor_factory
    )
    executor = testbed.executor
    refresh = timeline.refresh_interval_ms
    testbed.enable_recovery(refresh)
    testbed.subscribe(refresh)
    testbed.converge(until=timeline.subscribe_ms)  # fault-free

    # Arm the faults for the workload phase.
    plan = build_plan(plan_name, seed, loss, timeline)
    injector = testbed.arm(plan, telemetry)

    # Forced mid-trace split R1 -> R4 through the regular balancer path.
    splits: List[Tuple[str, Tuple[Name, ...]]] = []
    balancer = testbed.scripted_balancer(
        "R1",
        [NEW_RP],
        random.Random(seed),
        lambda new_rp, moved: splits.append((new_rp, moved)),
    )
    executor.schedule_external("R1", timeline.split_at_ms, balancer.split)

    # Delivery bookkeeping: who should see event i, who did.
    subscribers = subscribers_by_leaf_cd(game_map, placement)
    got, latency = testbed.record_deliveries("chaos")
    testbed.replay(events)

    offset = testbed.offset
    horizon = offset + (events[-1].time_ms if events else 0.0) + timeline.drain_ms
    if telemetry is not None:
        telemetry.schedule_metrics(horizon)
    executor.run(until=horizon)

    check_after = timeline.check_after_ms(plan)
    expected = 0
    checked = 0
    missed: List[Tuple[int, str]] = []
    for i, event in enumerate(events):
        if offset + event.time_ms < check_after:
            continue
        checked += 1
        for receiver in subscribers.get(event.cd, ()):  # type: ignore[arg-type]
            if receiver == event.player:
                continue
            expected += 1
            if (i, receiver) not in got:
                missed.append((i, receiver))
    missed.sort()

    return ChaosReport(
        plan=plan.describe(),
        seed=seed,
        scale=scale,
        loss=loss,
        check_after_ms=check_after,
        events_total=len(events),
        events_checked=checked,
        deliveries_expected=expected,
        deliveries_got=len(got),
        deliveries_got_checked=expected - len(missed),
        permanent_misses=len(missed),
        missed_sample=missed,
        invariant_ok=not missed and bool(splits),
        split=(
            (splits[0][0], [str(p) for p in splits[0][1]]) if splits else None
        ),
        fault_stats=injector.stats.as_dict(),
        node_counters=testbed.recovery_counters(),
        latency=summarize(latency),
        timeline={
            "subscribe_ms": timeline.subscribe_ms,
            "split_at_ms": timeline.split_at_ms,
            "horizon_ms": horizon,
        },
        trace=testbed.finish_trace(telemetry, missed),
    )
