"""The Fig. 3b G-COPSS testbed, stood up in exactly one place.

Every experiment that runs G-COPSS on the six-router microbenchmark
topology — the Fig. 4 replay (``run_fig4_traced``, traced or not), the
chaos harness and the scenario matrix — builds its world through
:func:`build_testbed` and drives it through the returned
:class:`Testbed`.  The callers keep their own workloads and
judges; the build order, the subscription phase, workload injection and
the blocks the two fault harnesses used to copy from each other (recovery
configuration, fault arming, scripted-split balancer, delivery record,
recovery counters, missed-delivery hop chains) live here.
``tests/test_single_testbed_builder.py`` holds this module to being the
only G-COPSS caller of ``build_benchmark_topology`` in ``src/repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.balancer import RpLoadBalancer, SplitPolicy, default_refiner
from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.hierarchy import MapHierarchy
from repro.core.planes import RecoveryConfig
from repro.core.rp import RpTable
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.names import ROOT, Name
from repro.obs.session import TelemetrySession
from repro.obs.tracer import render_chain
from repro.sim.engine import SerialExecutor
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.invariants import InvariantMonitor, SubscriptionLedger
from repro.sim.network import Network
from repro.topology.benchmark import build_benchmark_topology

__all__ = ["Testbed", "build_testbed"]


@dataclass
class Testbed:
    """A built Fig. 3b world plus the executor that drives it."""

    network: Network
    executor: object
    hierarchy: MapHierarchy
    placement: Dict[str, Name]
    hosts: Dict[str, GCopssHost]
    routers: List[GCopssRouter]
    #: What ``extra_node`` added (the scenario matrix's snapshot broker).
    extra: Optional[GCopssHost] = None
    #: Clock reading when the workload starts; set by :meth:`converge`.
    offset: float = 0.0
    #: Update sequence → packet uid (the trace id) of :meth:`publish` calls.
    uid_by_seq: Dict[int, int] = field(default_factory=dict)

    @property
    def all_hosts(self) -> List[GCopssHost]:
        """The players, plus the extra node when there is one."""
        return [*self.hosts.values(), *([self.extra] if self.extra else [])]

    # ------------------------------------------------------------------
    # Subscription phase
    # ------------------------------------------------------------------
    def subscribe(self, refresh_ms: Optional[float] = None) -> Dict[str, frozenset]:
        """Subscribe every player to its area's CDs; return them per player.

        With ``refresh_ms`` each host also starts the periodic
        re-Subscribe keep-alive the soft-state recovery stack relies on.
        """
        subscriptions = {}
        for player, host in self.hosts.items():
            subs = self.hierarchy.subscriptions_for(self.placement[player])
            host.subscribe(subs)
            if refresh_ms is not None:
                host.start_refresh(refresh_ms)
            subscriptions[player] = subs
        return subscriptions

    def converge(self, until: Optional[float] = None) -> None:
        """Run the subscription phase, then zero the counters.

        Set-up traffic is in no reported load (update dissemination is
        the paper's metric); workload time starts where the clock stops.
        """
        self.executor.run(until=until)
        self.network.reset_counters()
        self.offset = self.executor.now

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def schedule(self, node: str, at_ms: float, callback, *args) -> None:
        """Inject ``callback(*args)`` at ``node``, ``at_ms`` into the workload.

        Through the executor seam, so it lands on the node's own shard.
        """
        self.executor.schedule_external(node, self.offset + at_ms, callback, *args)

    def publish(self, sequence: int, player: str, cd, size: int) -> None:
        """Publish through :meth:`GCopssHost.publish` (``pub_seq`` stamped)."""
        packet = self.hosts[player].publish(cd, size, sequence=sequence)
        self.uid_by_seq[sequence] = packet.uid

    def replay(self, events: Sequence) -> None:
        """Schedule a trace: :meth:`publish` at each event's publisher.

        The event's index is its sequence.
        """
        for i, event in enumerate(events):
            self.schedule(
                event.player, event.time_ms, self.publish,
                i, event.player, event.cd, event.size,
            )

    def record_deliveries(
        self, ledger: SubscriptionLedger, recovery: RecoveryConfig
    ) -> InvariantMonitor:
        """Install the run's one delivery record: an invariant monitor.

        Its phantom grace is the orphan-audit bound — one TTL for
        refreshes to stop landing plus two sweep periods for the reaper
        — so deliveries riding an ST entry the sweep has not reaped yet
        are soft-state residue, not leaks.
        """
        return InvariantMonitor(
            ledger,
            phantom_grace_ms=recovery.st_ttl_ms + 2 * recovery.sweep_interval_ms,
        ).install(self.network)

    # ------------------------------------------------------------------
    # Shared by the chaos harness and the scenario matrix
    # ------------------------------------------------------------------
    def enable_recovery(self, refresh_ms: float) -> RecoveryConfig:
        """Switch the full recovery stack on at every router.

        TTL of 12 refresh intervals: a soft-state entry dies only after
        12 consecutive lost keep-alives — vanishingly unlikely under
        independent loss, and still rare under correlated bursts whose
        chain advances slowly on quiet access links.  Expiry then only
        reaps genuinely dead state instead of live-but-unlucky branches.
        """
        recovery = RecoveryConfig(
            st_ttl_ms=12 * refresh_ms,
            sweep_interval_ms=refresh_ms,
            refresh_interval_ms=refresh_ms,
        )
        for router in self.routers:
            router.control.enable_recovery(recovery)
        return recovery

    def arm(
        self, plan: FaultPlan, telemetry: Optional[TelemetrySession]
    ) -> FaultInjector:
        """Arm the fault plan (and telemetry) for the workload phase."""
        injector = FaultInjector(self.network, plan).install()
        if telemetry is not None:
            # After the injector: fault drops then carry the injector's reason.
            telemetry.install(
                self.network, fault_stats=injector.stats, executor=self.executor
            )
        return injector

    def scripted_balancer(
        self,
        router: str,
        candidates: Iterable[str],
        rng: random.Random,
        on_split: Callable[[str, Tuple[Name, ...]], None],
    ) -> RpLoadBalancer:
        """A balancer that splits ``router`` only when the script calls it.

        The split is the regular three-stage handoff/join/confirm/leave
        path the auto-balancer takes.  ``spawn_on_split`` stays off: a
        sharded executor fixes the topology at construction.
        """
        return RpLoadBalancer(
            self.network.nodes[router],  # type: ignore[arg-type]
            candidates=list(candidates),
            queue_threshold=10**9,  # the schedule decides, never the queue
            policy=SplitPolicy.RANDOM,
            refiner=default_refiner(self.hierarchy),
            rng=rng,
            spawn_on_split=False,
            on_split=on_split,
        )

    def recovery_counters(self) -> Dict[str, int]:
        """Loss-observability and recovery counters, summed over the world."""
        routers, hosts = self.routers, self.all_hosts
        return {
            "seq_gaps": sum(h.stats.seq_gaps for h in hosts),
            "seq_missing": sum(h.stats.seq_missing for h in hosts),
            "seq_late": sum(h.stats.seq_late for h in hosts),
            "control_retransmits": sum(r.stats.control_retransmits for r in routers),
            "subscriptions_expired": sum(
                r.stats.subscriptions_expired for r in routers
            ),
            "subscription_refreshes": sum(
                n.stats.subscription_refreshes for n in (*routers, *hosts)
            ),
            "tunnel_bounces": sum(r.stats.tunnel_bounces for r in routers),
            "handoff_rollbacks": sum(r.stats.handoff_rollbacks for r in routers),
            "duplicates_suppressed": sum(h.stats.duplicates_suppressed for h in hosts),
        }

    def finish_trace(
        self, telemetry: Optional[TelemetrySession], missed: Sequence[Tuple[int, str]]
    ) -> dict:
        """Close a recorded run; report why its first misses missed.

        The block carries the full hop chain (drop reason included) of up
        to three ``(sequence, receiver)`` misses plus a drop-reason
        summary; empty when the run was not recorded.
        """
        if telemetry is None:
            return {}
        tracer = telemetry.tracer
        chains = [
            {
                "sequence": sequence,
                "receiver": receiver,
                "trace_id": self.uid_by_seq[sequence],
                "chain": render_chain(
                    tracer.hop_chain(self.uid_by_seq[sequence], receiver=receiver)
                ),
            }
            for sequence, receiver in missed[:3]
        ]
        block = {
            "events_recorded": len(tracer.events),
            "drop_reasons": tracer.drop_summary(),
            "missed_chains": chains,
        }
        telemetry.finish()
        return block


def build_testbed(
    hierarchy: MapHierarchy,
    placement: Dict[str, Name],
    executor_factory: Optional[Callable[[Network], object]] = None,
    extra_node: Optional[Callable[[Network], GCopssHost]] = None,
) -> Testbed:
    """Build Fig. 3b with G-COPSS routers, the RP at R1, and an executor.

    The order is fixed: topology → ``extra_node`` (adds and returns one
    more host with its link, so the builder stamps its faces like any
    other's) → RP layout → executor.  The executor comes last and before
    anything schedules: a sharded executor rebinds every node onto its
    shard clock at construction, and later scheduling follows the
    rebinding.  ``executor_factory`` plugs in that backend; default is the
    single-heap :class:`~repro.sim.engine.SerialExecutor`.
    """
    topo = build_benchmark_topology(
        router_factory=lambda net, name: GCopssRouter(
            net,
            name,
            service_time=DEFAULT_CALIBRATION.testbed_copss_forward_ms,
            rp_service_time=DEFAULT_CALIBRATION.rp_service_ms,
        ),
        host_factory=GCopssHost,
        host_names=sorted(placement),
        inter_router_delay_ms=DEFAULT_CALIBRATION.testbed_router_delay_ms,
        host_delay_ms=DEFAULT_CALIBRATION.testbed_host_delay_ms,
    )
    network = topo.network
    extra = extra_node(network) if extra_node is not None else None
    rp_table = RpTable()
    rp_table.assign(ROOT, "R1")  # where the paper placed the RP
    GCopssNetworkBuilder(network, rp_table).install()
    executor = (
        executor_factory(network) if executor_factory else SerialExecutor(network)
    )
    return Testbed(
        network=network,
        executor=executor,
        hierarchy=hierarchy,
        placement=placement,
        hosts={h.name: h for h in topo.hosts},  # type: ignore[misc]
        routers=list(topo.routers.values()),  # type: ignore[arg-type]
        extra=extra,
    )
