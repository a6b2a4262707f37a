"""The G-COPSS router facade, end hosts and network builder.

This is the paper's Fig. 2 router: an NDN forwarding engine extended with a
COPSS engine.  Since the plane/role split, :class:`GCopssRouter` is a thin
facade over three composable units:

* the **forwarding plane** (:class:`repro.core.planes.ForwardingPlane`) —
  ST matching, multicast replication with uid dedup, Interest encap/decap
  toward the RP, service-cost model;
* the **control plane** (:class:`repro.core.planes.ControlPlane`) —
  Subscribe/Unsubscribe propagation, FIB floods, CD handoff and the
  three-stage join/confirm/leave migration state machine (§IV-B);
* two attached **roles** (:class:`repro.core.roles.RpRole`,
  :class:`repro.core.roles.RelayRole`) — the RP-served prefix set with its
  load window and broker hooks, and the post-handoff relay map.

The demultiplexer ("is a NDN pkt?") is the inherited
:class:`~repro.sim.network.PacketDispatcher`: the facade *registers* plane
handlers for the COPSS packet types and takes over ``Interest`` to peel RP
tunnels, so everything else keeps flowing through the NDN pipeline and
query/response applications work unchanged.

Data path (§III-B/C):

* A publisher's **Multicast** packet reaches its access router, which looks
  up the responsible RP (prefix-free CD routes), encapsulates the packet in
  an Interest named ``/rp/<RP>`` and forwards it hop-by-hop toward the RP.
* The **RP** decapsulates (this is the expensive step the paper
  microbenchmarks at ~3.3 ms) and multicasts the update down the
  subscription tree: at every router the packet is replicated onto each
  face whose ST Bloom filter matches the packet CD *or any prefix of it*.
* **Subscribe** packets travel from subscribers toward the serving RP(s),
  installing reverse-path ST state and aggregating en route.

RP migration (§IV-B) is implemented in three stages (see
:class:`~repro.core.planes.ControlPlane` for the machinery):

1. the old RP relinquishes the moved prefixes and relays arriving traffic;
2. the **CD-handoff** packet walks the path to the new RP, reversing ST
   entries so the entire old tree hangs off the new RP;
3. the new RP floods a **FIB add**, and every router holding affected
   subscriptions re-anchors onto the shortest-path tree with the
   pending-ST join/confirm/leave handshake.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.dedup import BoundedUidSet
from repro.core.packets import (
    CdHandoffPacket,
    ConfirmPacket,
    FibAddPacket,
    FibRemovePacket,
    JoinPacket,
    LeavePacket,
    MulticastPacket,
    SubscribePacket,
    UnsubscribePacket,
)
from repro.core.planes import (
    RP_NAMESPACE,
    ControlPlane,
    ForwardingPlane,
    RecoveryConfig,
    rp_target_of,
)
from repro.core.roles import RelayRole, RpRole
from repro.core.rp import RpTable
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name
from repro.ndn.engine import NdnHost, NdnRouter
from repro.ndn.fib import Fib
from repro.ndn.packets import Interest
from repro.packets import Packet
from repro.sim.network import Face, Network, Node

__all__ = [
    "GCopssRouter",
    "GCopssHost",
    "GCopssNetworkBuilder",
    "RP_NAMESPACE",
    "DEFAULT_RP_SERVICE_MS",
]

#: Per-packet RP processing time (FIB lookup + decapsulation + ST lookup),
#: the paper's microbenchmark-derived 3.3 ms.
DEFAULT_RP_SERVICE_MS = 3.3

#: Per-packet plain COPSS forwarding time (ST Bloom check + replication).
DEFAULT_COPSS_SERVICE_MS = 0.05


def _stats_field(name: str) -> property:
    """A read/write property aliasing one NodeStats counter."""

    def fget(self):
        return getattr(self.stats, name)

    def fset(self, value):
        setattr(self.stats, name, value)

    return property(fget, fset)


class GCopssRouter(NdnRouter):
    """An NDN router extended with the COPSS engine (paper Fig. 2).

    The facade owns construction and wiring; the behavior lives in the
    planes and roles.  Legacy attribute names (``st``, ``cd_routes``,
    ``rp_prefixes``, the counters, ...) remain available as aliases so
    experiment harnesses and tools keep one stable surface.
    """

    is_copss_router = True

    def __init__(
        self,
        network: Network,
        name: str,
        service_time: float = DEFAULT_COPSS_SERVICE_MS,
        rp_service_time: float = DEFAULT_RP_SERVICE_MS,
        cs_capacity: int = 4096,
    ) -> None:
        super().__init__(network, name, service_time=service_time, cs_capacity=cs_capacity)
        self.rp_service_time = rp_service_time
        self.rp_role: RpRole = self.attach_role(RpRole())
        self.relay_role: RelayRole = self.attach_role(RelayRole())
        st: SubscriptionTable[Face] = SubscriptionTable()
        self.control = ControlPlane(self, st=st, rp=self.rp_role, relay=self.relay_role)
        self.forwarding = ForwardingPlane(
            self, st=st, rp=self.rp_role, relay=self.relay_role, control=self.control
        )
        dispatcher = self.dispatcher
        dispatcher.register(MulticastPacket, self.forwarding.handle_multicast)
        # Takes over Interest from the NDN base: RP tunnels are peeled, plain
        # Interests fall through to the inherited CS/PIT/FIB pipeline.
        dispatcher.register(Interest, self.forwarding.handle_interest)
        dispatcher.register(SubscribePacket, self.control.handle_subscribe)
        dispatcher.register(UnsubscribePacket, self.control.handle_unsubscribe)
        dispatcher.register(FibAddPacket, self.control.handle_fib_add)
        dispatcher.register(FibRemovePacket, self.control.handle_fib_remove)
        dispatcher.register(CdHandoffPacket, self.control.handle_handoff)
        dispatcher.register(JoinPacket, self.control.handle_join)
        dispatcher.register(ConfirmPacket, self.control.handle_confirm)
        dispatcher.register(LeavePacket, self.control.handle_leave)

    # ------------------------------------------------------------------
    # Queueing / service model
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, face: Face) -> None:
        """Enqueue ``packet`` behind the per-type service cost."""
        self.stats.packets_received += 1
        tracer = self.trace_hook
        if tracer is not None:
            tracer.on_enqueue(self, packet)
        self.queue.submit(
            (packet, face), self.forwarding.service_cost(packet, face), self._serve
        )

    def _service_cost(self, packet: Packet, face: Face) -> float:
        return self.forwarding.service_cost(packet, face)

    # ------------------------------------------------------------------
    # RP role helpers / control-plane entry points
    # ------------------------------------------------------------------
    def _serving_prefix(self, cd: Name) -> Optional[Name]:
        return self.rp_role.serving_prefix(cd)

    def _relinquished_to(self, cd: Name) -> Optional[str]:
        return self.relay_role.relay_target(cd)

    _rp_target_of = staticmethod(rp_target_of)

    def initiate_handoff(self, prefixes: Iterable[Name], new_rp: str) -> CdHandoffPacket:
        """Old-RP side of a split (stage 1); called by the load balancer."""
        return self.control.initiate_handoff(prefixes, new_rp)

    def enable_recovery(self, config: Optional[RecoveryConfig] = None) -> RecoveryConfig:
        """Turn on the loss-recovery machinery (see RecoveryConfig)."""
        return self.control.enable_recovery(config)

    @property
    def recovery(self) -> RecoveryConfig:
        return self.control.recovery

    def crash_reset(self) -> None:
        """Crash semantics: lose queue/PIT/CS plus all COPSS soft state."""
        super().crash_reset()
        self.control.crash_reset()
        self.forwarding.crash_reset()

    def _handle_fib_add(self, packet: FibAddPacket, face: Optional[Face]) -> None:
        self.control.handle_fib_add(packet, face)

    def _handle_fib_remove(self, packet: FibRemovePacket, face: Optional[Face]) -> None:
        self.control.handle_fib_remove(packet, face)

    # ------------------------------------------------------------------
    # Aliases: plane/role state under the historical attribute names
    # ------------------------------------------------------------------
    @property
    def st(self) -> SubscriptionTable[Face]:
        return self.forwarding.st

    @property
    def cd_routes(self) -> Fib[str]:
        return self.control.cd_routes

    @property
    def rp_route(self) -> Dict[str, Face]:
        return self.control.rp_route

    @property
    def rp_prefixes(self) -> Set[Name]:
        return self.rp_role.prefixes

    @rp_prefixes.setter
    def rp_prefixes(self, value: Iterable[Name]) -> None:
        self.rp_role.prefixes = set(value)

    @property
    def relinquished(self) -> Dict[Name, str]:
        return self.relay_role.relinquished

    @relinquished.setter
    def relinquished(self, value: Dict[Name, str]) -> None:
        self.relay_role.relinquished = dict(value)

    @property
    def rp_recent_cds(self) -> Deque[Name]:
        return self.rp_role.recent_cds

    @rp_recent_cds.setter
    def rp_recent_cds(self, value: Iterable[Name]) -> None:
        self.rp_role.recent_cds = deque(value, maxlen=self.rp_role.window_size)

    @property
    def rp_window_size(self) -> int:
        return self.rp_role.window_size

    @rp_window_size.setter
    def rp_window_size(self, value: int) -> None:
        self.rp_role.window_size = value
        self.rp_role.recent_cds = deque(self.rp_role.recent_cds, maxlen=value)

    @property
    def leave_linger_ms(self) -> float:
        return self.control.leave_linger_ms

    @leave_linger_ms.setter
    def leave_linger_ms(self, value: float) -> None:
        self.control.leave_linger_ms = value

    @property
    def on_decap(self) -> List[Callable[["GCopssRouter", Name], None]]:
        return self.rp_role.on_decap

    @property
    def on_subscriber_appeared(self) -> List[Callable[[Name], None]]:
        return self.rp_role.on_subscriber_appeared

    @property
    def on_subscriber_vanished(self) -> List[Callable[[Name], None]]:
        return self.rp_role.on_subscriber_vanished

    @property
    def _upstream_joined(self) -> Dict[Name, Set[Face]]:
        return self.control._upstream_joined

    @property
    def _seen_floods(self) -> BoundedUidSet:
        return self.control.seen_floods

    @property
    def _migrations(self) -> Dict[int, object]:
        return self.control.migrations

    @property
    def _dedup_horizon(self) -> int:
        return self.forwarding.replicated.horizon

    @_dedup_horizon.setter
    def _dedup_horizon(self, value: int) -> None:
        self.forwarding.replicated.horizon = value

    # Counters (shared NodeStats block, written by the planes).
    decapsulations = _stats_field("decapsulations")
    multicasts_forwarded = _stats_field("multicasts_forwarded")
    relays = _stats_field("relays")
    multicast_dropped_no_rp = _stats_field("multicast_dropped_no_rp")
    duplicate_multicasts_dropped = _stats_field("duplicate_multicasts_dropped")
    unsubscribe_misses = _stats_field("unsubscribe_misses")


class GCopssHost(NdnHost):
    """An end system (player, broker or tracer) speaking G-COPSS.

    Provides ``subscribe`` / ``unsubscribe`` / ``publish`` and dispatches
    received updates to :attr:`on_update` callbacks, while inheriting the
    full NDN host API (``express_interest`` / ``serve``) so the same host
    can fetch snapshots query/response style.  Duplicate deliveries
    (possible transiently during RP migration) are suppressed by packet
    uid through a bounded dedup window.
    """

    def __init__(self, network: Network, name: str, dedup_horizon: int = 65536) -> None:
        super().__init__(network, name)
        self.subscriptions: Set[Name] = set()
        self.on_update: List[Callable[["GCopssHost", MulticastPacket], None]] = []
        self._seen = BoundedUidSet(dedup_horizon)
        # Loss observability: per-CD publish counters stamp pub_seq onto
        # outgoing updates; per-(publisher, cd) high-water marks detect
        # gaps on the receive side.  Zero-cost for workloads that build
        # MulticastPackets directly (pub_seq stays -1, tracking skipped).
        self._pub_next: Dict[Name, int] = {}
        self._seq_seen: Dict[Tuple[str, Name], int] = {}
        self._refresh_interval: Optional[float] = None
        self.dispatcher.register(MulticastPacket, self._handle_update)

    updates_received = _stats_field("updates_received")
    duplicates_suppressed = _stats_field("duplicates_suppressed")
    own_updates_echoed = _stats_field("own_updates_echoed")
    published = _stats_field("published")

    @property
    def _dedup_horizon(self) -> int:
        return self._seen.horizon

    @_dedup_horizon.setter
    def _dedup_horizon(self, value: int) -> None:
        self._seen.horizon = value

    @property
    def access_face(self) -> Face:
        if len(self.faces) != 1:
            raise RuntimeError(
                f"host {self.name} must have exactly one access face, has {len(self.faces)}"
            )
        return self.faces[0]

    # ------------------------------------------------------------------
    # Pub/sub API
    # ------------------------------------------------------------------
    def subscribe(self, cds: Iterable["Name | str"]) -> None:
        """Subscribe to CDs (already-held subscriptions are skipped)."""
        fresh = [Name.coerce(cd) for cd in cds]
        fresh = [cd for cd in fresh if cd not in self.subscriptions]
        if not fresh:
            return
        self.subscriptions.update(fresh)
        self.send(
            self.access_face,
            SubscribePacket(cds=tuple(sorted(fresh)), created_at=self.sim.now),
        )

    def unsubscribe(self, cds: Iterable["Name | str"]) -> None:
        """Withdraw subscriptions (unknown CDs are skipped)."""
        gone = [Name.coerce(cd) for cd in cds]
        gone = [cd for cd in gone if cd in self.subscriptions]
        if not gone:
            return
        self.subscriptions.difference_update(gone)
        self.send(
            self.access_face,
            UnsubscribePacket(cds=tuple(sorted(gone)), created_at=self.sim.now),
        )

    def set_subscriptions(self, cds: Iterable["Name | str"]) -> None:
        """Diff-based re-subscription used when the player moves areas."""
        target = {Name.coerce(cd) for cd in cds}
        self.unsubscribe(self.subscriptions - target)
        self.subscribe(target - self.subscriptions)

    def publish(
        self, cd: "Name | str", payload_size: int, sequence: int = -1
    ) -> MulticastPacket:
        """Publish one update under ``cd`` (one-step COPSS push)."""
        cd = Name.coerce(cd)
        pub_seq = self._pub_next.get(cd, 0)
        self._pub_next[cd] = pub_seq + 1
        packet = MulticastPacket(
            cd=cd,
            payload_size=payload_size,
            publisher=self.name,
            sequence=sequence,
            created_at=self.sim.now,
            pub_seq=pub_seq,
        )
        self.stats.published += 1
        tracer = self.trace_hook
        if tracer is not None:
            tracer.on_publish(self, packet)
        self.send(self.access_face, packet)
        return packet

    # ------------------------------------------------------------------
    # Soft-state refresh (loss recovery)
    # ------------------------------------------------------------------
    def start_refresh(self, interval_ms: float) -> None:
        """Periodically re-send the full subscription set.

        The keep-alive that makes the host's subscriptions soft state:
        edge routers running with ``RecoveryConfig.soft_state`` expire ST
        entries that stop being refreshed, and a restarted RP re-learns
        the tree from these refreshes.  The tick re-schedules itself until
        :meth:`stop_refresh`; bound such runs with ``sim.run(until=...)``.
        """
        if interval_ms <= 0:
            raise ValueError(f"refresh interval must be positive, got {interval_ms}")
        restart = self._refresh_interval is None
        self._refresh_interval = interval_ms
        if restart:
            self.sim.schedule(interval_ms, self._refresh_tick)

    def stop_refresh(self) -> None:
        self._refresh_interval = None

    def _refresh_tick(self) -> None:
        interval = self._refresh_interval
        if interval is None:
            return
        if self.subscriptions:
            self.send(
                self.access_face,
                SubscribePacket(
                    cds=tuple(sorted(self.subscriptions)), created_at=self.sim.now
                ),
            )
            self.stats.subscription_refreshes += 1
        self.sim.schedule(interval, self._refresh_tick)

    # ------------------------------------------------------------------
    # Receive path (NDN traffic flows through the inherited dispatcher)
    # ------------------------------------------------------------------
    def _handle_update(self, packet: MulticastPacket, face: Face) -> None:
        tracer = self.trace_hook
        if packet.publisher == self.name:
            # A subscribed publisher hears its own update come back down
            # the tree (unless its access router happened to be the RP);
            # suppress uniformly — the player already knows its action.
            self.stats.own_updates_echoed += 1
            if tracer is not None:
                tracer.on_drop(self, packet, "own_echo")
            return
        if not self._seen.add(packet.uid):
            self.stats.duplicates_suppressed += 1
            if tracer is not None:
                tracer.on_drop(self, packet, "duplicate")
            return
        self.stats.updates_received += 1
        if tracer is not None:
            tracer.on_deliver(self, packet)
        if packet.pub_seq >= 0:
            key = (packet.publisher, packet.cd)
            last = self._seq_seen.get(key, -1)
            if packet.pub_seq > last + 1:
                self.stats.seq_gaps += 1
                self.stats.seq_missing += packet.pub_seq - last - 1
            if packet.pub_seq <= last:
                # Behind the high-water mark: a reordered or duplicate-path
                # delivery, not new loss; don't regress the mark.
                self.stats.seq_late += 1
            else:
                self._seq_seen[key] = packet.pub_seq
        for callback in self.on_update:
            callback(self, packet)


class GCopssNetworkBuilder:
    """Installs the initial RP layout into a network of G-COPSS routers.

    Populates every router's CD routes (prefix -> serving RP) and RP routes
    (RP -> shortest-path face), and marks the RP routers.  This models the
    converged state after initial FIB-add propagation, which the paper's
    testbed also configures ahead of time.

    ``next_hops`` optionally overrides route computation: a
    ``{router name: {rp name: next hop name}}`` table used verbatim
    instead of asking the network for shortest paths.  Callers that build
    the same topology in several processes (the sharded scale scenario)
    pass a table computed as a pure function of their spec, so every
    process installs identical routes even when equal-cost ties exist —
    networkx tie-breaking depends on graph insertion order, which a
    partial build cannot reproduce.
    """

    def __init__(
        self,
        network: Network,
        rp_table: RpTable,
        next_hops: Optional[Dict[str, Dict[str, str]]] = None,
    ) -> None:
        self.network = network
        self.rp_table = rp_table
        self.next_hops = next_hops

    def routers(self) -> List[GCopssRouter]:
        return [
            node
            for node in self.network.nodes.values()
            if isinstance(node, GCopssRouter)
        ]

    def install(self) -> None:
        """Populate CD routes, RP routes and RP roles on every router."""
        for rp_name in self.rp_table.all_rps():
            node = self.network.nodes.get(rp_name)
            if not isinstance(node, GCopssRouter):
                raise ValueError(f"RP {rp_name} is not a GCopssRouter in this network")
        for router in self.routers():
            self.install_routes(router)
        for prefix, rp_name in self.rp_table:
            rp_router = self.network.nodes[rp_name]
            if not isinstance(rp_router, GCopssRouter):
                # Unlike an assert, this survives ``python -O``: a topology
                # that maps an RP name onto a non-router must fail loudly,
                # not silently mis-install its prefixes.
                raise TypeError(
                    f"RP {rp_name} must be a GCopssRouter, got "
                    f"{type(rp_router).__name__}"
                )
            rp_router.rp_prefixes.add(prefix)

    def install_routes(self, router: GCopssRouter) -> None:
        """One router's share: its CD routes and its face toward every RP.

        Separate from :meth:`install` so a builder of one shard's slice,
        where a foreign RP is not a router of the network it holds, can
        install its real routers without the whole-network validation.
        """
        for prefix, rp_name in self.rp_table:
            if router.cd_routes.has_prefix(prefix):
                router.cd_routes.remove_prefix(prefix)
            router.cd_routes.add(prefix, rp_name)
        for rp_name in self.rp_table.all_rps():
            if rp_name == router.name:
                continue
            if self.next_hops is not None:
                next_hop = self.network.nodes[self.next_hops[router.name][rp_name]]
            else:
                next_hop = self.network.next_hop(router.name, rp_name)
            router.rp_route[rp_name] = router.face_toward(next_hop)
