"""The G-COPSS router's two engines: forwarding plane and control plane.

The paper's Fig. 2 draws the router as separable engines (NDN engine +
COPSS engine behind per-face IPC ports).  This module is that separation
in code.  :class:`~repro.core.engine.GCopssRouter` is only a thin facade
that composes:

* :class:`ForwardingPlane` — the per-packet data path: ST Bloom matching,
  multicast replication with uid dedup, Interest encap/decap toward the
  RP, and the service-cost model (RP decapsulation at ~3.3 ms, plain
  forwarding at microseconds).  This is the PR-1 fast path, moved here
  intact.
* :class:`ControlPlane` — everything that *mutates* routing/subscription
  state: Subscribe/Unsubscribe propagation with upstream aggregation, FIB
  add/remove floods, the CD-handoff ST reversal and the three-stage
  join/confirm/leave migration state machine (paper §IV-B).

Both planes write their counters into the router's shared
:class:`~repro.sim.stats.NodeStats` block and read RP/relay state from the
attached :class:`~repro.core.roles.RpRole` / RelayRole, so neither plane
needs to know the router's concrete class.  Peer-type checks on the data
path use the ``is_copss_router`` class marker instead of ``isinstance`` —
no import cycle with the engine module, same subclass semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

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
from repro.core.roles import RelayRole, RpRole
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name
from repro.ndn.fib import Fib
from repro.ndn.packets import Interest
from repro.packets import Packet
from repro.sim.network import Face

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import GCopssRouter

__all__ = [
    "ForwardingPlane",
    "ControlPlane",
    "RecoveryConfig",
    "RP_NAMESPACE",
    "rp_target_of",
]

#: NDN namespace used to tunnel Multicast packets toward an RP.
RP_NAMESPACE = "rp"

#: Replication/flood dedup window (uids remembered per structure).
DEDUP_HORIZON = 65536


def rp_target_of(interest: Interest) -> str:
    """The RP name an ``/rp/<RP>`` tunnel Interest is addressed to."""
    name = interest.name
    if name.depth < 2 or name[0] != RP_NAMESPACE:
        raise ValueError(f"not an RP tunnel name: {name}")
    return name[1]


def _intersects(cd: Name, prefixes: Iterable[Name]) -> bool:
    """True when ``cd`` and any of ``prefixes`` cover one another."""
    return any(p.is_prefix_of(cd) or cd.is_prefix_of(p) for p in prefixes)


@dataclass
class RecoveryConfig:
    """Opt-in loss-recovery behaviour for one router's control plane.

    Everything defaults to **off**: with a default config the router is
    bit-identical to the pre-fault-plane protocol (no timers scheduled, no
    extra state written), which is what the perf gates measure.  Enabling
    pieces turns the hard-state protocol into the soft-state one the COPSS
    lineage assumes:

    * ``soft_state`` — ST entries expire ``st_ttl_ms`` after their last
      (re-)Subscribe; a periodic sweep removes stale entries and propagates
      upstream Unsubscribes, cleaning up after lost Leaves, dead hosts and
      link flaps.  The TTL must comfortably exceed the refresh interval
      (the chaos harness uses 12x) or ordinary refresh loss shows up as
      churn.
    * ``refresh`` — a periodic tick re-Subscribes every upstream-joined CD
      (hop-by-hop keep-alive for the whole tree) and, on RPs, re-floods a
      FIB-add for the served prefixes so partially-lost floods heal.
    * ``retransmit`` — the migration handshake retries: Joins are re-sent
      with exponential backoff while an epoch is PENDING, CD-handoffs are
      re-sent until the new RP's FIB flood acknowledges them implicitly
      (with a rollback after ``max_retries``), and tunnels that reach an
      RP which no longer serves the CD are bounced via CD routes instead
      of dropped.

    Periodic ticks re-schedule themselves forever; runs with ``soft_state``
    or ``refresh`` enabled must bound the simulation with
    ``sim.run(until=...)``.
    """

    soft_state: bool = False
    st_ttl_ms: float = 8000.0
    sweep_interval_ms: float = 1000.0
    refresh: bool = False
    refresh_interval_ms: float = 2000.0
    retransmit: bool = False
    retry_interval_ms: float = 1000.0
    retry_backoff: float = 2.0
    max_retries: int = 5

    @classmethod
    def full(cls, **overrides) -> "RecoveryConfig":
        """Everything on — the configuration the chaos harness runs."""
        config = cls(soft_state=True, refresh=True, retransmit=True)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config


class _MigrationState(Enum):
    PENDING = auto()
    CONFIRMED = auto()


@dataclass
class _Migration:
    """Per-epoch tree re-anchoring state at one router (stage 3)."""

    epoch: int
    origin: str                       # new RP name
    new_upstream: Optional[Face]
    state: _MigrationState
    join_cds: Set[Name] = field(default_factory=set)
    affected_cds: Set[Name] = field(default_factory=set)
    old_upstreams: Dict[Name, Set[Face]] = field(default_factory=dict)
    pending_downstream: Dict[Face, Set[Name]] = field(default_factory=dict)


@dataclass
class _PendingHandoff:
    """Un-acked CD handoff at the old RP, kept until the new RP's FIB-add
    flood comes back (the implicit ack) or retries exhaust and the state
    captured here is rolled back."""

    packet: CdHandoffPacket
    out: Face
    moved: Tuple[Name, ...]
    new_rp: str
    st_removed: Dict[Name, int]
    prev_upstreams: Dict[Name, Optional[Set[Face]]]
    prev_route: Optional[Face]


class ForwardingPlane:
    """Data path: ST match, replication, dedup, encap/decap, service cost.

    Owns the Subscription Table (written by the control plane, matched
    here) and the replication dedup window.  All counters live in the
    router's shared stats block.
    """

    def __init__(
        self,
        router: "GCopssRouter",
        st: SubscriptionTable,
        rp: RpRole,
        relay: RelayRole,
        control: "ControlPlane",
    ) -> None:
        self.router = router
        self.stats = router.stats
        self.st: SubscriptionTable[Face] = st
        self.rp = rp
        self.relay = relay
        self.control = control
        # Replication dedup: a router never needs to replicate the same
        # update twice (in a consistent tree it sees each update once; the
        # second copy a migration fork can deliver is redundant, and this
        # also hard-stops any Bloom-false-positive forwarding cycle).
        self.replicated = BoundedUidSet(DEDUP_HORIZON)

    # ------------------------------------------------------------------
    # Queueing / service model
    # ------------------------------------------------------------------
    def service_cost(self, packet: Packet, face: Face) -> float:
        """RP decapsulation costs ``rp_service_time``; all else is fast."""
        router = self.router
        if isinstance(packet, Interest) and isinstance(packet.payload, MulticastPacket):
            if (
                rp_target_of(packet) == router.name
                and self.rp.serving_prefix(packet.payload.cd) is not None
            ):
                return router.rp_service_time
        elif isinstance(packet, MulticastPacket) and not face.peer.is_copss_router:
            # First-hop publish whose access router is itself the RP.
            if self.rp.serving_prefix(packet.cd) is not None:
                return router.rp_service_time
        return router.service_time

    # ------------------------------------------------------------------
    # Multicast data path
    # ------------------------------------------------------------------
    def handle_interest(self, interest: Interest, face: Face) -> None:
        """Demultiplex Interests: RP tunnels here, plain NDN to the base."""
        if isinstance(interest.payload, MulticastPacket):
            self.handle_tunnel(interest, face)
        else:
            self.router._handle_interest(interest, face)

    def handle_multicast(self, mcast: MulticastPacket, face: Face) -> None:
        """Route a raw Multicast: replicate down-tree or push toward the RP."""
        if face.peer.is_copss_router:
            # Down-tree replication of an already-decapsulated update.
            self.replicate(mcast, exclude=face)
            return
        # First hop: a locally attached publisher handed us an update.
        serving = self.rp.serving_prefix(mcast.cd)
        if serving is not None:
            self.decapsulated(mcast, serving, exclude=face)
            return
        relinquished = self.relay.relay_target(mcast.cd)
        if relinquished is not None:
            self.stats.relays += 1
            self.encapsulate_toward(mcast, relinquished)
            return
        targets = self.control.cd_routes.lookup(mcast.cd)
        if not targets:
            self.stats.multicast_dropped_no_rp += 1
            tracer = self.router.trace_hook
            if tracer is not None:
                tracer.on_drop(self.router, mcast, "no_rp")
            return
        self.encapsulate_toward(mcast, min(targets))

    def handle_tunnel(self, tunnel: Interest, face: Face) -> None:
        """Process an ``/rp/<RP>`` tunnel: decap at the target, else forward."""
        target = rp_target_of(tunnel)
        mcast = tunnel.payload
        if target == self.router.name:
            serving = self.rp.serving_prefix(mcast.cd)
            if serving is not None:
                self.decapsulated(mcast, serving, exclude=None)
                return
            relinquished = self.relay.relay_target(mcast.cd)
            if relinquished is not None:
                self.stats.relays += 1
                self.encapsulate_toward(mcast, relinquished)
                return
            # Addressed to us but we neither serve nor relay the CD: a
            # crashed-and-restarted RP, or a handoff the sender has not
            # heard about.  With retransmission recovery on, bounce the
            # update toward whoever CD routes say serves it now (the
            # ping-pong this can cause between an old and new RP ends as
            # soon as the retried handoff or re-flood lands); legacy
            # behaviour is to drop, which the no-RP counter records.
            if self.control.recovery.retransmit:
                targets = set(self.control.cd_routes.lookup(mcast.cd))
                targets.discard(self.router.name)
                if targets:
                    self.stats.tunnel_bounces += 1
                    self.encapsulate_toward(mcast, min(targets))
                    return
            self.stats.multicast_dropped_no_rp += 1
            tracer = self.router.trace_hook
            if tracer is not None:
                tracer.on_drop(self.router, mcast, "no_rp")
            return
        out = self._route_toward(target)
        if out is None:
            self.stats.multicast_dropped_no_rp += 1
            tracer = self.router.trace_hook
            if tracer is not None:
                tracer.on_drop(self.router, mcast, "no_route_to_rp")
            return
        out.send(tunnel)  # per-hop tunnel forward: skip the ownership re-check

    def _route_toward(self, rp: str) -> Optional[Face]:
        """Face toward ``rp``: the flood-learnt RP route when known, else
        topology shortest path.  The fallback matters mid-handoff: a
        relayed tunnel can transit a router the new RP's FIB flood has
        not reached yet (the flood is control traffic and may itself be
        delayed or lost), and dropping there would defeat the relay."""
        face = self.control.rp_route.get(rp)
        if face is not None:
            return face
        router = self.router
        try:
            return router.face_toward(router.network.next_hop(router.name, rp))
        except Exception:
            return None

    def encapsulate_toward(self, mcast: MulticastPacket, rp: str) -> None:
        """Wrap ``mcast`` in an ``/rp/<RP>`` Interest and send it one hop."""
        router = self.router
        face = self._route_toward(rp)
        if face is None:
            self.stats.multicast_dropped_no_rp += 1
            tracer = router.trace_hook
            if tracer is not None:
                tracer.on_drop(router, mcast, "no_route_to_rp")
            return
        tunnel = Interest(
            name=Name([RP_NAMESPACE, rp]),
            payload=mcast,
            created_at=mcast.created_at,
        )
        router.send(face, tunnel)

    def decapsulated(
        self, mcast: MulticastPacket, serving: Name, exclude: Optional[Face]
    ) -> None:
        """Count, trace and replicate an RP-decapsulated multicast."""
        self.stats.decapsulations += 1
        tracer = self.router.trace_hook
        if tracer is not None:
            tracer.on_decap(self.router, mcast, serving)
        self.rp.record_decap(self.router, serving)
        self.replicate(mcast, exclude=exclude)

    def replicate(self, mcast: MulticastPacket, exclude: Optional[Face]) -> None:
        """Copy ``mcast`` onto every ST-matching face (once per uid)."""
        if not self.replicated.add(mcast.uid):
            self.stats.duplicate_multicasts_dropped += 1
            tracer = self.router.trace_hook
            if tracer is not None:
                tracer.on_drop(self.router, mcast, "duplicate")
            return
        forwarded = 0
        for out in self.st.match(mcast.cd):
            if out is not exclude:
                forwarded += 1
                out.send(mcast)  # faces from our own ST; skip the self.send ownership re-check
        self.stats.multicasts_forwarded += forwarded

    def crash_reset(self) -> None:
        """Forget volatile data-path state (node crash/restart)."""
        self.replicated = BoundedUidSet(DEDUP_HORIZON)


class ControlPlane:
    """Routing/subscription state and the migration state machine.

    Owns CD routes (prefix -> serving RP), RP routes (RP -> face), the
    upstream-join pointers, flood dedup and per-epoch migration records.
    Writes the shared ST (the forwarding plane matches against it).
    """

    def __init__(
        self,
        router: "GCopssRouter",
        st: SubscriptionTable,
        rp: RpRole,
        relay: RelayRole,
    ) -> None:
        self.router = router
        self.stats = router.stats
        self.st: SubscriptionTable[Face] = st
        self.rp = rp
        self.relay = relay
        # CD prefix -> name of the serving RP (longest-prefix matched).
        self.cd_routes: Fib[str] = Fib()
        # RP name -> local face on the shortest path toward it.
        self.rp_route: Dict[str, Face] = {}
        # cd -> faces we sent Subscribe/Join on (upstream tree pointers).
        self._upstream_joined: Dict[Name, Set[Face]] = {}
        self.seen_floods = BoundedUidSet(DEDUP_HORIZON)
        self.migrations: Dict[int, _Migration] = {}
        # Grace period before detaching from the old tree after a
        # migration confirm (see handle_confirm).  No-loss holds as long
        # as every packet already committed to the old tree drains within
        # this window, so it must cover the network diameter plus the
        # worst queueing delay at the moment a split triggers — with the
        # default balancer threshold of 40 packets at 3.3 ms RP service,
        # that is ~130 ms of backlog; 400 ms leaves ample margin.  The
        # cost of a generous linger is only a brief window of duplicate
        # deliveries, which uid dedup suppresses.
        self.leave_linger_ms = 400.0
        # Loss recovery (all off by default; see RecoveryConfig).
        self.recovery = RecoveryConfig()
        # (face, cd) -> last (re-)Subscribe time; only written while
        # soft_state is enabled.
        self._st_touched: Dict[Tuple[Face, Name], float] = {}
        # handoff packet uid -> rollback record, until the implicit ack.
        self._pending_handoffs: Dict[int, _PendingHandoff] = {}
        # Flood-scope seam (hierarchical federation): when set, FIB
        # add/remove re-floods consult ``filter(packet, out_face)`` and
        # skip faces it rejects.  A region's aggregation point uses this
        # to absorb intra-region ownership floods so the rest of the
        # network keeps exactly one aggregate route per region.
        self.fib_flood_filter: Optional[Callable[[FibAddPacket, Face], bool]] = None
        # Observers called for every accepted (non-duplicate) FIB-add,
        # after routes are updated and before the re-flood.  Aggregation
        # points use this to retarget their relay map when an intra-region
        # handoff moves a prefix to a new member.
        self.on_fib_add: List[Callable[[FibAddPacket, Optional[Face]], None]] = []

    # ------------------------------------------------------------------
    # Recovery plumbing
    # ------------------------------------------------------------------
    def enable_recovery(self, config: Optional[RecoveryConfig] = None) -> RecoveryConfig:
        """Switch recovery on (everything, unless ``config`` narrows it).

        Schedules the soft-state sweep and refresh ticks; they re-arm
        themselves forever, so bound the run with ``sim.run(until=...)``.
        """
        self.recovery = config if config is not None else RecoveryConfig.full()
        sim = self.router.sim
        if self.recovery.soft_state and self.recovery.st_ttl_ms > 0:
            sim.schedule(self.recovery.sweep_interval_ms, self._sweep_tick)
        if self.recovery.refresh:
            sim.schedule(self.recovery.refresh_interval_ms, self._refresh_tick)
        return self.recovery

    def _touch(self, face: Face, cd: Name) -> None:
        """Refresh the soft-state timestamp of one ST entry."""
        if self.recovery.soft_state:
            self._st_touched[(face, cd)] = self.router.sim.now

    def _sweep_tick(self) -> None:
        cfg = self.recovery
        if not cfg.soft_state:
            return
        now = self.router.sim.now
        expired = [
            key for key, touched in self._st_touched.items()
            if now - touched >= cfg.st_ttl_ms
        ]
        for face, cd in expired:
            self._st_touched.pop((face, cd), None)
            self.stats.subscriptions_expired += 1
            # Lenient removal: behaves exactly like a Leave from that
            # branch, including upstream Unsubscribe propagation.
            self.remove_subscriptions((cd,), face, strict=False)
        self.router.sim.schedule(cfg.sweep_interval_ms, self._sweep_tick)

    def _refresh_tick(self) -> None:
        cfg = self.recovery
        if not cfg.refresh:
            return
        router = self.router
        now = router.sim.now
        by_face: Dict[Face, Set[Name]] = {}
        for cd, faces in self._upstream_joined.items():
            for out in faces:
                by_face.setdefault(out, set()).add(cd)
        for out, cds in by_face.items():
            router.send(out, SubscribePacket(cds=tuple(sorted(cds)), created_at=now))
            self.stats.subscription_refreshes += 1
        if self.rp.prefixes:
            # RPs also re-announce their prefixes: a FIB flood partially
            # lost to faults heals within one refresh interval.  A fresh
            # uid is essential — re-sending the original flood would be
            # swallowed by every router's seen_floods dedup.
            flood = FibAddPacket(
                prefixes=tuple(sorted(self.rp.prefixes)),
                origin=router.name,
                created_at=now,
            )
            self.handle_fib_add(flood, face=None)
            self.stats.control_retransmits += 1
        router.sim.schedule(cfg.refresh_interval_ms, self._refresh_tick)

    def crash_reset(self) -> None:
        """Drop all volatile control state (node crash/restart).

        The served-prefix set and relay map survive — they are the node's
        *configuration*; everything learned from peers (ST, routes, flood
        dedup, migrations) is lost and must be re-learned through refresh.
        """
        for face in list(self.st.faces()):
            self.st.drop_face(face)
        self.cd_routes = Fib()
        self.rp_route.clear()
        self._upstream_joined.clear()
        self.seen_floods = BoundedUidSet(DEDUP_HORIZON)
        self.migrations.clear()
        self._st_touched.clear()
        self._pending_handoffs.clear()

    # ------------------------------------------------------------------
    # Subscription control path
    # ------------------------------------------------------------------
    def handle_subscribe(self, sub: SubscribePacket, face: Face) -> None:
        """Install ST state for each CD; propagate first-subscriber joins."""
        for cd in sub.cds:
            appeared = (
                bool(self.rp.on_subscriber_appeared)
                and self.rp.serving_prefix(cd) is not None
                and cd not in self.st.all_cds()
            )
            first = self.st.ensure(face, cd)
            self._touch(face, cd)
            if first:
                self.join_upstream(cd)
            if appeared:
                for hook in self.rp.on_subscriber_appeared:
                    hook(cd)

    def handle_unsubscribe(self, packet: UnsubscribePacket, face: Face) -> None:
        self.remove_subscriptions(packet.cds, face, strict=True)

    def handle_leave(self, packet: LeavePacket, face: Face) -> None:
        self.remove_subscriptions(packet.prefixes, face, strict=False)

    def join_upstream(self, cd: Name) -> None:
        """Propagate a subscription toward every RP relevant to ``cd``."""
        router = self.router
        if self.rp.serving_prefix(cd) is not None:
            return  # we are the root for this CD
        targets: Set[str] = set(self.cd_routes.lookup(cd))
        if not targets:
            for _prefix, rps in self.cd_routes.entries_under(cd).items():
                targets.update(rps)
        # Aggregate subscriptions may also span prefixes we serve ourselves.
        targets.discard(router.name)
        joined = self._upstream_joined.setdefault(cd, set())
        out_faces = set()
        for rp in targets:
            out = self.rp_route.get(rp)
            if out is not None and out not in joined:
                out_faces.add(out)
        for out in out_faces:
            joined.add(out)
            router.send(out, SubscribePacket(cds=(cd,), created_at=router.sim.now))
        if not joined:
            self._upstream_joined.pop(cd, None)

    def remove_subscriptions(
        self, cds: Tuple[Name, ...], face: Face, strict: bool
    ) -> None:
        """Shared by Unsubscribe (strict) and Leave (lenient) handling.

        Even the "strict" path tolerates a missing entry: a migration
        Leave detaches a branch wholesale (all refcounts at once), so a
        later refcounted Unsubscribe from a subscriber that had been
        aggregated behind that branch can legitimately find nothing left
        to remove.  Such events are counted, not raised.
        """
        router = self.router
        for cd in cds:
            if strict:
                try:
                    vanished = self.st.unsubscribe(face, cd)
                except KeyError:
                    self.stats.unsubscribe_misses += 1
                    continue
            else:
                vanished = self.st.remove_all(face, cd) > 0
            if vanished:
                self._st_touched.pop((face, cd), None)
            if vanished and not self.st.has_any_subscriber(cd):
                for out in self._upstream_joined.pop(cd, set()):
                    router.send(
                        out, UnsubscribePacket(cds=(cd,), created_at=router.sim.now)
                    )
            if (
                vanished
                and self.rp.on_subscriber_vanished
                and self.rp.serving_prefix(cd) is not None
                and cd not in self.st.all_cds()
            ):
                for hook in self.rp.on_subscriber_vanished:
                    hook(cd)

    # ------------------------------------------------------------------
    # Stage 1+2: CD handoff (old RP -> new RP, reversing the path STs)
    # ------------------------------------------------------------------
    def initiate_handoff(
        self, prefixes: Iterable[Name], new_rp: str
    ) -> CdHandoffPacket:
        """Old-RP side of a split: relinquish ``prefixes`` and start relaying.

        Called by the load balancer.  Returns the handoff packet (mostly
        for tests).
        """
        router = self.router
        moved = tuple(sorted(Name.coerce(p) for p in prefixes))
        for prefix in moved:
            if prefix not in self.rp.prefixes:
                raise ValueError(f"{router.name} does not serve {prefix}")
        next_hop = router.network.next_hop(router.name, new_rp)
        out = router.face_toward(next_hop)
        prev_route = self.rp_route.get(new_rp)
        for prefix in moved:
            self.rp.prefixes.discard(prefix)
            self.relay.relinquished[prefix] = new_rp
        # Relayed publications must reach the new RP before its FIB flood
        # comes back around; the handoff path itself is the route.
        self.rp_route[new_rp] = out
        st_removed = self._reverse_st_toward(moved, out)
        prev_upstreams = self._flip_upstreams(moved, out)
        packet = CdHandoffPacket(
            prefixes=moved, old_rp=router.name, new_rp=new_rp, created_at=router.sim.now
        )
        router.send(out, packet)
        if self.recovery.retransmit:
            # Keep enough state to re-send the handoff until the new RP's
            # FIB flood acknowledges it, or to roll the split back if it
            # never does (otherwise a lost handoff leaves the moved CDs
            # served by nobody — a permanent black hole).
            self._pending_handoffs[packet.uid] = _PendingHandoff(
                packet=packet,
                out=out,
                moved=moved,
                new_rp=new_rp,
                st_removed=st_removed,
                prev_upstreams=prev_upstreams,
                prev_route=prev_route,
            )
            self._arm_handoff_retry(packet.uid, retries_done=0)
        return packet

    def _reverse_st_toward(
        self, moved: Tuple[Name, ...], path_face: Face
    ) -> Dict[Name, int]:
        """Detach the branch toward the new RP; it is now upstream.

        Returns the removed refcounts so a failed handoff can restore them.
        """
        removed: Dict[Name, int] = {}
        for cd in self.st.cds_on(path_face):
            if _intersects(cd, moved):
                removed[cd] = self.st.remove_all(path_face, cd)
                self._st_touched.pop((path_face, cd), None)
        return removed

    def _flip_upstreams(
        self, moved: Tuple[Name, ...], new_up: Optional[Face]
    ) -> Dict[Name, Optional[Set[Face]]]:
        """Point upstream-tree state for everything under ``moved`` at ``new_up``.

        Returns the previous pointers (``None`` for CDs that had none) so a
        failed handoff can restore them.
        """
        affected = [
            cd
            for cd in set(self._upstream_joined) | self.st.all_cds() | set(moved)
            if _intersects(cd, moved)
        ]
        prev: Dict[Name, Optional[Set[Face]]] = {}
        for cd in affected:
            prev[cd] = (
                set(self._upstream_joined[cd]) if cd in self._upstream_joined else None
            )
            if new_up is None:
                self._upstream_joined.pop(cd, None)
            else:
                self._upstream_joined[cd] = {new_up}
        return prev

    def _arm_handoff_retry(self, uid: int, retries_done: int) -> None:
        cfg = self.recovery
        delay = cfg.retry_interval_ms * (cfg.retry_backoff ** retries_done)
        self.router.sim.schedule(delay, self._handoff_retry, uid, retries_done)

    def _handoff_retry(self, uid: int, retries_done: int) -> None:
        pending = self._pending_handoffs.get(uid)
        if pending is None:
            return  # acked (or rolled back) meanwhile
        if retries_done >= self.recovery.max_retries:
            self._rollback_handoff(uid)
            return
        # Re-send the *same* packet (same uid): every step of the handoff
        # walk is idempotent (set-semantics ST ensure, route overwrites),
        # and re-adoption at the new RP floods a fresh FIB-add, which is
        # exactly the ack we are waiting for.
        self.router.send(pending.out, pending.packet)
        self.stats.control_retransmits += 1
        self._arm_handoff_retry(uid, retries_done + 1)

    def _rollback_handoff(self, uid: int) -> None:
        """Give up on an un-acked split: become the serving RP again."""
        pending = self._pending_handoffs.pop(uid, None)
        if pending is None:
            return
        for prefix in pending.moved:
            self.rp.prefixes.add(prefix)
            self.relay.relinquished.pop(prefix, None)
        if self.rp_route.get(pending.new_rp) is pending.out and pending.prev_route is None:
            # Only undo the route we installed; a flood-learned route that
            # has since replaced it is better information, keep it.
            self.rp_route.pop(pending.new_rp, None)
        for cd, count in pending.st_removed.items():
            for _ in range(count):
                self.st.subscribe(pending.out, cd)
            self._touch(pending.out, cd)
        for cd, prev in pending.prev_upstreams.items():
            if prev is None:
                self._upstream_joined.pop(cd, None)
            else:
                self._upstream_joined[cd] = set(prev)
        self.stats.handoff_rollbacks += 1

    def _complete_pending_handoffs(self, packet: FibAddPacket) -> None:
        """A FIB flood from the new RP is the implicit handoff ack."""
        for uid, pending in list(self._pending_handoffs.items()):
            if packet.origin == pending.new_rp and any(
                _intersects(prefix, pending.moved) for prefix in packet.prefixes
            ):
                del self._pending_handoffs[uid]

    def handle_handoff(self, packet: CdHandoffPacket, face: Face) -> None:
        """Stage 2: reverse ST edges along the old-RP -> new-RP path."""
        router = self.router
        moved = packet.prefixes
        if router.name == packet.new_rp:
            # We are the new root: adopt the prefixes, hang the old tree off
            # the arrival face, and announce ourselves network-wide.
            #
            # Except prefixes we have *since relinquished onward*: a lossy
            # ack flood makes the old RP retry the handoff, and the replay
            # can land after our own split already handed the prefix to a
            # successor.  Re-adopting would leave two RPs flooding rival
            # routes for it (the re-announce war intermittently prunes the
            # delivery tree).  The relay entry keeps publications flowing
            # to the real owner, so skip — unless the packet comes from
            # that very successor, which is a legitimate hand-back.
            adopted = []
            for prefix in moved:
                onward = self.relay.relinquished.get(prefix)
                if onward is not None and onward != packet.old_rp:
                    continue
                self.relay.relinquished.pop(prefix, None)
                self.rp.prefixes.add(prefix)
                self.st.ensure(face, prefix)
                self._touch(face, prefix)
                adopted.append(prefix)
            if not adopted:
                return
            kept = tuple(adopted)
            self._flip_upstreams(kept, None)
            flood = FibAddPacket(
                prefixes=kept, origin=router.name, created_at=router.sim.now
            )
            self.handle_fib_add(flood, face=None)
            return
        # Intermediate path router: reverse the tree edge through us.
        next_hop = router.network.next_hop(router.name, packet.new_rp)
        out = router.face_toward(next_hop)
        self.rp_route[packet.new_rp] = out
        for prefix in moved:
            self.st.ensure(face, prefix)
            self._touch(face, prefix)
        self._reverse_st_toward(moved, out)
        self._flip_upstreams(moved, out)
        router.send(out, packet)

    # ------------------------------------------------------------------
    # Stage 3: FIB flood and join/confirm/leave re-anchoring
    # ------------------------------------------------------------------
    def handle_fib_add(self, packet: FibAddPacket, face: Optional[Face]) -> None:
        """Learn new CD routes from a flood; re-flood and maybe re-anchor."""
        router = self.router
        if not self.seen_floods.add(packet.uid):
            return
        for prefix in packet.prefixes:
            if self.cd_routes.has_prefix(prefix):
                self.cd_routes.remove_prefix(prefix)
            self.cd_routes.add(prefix, packet.origin)
        if packet.origin != router.name and face is not None:
            # Flood-learn: the first copy arrived along the fastest path.
            self.rp_route[packet.origin] = face
        if self._pending_handoffs:
            self._complete_pending_handoffs(packet)
        for hook in self.on_fib_add:
            hook(packet, face)
        flood_filter = self.fib_flood_filter
        for out in router.faces.values():
            if out is not face and out.peer.is_copss_router:
                if flood_filter is not None and not flood_filter(packet, out):
                    continue
                router.send(out, packet)
        if packet.origin != router.name:
            self._maybe_start_migration(packet)

    def handle_fib_remove(self, packet: FibRemovePacket, face: Optional[Face]) -> None:
        """Withdraw CD routes (an RP retiring prefixes without a successor).

        Flooded like FIB-add; a publisher edge whose route disappears
        counts subsequent publications as unroutable rather than looping
        them.  Routes for prefixes the flood does not name are untouched,
        so a coarser covering prefix (if any) takes over via LPM.
        """
        router = self.router
        if not self.seen_floods.add(packet.uid):
            return
        for prefix in packet.prefixes:
            if self.cd_routes.has_prefix(prefix):
                self.cd_routes.remove_prefix(prefix)
        if packet.origin == router.name:
            self.rp.prefixes.difference_update(packet.prefixes)
        flood_filter = self.fib_flood_filter
        for out in router.faces.values():
            if out is not face and out.peer.is_copss_router:
                if flood_filter is not None and not flood_filter(packet, out):
                    continue
                router.send(out, packet)

    def _maybe_start_migration(self, packet: FibAddPacket) -> None:
        router = self.router
        moved = packet.prefixes
        affected = {
            cd
            for cd in set(self._upstream_joined) | self.st.all_cds()
            if _intersects(cd, moved)
        }
        if not affected:
            return
        if any(self.rp.serving_prefix(cd) is not None for cd in affected):
            # Shouldn't happen: prefix-freeness keeps served CDs disjoint.
            return
        new_up = self.rp_route.get(packet.origin)
        if new_up is None:
            return
        old_upstreams = {
            cd: set(self._upstream_joined.get(cd, set())) for cd in affected
        }
        needs_move = [
            cd for cd in affected if old_upstreams[cd] and old_upstreams[cd] != {new_up}
        ]
        if self.recovery.refresh:
            # Repair orphaned subscriptions: a crashed-and-restarted
            # router has ST subscribers (rebuilt by keep-alives) but lost
            # its upstream-join pointers, so the first-subscriber join
            # never fired — or fired into an empty CD-route table.  The
            # periodic RP re-flood that brought us here is the signal
            # that routes are back; join upstream now.
            for cd in sorted(affected):
                if not old_upstreams[cd] and self.st.has_any_subscriber(cd):
                    self.join_upstream(cd)
        migration = _Migration(
            epoch=packet.uid,
            origin=packet.origin,
            new_upstream=new_up,
            state=_MigrationState.CONFIRMED if not needs_move else _MigrationState.PENDING,
            join_cds=set(needs_move),
            affected_cds=set(affected),
            old_upstreams=old_upstreams,
        )
        self.migrations[packet.uid] = migration
        if needs_move:
            router.send(
                new_up,
                JoinPacket(
                    prefixes=tuple(sorted(needs_move)),
                    epoch=packet.uid,
                    origin=packet.origin,
                    created_at=router.sim.now,
                ),
            )
            self._arm_join_retry(packet.uid, retries_done=0)

    def _arm_join_retry(self, epoch: int, retries_done: int) -> None:
        cfg = self.recovery
        if not cfg.retransmit:
            return
        delay = cfg.retry_interval_ms * (cfg.retry_backoff ** retries_done)
        self.router.sim.schedule(delay, self._join_retry, epoch, retries_done)

    def _join_retry(self, epoch: int, retries_done: int) -> None:
        migration = self.migrations.get(epoch)
        if (
            migration is None
            or migration.state is _MigrationState.CONFIRMED
            or not migration.join_cds
        ):
            return
        if retries_done >= self.recovery.max_retries:
            return  # give up; soft-state refresh is the backstop
        router = self.router
        # A retried Join that finds the upstream already CONFIRMED (our
        # earlier Join arrived but its Confirm was lost) is answered from
        # the CONFIRMED branch of handle_join — this retry therefore
        # recovers loss in either direction of the handshake.
        router.send(
            migration.new_upstream,
            JoinPacket(
                prefixes=tuple(sorted(migration.join_cds)),
                epoch=epoch,
                origin=migration.origin,
                created_at=router.sim.now,
            ),
        )
        self.stats.control_retransmits += 1
        self._arm_join_retry(epoch, retries_done + 1)

    def handle_join(self, packet: JoinPacket, face: Face) -> None:
        """Graft a migrating branch: attach, confirm, or stash as pending."""
        router = self.router
        cds = set(packet.prefixes)
        if router.name == packet.origin or any(
            self.rp.serving_prefix(cd) is not None for cd in cds
        ):
            # We are the new root: the branch attaches immediately.
            for cd in cds:
                self.st.ensure(face, cd)
                self._touch(face, cd)
            router.send(
                face, ConfirmPacket(epoch=packet.epoch, created_at=router.sim.now)
            )
            return
        migration = self.migrations.get(packet.epoch)
        if migration is not None and migration.state is _MigrationState.CONFIRMED:
            for cd in cds:
                first = self.st.ensure(face, cd)
                self._touch(face, cd)
                if first:
                    self.join_upstream(cd)
            router.send(
                face, ConfirmPacket(epoch=packet.epoch, created_at=router.sim.now)
            )
            return
        if migration is None:
            new_up = self.rp_route.get(packet.origin)
            if new_up is None:
                next_hop = router.network.next_hop(router.name, packet.origin)
                new_up = router.face_toward(next_hop)
            migration = _Migration(
                epoch=packet.epoch,
                origin=packet.origin,
                new_upstream=new_up,
                state=_MigrationState.PENDING,
                join_cds=set(),
            )
            self.migrations[packet.epoch] = migration
            migration.pending_downstream[face] = set(cds)
            migration.join_cds = set(cds)
            router.send(
                migration.new_upstream,
                JoinPacket(
                    prefixes=tuple(sorted(cds)),
                    epoch=packet.epoch,
                    origin=packet.origin,
                    created_at=router.sim.now,
                ),
            )
            self._arm_join_retry(packet.epoch, retries_done=0)
            return
        # PENDING: stash the request; forward any CDs not yet covered.
        migration.pending_downstream.setdefault(face, set()).update(cds)
        delta = cds - migration.join_cds
        if delta:
            migration.join_cds |= delta
            router.send(
                migration.new_upstream,
                JoinPacket(
                    prefixes=tuple(sorted(delta)),
                    epoch=packet.epoch,
                    origin=packet.origin,
                    created_at=router.sim.now,
                ),
            )

    def handle_confirm(self, packet: ConfirmPacket, face: Face) -> None:
        """Activate a pending migration; schedule the lingering Leave."""
        router = self.router
        migration = self.migrations.get(packet.epoch)
        if migration is None or migration.state is _MigrationState.CONFIRMED:
            return
        migration.state = _MigrationState.CONFIRMED
        # Activate pending downstream branches.
        for down_face, cds in migration.pending_downstream.items():
            for cd in cds:
                self.st.ensure(down_face, cd)
                self._touch(down_face, cd)
            router.send(
                down_face, ConfirmPacket(epoch=packet.epoch, created_at=router.sim.now)
            )
        # Switch our own upstream pointers and leave the old tree.  Only
        # CDs we actually joined for are re-pointed: affected CDs that were
        # already anchored at the new upstream (or had no upstream at all)
        # must not gain a phantom upstream pointer, or a later unsubscribe
        # would tear down state we never installed.
        new_up = migration.new_upstream
        leaves: Dict[Face, Set[Name]] = {}
        for cd in migration.join_cds:
            joined = self._upstream_joined.setdefault(cd, set())
            olds = set(migration.old_upstreams.get(cd, set()))
            for old in olds:
                if old is not new_up:
                    leaves.setdefault(old, set()).add(cd)
                    joined.discard(old)
            joined.add(new_up)
        # Leave the old branch only after a linger period: a packet that
        # was decapsulated at the new RP before our Join reached it may
        # still be in flight on the (longer) old path, and an immediate
        # Leave upstream would cut it off.  During the linger both branches
        # are live; the duplicate copies are suppressed by uid dedup.
        for old_face, cds in leaves.items():
            router.sim.schedule(
                self.leave_linger_ms,
                router.send,
                old_face,
                LeavePacket(
                    prefixes=tuple(sorted(cds)),
                    epoch=packet.epoch,
                    created_at=router.sim.now,
                ),
            )
