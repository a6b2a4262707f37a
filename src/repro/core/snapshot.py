"""Snapshot dissemination for moving players (paper §IV-A).

When a player enters a new sub-world, it must obtain the current snapshot
of every newly visible area.  A decentralized set of **brokers** maintain
up-to-date snapshots by subscribing to the leaf CDs of their serving
areas; the snapshot holds one entry per object whose size follows the
paper's decay model::

    size(obj_vn) = sum_{i=1..n} lambda^(n-i) * size(upd_i)
                 = lambda * size(obj_v(n-1)) + size(upd_n)

Two retrieval modes are implemented and compared in Table III:

* **Query/Response (QR)** — the player pipelines NDN Interests (window W)
  for each object of each needed area against the broker's
  ``/snapshot/...`` namespace;
* **Cyclic multicast** — the player subscribes to the area's snapshot
  group CD; the broker (notified by its RP-serving access router on the
  first Subscribe) publishes the area's objects round-robin until the
  last receiver unsubscribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import GCopssHost, GCopssRouter
from repro.core.packets import MulticastPacket
from repro.names import Name
from repro.ndn.packets import Data, Interest
from repro.sim.roles import Role

__all__ = [
    "ObjectState",
    "BrokerRole",
    "SnapshotBroker",
    "QrSnapshotFetcher",
    "CyclicSnapshotReceiver",
    "SNAPSHOT_NAMESPACE",
    "SNAPSHOT_GROUP_NAMESPACE",
    "DEFAULT_DECAY",
]

#: NDN namespace the brokers serve snapshots under (QR mode).
SNAPSHOT_NAMESPACE = "snapshot"
#: CD namespace for cyclic-multicast snapshot groups.
SNAPSHOT_GROUP_NAMESPACE = "snapgrp"
#: The paper's object-size decay factor (lambda = 0.95).
DEFAULT_DECAY = 0.95


@dataclass
class ObjectState:
    """Broker-side view of one game object."""

    object_id: int
    version: int = 0
    size: float = 0.0
    updates_seen: int = 0

    def apply_update(self, update_size: int, decay: float) -> None:
        self.version += 1
        self.updates_seen += 1
        self.size = decay * self.size + update_size


def snapshot_name(cd: Name, object_id: int) -> Name:
    """NDN name of one object's snapshot: ``/snapshot/<cd...>/<oid>``."""
    return Name([SNAPSHOT_NAMESPACE]).append(cd).child(str(object_id))


def group_cd(cd: Name) -> Name:
    """Cyclic-multicast group CD for an area: ``/snapgrp/<cd...>``."""
    return Name([SNAPSHOT_GROUP_NAMESPACE]).append(cd)


class BrokerRole(Role):
    """Snapshot brokering as an attachable host behavior.

    Owns the object states, the update-folding callback, the QR producer
    and the cyclic-multicast scheduler; the host it attaches to provides
    transport (subscribe/serve/send).  Attach to any
    :class:`~repro.core.engine.GCopssHost` — the :class:`SnapshotBroker`
    subclass exists only as the conventional pre-composed package.
    """

    ROLE_NAME = "broker"

    def __init__(
        self,
        objects_by_cd: Dict[Name, Sequence[int]],
        decay: float = DEFAULT_DECAY,
        cyclic_pacing_ms: float = 1.0,
        snapshot_freshness_ms: float = 200.0,
    ) -> None:
        super().__init__()
        if not 0 < decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self.cyclic_pacing_ms = cyclic_pacing_ms
        self.snapshot_freshness_ms = snapshot_freshness_ms
        self.objects: Dict[Name, Dict[int, ObjectState]] = {
            Name.coerce(cd): {int(oid): ObjectState(int(oid)) for oid in oids}
            for cd, oids in objects_by_cd.items()
        }
        self.updates_folded = 0
        self.unknown_updates = 0
        self.snapshot_objects_served = 0
        self.cyclic_objects_sent = 0
        self._active_groups: Dict[Name, int] = {}  # group cd -> cycle cursor
        self._cycle_running = False
        self._rotation_index = -1

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node) -> None:
        """Hook the host's update stream to fold updates into snapshots."""
        super().attach(node)
        node.on_update.append(self._on_host_update)

    def start(self) -> None:
        """Subscribe to the served areas and register the QR namespace.

        Call after the host is linked to its access router and routes are
        installed.
        """
        host = self.node
        host.subscribe(self.objects.keys())
        for cd in self.objects:
            host.serve(snapshot_name(cd, 0).parent, self._serve_snapshot)

    def attach_group_hooks(self, access_router: GCopssRouter) -> None:
        """Let the access router (RP for the group CDs) drive cyclic mode."""
        access_router.rp_role.on_subscriber_appeared.append(self._group_started)
        access_router.rp_role.on_subscriber_vanished.append(self._group_stopped)

    def preseed(
        self,
        versions_for: Callable[[Name, int], int],
        size_range: Tuple[int, int],
        rng,
    ) -> None:
        """Fast-forward object states as if hours of play already happened.

        ``versions_for(cd, object_id)`` gives the number of updates to
        apply per object; sizes are drawn from ``size_range``.  With the
        paper's per-update payloads this lands object snapshot sizes in
        the reported 579-1,740 byte band (geometric sum with lambda=0.95).
        """
        lo, hi = size_range
        for cd, area in self.objects.items():
            for state in area.values():
                for _ in range(versions_for(cd, state.object_id)):
                    state.apply_update(rng.randint(lo, hi), self.decay)

    # ------------------------------------------------------------------
    # Update folding
    # ------------------------------------------------------------------
    def _on_host_update(self, host, packet: MulticastPacket) -> None:
        area = self.objects.get(packet.cd)
        if area is None:
            return
        state = area.get(packet.object_id)
        if state is None:
            self.unknown_updates += 1
            return
        state.apply_update(packet.payload_size, self.decay)
        self.updates_folded += 1

    # ------------------------------------------------------------------
    # QR mode
    # ------------------------------------------------------------------
    def _serve_snapshot(self, interest: Interest) -> Optional[Data]:
        # Name layout: /snapshot/<cd components...>/<object id>
        suffix = interest.name.relative_to(Name([SNAPSHOT_NAMESPACE]))
        cd = suffix.parent
        try:
            object_id = int(suffix.leaf)
        except ValueError:
            return None
        area = self.objects.get(cd)
        if area is None or object_id not in area:
            return None
        state = area[object_id]
        if state.version == 0:
            # Version 0 shipped with the map download: nothing to send.
            payload = 0
        else:
            payload = max(1, round(state.size))
        self.snapshot_objects_served += 1
        return Data(
            name=interest.name,
            payload_size=payload,
            freshness=self.snapshot_freshness_ms,
            content=(state.version, payload),
            created_at=self.node.sim.now,
        )

    # ------------------------------------------------------------------
    # Cyclic multicast mode
    # ------------------------------------------------------------------
    def _area_of_group(self, group: Name) -> Optional[Name]:
        if group.depth < 2 or group[0] != SNAPSHOT_GROUP_NAMESPACE:
            return None
        area = group.relative_to(Name([SNAPSHOT_GROUP_NAMESPACE]))
        return area if area in self.objects else None

    def _group_started(self, group: Name) -> None:
        area = self._area_of_group(group)
        if area is None or group in self._active_groups:
            return
        self._active_groups[group] = 0
        if not self._cycle_running:
            self._cycle_running = True
            self.node.sim.schedule(0.0, self._cycle_step)

    def _group_stopped(self, group: Name) -> None:
        self._active_groups.pop(group, None)

    def _cycle_step(self) -> None:
        """Send one object of one active group, then rotate.

        A single broker-wide pacing budget (rather than one timer per
        group) bounds the broker's send rate below its access RP's
        decapsulation capacity — otherwise the RP queue grows without
        bound while any group is active and every subscriber's control
        traffic starves behind it.
        """
        host = self.node
        if not self._active_groups:
            self._cycle_running = False
            return
        group = self._rotation_next()
        if group is None:
            self._cycle_running = False
            return
        area = self._area_of_group(group)
        if area is None:
            self._active_groups.pop(group, None)
            host.sim.schedule(0.0, self._cycle_step)
            return
        states = sorted(self.objects[area].values(), key=lambda s: s.object_id)
        if not states:
            self._active_groups.pop(group, None)
            host.sim.schedule(0.0, self._cycle_step)
            return
        cursor = self._active_groups[group] % len(states)
        state = states[cursor]
        self._active_groups[group] = cursor + 1
        payload = 0 if state.version == 0 else max(1, round(state.size))
        packet = MulticastPacket(
            cd=group,
            payload_size=payload,
            publisher=host.name,
            object_id=state.object_id,
            created_at=host.sim.now,
        )
        host.send(host.access_face, packet)
        self.cyclic_objects_sent += 1
        host.sim.schedule(self.cyclic_pacing_ms, self._cycle_step)

    def _rotation_next(self) -> Optional[Name]:
        active = sorted(self._active_groups)
        if not active:
            return None
        self._rotation_index = (self._rotation_index + 1) % len(active)
        return active[self._rotation_index]


class SnapshotBroker(GCopssHost):
    """A broker host maintaining snapshots for a set of area leaf CDs.

    ``objects_by_cd`` maps each served leaf CD to the object ids living in
    that area (known from the game map every client downloads apriori).
    The broker subscribes to those leaf CDs, folds every received update
    into its object states, serves the QR namespace, and runs cyclic
    multicast groups on demand.

    The behavior and its state live in the attached :class:`BrokerRole`,
    :attr:`broker_role`; this subclass only packages host + role.
    """

    def __init__(
        self,
        network,
        name: str,
        objects_by_cd: Dict[Name, Sequence[int]],
        decay: float = DEFAULT_DECAY,
        cyclic_pacing_ms: float = 1.0,
        snapshot_freshness_ms: float = 200.0,
    ) -> None:
        super().__init__(network, name)
        self.broker_role: BrokerRole = self.attach_role(
            BrokerRole(
                objects_by_cd,
                decay=decay,
                cyclic_pacing_ms=cyclic_pacing_ms,
                snapshot_freshness_ms=snapshot_freshness_ms,
            )
        )


#: Retries of one snapshot name before :class:`QrSnapshotFetcher` gives
#: it up, and the growth of the delay between them.
FETCH_MAX_RETRIES = 3
FETCH_BACKOFF_FACTOR = 2.0


class QrSnapshotFetcher:
    """Pipelined query/response snapshot retrieval (Table III QR columns).

    Fetches every (area, object) pair through the host's NDN side with at
    most ``window`` Interests outstanding, then fires ``on_complete(self)``.
    Convergence time is measured from construction to last Data.
    """

    def __init__(
        self,
        host: GCopssHost,
        needed: Dict[Name, Sequence[int]],
        window: int = 5,
        on_complete: Optional[Callable[["QrSnapshotFetcher"], None]] = None,
        interest_lifetime: float = 4000.0,
        retry_backoff_ms: float = 0.0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be >= 0")
        self.host = host
        self.window = window
        self.on_complete = on_complete
        self.interest_lifetime = interest_lifetime
        # Base delay before the n-th retry of a name:
        # ``retry_backoff_ms * FETCH_BACKOFF_FACTOR**(n-1)``.  The default of 0
        # keeps the legacy immediate-retry behaviour; chaos runs set a
        # base so a lossy or congested path is not hammered in lockstep
        # with the Interest lifetime.
        self.retry_backoff_ms = retry_backoff_ms
        self.started_at = host.sim.now
        self.finished_at: Optional[float] = None
        self.objects_fetched = 0
        self.retries = 0
        self.failed: List[Name] = []
        self._queue: List[Name] = [
            snapshot_name(Name.coerce(cd), int(oid))
            for cd, oids in sorted(needed.items())
            for oid in oids
        ]
        self._outstanding: Set[Name] = set()
        self._retry_counts: Dict[Name, int] = {}
        self.total_objects = len(self._queue)
        if not self._queue:
            self._finish()
        else:
            for _ in range(min(window, len(self._queue))):
                self._issue_next()

    @property
    def convergence_time(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("fetch has not completed")
        return self.finished_at - self.started_at

    def _issue_next(self) -> None:
        if not self._queue:
            return
        name = self._queue.pop(0)
        self._outstanding.add(name)
        self.host.express_interest(
            name,
            on_data=lambda data, n=name: self._on_data(n, data),
            lifetime=self.interest_lifetime,
            on_timeout=lambda n: self._on_timeout(n),
        )

    def _on_data(self, name: Name, data: Data) -> None:
        if name not in self._outstanding:
            return
        self._outstanding.discard(name)
        # Prune the retry counter once a name succeeds, or a long session
        # that retries many distinct names grows this dict without bound.
        self._retry_counts.pop(name, None)
        self.objects_fetched += 1
        if self._queue:
            self._issue_next()
        elif not self._outstanding:
            self._finish()

    def _on_timeout(self, name: Name) -> None:
        if name not in self._outstanding:
            return
        count = self._retry_counts.get(name, 0)
        if count < FETCH_MAX_RETRIES:
            self._retry_counts[name] = count + 1
            self.retries += 1
            if self.retry_backoff_ms > 0:
                self.host.sim.schedule(
                    self.retry_backoff_ms * FETCH_BACKOFF_FACTOR**count,
                    self._reissue,
                    name,
                )
            else:
                self._reissue(name)
            return
        self._outstanding.discard(name)
        self._retry_counts.pop(name, None)
        self.failed.append(name)
        if self._queue:
            self._issue_next()
        elif not self._outstanding:
            self._finish()

    def _reissue(self, name: Name) -> None:
        if name not in self._outstanding:
            return  # satisfied (late Data) while the backoff timer ran
        self.host.express_interest(
            name,
            on_data=lambda data, n=name: self._on_data(n, data),
            lifetime=self.interest_lifetime,
            on_timeout=lambda n: self._on_timeout(n),
        )

    def _finish(self) -> None:
        self.finished_at = self.host.sim.now
        if self.on_complete is not None:
            self.on_complete(self)


class CyclicSnapshotReceiver:
    """Cyclic-multicast snapshot retrieval (Table III last column).

    Subscribes to the snapshot group of each needed area, collects one
    copy of every object, then unsubscribes and fires ``on_complete``.
    """

    def __init__(
        self,
        host: GCopssHost,
        needed: Dict[Name, Sequence[int]],
        on_complete: Optional[Callable[["CyclicSnapshotReceiver"], None]] = None,
    ) -> None:
        self.host = host
        self.on_complete = on_complete
        self.started_at = host.sim.now
        self.finished_at: Optional[float] = None
        self._missing: Dict[Name, Set[int]] = {
            group_cd(Name.coerce(cd)): {int(o) for o in oids}
            for cd, oids in needed.items()
            if oids
        }
        self.total_objects = sum(len(v) for v in self._missing.values())
        self.objects_received = 0
        self._callback = self._on_update
        if not self._missing:
            self._finish()
            return
        host.on_update.append(self._callback)
        host.subscribe(self._missing.keys())

    @property
    def convergence_time(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("retrieval has not completed")
        return self.finished_at - self.started_at

    def _on_update(self, host: GCopssHost, packet: MulticastPacket) -> None:
        pending = self._missing.get(packet.cd)
        if pending is None or packet.object_id not in pending:
            return
        pending.discard(packet.object_id)
        self.objects_received += 1
        if not pending:
            del self._missing[packet.cd]
            host.unsubscribe([packet.cd])
            if not self._missing:
                self._finish()

    def _finish(self) -> None:
        self.finished_at = self.host.sim.now
        if self._callback in self.host.on_update:
            self.host.on_update.remove(self._callback)
        if self.on_complete is not None:
            self.on_complete(self)
