"""Offline-player support: buffered catch-up on reconnect.

Paper §IV-A: movement handling builds on "the general pub/sub support
provided in COPSS for offline users" — a subscriber that goes offline
must not lose the updates published while it was away.  This module
provides that substrate:

* :class:`OfflineGuardian` — a host (typically co-located with a
  snapshot broker) that subscribes *on behalf of* offline players and
  buffers every matching update per player, bounded by count;
* :class:`ReconnectFetcher` — the returning player's side: pulls the
  buffered backlog query/response style (batched), then resumes live
  subscriptions.

For long absences replaying every update is wasteful — the paper's
answer is the snapshot brokers (§IV-A); the guardian complements them
for short disconnections where replay preserves update ordering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set

from repro.core.engine import GCopssHost
from repro.core.packets import MulticastPacket
from repro.names import Name
from repro.ndn.packets import Data, Interest

__all__ = ["BufferedUpdate", "OfflineGuardian", "ReconnectFetcher", "OFFLINE_NAMESPACE"]

#: NDN namespace the guardian serves backlogs under.
OFFLINE_NAMESPACE = "offline"

#: Fixed per-update framing in a replay batch.
REPLAY_FRAME_BYTES = 12

#: Updates per replay batch (one Data packet).
BATCH_SIZE = 32

#: Updates buffered per guarded player; the oldest goes first past it.
MAX_BUFFERED = 10_000


@dataclass(frozen=True)
class BufferedUpdate:
    """One update held for an offline player."""

    cd: Name
    object_id: int
    size: int
    published_at: float
    publisher: str


class OfflineGuardian(GCopssHost):
    """Subscribes for absent players and serves their backlog.

    ``register(player, cds)`` starts buffering; ``backlog_of`` and the
    ``/offline/<player>/<batch>`` NDN namespace expose it;
    ``release(player)`` stops buffering and frees the storage.  Buffers
    are bounded (:data:`MAX_BUFFERED` per player, oldest dropped first, drop
    count kept so clients know the replay is partial and should fall
    back to a snapshot).
    """

    def __init__(self, network, name: str) -> None:
        super().__init__(network, name)
        self._watched: Dict[str, Set[Name]] = {}
        self._buffers: Dict[str, Deque[BufferedUpdate]] = {}
        self.dropped: Dict[str, int] = {}
        self.updates_buffered = 0
        self.on_update.append(type(self)._buffer_update)
        self.serve(Name([OFFLINE_NAMESPACE]), self._serve_backlog)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, player: str, cds: Iterable["Name | str"]) -> None:
        """Start guarding ``player``'s subscription set."""
        cd_set = {Name.coerce(cd) for cd in cds}
        if not cd_set:
            raise ValueError(f"player {player!r} has no subscriptions to guard")
        self._watched[player] = cd_set
        self._buffers.setdefault(player, deque())
        self.dropped.setdefault(player, 0)
        self._resubscribe()

    def release(self, player: str) -> None:
        """Stop guarding ``player`` and discard its backlog."""
        self._watched.pop(player, None)
        self._buffers.pop(player, None)
        self.dropped.pop(player, None)
        self._resubscribe()

    def _resubscribe(self) -> None:
        union: Set[Name] = set()
        for cds in self._watched.values():
            union |= cds
        self.set_subscriptions(union)

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------
    def _buffer_update(self, packet: MulticastPacket) -> None:
        for player, cds in self._watched.items():
            if not any(cd.is_prefix_of(packet.cd) for cd in cds):
                continue
            buffer = self._buffers[player]
            buffer.append(
                BufferedUpdate(
                    cd=packet.cd,
                    object_id=packet.object_id,
                    size=packet.payload_size,
                    published_at=packet.created_at,
                    publisher=packet.publisher,
                )
            )
            self.updates_buffered += 1
            if len(buffer) > MAX_BUFFERED:
                buffer.popleft()
                self.dropped[player] += 1

    def backlog_of(self, player: str) -> List[BufferedUpdate]:
        return list(self._buffers.get(player, ()))

    # ------------------------------------------------------------------
    # Replay service
    # ------------------------------------------------------------------
    def _serve_backlog(self, interest: Interest) -> Optional[Data]:
        # Name layout: /offline/<player>/<batch index>
        suffix = interest.name.relative_to(Name([OFFLINE_NAMESPACE]))
        if suffix.depth != 2:
            return None
        player = suffix[0]
        try:
            batch_index = int(suffix[1])
        except ValueError:
            return None
        buffer = self._buffers.get(player)
        if buffer is None or batch_index < 0:
            return None
        backlog = list(buffer)
        start = batch_index * BATCH_SIZE
        batch = backlog[start : start + BATCH_SIZE]
        total_batches = (len(backlog) + BATCH_SIZE - 1) // BATCH_SIZE
        payload = sum(u.size + REPLAY_FRAME_BYTES for u in batch)
        return Data(
            name=interest.name,
            payload_size=max(payload, 4),
            freshness=100.0,
            content=(batch, total_batches, self.dropped.get(player, 0)),
            created_at=self.sim.now,
        )


class ReconnectFetcher:
    """Pulls a player's offline backlog, batch by batch.

    ``on_complete(fetcher)`` fires once every batch has arrived; the
    replayed updates are in :attr:`updates`, and :attr:`partial` flags a
    replay whose buffer overflowed (snapshot recommended instead).
    """

    def __init__(
        self,
        host: GCopssHost,
        player: str,
        on_complete: Optional[Callable[["ReconnectFetcher"], None]] = None,
        interest_lifetime_ms: float = 4000.0,
    ) -> None:
        self.host = host
        self.player = player
        self.on_complete = on_complete
        self.interest_lifetime_ms = interest_lifetime_ms
        self.started_at = host.sim.now
        self.finished_at: Optional[float] = None
        self.updates: List[BufferedUpdate] = []
        self.partial = False
        self.failed = False
        self._fetch_batch(0)

    @property
    def catch_up_time(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("catch-up has not completed")
        return self.finished_at - self.started_at

    def _fetch_batch(self, index: int) -> None:
        name = Name([OFFLINE_NAMESPACE, self.player, str(index)])
        self.host.express_interest(
            name,
            on_data=lambda data, i=index: self._on_batch(i, data),
            lifetime=self.interest_lifetime_ms,
            on_timeout=lambda _n: self._fail(),
        )

    def _on_batch(self, index: int, data: Data) -> None:
        batch, total_batches, dropped = data.content
        self.updates.extend(batch)
        if dropped:
            self.partial = True
        if index + 1 < total_batches:
            self._fetch_batch(index + 1)
        else:
            self.finished_at = self.host.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    def _fail(self) -> None:
        self.failed = True
        self.finished_at = self.host.sim.now
        if self.on_complete is not None:
            self.on_complete(self)
