"""VoCCN-style NDN gaming baseline (paper §V-A "NDN solution").

"NDN solution uses the method described in VoCCN and assumes that players
are managed using the system proposed in ACT, so that players know each
other and their current position.  Every player queries all the possible
players for the updates in the AoI."  Two optimizations are applied, as
in the paper:

* **pipelining** — each consumer keeps up to N Interests outstanding per
  watched publisher (N = 3 in the microbenchmark);
* **update accumulation** — a producer batches all updates of the last
  *t* ms into one version: larger *t* saves bandwidth, smaller *t* cuts
  latency (the trade-off §V-A discusses).

Update versions are named ``/p/<player>/<seq>``.  A consumer's Interest
for a future seq waits at the producer until that version exists (the
VoCCN "long-lived interest" pattern); consumers refresh on timeout.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.names import Name
from repro.ndn.engine import NdnHost
from repro.ndn.packets import Data, Interest

__all__ = ["NdnGamePlayer", "PLAYER_NAMESPACE"]

#: Root namespace of per-player update streams.
PLAYER_NAMESPACE = "p"

#: Per-update framing inside an accumulated version.
UPDATE_FRAME_BYTES = 8

#: Versions a producer keeps to answer Interests; older ones are pruned.
VERSION_HISTORY = 64


class NdnGamePlayer(NdnHost):
    """One participant of the query/response game.

    Producer side: :meth:`local_update` records an update; every
    ``accumulation_ms`` the pending batch becomes a new version answering
    waiting Interests.  Consumer side: :meth:`watch` starts pipelining
    Interests at a peer's stream.  ``on_batch`` callbacks receive
    ``(self, publisher, [update creation times], batch_size)`` so the
    harness can account per-update latency.
    """

    def __init__(
        self,
        network,
        name: str,
        accumulation_ms: float = 100.0,
        pipeline_window: int = 3,
        interest_lifetime_ms: float = 2000.0,
    ) -> None:
        super().__init__(network, name)
        if accumulation_ms <= 0:
            raise ValueError("accumulation interval must be positive")
        if pipeline_window < 1:
            raise ValueError("pipeline window must be >= 1")
        self.accumulation_ms = accumulation_ms
        self.pipeline_window = pipeline_window
        self.interest_lifetime_ms = interest_lifetime_ms
        # Producer state.
        self._pending_updates: List[Tuple[float, int]] = []  # (created_at, size)
        self._versions: Dict[int, Tuple[List[float], int]] = {}
        self._next_seq = 1
        self._waiting_interests: Dict[int, int] = {}  # seq -> count waiting
        self._accumulating = False
        self.versions_published = 0
        # Consumer state.
        self._watch_next_seq: Dict[str, int] = {}
        self._watch_outstanding: Dict[str, Set[int]] = {}
        self.batches_received = 0
        self.on_batch: List[
            Callable[["NdnGamePlayer", str, List[float], int], None]
        ] = []
        self.serve(self.stream_prefix(name), self._answer)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    @staticmethod
    def stream_prefix(player: str) -> Name:
        return Name([PLAYER_NAMESPACE, player])

    @classmethod
    def version_name(cls, player: str, seq: int) -> Name:
        return cls.stream_prefix(player).child(str(seq))

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def local_update(self, size: int) -> None:
        """Record a local game action to be batched into the next version."""
        self._pending_updates.append((self.sim.now, size))
        if not self._accumulating:
            self._accumulating = True
            self.sim.schedule(self.accumulation_ms, self._cut_version)

    def _cut_version(self) -> None:
        self._accumulating = False
        if not self._pending_updates:
            return
        batch = self._pending_updates
        self._pending_updates = []
        seq = self._next_seq
        self._next_seq += 1
        times = [t for t, _ in batch]
        payload = sum(size + UPDATE_FRAME_BYTES for _, size in batch)
        self._versions[seq] = (times, payload)
        self.versions_published += 1
        if len(self._versions) > VERSION_HISTORY:
            for old in sorted(self._versions)[: len(self._versions) - VERSION_HISTORY]:
                del self._versions[old]
        waiting = self._waiting_interests.pop(seq, 0)
        if waiting:
            self.send(self.access_face, self._make_data(seq))
        if self._pending_updates:
            self._accumulating = True
            self.sim.schedule(self.accumulation_ms, self._cut_version)

    def _make_data(self, seq: int) -> Data:
        times, payload = self._versions[seq]
        return Data(
            name=self.version_name(self.name, seq),
            payload_size=payload,
            freshness=self.accumulation_ms,
            content=(self.name, list(times), len(times)),
            created_at=self.sim.now,
        )

    def _answer(self, interest: Interest) -> Optional[Data]:
        suffix = interest.name.relative_to(self.stream_prefix(self.name))
        try:
            seq = int(suffix.leaf)
        except (ValueError, IndexError):
            return None
        if seq in self._versions:
            return self._make_data(seq)
        # VoCCN pattern: the Interest waits here; the PIT breadcrumbs along
        # the path will carry the Data back once the version is cut.
        self._waiting_interests[seq] = self._waiting_interests.get(seq, 0) + 1
        return None

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def watch(self, publisher: str) -> None:
        """Start pipelining Interests at ``publisher``'s update stream."""
        if publisher == self.name or publisher in self._watch_next_seq:
            return
        self._watch_next_seq[publisher] = 1
        self._watch_outstanding[publisher] = set()
        self._fill_pipeline(publisher)

    def _fill_pipeline(self, publisher: str) -> None:
        outstanding = self._watch_outstanding[publisher]
        next_seq = self._watch_next_seq[publisher]
        while len(outstanding) < self.pipeline_window:
            seq = next_seq
            next_seq += 1
            outstanding.add(seq)
            self._express(publisher, seq)
        self._watch_next_seq[publisher] = next_seq

    def _express(self, publisher: str, seq: int) -> None:
        self.express_interest(
            self.version_name(publisher, seq),
            on_data=lambda data, p=publisher, s=seq: self._on_version(p, s, data),
            lifetime=self.interest_lifetime_ms,
            on_timeout=lambda _n, p=publisher, s=seq: self._on_expired(p, s),
        )

    def _on_version(self, publisher: str, seq: int, data: Data) -> None:
        outstanding = self._watch_outstanding[publisher]
        if seq not in outstanding:
            return
        outstanding.discard(seq)
        self.batches_received += 1
        _, times, count = data.content
        for callback in self.on_batch:
            callback(self, publisher, list(times), count)
        self._fill_pipeline(publisher)

    def _on_expired(self, publisher: str, seq: int) -> None:
        if seq not in self._watch_outstanding[publisher]:
            return
        # Refresh: the version is still ahead of the producer; re-express.
        self._express(publisher, seq)
