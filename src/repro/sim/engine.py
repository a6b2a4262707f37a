"""Event loop for the discrete-event simulator.

A minimal, fast, deterministic engine: events are ``(time, origin,
sequence, callback)`` entries in a binary heap.  Simulated time is in
milliseconds.

Tie-breaking is **content-based**, not insertion-based: events at the
same timestamp order by ``origin`` — the rank of the node whose activity
scheduled them (packet arrivals carry the *sender's* rank) — and then by
per-origin scheduling order.  This is what makes the sharded executor
(:mod:`repro.parallel`) bit-identical to the serial engine: a shard
reproduces each node's local scheduling order exactly, so the
``(time, origin, seq)`` total order over any one shard's events is the
same whether the heap is global or shard-local.  Insertion-sequence
tie-breaking (the pre-shard scheme) cannot be reproduced in parallel,
because the global interleaving of independent shards is an artifact of
single-threaded execution.

Two runs with the same inputs still produce identical schedules; the
``origin`` field only changes *which* deterministic order ties resolve
to.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network

__all__ = ["Simulator", "EventHandle", "SerialExecutor", "EXTERNAL_ORIGIN"]

#: Origin rank for events scheduled from outside any node's activity —
#: experiment harness code, workload injection, fault-plan arming.
#: Sorts before every node rank, matching the historical behavior that
#: pre-run scheduling (smallest sequence numbers) executed first on ties.
EXTERNAL_ORIGIN = -1


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped.  This keeps ``cancel`` O(1) which matters for the large PIT /
    timer populations in the NDN baseline.

    Heap entries are plain ``(time, origin, seq, handle)`` tuples so
    ordering comparisons run in C — event comparison dominates large runs
    otherwise.  ``exec_origin`` is the rank of the node *at* which the
    event executes (the receiver for packet arrivals); the run loop
    installs it as :attr:`Simulator.origin` so anything the callback
    schedules inherits the right origin.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "exec_origin")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        exec_origin: int = EXTERNAL_ORIGIN,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.exec_origin = exec_origin

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, my_callback, arg1, arg2)   # 5 ms from now
        sim.run()

    ``run`` processes events until the heap is empty, an optional time
    horizon is reached, or :meth:`stop` is called from inside a callback.

    In a sharded run each shard owns one ``Simulator`` — a shard-local
    clock; :attr:`origin` then carries the executing node's rank so
    everything a callback schedules is tie-ordered the same way the
    serial engine would order it.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        #: Rank of the node whose activity is currently executing; read by
        #: :meth:`schedule` / :meth:`schedule_at` as the default origin of
        #: new events.  ``EXTERNAL_ORIGIN`` outside any callback.
        self.origin: int = EXTERNAL_ORIGIN
        # Read by bench/workloads.py; the heap delivers no batches, so 0.
        self.batch_pops: int = 0
        self.batch_members: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(
        self,
        time: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> EventHandle:
        """Validated insertion shared by the absolute-time entry points."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, exec_origin)
        heappush(self._heap, (time, sort_origin, seq, handle))
        return handle

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined rather than routed through _push: this runs once per
        # service completion and timer, so the extra frame is measurable.
        time = self.now + delay
        origin = self.origin
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, origin)
        heappush(self._heap, (time, origin, seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        origin = self.origin
        return self._push(time, origin, origin, callback, args)

    def schedule_link(
        self,
        delay: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Schedule a packet arrival: tie-ordered by the *sender's* rank.

        ``sort_origin`` is the sending node's rank (the tie-break key:
        per-sender send order is reproducible shard-locally);
        ``exec_origin`` is the receiving node's rank (installed as
        :attr:`origin` while the arrival callback runs, so service
        completions and onward sends inherit the receiver's identity).
        Called from :meth:`~repro.sim.network.Face.send` — the per-hop
        hot path — hence no validation and no helper call: link delays
        and fault jitter are validated non-negative at their sources, so
        ``time >= now`` holds by construction.
        """
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, exec_origin)
        heappush(self._heap, (time, sort_origin, seq, handle))
        return handle

    def schedule_arrival_at(
        self,
        time: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Absolute-time variant of :meth:`schedule_link`.

        Called only by :func:`repro.parallel.executor.inject`, which turns
        cross-shard transit records into arrivals with the sender's rank
        preserved, so the merged order matches what the serial heap would
        have produced.
        """
        return self._push(time, sort_origin, exec_origin, callback, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> None:
        """Run the event loop.

        ``until`` is a time horizon: inclusive by default (events at
        exactly ``until`` run; events strictly after remain queued and
        ``now`` advances to ``until``).  With ``inclusive=False`` events
        at exactly ``until`` also remain — the windowed mode the sharded
        executor uses, where the horizon itself belongs to the next
        window; the clock then stays at the last executed event rather
        than advancing to the horizon, so a fully drained shard reports
        the same final time the serial engine would.  ``max_events``
        bounds the number of callbacks executed, as a guard against
        runaway feedback loops in experimental code; a run that exhausts
        it returns at once, leaving the clock at the last executed event.

        The cyclic collector is suspended for the loop and restored to the
        caller's state on every way out (a disabled one stays disabled).
        Reference counting frees every event, handle and packet, yet each
        pending arrival is four tracked objects: a serial 8,000-player
        ``scale`` run spent 1.33 s of 4.86 s in 12 gen-2 passes over the
        static world that collected 0 objects.  Cycles a *callback* makes
        are reclaimed after ``run`` returns — per barrier when windowed.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative (got {max_events})")
        if self._running:
            raise RuntimeError("simulator is already running")
        self._running = True
        self._stopped = False
        processed = 0
        heap = self._heap
        budget = float("inf") if max_events is None else max_events
        # `horizon` folds the `until is None` test out of the loop: with no
        # horizon nothing compares greater than +inf, and `exclusive` is
        # forced off so an (absurd) event at literal +inf still runs.
        horizon = float("inf") if until is None else until
        exclusive = not inclusive and until is not None
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap and not self._stopped and processed < budget:
                time = heap[0][0]
                if time > horizon or (exclusive and time == horizon):
                    if inclusive:
                        # max(): a shard already drained past `until` must
                        # not move its clock backwards on idle-advance.
                        self.now = max(self.now, until)
                    return
                handle = heappop(heap)[3]
                if handle.cancelled:
                    continue
                self.now = time
                self.origin = handle.exec_origin
                handle.callback(*handle.args)
                processed += 1
            if until is not None and inclusive and not self._stopped and processed < budget:
                self.now = max(self.now, until)
        finally:
            self.events_processed += processed
            self._running = False
            self.origin = EXTERNAL_ORIGIN
            if collecting:
                gc.enable()

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event.  Returns False if idle."""
        while self._heap:
            time, _origin, _seq, handle = heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = time
            self.origin = handle.exec_origin
            try:
                handle.callback(*handle.args)
            finally:
                self.origin = EXTERNAL_ORIGIN
            self.events_processed += 1
            return True
        return False

    def stop(self) -> None:
        """Stop the loop after the current callback returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of events still queued (including lazily cancelled ones)."""
        return len(self._heap)

    def telemetry(self) -> dict:
        """Engine-level gauges for the metrics registry."""
        return {
            "now_ms": self.now,
            "events_processed": self.events_processed,
            "events_pending": len(self._heap),
        }

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when idle."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None


class SerialExecutor:
    """The trivial execution backend: one global event loop.

    The pluggable seam shared with :class:`repro.parallel.ShardedExecutor`:
    experiment runners talk to an executor —

    * :meth:`run` to advance the simulation,
    * :meth:`schedule_external` to inject workload events at a named node,
    * :attr:`now` / :meth:`telemetry` for clock and accounting —

    and never mind whether one heap or N shard-local heaps sit behind it.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network

    @property
    def now(self) -> float:
        return self.network.sim.now

    def run(self, until: Optional[float] = None) -> None:
        self.network.sim.run(until=until)

    def schedule_external(
        self, node: str, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule a workload event targeting ``node`` at absolute ``time``.

        The serial backend has one heap, so the node name is only an
        assertion that it exists; the sharded backend uses it to pick the
        owning shard.  External events carry ``EXTERNAL_ORIGIN`` and are
        order-stable per call sequence in both backends.
        """
        if node not in self.network.nodes:
            raise KeyError(f"unknown node {node!r}")
        self.network.sim.schedule_at(time, callback, *args)

    def telemetry(self) -> dict:
        return self.network.sim.telemetry()

    def attach_metrics(self, registry, interval_ms: float, until: float) -> int:
        """Wire periodic metrics sampling; serially that's tick events.

        The sharded backend samples at window barriers instead (ticks as
        events would perturb window scheduling); both take globally
        consistent cuts at the same nominal times.
        """
        return registry.schedule_ticks(self.network.sim, interval_ms, until)

    @property
    def events_processed(self) -> int:
        return self.network.sim.events_processed
