"""A monotonic-clock timer wheel standing in for the simulator.

Every node built for the simulator reads time and schedules work through
the :class:`~repro.sim.engine.Simulator` surface (``now``, ``schedule``,
``schedule_link``, handle ``.cancel()``).  :class:`LiveClock` implements
that surface over a real asyncio event loop so the identical router/host
code runs unmodified in a live process.

Clock mapping
-------------
Simulated time is milliseconds.  ``time_scale`` is *wall seconds per
simulated millisecond*:

* ``time_scale=0`` (default) — **as-soon-as-possible** mode.  Timers never
  wait on the wall clock; the wheel pops them in deadline order and ``now``
  is a virtual high-water mark, exactly like the discrete-event engine but
  with arrival interleaving decided by the real network instead of a
  global heap.  This is the differential-check mode: service times and
  link delays still order local work, they just don't burn wall time.
* ``time_scale=0.001`` — real time (1 sim ms = 1 wall ms); larger values
  slow the world down for interactive poking.

The wheel is a plain heap drained by one asyncio task.  Callbacks run on
the event loop thread, so node logic stays single-threaded per process —
the same no-locks discipline the simulator gives it.
"""

from __future__ import annotations

import asyncio
import heapq
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["LiveTimer", "LiveClock"]


class LiveTimer:
    """Cancelable handle returned by every ``schedule*`` call."""

    __slots__ = ("when", "callback", "args", "cancelled")

    def __init__(self, when: float, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class LiveClock:
    """Timer wheel with the :class:`~repro.sim.engine.Simulator` surface."""

    #: Yield to the event loop after this many back-to-back callbacks so
    #: socket IO interleaves with a busy wheel even in ASAP mode.
    YIELD_EVERY = 32

    def __init__(self, time_scale: float = 0.0) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.time_scale = float(time_scale)
        self._heap: List[Tuple[float, int, LiveTimer]] = []
        self._seq = count()
        self._virtual = 0.0
        self.events_processed = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._wake: Optional[asyncio.Event] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Simulator surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self.time_scale > 0 and self._loop is not None:
            return (self._loop.time() - self._t0) / self.time_scale
        return self._virtual

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> LiveTimer:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> LiveTimer:
        timer = LiveTimer(when, callback, args)
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        if self._wake is not None:
            self._wake.set()
        return timer

    def schedule_link(
        self,
        delay: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> LiveTimer:
        """Schedule a link arrival; both origin ranks are ignored live."""
        return self.schedule(delay, callback, *args)

    def pending(self) -> int:
        """Live (non-cancelled) timers still on the wheel.

        Scans the heap: live wheels stay small (tens of entries), and
        quiescence polling is off the packet path, so the O(n) walk is
        cheaper than carrying cancel bookkeeping on the hot path.
        """
        return sum(1 for _, _, timer in self._heap if not timer.cancelled)

    def stop(self) -> None:
        self._stopped = True
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # Drain task
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Drain timers until :meth:`stop`; owns the process's node logic."""
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._wake = asyncio.Event()
        burst = 0
        while not self._stopped:
            if not self._heap:
                await self._wake.wait()
                self._wake.clear()
                continue
            when, _, timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            if self.time_scale > 0:
                wait_s = (self._t0 + when * self.time_scale) - self._loop.time()
                if wait_s > 0:
                    # Sleep toward the deadline, but wake early if an
                    # earlier timer lands (network arrivals do this).
                    try:
                        await asyncio.wait_for(self._wake.wait(), timeout=wait_s)
                        self._wake.clear()
                    except asyncio.TimeoutError:
                        pass
                    continue
            heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._virtual = max(self._virtual, when)
            self.events_processed += 1
            timer.callback(*timer.args)
            burst += 1
            if burst >= self.YIELD_EVERY:
                burst = 0
                await asyncio.sleep(0)
        # Leave remaining timers un-run: shutdown is explicit and the
        # driver only stops a quiesced node.
