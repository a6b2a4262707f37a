"""Single-server FIFO service stations.

Routers, rendezvous points and game servers in the paper are modelled as
single-server queues: each packet occupies the server for a deterministic
service time, and waiting packets queue FIFO.  Queue buildup at an
under-provisioned RP is exactly the "traffic concentration" effect Table I
and Fig. 5 study, and the queue-length threshold of
:class:`~repro.core.balancer.RpLoadBalancer` watches this station.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator

__all__ = ["ServiceQueue"]


class ServiceQueue:
    """Deterministic single-server FIFO queue bound to a simulator.

    ``submit(item, service_time, on_done)`` enqueues ``item``; when the
    server completes it, ``on_done(item)`` fires.  Instantaneous state
    (:attr:`queue_length`, :attr:`backlog`) feeds hot-spot detection, and the
    cumulative counters feed the evaluation's latency accounting.
    """

    def __init__(self, sim: Simulator, name: str = "queue") -> None:
        self.sim = sim
        self.name = name
        self._waiting: deque[tuple[Any, float, Callable[[Any], None], float]] = deque()
        self._busy = False
        # Observers called as fn(queue) after each enqueue, used by the RP
        # balancer to react to threshold crossings.
        self.on_enqueue: list[Callable[["ServiceQueue"], None]] = []
        # Cumulative statistics.
        self.served: int = 0
        self.total_service_time: float = 0.0
        self.total_wait_time: float = 0.0
        self.peak_queue_length: int = 0
        self._current_started_at: Optional[float] = None
        self._current_handle = None  # in-service completion event

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Number of items waiting (excluding the one in service)."""
        return len(self._waiting)

    @property
    def backlog(self) -> int:
        """Waiting plus in-service items."""
        return len(self._waiting) + (1 if self._busy else 0)

    @property
    def mean_wait(self) -> float:
        return self.total_wait_time / self.served if self.served else 0.0

    def snapshot(self) -> dict:
        """Instantaneous + cumulative gauges for the metrics registry.

        The time-series view of exactly the state the RP balancer polls:
        sampled on sim ticks, ``backlog`` draws the Fig. 5 "traffic
        concentration" buildup as it happens instead of post-hoc.
        """
        return {
            "backlog": self.backlog,
            "queue_length": len(self._waiting),
            "served": self.served,
            "peak_queue_length": self.peak_queue_length,
            "mean_wait_ms": self.mean_wait,
            "busy_ms": self.total_service_time,
        }

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def submit(self, item: Any, service_time: float, on_done: Callable[[Any], None]) -> None:
        """Enqueue ``item``; fire ``on_done(item)`` once served."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if not self._busy:
            # Idle server: start service directly, skipping the queue
            # round-trip.  The head item still counts toward the peak (it
            # is momentarily "waiting" in the general path).
            self._busy = True
            self._current_started_at = self.sim.now
            if self.peak_queue_length < 1:
                self.peak_queue_length = 1
            self._current_handle = self.sim.schedule(
                service_time, self._complete, item, service_time, on_done
            )
        else:
            self._waiting.append((item, service_time, on_done, self.sim.now))
            if len(self._waiting) > self.peak_queue_length:
                self.peak_queue_length = len(self._waiting)
        for observer in self.on_enqueue:
            observer(self)

    def _start_next(self) -> None:
        if not self._waiting:
            self._busy = False
            self._current_started_at = None
            return
        self._busy = True
        item, service_time, on_done, arrived = self._waiting.popleft()
        started = self.sim.now
        self._current_started_at = started
        self.total_wait_time += started - arrived
        self._current_handle = self.sim.schedule(
            service_time, self._complete, item, service_time, on_done
        )

    def _complete(self, item: Any, service_time: float, on_done: Callable[[Any], None]) -> None:
        self._current_handle = None
        self.served += 1
        self.total_service_time += service_time
        self._start_next()
        on_done(item)

    def flush(self) -> int:
        """Drop everything, including the item in service (crash semantics).

        A node crash loses the packets sitting in its processing queue:
        waiting items are discarded *and* the in-service completion event
        is cancelled, so no ``on_done`` fires for work the dead process
        never finished.  Returns the number of items lost.
        """
        lost = len(self._waiting) + (1 if self._busy else 0)
        self._waiting.clear()
        if self._current_handle is not None:
            self._current_handle.cancel()
            self._current_handle = None
        self._busy = False
        self._current_started_at = None
        return lost

    def __repr__(self) -> str:
        return (
            f"ServiceQueue({self.name!r}, backlog={self.backlog},"
            f" served={self.served})"
        )
