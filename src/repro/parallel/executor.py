"""In-process sharded executor: N shard-local event loops, one truth.

The executor partitions an already-built :class:`~repro.sim.network.Network`
into shards (a :class:`~repro.parallel.partition.ShardPlan`), gives each
shard its own :class:`~repro.sim.engine.Simulator`, and advances all of
them through conservative lookahead windows: with ``W`` the minimum
cross-shard link delay, any event executing in ``[T, T+W)`` can influence
another shard no earlier than ``T+W``, so each window runs with zero
coordination and cross-shard packets are exchanged at the barriers.

Every window is ``[next, next + W)``, ``next`` being the earliest pending
event on any shard (:func:`window_horizon`, the one window rule, shared
with the multiprocess coordinator).  Where the barriers fall cannot change
the digest: they only decide *when* transit messages are injected, and
injected arrivals are ordered purely by ``(arrival time, sender rank,
sender send order)`` — the serial heap's own key for them.  The full
argument for why serial and sharded runs are bit-identical is
ARCHITECTURE.md §6 "Determinism argument"; its same-tick cases are pinned
by ``tests/test_sim_engine.py``.

The executor runs all shards in one thread (round-robin per window) —
it proves the *algorithm*; :mod:`repro.parallel.procpool` runs the same
windows across worker processes for actual speedup.  Both modes produce
identical transit traffic, so the differential tests on this class cover
the synchronization protocol for both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.parallel.partition import ShardPlan
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.network import Network

__all__ = ["ShardedExecutor", "window_horizon"]

#: (arrival_time, sender_rank, send_order, receiver_rank, callback, args)
_TransitMsg = Tuple[float, int, int, int, Callable[..., Any], tuple]


def window_horizon(
    next_time: float, lookahead: float, until: Optional[float]
) -> Tuple[Optional[float], bool]:
    """``(horizon, inclusive)`` of the window that starts at ``next_time``.

    ``next_time + lookahead``, exclusive — nothing executed before it can
    reach another shard sooner.  When that overshoots ``until`` (always,
    for a boundary-less plan's infinite lookahead) no shard can influence
    another inside the run, so one inclusive pass to ``until`` (a full
    drain when it is None) finishes it with the serial engine's semantics.
    """
    bound = next_time + lookahead
    if bound == float("inf") or (until is not None and bound > until):
        return until, True
    return bound, False


class _BoundaryClock:
    """The ``link.sim`` stand-in for cross-shard links.

    ``Face.send`` on a boundary link lands here: instead of entering a
    heap, the arrival goes into the executor's transit outbox, to be
    injected into the receiver's shard at the next window barrier.
    ``now`` proxies the clock of whichever shard is currently executing,
    so fault hooks and tracers on boundary links read the right time.
    """

    __slots__ = ("_executor",)

    def __init__(self, executor: "ShardedExecutor") -> None:
        self._executor = executor

    @property
    def now(self) -> float:
        return self._executor._active_sim.now

    def schedule_link(
        self,
        delay: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        executor = self._executor
        executor._outbox.append(
            (
                executor._active_sim.now + delay,
                sort_origin,
                executor._next_transit_seq(),
                exec_origin,
                callback,
                args,
            )
        )

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        raise RuntimeError(
            "cross-shard links carry packets only; node timers belong on "
            "the node's own shard clock (node.sim)"
        )

    schedule_at = schedule


class _NetworkClock:
    """Replaces ``network.sim`` while a ShardedExecutor owns the network.

    Reads aggregate honestly; any attempt to *schedule* on the network
    clock is a wiring bug (the event would belong to no shard) and fails
    loudly with a pointer to the executor API.
    """

    __slots__ = ("_executor",)

    def __init__(self, executor: "ShardedExecutor") -> None:
        self._executor = executor

    @property
    def now(self) -> float:
        return self._executor.now

    @property
    def events_processed(self) -> int:
        return self._executor.events_processed

    def pending(self) -> int:
        return sum(sim.pending() for sim in self._executor.shard_sims)

    def telemetry(self) -> dict:
        return {
            "now_ms": self.now,
            "events_processed": self.events_processed,
            "events_pending": self.pending(),
        }

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise RuntimeError(
            "network.sim is sharded; schedule through the owning node's "
            "sim, or ShardedExecutor.schedule_external for workload events"
        )

    schedule = _refuse
    schedule_at = _refuse
    schedule_link = _refuse
    run = _refuse


class ShardedExecutor:
    """Deterministic windowed execution of one network over N shard clocks.

    Construct it on a fully *built* but not yet *started* network (no
    pending events, no packets in flight): construction rebinds every
    node, queue and link onto shard-local clocks, so anything scheduled
    afterwards — subscriptions, recovery timers, fault plans, telemetry —
    lands on the right shard automatically.  The topology must then stay
    fixed (no nodes added mid-run).

    Implements the executor seam shared with
    :class:`~repro.sim.engine.SerialExecutor`: ``run`` /
    ``schedule_external`` / ``now`` / ``telemetry`` / ``attach_metrics``.
    """

    def __init__(self, network: "Network", plan: ShardPlan) -> None:
        plan.validate(network)
        if network.sim.pending():
            raise RuntimeError(
                "shard the network before scheduling anything: "
                f"{network.sim.pending()} events already pending"
            )
        self.network = network
        self.plan = plan
        self.lookahead_ms = plan.lookahead_ms(network)
        self.shard_sims: List[Simulator] = [
            Simulator() for _ in range(plan.num_shards)
        ]
        self.windows_run = 0
        self.transit_messages = 0
        self._outbox: List[_TransitMsg] = []
        self._transit_seq = 0
        self._sim_by_rank: Dict[int, Simulator] = {}
        self._boundary = _BoundaryClock(self)
        # Outside run(), all shard clocks agree (setup happens at window
        # barriers); default the "executing" clock to shard 0 so boundary
        # egress during setup still reads a consistent now.
        self._active_sim: Simulator = self.shard_sims[0]
        self._metrics: List[List[Any]] = []  # [registry, interval, until, next]
        self._rebind()
        plan.annotate_roles(network)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _rebind(self) -> None:
        assignment = self.plan.assignment
        for node in self.network.nodes.values():
            sim = self.shard_sims[assignment[node.name]]
            node.sim = sim
            self._sim_by_rank[node.rank] = sim
            queue = getattr(node, "queue", None)
            if queue is not None:
                # ServiceQueue captured the serial clock at construction.
                queue.sim = sim
        for link in self.network.links:
            (a, _), (b, _) = link._ends
            if assignment[a.name] == assignment[b.name]:
                link.sim = self.shard_sims[assignment[a.name]]
            else:
                link.sim = self._boundary
        self.network.sim = _NetworkClock(self)

    def _next_transit_seq(self) -> int:
        seq = self._transit_seq
        self._transit_seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    # Executor seam
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The global clock: the furthest any shard has advanced.

        Outside :meth:`run` the shards agree except after a full drain
        (each stops at its own last event); the max matches the serial
        engine's final ``now`` in that case.
        """
        return max(sim.now for sim in self.shard_sims)

    @property
    def events_processed(self) -> int:
        return sum(sim.events_processed for sim in self.shard_sims)

    def telemetry(self) -> dict:
        """Executor-level gauges: engine totals plus window accounting."""
        return {
            "now_ms": self.now,
            "events_processed": self.events_processed,
            "events_pending": sum(sim.pending() for sim in self.shard_sims),
            "shards": self.plan.num_shards,
            "lookahead_ms": self.lookahead_ms,
            "windows_run": self.windows_run,
            "transit_messages": self.transit_messages,
        }

    def schedule_external(
        self, node: str, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Inject a workload event at ``node``'s shard, EXTERNAL-origin.

        The callback must touch only ``node`` (and its outgoing links) —
        the same contract the serial harness code already obeys.  Events
        injected at the same (time, shard) execute in call order, which
        is the serial engine's tie order for external events.
        """
        sim = self.shard_sims[self.plan.assignment[node]]
        sim.schedule_at(time, callback, *args)

    # ------------------------------------------------------------------
    # Window loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance every shard to ``until`` (or drain all heaps if None)."""
        while True:
            next_time = self._peek()
            if next_time is None or (until is not None and next_time > until):
                if until is not None:
                    self._advance_idle(until)
                return
            horizon, inclusive = window_horizon(next_time, self.lookahead_ms, until)
            for sim in self.shard_sims:
                self._active_sim = sim
                sim.run(until=horizon, inclusive=inclusive)
            self._active_sim = self.shard_sims[0]
            self._barrier(self.now if horizon is None else horizon)
            self.windows_run += 1

    def _peek(self) -> Optional[float]:
        times = [t for t in (sim.peek_time() for sim in self.shard_sims) if t is not None]
        return min(times) if times else None

    def _advance_idle(self, until: float) -> None:
        for sim in self.shard_sims:
            if sim.now < until:
                sim.now = until
        self._fire_metrics(until)

    def _barrier(self, horizon: float) -> None:
        """Exchange transit packets, then fire barrier-aligned metrics."""
        if self._outbox:
            outbox, self._outbox = self._outbox, []
            self.transit_messages += len(outbox)
            # (time, sender rank, send order): exactly the serial heap's
            # order for these arrivals — injection order fixes the
            # receiver-side seq so same-key ties replay the sender's
            # send order.
            outbox.sort(key=lambda m: (m[0], m[1], m[2]))
            sim_by_rank = self._sim_by_rank
            for time, sort_origin, _seq, exec_origin, callback, args in outbox:
                sim_by_rank[exec_origin].schedule_arrival_at(
                    time, sort_origin, exec_origin, callback, *args
                )
        self._fire_metrics(horizon)

    # ------------------------------------------------------------------
    # Telemetry (barrier-sampled metrics)
    # ------------------------------------------------------------------
    def attach_metrics(
        self, registry: "MetricsRegistry", interval_ms: float, until: float
    ) -> int:
        """Sample ``registry`` at interval ticks, evaluated at barriers.

        The serial engine interleaves metric-tick events with protocol
        events; under sharding that would perturb window scheduling, so
        ticks are instead evaluated at the first barrier past each tick
        time — globally consistent cuts that schedule nothing, making
        telemetry-on runs trivially bit-identical to telemetry-off.
        Sample timestamps keep the nominal tick time.
        """
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0, got {interval_ms}")
        first = self.now + interval_ms
        self._metrics.append([registry, interval_ms, until, first])
        return max(0, int((until - self.now) / interval_ms))

    def _fire_metrics(self, reached: float) -> None:
        for entry in self._metrics:
            registry, interval, until, next_tick = entry
            while next_tick <= reached and next_tick <= until:
                registry.sample(next_tick)
                next_tick += interval
            entry[3] = next_tick
