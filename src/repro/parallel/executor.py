"""Sharded execution: N shard-local event loops, one truth, one boundary.

The executor partitions an already-built :class:`~repro.sim.network.Network`
into shards (a :class:`~repro.parallel.partition.ShardPlan`), gives each
shard its own :class:`~repro.sim.engine.Simulator`, and advances all of
them through conservative lookahead windows: with ``W`` the minimum
cross-shard link delay, any event executing in ``[T, T+W)`` can influence
another shard no earlier than ``T+W``, so each window runs with zero
coordination and cross-shard packets are exchanged at the barriers.

The shard boundary is defined here once: :class:`Egress` turns a send
across it into a record, :func:`inject` turns a record into its
receiver's arrival, and :func:`run_windows` is the window loop — every
window ``[next, next + W)`` (:func:`window_horizon`), a barrier's records
injected at the start of the next.  :class:`ShardedExecutor` runs it in
one thread, :mod:`repro.parallel.procpool` across worker processes, and
:mod:`repro.net.runner` ships its records over sockets.  Where barriers
fall cannot change the digest: injected arrivals are ordered purely by
``(arrival time, sender rank, sender send order)`` — the serial heap's own
key for them (ARCHITECTURE.md §6 "Determinism argument"; same-tick cases
pinned by ``tests/test_sim_engine.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.parallel.partition import ShardPlan
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.wire import WireMsg
    from repro.sim.network import Network, Node

__all__ = ["Egress", "ShardedExecutor", "bind_clocks", "inject", "run_windows", "window_horizon"]

#: Global injection order of transit records: (arrival, sender rank, send order).
_ORDER = itemgetter(0, 1, 2)


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


class Egress:
    """``link.sim`` on every link whose far end runs in another shard or process.

    ``Face.send`` (hooks and byte accounting done) lands here, and its
    arrival becomes one :data:`~repro.parallel.wire.WireMsg` record for
    ``sink``: a barrier outbox, or the live runner's socket shipper.  Send
    order is counted per instance, so bind one per process: a sender's
    records then keep its send order across all of its links.
    """

    __slots__ = ("sink", "_sent")

    def __init__(self, sink: Callable[["WireMsg"], None]) -> None:
        self.sink = sink
        self._sent = 0

    def schedule_link(
        self,
        delay: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Record the arrival ``Face.send`` asked for; the sender is the far
        face's peer, and its own clock dates the arrival."""
        packet, dst_face = args
        sender = dst_face.peer
        order = self._sent
        self._sent = order + 1
        self.sink(
            (
                sender.sim.now + delay,
                sort_origin,
                order,
                callback.__self__.name,
                sender.name,
                packet,
            )
        )

    def schedule(self, *_args: Any, **_kw: Any) -> None:
        raise RuntimeError(
            "cross-shard links carry packets only; node timers belong on "
            "the node's own shard clock (node.sim)"
        )

    schedule_at = schedule


def bind_clocks(
    network: "Network", clock_of: Callable[["Node"], Any], egress: Egress
) -> None:
    """Put every node and queue on ``clock_of(node)``; links whose ends
    differ in clock get ``egress``."""
    for node in network.nodes.values():
        node.sim = clock_of(node)
        queue = getattr(node, "queue", None)
        if queue is not None:
            # ServiceQueue captured the serial clock at construction.
            queue.sim = node.sim
    for link in network.links:
        (a, _), (b, _) = link._ends
        link.sim = a.sim if a.sim is b.sim else egress


def inject(nodes: Dict[str, "Node"], msgs: List["WireMsg"]) -> None:
    """Schedule records, sorted by (arrival, sender rank, send order), as
    their receivers' arrivals: injection order fixes the receiver-side seq,
    so same-key ties replay the sender's send order."""
    for time, sort_origin, _order, dst, src, packet in msgs:
        node = nodes[dst]
        node.sim.schedule_arrival_at(
            time, sort_origin, node.rank, node.receive, packet,
            node.face_toward(nodes[src]),
        )


def run_windows(
    advance: Callable[..., Tuple[List[Optional[float]], List["WireMsg"]]],
    peeks: List[Optional[float]],
    held: List["WireMsg"],
    plan: ShardPlan,
    lookahead: float,
    until: Optional[float],
) -> Tuple[int, int]:
    """Run windows until idle or past ``until``; ``(windows, records sent)``.

    A window starts at the earliest of ``peeks`` (per shard, None when
    idle) and ``held``.  ``advance(horizon, inclusive, routed)`` runs every
    shard *i* through it after injecting ``routed[i]``, and returns the new
    peeks and the records sent; ``held`` keeps those, in place, for the
    next window or call.
    """
    windows = transit = 0
    while True:
        times = [msg[0] for msg in held]
        times.extend(peek for peek in peeks if peek is not None)
        next_time = min(times, default=None)
        if next_time is None or (until is not None and next_time > until):
            return windows, transit
        horizon, inclusive = window_horizon(next_time, lookahead, until)
        held.sort(key=_ORDER)
        routed: List[List["WireMsg"]] = [[] for _ in range(plan.num_shards)]
        for msg in held:
            routed[plan.assignment[msg[3]]].append(msg)
        held.clear()
        peeks, egress = advance(horizon, inclusive, routed)
        held.extend(egress)
        windows += 1
        transit += len(egress)


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
        return self._executor.pending()

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
        # Records sent this window; records awaiting the next one.
        self._outbox: List["WireMsg"] = []
        self._held: List["WireMsg"] = []
        self._metrics: List[List[Any]] = []  # [registry, interval, until, next]
        sims, assignment = self.shard_sims, plan.assignment
        bind_clocks(
            network, lambda node: sims[assignment[node.name]], Egress(self._outbox.append)
        )
        network.sim = _NetworkClock(self)
        plan.annotate_roles(network)

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

    def pending(self) -> int:
        """Queued events on every shard plus transit records not yet injected."""
        return sum(sim.pending() for sim in self.shard_sims) + len(self._held)

    def telemetry(self) -> dict:
        """Executor-level gauges: engine totals plus window accounting."""
        return {
            "now_ms": self.now,
            "events_processed": self.events_processed,
            "events_pending": self.pending(),
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
        windows, transit = run_windows(
            self._advance, self._peeks(), self._held, self.plan,
            self.lookahead_ms, until,
        )
        self.windows_run += windows
        self.transit_messages += transit
        if until is not None:
            for sim in self.shard_sims:
                if sim.now < until:
                    sim.now = until
            self._fire_metrics(until)

    def _advance(
        self, horizon: Optional[float], inclusive: bool, routed: List[List["WireMsg"]]
    ) -> Tuple[List[Optional[float]], List["WireMsg"]]:
        """One window on every shard, then barrier-aligned metrics."""
        nodes = self.network.nodes
        for sim, msgs in zip(self.shard_sims, routed):
            inject(nodes, msgs)
            sim.run(until=horizon, inclusive=inclusive)
        self._fire_metrics(self.now if horizon is None else horizon)
        egress = self._outbox[:]
        self._outbox.clear()
        return self._peeks(), egress

    def _peeks(self) -> List[Optional[float]]:
        return [sim.peek_time() for sim in self.shard_sims]

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
