"""One OS process per shard: the same windows, actual parallelism.

The in-process :class:`~repro.parallel.executor.ShardedExecutor` proves
the synchronization algorithm; this module runs it for real.  Two
design points separate it from the naive port:

**Spec-sliced workers.**  Each worker builds only *its shard's slice* of
the world — shard nodes and links plus stub far-ends for boundary links
(:func:`repro.parallel.slicing.build_scale_shard`).  Ranks, face ids and
routes are reproduced from the spec in closed form, so the
``(time, origin, seq)`` total order is still well-defined across
processes with zero coordination, without anyone paying for a 10⁴-node
replica build (the old protocol built N+1 of them).  The coordinator
itself builds *nothing*: plan and lookahead come from the spec's topology
table (:func:`scale_topology`), through the same partition searches a
built network feeds.

**Packed binary batches.**  Cross-shard packets leave through a boundary
proxy as ``(time, sender rank, send order, dst, src, packet)`` records,
batched into one :mod:`repro.parallel.wire` frame per (shard, barrier)
over ``Connection.send_bytes`` — no per-packet pickling anywhere on the
transit path (tests enforce this by poisoning ``Connection.send``).  The
barrier protocol is a single round trip: the coordinator's ``RUN`` frame
piggybacks the injections routed at the previous barrier.

The coordinator picks every window with
:func:`~repro.parallel.executor.window_horizon` — the in-process
executor's rule, so both run identical horizons.

Packet uids and Interest nonces are drawn from per-worker disjoint
ranges (worker *i* counts from ``(i+1) << 48``) so dedup-by-uid never
confuses two distinct packets born in different processes.  The uid
*values* differ from a serial run, but uids only ever feed identity
checks — observable behavior is value-independent.
"""

from __future__ import annotations

import itertools
import multiprocessing
import traceback
from typing import TYPE_CHECKING, List, Optional

from repro.parallel import wire
from repro.parallel.digest import DeliveryLog
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.scale import ScaleSpec

__all__ = ["run_scale_proc"]


class _EgressProxy:
    """``link.sim`` for this worker's boundary links: sends become records."""

    __slots__ = ("sim", "outbox", "_seq")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.outbox: List[wire.WireMsg] = []
        self._seq = 0

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule_link(
        self, delay: float, sort_origin: int, exec_origin: int, callback, *args
    ) -> None:
        # Boundary egress only ever comes from Face.send: callback is the
        # stub's bound ``receive``, args are (packet, the stub's face); the
        # face's peer is the local sender.  Reduced to names so the record
        # crosses the process boundary.
        packet, dst_face = args
        seq = self._seq
        self._seq = seq + 1
        self.outbox.append(
            (
                self.sim.now + delay,
                sort_origin,
                seq,
                callback.__self__.name,
                dst_face.peer.name,
                packet,
            )
        )

    def schedule(self, delay: float, callback, *args) -> None:
        raise RuntimeError(
            "cross-shard links carry packets only; node timers belong on "
            "the node's own shard clock (node.sim)"
        )

    schedule_at = schedule

    def drain(self) -> List[wire.WireMsg]:
        outbox, self.outbox = self.outbox, []
        return outbox


def _worker_main(conn, spec: "ScaleSpec", shard: int, num_shards: int) -> None:
    """Process entry point: serve the shard; a failure becomes one ERROR frame."""
    try:
        _serve_shard(conn, spec, shard, num_shards)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        return  # teardown race: the coordinator has gone, no one to tell
    except Exception:
        conn.send_bytes(wire.encode_error(traceback.format_exc()))
    finally:
        conn.close()


def _serve_shard(conn, spec: "ScaleSpec", shard: int, num_shards: int) -> None:
    """One shard's event loop, driven by coordinator frames."""
    import repro.ndn.packets as ndn_packets
    import repro.packets as packets_mod

    from repro.parallel.scale import _publish, _subscribe_hosts, scale_events
    from repro.parallel.slicing import build_scale_shard, scale_plan_fast

    # Disjoint uid/nonce ranges per worker: dedup-by-uid and PIT nonce
    # checks stay collision-free across processes.
    packets_mod._packet_ids = itertools.count((shard + 1) << 48)
    ndn_packets._nonces = itertools.count(((shard + 1) << 48) + 1)

    plan = scale_plan_fast(spec, num_shards)
    world = build_scale_shard(spec, plan, shard)
    network = world.network
    sim = network.sim
    egress = _EgressProxy(sim)
    assignment = plan.assignment
    for link in plan.boundary_links(network):
        link.sim = egress

    nodes = network.nodes
    log = _subscribe_hosts(spec, world)
    # This worker's regions came with unstarted autoscaler roles (the
    # slice build attaches them); arm their tick loops at t=0, mirroring
    # execute_scale_local's schedule_external path.
    federation = getattr(network, "federation_state", None)
    if federation is not None:
        for role in federation.autoscalers:
            sim.schedule_at(0.0, role.start, spec.horizon_ms)
    for i, (time, player, cd) in enumerate(scale_events(spec)):
        if assignment[player] == shard:
            sim.schedule_at(
                time, _publish, world.hosts[player], cd, spec.payload_bytes, i
            )

    conn.send_bytes(wire.encode_ready(sim.peek_time()))
    while True:
        frame = conn.recv_bytes()
        op = frame[0]
        if op == wire.OP_RUN:
            horizon, inclusive, msgs = wire.decode_run(frame)
            # Injections ride the RUN frame, already in global
            # (time, sender rank, send order) order; injection order
            # fixes the receiver-side seq so same-key ties replay the
            # sender's send order.
            for time, sort_origin, _seq, dst_name, src_name, packet in msgs:
                node = nodes[dst_name]
                face = node.face_toward(nodes[src_name])
                sim.schedule_arrival_at(
                    time, sort_origin, node.rank, node.receive, packet, face
                )
            sim.run(until=horizon, inclusive=inclusive)
            conn.send_bytes(wire.encode_done(sim.peek_time(), egress.drain()))
        elif op == wire.OP_FINISH:
            from repro.parallel.scale import federation_summary

            conn.send_bytes(
                wire.encode_result(
                    {
                        "log": log.columns(),
                        "events_processed": sim.events_processed,
                        "network_bytes": network.total_bytes,
                        "network_packets": network.total_packets,
                        "federation": (
                            None
                            if federation is None
                            else federation_summary(federation)
                        ),
                    }
                )
            )
            return
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown op {op!r}")


def run_scale_proc(spec: "ScaleSpec", workers: int) -> dict:
    """Coordinate ``workers`` shard processes through lookahead windows.

    The coordinator mirrors :meth:`ShardedExecutor.run`: pick the earliest
    pending event across shards *and* in-flight injections, run everyone
    to that window's :func:`window_horizon`, and merge each worker's egress
    — sorted by ``(time, sender rank, send order)`` — for injection on the
    next ``RUN``.  Falls back to the in-process executor when the platform
    cannot fork processes; a worker that raises or dies is a
    ``RuntimeError("shard <i> failed: …")``.
    """
    from repro.parallel.executor import ShardedExecutor, window_horizon
    from repro.parallel.partition import min_cut_delay
    from repro.parallel.scale import execute_scale_local
    from repro.parallel.slicing import scale_plan_fast, scale_topology

    if workers < 2:
        raise ValueError(f"run_scale_proc needs >= 2 workers, got {workers}")
    # Plan and lookahead come straight from the spec — the coordinator
    # never builds a world.
    plan = scale_plan_fast(spec, workers)
    lookahead = min_cut_delay(scale_topology(spec).links, plan.assignment)
    until = spec.horizon_ms

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # non-POSIX fallback
        result = execute_scale_local(
            spec, lambda network: ShardedExecutor(network, plan)
        )
        result["fallback"] = "in-process (no fork start method)"
        return result

    conns = []
    procs = []
    try:
        for shard in range(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child, spec, shard, workers), daemon=True
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        def recv(shard: int) -> bytes:
            """Worker ``shard``'s next frame; its death or ERROR frame raises."""
            try:
                frame = conns[shard].recv_bytes()
            except EOFError:
                procs[shard].join(timeout=10)
                frame = wire.encode_error(f"died, exit code {procs[shard].exitcode}")
            if frame[0] == wire.OP_ERROR:
                raise RuntimeError(f"shard {shard} failed: {wire.decode_error(frame)}")
            return frame

        peeks: List[Optional[float]] = [
            wire.decode_ready(recv(shard)) for shard in range(workers)
        ]

        windows = 0
        transit = 0
        pending: List[wire.WireMsg] = []
        while True:
            times = [t for t in peeks if t is not None]
            times.extend(msg[0] for msg in pending)
            next_time = min(times) if times else None
            if next_time is None or next_time > until:
                break
            horizon, inclusive = window_horizon(next_time, lookahead, until)
            # Same sort key as the in-process barrier; ties at
            # (time, origin) always come from one worker, whose local
            # send order disambiguates them.
            pending.sort(key=lambda m: (m[0], m[1], m[2]))
            routed: List[List[wire.WireMsg]] = [[] for _ in range(workers)]
            for msg in pending:
                routed[plan.assignment[msg[3]]].append(msg)
            pending = []
            for conn, msgs in zip(conns, routed):
                conn.send_bytes(wire.encode_run(horizon, inclusive, msgs))
            for i in range(workers):
                peeks[i], outbox = wire.decode_done(recv(i))
                pending.extend(outbox)
            windows += 1
            transit += len(pending)

        # FINISH to all before the first RESULT is read: workers pack in parallel.
        for conn in conns:
            conn.send_bytes(wire.encode_finish())
        results = [wire.decode_result(recv(shard)) for shard in range(workers)]
        log = DeliveryLog()
        for result in results:
            log.merge(DeliveryLog.from_columns(**result["log"]))
        from repro.parallel.scale import latency_stats

        summary = {
            "deliveries": len(log),
            "digest": log.digest(),
            "latency": latency_stats(log),
            "events_processed": sum(r["events_processed"] for r in results),
            "network_bytes": sum(r["network_bytes"] for r in results),
            "network_packets": sum(r["network_packets"] for r in results),
            "executor": {
                "shards": workers,
                "workers": workers,
                "lookahead_ms": lookahead,
                "windows_run": windows,
                "transit_messages": transit,
            },
        }
        feds = [r["federation"] for r in results if r["federation"] is not None]
        if feds:
            summary["federation"] = {key: sum(f[key] for f in feds) for key in feds[0]}
        return summary
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
