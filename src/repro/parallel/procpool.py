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

**Packed binary batches.**  Cross-shard packets leave through the
executor's :class:`~repro.parallel.executor.Egress` as ``(time, sender
rank, send order, dst, src, packet)`` records, batched into one
:mod:`repro.parallel.wire` frame per (shard, barrier) over
``Connection.send_bytes`` — no per-packet pickling anywhere on the
transit path (tests enforce this by poisoning ``Connection.send``).  The
barrier protocol is a single round trip: the coordinator's ``RUN`` frame
piggybacks the records routed at the previous barrier, which the worker
hands to :func:`~repro.parallel.executor.inject`.

The coordinator drives :func:`~repro.parallel.executor.run_windows`, the
in-process executor's window loop, so both run identical windows.

Packet uids and Interest nonces are drawn from per-worker disjoint
ranges (:func:`repro.packets.use_id_range`) so dedup-by-uid never
confuses two distinct packets born in different processes.  The uid
*values* differ from a serial run, but uids only ever feed identity
checks — observable behavior is value-independent.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import TYPE_CHECKING, List

from repro.packets import use_id_range
from repro.parallel import wire
from repro.parallel.executor import Egress, inject, run_windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.scale import ScaleSpec

__all__ = ["run_scale_proc"]


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
    from repro.parallel.scale import result_part, start_workload
    from repro.parallel.slicing import build_scale_shard, scale_plan_fast

    use_id_range(shard)
    plan = scale_plan_fast(spec, num_shards)
    world = build_scale_shard(spec, plan, shard)
    network = world.network
    sim = network.sim
    outbox: List[wire.WireMsg] = []
    egress = Egress(outbox.append)
    for link in plan.boundary_links(network):
        link.sim = egress
    log = start_workload(
        spec, world, lambda _node, time, *event: sim.schedule_at(time, *event)
    )

    conn.send_bytes(wire.encode_ready(sim.peek_time()))
    while True:
        frame = conn.recv_bytes()
        op = frame[0]
        if op == wire.OP_RUN:
            horizon, inclusive, msgs = wire.decode_run(frame)
            inject(network.nodes, msgs)  # already in global order
            sim.run(until=horizon, inclusive=inclusive)
            conn.send_bytes(wire.encode_done(sim.peek_time(), outbox))
            outbox.clear()
        elif op == wire.OP_FINISH:
            wire.send_result(conn.send_bytes, result_part(log, sim.events_processed, network))
            return
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown op {op!r}")


def run_scale_proc(spec: "ScaleSpec", workers: int) -> dict:
    """Coordinate ``workers`` shard processes through lookahead windows.

    The coordinator drives :func:`~repro.parallel.executor.run_windows`,
    the loop :meth:`ShardedExecutor.run` drives: its ``advance`` sends
    every worker its ``RUN`` frame (the window plus the records routed to
    it) before reading any ``DONE``, so the workers run each window in
    parallel.  Workers are forked (POSIX); a worker that raises or dies
    is a ``RuntimeError("shard <i> failed: …")``.
    """
    from repro.parallel.partition import min_cut_delay
    from repro.parallel.scale import scale_result
    from repro.parallel.slicing import scale_plan_fast, scale_topology

    if workers < 2:
        raise ValueError(f"run_scale_proc needs >= 2 workers, got {workers}")
    # Plan and lookahead come straight from the spec — the coordinator
    # never builds a world.
    plan = scale_plan_fast(spec, workers)
    lookahead = min_cut_delay(scale_topology(spec).links, plan.assignment)

    ctx = multiprocessing.get_context("fork")
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

        def advance(horizon, inclusive, routed):
            for conn, msgs in zip(conns, routed):
                conn.send_bytes(wire.encode_run(horizon, inclusive, msgs))
            peeks, egress = [], []
            for shard in range(workers):
                peek, outbox = wire.decode_done(recv(shard))
                peeks.append(peek)
                egress.extend(outbox)
            return peeks, egress

        peeks = [wire.decode_ready(recv(shard)) for shard in range(workers)]
        windows, transit = run_windows(
            advance, peeks, [], plan, lookahead, spec.horizon_ms
        )

        # FINISH to all before the first RESULT is read: workers report in parallel.
        for conn in conns:
            conn.send_bytes(wire.encode_finish())
        parts = [
            wire.recv_result(recv(shard), conns[shard].recv_bytes)
            for shard in range(workers)
        ]
        return scale_result(
            parts,
            {
                "shards": workers,
                "workers": workers,
                "lookahead_ms": lookahead,
                "windows_run": windows,
                "transit_messages": transit,
            },
        )
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
