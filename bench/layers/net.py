"""Drivers for ``net.codec``, ``net.clock`` and ``net.transport``.

Inputs are the ``live_wire`` workload's own messages: the publish
datagrams ``LiveTestbed.play`` blasts (the smallest message on the wire,
where per-message cost dominates) and the ``drain`` lists it re-sends
over TCP (cut to about 1 KiB).  Frames cross the host's loopback
interface, not a link.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

from repro.net.clock import LiveClock
from repro.net.codec import FrameDecoder, encode_frame, pack_message, unpack_message
from repro.net.transport import FrameConnection
from repro.net.world import make_trace, smoke_spec

from . import TraceInputs, ns_per_op

TCP_CHUNK = 1460
LOOPBACK_FRAMES = 20_000


def _messages(seed: int) -> Dict[int, List[Any]]:
    """Messages whose packed form is about 64 and about 1024 bytes."""
    trace = make_trace(smoke_spec(), seed=seed, events=4000)
    small = [{"op": "publish", **event} for event in trace]
    per_kib = max(1, 1024 // len(pack_message(small[0])))
    large = [
        {"op": "drain", "events": trace[i : i + per_kib]}
        for i in range(0, len(trace) - per_kib, per_kib)
    ]
    return {64: small, 1024: large}


def _reassembly_ns(payloads: List[bytes]) -> float:
    stream = b"".join(encode_frame(p) for p in payloads)
    chunks = [stream[i : i + TCP_CHUNK] for i in range(0, len(stream), TCP_CHUNK)]

    def loop() -> None:
        feed = FrameDecoder().feed
        for chunk in chunks:
            feed(chunk)

    return ns_per_op(loop, len(payloads))


def _clock_schedule_ns(inputs: TraceInputs) -> float:
    delays = [event.time_ms for event in inputs.events] * 10

    def noop() -> None:
        pass

    def loop() -> None:
        schedule = LiveClock().schedule
        for delay in delays:
            schedule(delay, noop)

    return ns_per_op(loop, len(delays))


async def _loopback(payload: bytes, frames: int) -> float:
    """One framed TCP stream over 127.0.0.1; seconds to move ``frames``."""
    received = asyncio.Event()

    async def serve(reader, writer) -> None:
        conn = FrameConnection(reader, writer)
        for _ in range(frames):
            if await conn.recv() is None:
                break
        received.set()
        conn.close()
        await conn.wait_closed()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    conn = FrameConnection(reader, writer)
    start = time.perf_counter()
    for i in range(frames):
        conn.send(payload)
        if i % 256 == 255:
            await conn.drain()
    await conn.drain()
    await received.wait()
    elapsed = time.perf_counter() - start
    conn.close()
    await conn.wait_closed()
    server.close()
    await server.wait_closed()
    return elapsed


def run(seed: int, inputs: TraceInputs) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    messages = _messages(seed)
    for size, batch in messages.items():
        payloads = [pack_message(m) for m in batch]

        def encode(batch=batch) -> None:
            for message in batch:
                encode_frame(pack_message(message))

        def decode(payloads=payloads) -> None:
            for payload in payloads:
                unpack_message(payload)

        out[f"net.codec.encode_ns_{size}"] = ns_per_op(encode, len(batch))
        out[f"net.codec.decode_ns_{size}"] = ns_per_op(decode, len(batch))
    small = [pack_message(m) for m in messages[64]]
    out["net.codec.frame_reassembly_ns"] = _reassembly_ns(small)
    out["net.clock.schedule_ns"] = _clock_schedule_ns(inputs)
    out["net.transport.loopback_frames_per_s"] = LOOPBACK_FRAMES / asyncio.run(
        _loopback(small[0], LOOPBACK_FRAMES)
    )
    return out
