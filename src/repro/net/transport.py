"""Asyncio transport honoring the simulator's ``Face.send`` contract.

The interception seam is the sharded executors' one shard boundary
(:mod:`repro.parallel.executor`): ``Face.send`` accounts bytes on the
sender's link replica and then calls ``link.sim.schedule_link(...)``.
Rebinding ``link.sim`` therefore redirects egress without touching a line
of plane/role code:

* links whose both endpoints live in this process keep the process's
  :class:`~repro.net.clock.LiveClock` — delivery is a local timer;
* links crossing a process boundary get the executors'
  :class:`~repro.parallel.executor.Egress`, whose record the runner's
  sink ships as one codec frame over the peer's TCP connection
  (:class:`FrameConnection` coalesces the frames of one event-loop turn
  into a single socket write);
* everything owned by *another* process gets a :class:`PoisonClock`, so
  foreign replica logic that accidentally runs fails loudly instead of
  silently double-counting.

On the receiving side the runner looks up ``dst.face_toward(src)`` and
calls ``dst.receive(packet, face)`` — the exact entry point a simulator
delivery uses, so queueing, service costs and counters are identical.
Byte/packet accounting stays sender-side only; summing link counters
across processes counts every carried byte exactly once.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.net.codec import FrameDecoder, FrameError, decode_datagram, encode_frame

__all__ = ["FrameConnection", "UdpEndpoint", "PoisonClock"]


class FrameConnection:
    """One framed TCP stream (peer router or driver control channel).

    Frames sent within one event-loop turn leave in a single
    ``writer.write``: :meth:`send` only buffers, and the first frame of a
    turn schedules one :meth:`_flush` with ``loop.call_soon``.  Order per
    connection is the order of the ``send`` calls.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self._decoder = FrameDecoder()
        self._ready: Deque[bytes] = deque()
        self._outgoing: List[bytes] = []

    def send(self, payload: bytes) -> None:
        """Queue one frame for transmission (no await — hot path)."""
        if not self._outgoing:
            asyncio.get_running_loop().call_soon(self._flush)
        self._outgoing.append(encode_frame(payload))

    def _flush(self) -> None:
        if self._outgoing:
            self.writer.write(b"".join(self._outgoing))
            self._outgoing.clear()

    async def drain(self) -> None:
        self._flush()
        await self.writer.drain()

    async def recv(self) -> Optional[bytes]:
        """Next frame payload, or ``None`` on clean EOF.

        EOF mid-frame raises :class:`~repro.net.codec.FrameError` — a
        truncated stream must never be mistaken for a clean close.
        """
        while not self._ready:
            chunk = await self.reader.read(65536)
            if not chunk:
                self._decoder.check_eof()
                return None
            self._ready.extend(self._decoder.feed(chunk))
        return self._ready.popleft()

    def close(self) -> None:
        try:
            self._flush()
            self.writer.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except Exception:  # pragma: no cover - peer may already be gone
            pass


class UdpEndpoint(asyncio.DatagramProtocol):
    """Datagram fan-in port: each datagram is one codec frame."""

    def __init__(self, on_frame: Callable[[bytes], None]) -> None:
        self.on_frame = on_frame
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:  # pragma: no cover - asyncio
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        """Decode one frame and hand it up; corrupt datagrams are dropped."""
        try:
            payload = decode_datagram(data)
        except FrameError:
            # UDP is the lossy fast path; a corrupt datagram is dropped
            # like a lost one and the TCP drain pass re-delivers it.
            return
        self.on_frame(payload)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


class PoisonClock:
    """Fails loudly if a foreign replica's logic ever runs locally."""

    __slots__ = ("owner",)

    def __init__(self, owner: str) -> None:
        self.owner = owner

    def _explode(self, *_args: Any, **_kw: Any):
        raise RuntimeError(
            f"node/link owned by another live process was driven inside "
            f"{self.owner!r}: replica isolation is broken"
        )

    schedule = _explode
    schedule_at = _explode
    schedule_link = _explode

    @property
    def now(self) -> float:
        self._explode()
