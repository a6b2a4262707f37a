"""Asyncio transport honoring the simulator's ``Face.send`` contract.

The interception seam is the sharded executors' one shard boundary
(:mod:`repro.parallel.executor`): ``Face.send`` accounts bytes on the
sender's copy of the link and then calls ``link.sim.schedule_link(...)``.
Rebinding ``link.sim`` therefore redirects egress without touching a line
of plane/role code:

* links whose both endpoints live in this process keep the process's
  :class:`~repro.net.clock.LiveClock` — delivery is a local timer;
* links crossing a process boundary — their far end is a stub in the
  runner's slice of the world — get the executors'
  :class:`~repro.parallel.executor.Egress`, whose record the runner's
  sink ships as one codec frame over the peer's TCP connection
  (:class:`FrameConnection` coalesces the frames of one event-loop turn
  into a single socket write).

On the receiving side the runner looks up ``dst.face_toward(src)`` and
calls ``dst.receive(packet, face)`` — the exact entry point a simulator
delivery uses, so queueing, service costs and counters are identical.
Byte/packet accounting stays sender-side only; summing link counters
across processes counts every carried byte exactly once.

Publishes enter a runner over UDP through :class:`DatagramReader`: one
datagram per batch of trace events, read in bulk on each wakeup of the
event loop.  UDP may lose or corrupt a batch; the driver learns which
ones at its next ``sync`` and re-sends exactly those over the control
connection (:mod:`repro.net.testbed`).
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.net.codec import FrameDecoder, FrameError, decode_datagram, encode_frame

__all__ = ["DatagramReader", "FrameConnection"]

#: Largest UDP payload; a publish batch is about 1.3 KB.
MAX_DATAGRAM = 65535


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


class DatagramReader:
    """UDP publish fan-in: each datagram is one codec frame.

    Registered with ``loop.add_reader``, so one wakeup of the event loop
    runs :meth:`read_ready`, which calls ``recv`` until the socket is empty —
    a window of datagrams costs one loop turn, not one turn each.  Every
    datagram passes :func:`~repro.net.codec.decode_datagram` (CRC, exactly
    one frame); a corrupt one is dropped like a lost one, and the driver's
    repair pass re-sends it over TCP.
    """

    def __init__(self, host: str, port: int, on_frame: Callable[[bytes], None]) -> None:
        self.on_frame = on_frame
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        self.sock.setblocking(False)
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(self.sock.fileno(), self.read_ready)

    @property
    def port(self) -> int:
        return self.sock.getsockname()[1]

    def read_ready(self) -> None:
        """Hand up every queued datagram that decodes; return when empty."""
        recv = self.sock.recv
        while True:
            try:
                data = recv(MAX_DATAGRAM)
            except BlockingIOError:
                return
            try:
                payload = decode_datagram(data)
            except FrameError:
                continue
            self.on_frame(payload)

    def close(self) -> None:
        self._loop.remove_reader(self.sock.fileno())
        self.sock.close()
