"""Asyncio transport honoring the simulator's ``Face.send`` contract.

The interception seam is the one the sharded executor already proved out
(:mod:`repro.parallel.executor`): ``Face.send`` accounts bytes on the
sender's link replica and then calls ``link.sim.schedule_link(...)``.
Rebinding ``link.sim`` therefore redirects egress without touching a line
of plane/role code:

* links whose both endpoints live in this process keep the process's
  :class:`~repro.net.clock.LiveClock` — delivery is a local timer;
* links crossing a process boundary get a :class:`BoundaryClock`, whose
  ``schedule_link`` extracts (dst, src, packet) from the already-bound
  callback and ships one codec frame over the peer's TCP connection
  (:class:`FrameConnection` coalesces the frames of one event-loop turn
  into a single socket write);
* everything owned by *another* process gets a :class:`PoisonClock`, so
  foreign replica logic that accidentally runs fails loudly instead of
  silently double-counting (the same poisoning discipline
  ``ShardedExecutor._rebind`` uses).

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

__all__ = ["FrameConnection", "UdpEndpoint", "BoundaryClock", "PoisonClock"]


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


class BoundaryClock:
    """Egress shim bound as ``link.sim`` on cross-process links.

    ``Face.send`` has already done fault hooks, tracing and sender-side
    byte accounting by the time it calls ``schedule_link`` — all that is
    left is delivery, which here means one frame to the peer process.
    The propagation delay is dropped on the floor: the differential
    compares counters, not timing, and the receiving clock re-applies
    service costs (ARCHITECTURE.md §9 spells out what that does and does
    not prove).
    """

    __slots__ = ("_clock", "_link", "_ship")

    def __init__(self, clock, link, ship: Callable[[str, str, Any], None]) -> None:
        self._clock = clock
        self._link = link
        self._ship = ship

    @property
    def now(self) -> float:
        return self._clock.now

    def schedule_link(
        self,
        delay: float,
        sort_origin: int,
        exec_origin: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Ship the packet to the owning process instead of timing it.

        ``callback`` is the foreign replica's bound ``receive``; its
        ``__self__`` names the real destination process.  The source is
        the link's other endpoint — the node that just sent.
        """
        dst = callback.__self__
        (a, _), (b, _) = self._link._ends
        src = b if dst is a else a
        self._ship(dst.name, src.name, args[0])

    def schedule(self, *_args: Any, **_kw: Any) -> None:
        raise RuntimeError(
            "BoundaryClock only delivers link egress; node-local timers on a "
            "cross-process link are a wiring bug"
        )

    schedule_at = schedule


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
