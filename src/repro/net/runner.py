"""One live G-COPSS node process: ``python -m repro.net.runner``.

Hosts one router plus its attached player hosts, running the *unmodified*
plane/role code over real sockets.  The process:

1. builds only its slice of the world from the shared spec — its
   router, that router's hosts and one stub per cross-link peer, with
   the full world's ranks, face ids and routes (see
   :func:`repro.net.world.build_world`) — then rebinds clocks the way
   the sharded executor does: owned nodes/links get the process's
   :class:`~repro.net.clock.LiveClock`, links with a stub end get the
   executors' one :class:`~repro.parallel.executor.Egress`, whose sink
   :meth:`NodeRunner._ship` sends each record as a codec frame (a cached
   per-link envelope plus the packet, encoded once per fan-out).  A stub
   has no clock, and its ``receive`` raises;
2. draws uids and nonces from this router's disjoint range
   (:func:`repro.packets.use_id_range`, the multiprocess executor's
   scheme) so host dedup and PIT identity behave exactly as in the
   one-process simulator — decoded packets carry their ids explicitly,
   so identity survives every hop;
3. binds TCP (control + peer links) and UDP (publish fan-in) on
   ``--port 0`` ephemeral ports and prints ``PORT <tcp> <udp>`` for the
   launcher;
4. serves the driver protocol: ``config`` (peer address map; the
   lexicographically smaller router dials), ``subscribe``, ``status``
   (quiescence polling), ``sync`` (flow control and loss report of the
   publish phase), ``publish`` (repair of a lost batch; no reply),
   ``collect`` (the differential report slice) and ``shutdown``.

Publishes arrive as batches of trace events, one UDP datagram each
(:class:`~repro.net.transport.DatagramReader`), under ids the driver
numbers contiguously per runner.  Execution is idempotent per batch id.
A ``sync`` for a range of ids is answered only once the runner's backlog
(timer wheel plus router service queue) is at most :data:`BACKLOG`, and
the reply lists the ids of that range the runner never received; the
driver re-sends exactly those over TCP.  So the driver never runs more
than a bounded window ahead of a runner, every event runs exactly once,
and only a lost batch crosses the wire twice.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.net.clock import LiveClock
from repro.net.codec import pack_message, unpack_message
from repro.net.transport import DatagramReader, FrameConnection
from repro.net.world import build_world, collect_report
from repro.packets import use_id_range
from repro.parallel.executor import Egress, bind_clocks

DRIVER_NAME = "__driver__"
#: A ``sync`` is answered once the backlog is at most this many entries.
BACKLOG = 1024
#: Seconds between backlog checks while a ``sync`` waits.
SYNC_POLL_S = 0.001


@functools.lru_cache(maxsize=None)  # one entry per directed link
def packet_envelope(dst: str, src: str) -> bytes:
    """Everything of a peer-link message that precedes the packet.

    A packet crosses a link as ``{"op": "packet", "dst", "src", "pkt"}``;
    all but the last value is constant per directed link, so both ends
    compute these bytes once.  The trailing byte dropped here is the tag
    of the placeholder ``None`` — where the packet's own encoding goes.
    """
    return pack_message({"op": "packet", "dst": dst, "src": src, "pkt": None})[:-1]


class NodeRunner:
    """The live process around one router and its hosts."""

    def __init__(self, spec: Dict[str, Any], node: str, time_scale: float = 0.0) -> None:
        self.spec = spec
        self.node_name = node
        self.index = spec["routers"].index(node)
        self.owned: Set[str] = {node} | {
            h for h, conf in spec["hosts"].items() if conf["router"] == node
        }
        use_id_range(self.index)
        self.world = build_world(spec, local=self.owned)
        self.clock = LiveClock(time_scale)
        network = self.world.network
        network.sim = self.clock
        bind_clocks(
            network,
            lambda n: self.clock if n.name in self.owned else None,
            Egress(self._ship),
        )
        #: Cross-link peer routers: the slice's stubs.
        self.cross_peers: Set[str] = set(network.nodes) - self.owned
        self.peer_conns: Dict[str, FrameConnection] = {}
        # The packet shipped last and its encoding: a fan-out hands one
        # packet object to every face, and nothing mutates a packet once
        # it is sent, so consecutive egress of it is encoded once.
        self._shipped: Any = None
        self._shipped_body = b""
        self.peer_addrs: Dict[str, Dict[str, Any]] = {}
        self._queue = network.nodes[node].queue
        self._udp: Optional[DatagramReader] = None
        #: Ids of the publish batches run so far.
        self.executed: Set[int] = set()
        #: Events run from UDP datagrams (the rest came by TCP repair).
        self.udp_received = 0
        self._tasks: List[asyncio.Task] = []
        self._shutdown = asyncio.Event()
        self.failure: "str | None" = None

    # ------------------------------------------------------------------
    # Cross-link egress / ingress
    # ------------------------------------------------------------------
    def _ship(self, msg) -> None:
        """Egress sink: one frame to ``dst``'s process; the arrival time is
        dropped, the receiving clock re-applies service costs."""
        _time, _rank, _order, dst, src, packet = msg
        conn = self.peer_conns.get(dst)
        if conn is None:
            raise RuntimeError(
                f"{self.node_name}: egress toward {dst} before its peer link "
                "is connected — driver must not inject traffic pre-ready"
            )
        if packet is not self._shipped:
            self._shipped_body = pack_message(packet)
            self._shipped = packet
        conn.send(packet_envelope(dst, src) + self._shipped_body)

    def _deliver(self, msg: Dict[str, Any]) -> None:
        nodes = self.world.network.nodes
        dst = nodes.get(msg["dst"])
        src = nodes.get(msg["src"])
        if dst is None or src is None or dst.name not in self.owned:
            raise RuntimeError(
                f"{self.node_name}: received a packet {msg['src']} -> "
                f"{msg['dst']}, which its slice does not own or know — peer "
                "wiring is broken"
            )
        dst.receive(msg["pkt"], dst.face_toward(src))

    # ------------------------------------------------------------------
    # Publish execution (UDP batches + TCP repair)
    # ------------------------------------------------------------------
    def _execute_batch(self, msg: Dict[str, Any]) -> int:
        """Run a publish batch unless its id already ran; events run."""
        batch = msg["batch"]
        if batch in self.executed:
            return 0
        self.executed.add(batch)
        for event in msg["events"]:
            self.world.publish(event["host"], event["cd"], event["size"])
        return len(msg["events"])

    def _on_udp_frame(self, payload: bytes) -> None:
        try:
            msg = unpack_message(payload)
        except Exception:
            return  # undecodable == lost; the driver's repair re-sends it
        if isinstance(msg, dict) and msg.get("op") == "publish":
            self.udp_received += self._execute_batch(msg)

    def backlog(self) -> int:
        """Work this process holds: live timers plus the router's queue."""
        return self.clock.pending() + self._queue.backlog

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------
    async def _handle_driver(self, msg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        op = msg.get("op")
        if op == "config":
            self.peer_addrs = msg["peers"]
            for peer in sorted(self.cross_peers):
                # The lexicographically smaller endpoint dials; the other
                # accepts — one connection per edge, no glare.
                if self.node_name < peer:
                    await self._dial(peer)
            while not self.cross_peers <= set(self.peer_conns):
                await asyncio.sleep(0.005)
            return {"ok": True, "links": sorted(self.peer_conns)}
        if op == "subscribe":
            self.world.hosts[msg["host"]].subscribe(msg["cds"])
            return {"ok": True}
        if op == "status":
            network = self.world.network
            return {
                "ok": True,
                "pending": self.clock.pending(),
                "events": self.clock.events_processed,
                "packets": sum(l.packets_carried for l in network.links),
                "bytes": sum(l.bytes_carried for l in network.links),
                "executed": len(self.executed),
                "failure": self.failure,
            }
        if op == "sync":
            # Take what is queued first: every datagram of the range was
            # sent before this sync, so the report below cannot depend on
            # the order the loop serves its readers in.
            self._udp.read_ready()
            while self.backlog() > BACKLOG:
                await asyncio.sleep(SYNC_POLL_S)
            missing = [
                b for b in range(msg["first"], msg["stop"]) if b not in self.executed
            ]
            return {"ok": True, "missing": missing, "udp_received": self.udp_received}
        if op == "publish":
            self._execute_batch(msg)
            return None  # a repair is checked by the next sync, not acked
        if op == "collect":
            return {"ok": True, "report": collect_report(self.world)}
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _serve_driver(self, conn: FrameConnection) -> None:
        # A runner lives as long as its driver connection: ``shutdown``,
        # a clean close and a broken stream all end the process.
        try:
            while True:
                frame = await conn.recv()
                if frame is None:
                    break
                msg = unpack_message(frame)
                try:
                    reply = await self._handle_driver(msg)
                except Exception as exc:
                    traceback.print_exc()
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                if reply is None:
                    continue
                conn.send(pack_message(reply))
                await conn.drain()
                if msg.get("op") == "shutdown":
                    break
        finally:
            self._shutdown.set()

    async def _serve_peer(self, peer: str, conn: FrameConnection) -> None:
        # What ``peer`` sends over this link is addressed to our router;
        # a frame that opens with that link's envelope needs only its
        # packet decoded.  Any other frame (another destination, keys in
        # another order) takes the generic path.
        nodes = self.world.network.nodes
        router = nodes[self.node_name]
        face = router.face_toward(nodes[peer])
        envelope = packet_envelope(self.node_name, peer)
        skip = len(envelope)
        try:
            while True:
                frame = await conn.recv()
                if frame is None:
                    break
                if frame.startswith(envelope):
                    router.receive(unpack_message(frame[skip:]), face)
                else:
                    self._deliver(unpack_message(frame))
        except Exception as exc:
            if not self._shutdown.is_set():
                self.failure = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
                raise

    async def _dial(self, peer: str) -> None:
        addr = self.peer_addrs[peer]
        reader, writer = await asyncio.open_connection(addr["host"], addr["tcp"])
        conn = FrameConnection(reader, writer)
        conn.send(pack_message({"op": "hello", "node": self.node_name}))
        await conn.drain()
        self.peer_conns[peer] = conn
        self._tasks.append(asyncio.create_task(self._serve_peer(peer, conn)))

    async def _on_accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = FrameConnection(reader, writer)
        first = await conn.recv()
        if first is None:
            conn.close()
            return
        hello = unpack_message(first)
        who = hello.get("node")
        if who == DRIVER_NAME:
            await self._serve_driver(conn)
        elif who in self.cross_peers:
            self.peer_conns[who] = conn
            await self._serve_peer(who, conn)
        else:
            conn.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self, tcp_port: int, udp_port: int) -> int:
        """Bind sockets, print the PORT line, run until shutdown; exit code."""
        server = await asyncio.start_server(self._on_accept, "127.0.0.1", tcp_port)
        bound_tcp = server.sockets[0].getsockname()[1]
        self._udp = DatagramReader("127.0.0.1", udp_port, self._on_udp_frame)
        # The launcher parses this line to learn the ephemeral ports.
        print(f"PORT {bound_tcp} {self._udp.port}", flush=True)

        clock_task = asyncio.create_task(self.clock.run())
        shutdown_task = asyncio.create_task(self._shutdown.wait())
        done, _pending = await asyncio.wait(
            {clock_task, shutdown_task}, return_when=asyncio.FIRST_COMPLETED
        )
        code = 0
        if clock_task in done and clock_task.exception() is not None:
            # Node logic raised inside a timer: the process is wedged, die
            # loudly so the driver sees a non-zero exit, not a hang.
            traceback.print_exception(clock_task.exception())
            code = 1
        # Graceful teardown: stop timers, close every socket, release ports.
        self.clock.stop()
        shutdown_task.cancel()
        for task in self._tasks:
            task.cancel()
        server.close()
        await server.wait_closed()
        self._udp.close()
        for conn in self.peer_conns.values():
            conn.close()
        await asyncio.sleep(0)  # let transports flush their close
        if not clock_task.done():
            await asyncio.wait({clock_task}, timeout=1.0)
        return code


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for one live node process."""
    parser = argparse.ArgumentParser(prog="python -m repro.net.runner")
    parser.add_argument("--spec", required=True, help="path to the topology spec JSON")
    parser.add_argument("--node", required=True, help="router this process owns")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed as PORT line)")
    parser.add_argument("--udp-port", type=int, default=0,
                        help="UDP publish fan-in port (0 = ephemeral)")
    parser.add_argument("--time-scale", type=float, default=0.0,
                        help="wall seconds per sim ms (0 = as fast as possible)")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    runner = NodeRunner(spec, args.node, time_scale=args.time_scale)
    return asyncio.run(runner.serve(args.port, args.udp_port))


if __name__ == "__main__":
    sys.exit(main())
