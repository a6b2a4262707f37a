"""The cheap cross-process hop: coalesced writes, per-link envelope, encode-once.

Three fast paths carry a packet between two router processes, and each
must be invisible on the wire:

* :class:`~repro.net.transport.FrameConnection` buffers the frames sent
  within one event-loop turn and writes them with a single
  ``writer.write`` — complete, in order, and flushed by ``drain()`` and
  ``close()``;
* ``NodeRunner._ship`` prepends a cached per-link envelope to a packet
  body encoded once per fan-out — byte for byte the frame that encoding
  the whole ``{"op": "packet", ...}`` dict per destination produced;
* ``NodeRunner._serve_peer`` decodes only the packet of a frame that
  opens with its link's envelope, and falls back to the generic decode
  for anything else.
"""

import asyncio

import pytest

import repro.ndn.packets as ndn_packets
import repro.packets as packets_mod
from repro.core.packets import MulticastPacket
from repro.ndn.packets import Interest
from repro.net import runner as runner_mod
from repro.net.codec import FrameError, encode_frame, pack_message
from repro.net.runner import NodeRunner, packet_envelope
from repro.net.transport import FrameConnection
from repro.net.world import smoke_spec
from repro.parallel.executor import Egress


class CountingWriter:
    """A ``StreamWriter`` stand-in that counts ``write`` calls."""

    def __init__(self, writer):
        self._writer = writer
        self.writes = 0

    def write(self, data):
        self.writes += 1
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


async def loopback_pair():
    """A connected (client, server) FrameConnection pair over 127.0.0.1."""
    accepted = asyncio.get_running_loop().create_future()
    server = await asyncio.start_server(
        lambda r, w: accepted.set_result(FrameConnection(r, w)), "127.0.0.1", 0
    )
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    client = FrameConnection(reader, CountingWriter(writer))
    return client, await accepted, server


async def close_all(client, peer, server):
    for conn in (client, peer):
        conn.close()
        await conn.wait_closed()
    server.close()
    await server.wait_closed()


@pytest.mark.timeout(30)
class TestCoalescedWrites:
    PAYLOADS = [pack_message({"i": i, "pad": "x" * (i % 7)}) for i in range(200)]

    def test_sends_of_one_turn_cost_one_write_and_arrive_in_order(self):
        async def scenario():
            client, peer, server = await loopback_pair()
            for payload in self.PAYLOADS:
                client.send(payload)
            assert client.writer.writes == 0  # buffered until the turn ends
            received = [await peer.recv() for _ in self.PAYLOADS]
            assert client.writer.writes == 1
            # The next turn's frames are a new write, still in order.
            client.send(self.PAYLOADS[0])
            client.send(self.PAYLOADS[1])
            received += [await peer.recv(), await peer.recv()]
            assert client.writer.writes == 2
            await close_all(client, peer, server)
            return received

        assert asyncio.run(scenario()) == self.PAYLOADS + self.PAYLOADS[:2]

    def test_drain_flushes_the_buffer(self):
        async def scenario():
            client, peer, server = await loopback_pair()
            for payload in self.PAYLOADS:
                client.send(payload)
            await client.drain()
            assert client.writer.writes == 1
            received = [await peer.recv() for _ in self.PAYLOADS]
            await asyncio.sleep(0)  # the scheduled flush finds nothing left
            assert client.writer.writes == 1
            await close_all(client, peer, server)
            return received

        assert asyncio.run(scenario()) == self.PAYLOADS

    def test_close_flushes_the_buffer(self):
        async def scenario():
            client, peer, server = await loopback_pair()
            for payload in self.PAYLOADS:
                client.send(payload)
            client.close()  # same turn as the sends: nothing written yet
            received = []
            while (frame := await peer.recv()) is not None:
                received.append(frame)
            await close_all(client, peer, server)
            return received

        assert asyncio.run(scenario()) == self.PAYLOADS


class FakeConn:
    """Records what a peer link would put on the wire / feeds canned frames."""

    def __init__(self, incoming=()):
        self.frames = []
        self._incoming = list(incoming)

    def send(self, payload):
        self.frames.append(encode_frame(payload))

    async def recv(self):
        return self._incoming.pop(0) if self._incoming else None


@pytest.fixture
def hub(monkeypatch):
    """The smoke topology's R1 process (peers R2 and R3), sockets faked."""
    # NodeRunner reseeds the process-wide id counters; put them back after.
    monkeypatch.setattr(packets_mod, "_packet_ids", packets_mod._packet_ids)
    monkeypatch.setattr(ndn_packets, "_nonces", ndn_packets._nonces)
    runner = NodeRunner(smoke_spec(), "R1")
    runner.peer_conns = {"R2": FakeConn(), "R3": FakeConn()}
    return runner


def tunnel_packet():
    mcast = MulticastPacket(cd="/game/a", payload_size=120, publisher="H1", sequence=4)
    return Interest(name="/rp/R1", payload=mcast)


class TestEncodeOnceFanOut:
    @pytest.mark.parametrize(
        "make_packet",
        [lambda: MulticastPacket(cd="/game/b", payload_size=80), tunnel_packet],
        ids=["multicast", "tunnel"],
    )
    def test_fan_out_encodes_once_and_frames_are_byte_identical(
        self, hub, monkeypatch, make_packet
    ):
        encoded = []

        def counting_pack(value):
            encoded.append(value)
            return pack_message(value)

        monkeypatch.setattr(runner_mod, "pack_message", counting_pack)
        nodes = hub.world.network.nodes
        router = nodes["R1"]
        packet = make_packet()
        # What ``replicate`` does: one packet object onto every matching face.
        for peer in ("R2", "R3"):
            router.face_toward(nodes[peer]).send(packet)

        assert [v for v in encoded if v is packet] == [packet]
        for peer in ("R2", "R3"):
            assert hub.peer_conns[peer].frames == [
                encode_frame(
                    pack_message(
                        {"op": "packet", "dst": peer, "src": "R1", "pkt": packet}
                    )
                )
            ]

    def test_cross_links_share_one_egress_into_ship(self, hub):
        nodes = hub.world.network.nodes
        (egress,) = {nodes["R1"].face_toward(nodes[p]).link.sim for p in ("R2", "R3")}
        assert isinstance(egress, Egress) and egress.sink == hub._ship

    def test_a_different_packet_is_encoded_afresh(self, hub):
        nodes = hub.world.network.nodes
        face = nodes["R1"].face_toward(nodes["R2"])
        first = MulticastPacket(cd="/game/a", payload_size=10)
        second = MulticastPacket(cd="/game/a", payload_size=10)
        for packet in (first, second, first):
            face.send(packet)
        assert hub.peer_conns["R2"].frames == [
            encode_frame(
                pack_message({"op": "packet", "dst": "R2", "src": "R1", "pkt": p})
            )
            for p in (first, second, first)
        ]

    def test_envelope_is_the_message_minus_the_packet(self):
        packet = tunnel_packet()
        whole = pack_message({"op": "packet", "dst": "R2", "src": "R1", "pkt": packet})
        assert whole == packet_envelope("R2", "R1") + pack_message(packet)


class TestServePeer:
    @staticmethod
    def serve(runner, frames):
        """Run ``_serve_peer`` for R2 over canned frames; returns receipts."""
        nodes = runner.world.network.nodes
        got = []
        nodes["R1"].receive = lambda packet, face: got.append((packet, face))
        asyncio.run(runner._serve_peer("R2", FakeConn(frames)))
        return got, nodes["R1"].face_toward(nodes["R2"])

    def test_envelope_frame_is_delivered_on_the_link_face(self, hub):
        packet = tunnel_packet()
        frame = pack_message({"op": "packet", "dst": "R1", "src": "R2", "pkt": packet})
        assert frame.startswith(packet_envelope("R1", "R2"))
        got, face = self.serve(hub, [frame])
        assert got == [(packet, face)]
        assert got[0][0].uid == packet.uid

    def test_keys_in_another_order_take_the_generic_path(self, hub):
        packet = tunnel_packet()
        frame = pack_message({"pkt": packet, "src": "R2", "op": "packet", "dst": "R1"})
        assert not frame.startswith(packet_envelope("R1", "R2"))
        got, face = self.serve(hub, [frame])
        assert got == [(packet, face)]

    def test_trailing_garbage_after_the_packet_is_a_frame_error(self, hub):
        frame = pack_message(
            {"op": "packet", "dst": "R1", "src": "R2", "pkt": tunnel_packet()}
        )
        with pytest.raises(FrameError, match="trailing"):
            self.serve(hub, [frame + b"\x00"])
        assert hub.failure is not None and "FrameError" in hub.failure
