"""Tests for the node/face/link fabric."""

import pytest

from repro.obs.tracer import PacketTracer
from repro.packets import Packet
from repro.parallel.executor import Egress
from repro.sim.network import Network, Node, send_all
from repro.sim.routing import network_next_hops


class Sink(Node):
    """Test node recording everything it receives."""

    def __init__(self, network, name):
        super().__init__(network, name)
        self.inbox = []

    def receive(self, packet, face):
        self.stats.packets_received += 1
        self.inbox.append((self.sim.now, packet, face))


def make_pair(delay=2.0):
    net = Network()
    a = Sink(net, "a")
    b = Sink(net, "b")
    link = net.connect(a, b, delay)
    return net, a, b, link


class TestLinks:
    def test_delivery_after_delay(self):
        net, a, b, _ = make_pair(delay=2.0)
        packet = Packet(size=100)
        a.send(a.face_toward(b), packet)
        net.sim.run()
        assert len(b.inbox) == 1
        t, received, face = b.inbox[0]
        assert t == 2.0
        assert received is packet
        assert face.peer is a

    def test_bidirectional(self):
        net, a, b, _ = make_pair()
        b.send(b.face_toward(a), Packet(size=10))
        net.sim.run()
        assert len(a.inbox) == 1

    def test_byte_accounting(self):
        net, a, b, link = make_pair()
        a.send(a.face_toward(b), Packet(size=100))
        b.send(b.face_toward(a), Packet(size=50))
        net.sim.run()
        assert link.bytes_carried == 150
        assert link.packets_carried == 2
        assert net.total_bytes == 150
        assert net.total_packets == 2

    def test_reset_counters(self):
        net, a, b, link = make_pair()
        a.send(a.face_toward(b), Packet(size=100))
        net.sim.run()
        net.reset_counters()
        assert net.total_bytes == 0

    def test_self_link_rejected(self):
        net = Network()
        a = Sink(net, "a")
        with pytest.raises(ValueError):
            net.connect(a, a, 1.0)

    def test_negative_delay_rejected(self):
        net = Network()
        a = Sink(net, "a")
        b = Sink(net, "b")
        with pytest.raises(ValueError):
            net.connect(a, b, -1.0)

    def test_fifo_per_link(self):
        net, a, b, _ = make_pair(delay=1.0)
        p1, p2 = Packet(size=1), Packet(size=2)
        a.send(a.face_toward(b), p1)
        a.send(a.face_toward(b), p2)
        net.sim.run()
        assert [p for _, p, _ in b.inbox] == [p1, p2]


class TestNodeFaces:
    def test_duplicate_name_rejected(self):
        net = Network()
        Sink(net, "x")
        with pytest.raises(ValueError):
            Sink(net, "x")

    def test_face_toward_unknown_neighbor(self):
        net, a, b, _ = make_pair()
        c = Sink(net, "c")
        with pytest.raises(ValueError):
            a.face_toward(c)

    def test_send_on_foreign_face_rejected(self):
        net, a, b, _ = make_pair()
        with pytest.raises(ValueError):
            a.send(b.face_toward(a), Packet())

    def test_face_ids_are_local_and_sequential(self):
        net = Network()
        hub = Sink(net, "hub")
        for i in range(3):
            net.connect(hub, Sink(net, f"n{i}"), 1.0)
        assert sorted(hub.faces) == [0, 1, 2]


class TestRouting:
    """Nodes forward from their own tables (``repro.sim.routing``)."""

    def make_line(self):
        net = Network()
        nodes = [Sink(net, f"n{i}") for i in range(4)]
        for i in range(3):
            net.connect(nodes[i], nodes[i + 1], float(i + 1))
        return net, nodes

    @staticmethod
    def walk(net, src, dst):
        """The faces a packet takes from ``src`` to ``dst``, each read from
        the forwarding node's own installed table."""
        table = network_next_hops(net, [dst])
        for node in net.nodes.values():
            node.add_routes(table[node.name])
        faces, node = [], net.nodes[src]
        while node.name != dst:
            face = node.routes[dst]
            faces.append(face)
            node = face.peer
        return faces

    def test_shortest_path(self):
        net, _ = self.make_line()
        assert [f.peer.name for f in self.walk(net, "n0", "n3")] == ["n1", "n2", "n3"]

    def test_path_delay(self):
        net, _ = self.make_line()
        assert sum(f.link.delay for f in self.walk(net, "n0", "n3")) == pytest.approx(6.0)

    def test_next_hop(self):
        net, nodes = self.make_line()
        nodes[0].add_routes(network_next_hops(net, ["n3"])["n0"])
        assert nodes[0].routes["n3"].peer is nodes[1]

    def test_next_hop_same_node_rejected(self):
        net, _ = self.make_line()
        assert network_next_hops(net, ["n0"])["n0"] == {}

    def test_weighted_shortest_path_prefers_low_delay(self):
        net = Network()
        a, b, c = Sink(net, "a"), Sink(net, "b"), Sink(net, "c")
        net.connect(a, c, 10.0)
        net.connect(a, b, 1.0)
        net.connect(b, c, 1.0)
        assert [f.peer.name for f in self.walk(net, "a", "c")] == ["b", "c"]

    def test_cache_invalidated_by_new_link(self):
        # Tables are built, not cached: the next build sees the new link.
        net = Network()
        a, b, c = Sink(net, "a"), Sink(net, "b"), Sink(net, "c")
        net.connect(a, b, 1.0)
        net.connect(b, c, 1.0)
        assert [f.peer.name for f in self.walk(net, "a", "c")] == ["b", "c"]
        net.connect(a, c, 0.5)
        assert [f.peer.name for f in self.walk(net, "a", "c")] == ["c"]


class TestPacketBase:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(size=-1)

    def test_uids_unique(self):
        assert Packet().uid != Packet().uid


class Recorder(Node):
    """Test node appending every arrival to one network-wide list."""

    def receive(self, packet, face):
        self.network.arrivals.append((self.name, self.sim.now, self.sim.origin, packet.uid, face.peer.name))


#: One sender's face set, in send order: (delay, link kind).  Same-time
#: runs of traced and untraced links, a zero-jitter fault hook inside a
#: 1 ms run, an egress link, a fault-hook drop and two delays.
FAN_OUT = [
    (1.0, "traced"), (1.0, "traced"), (1.0, "jitter"), (1.0, "traced"),
    (1.0, "plain"), (1.0, "plain"), (2.0, "plain"), (2.0, "plain"),
    (1.0, "egress"), (2.0, "plain"), (1.0, "drop"), (2.0, "traced"), (2.0, "traced"),
]


def _fan_out_world():
    net = Network()
    net.arrivals = []
    sender = Recorder(net, "s")
    tracer = PacketTracer()
    records = []
    egress = Egress(records.append)
    faces = []
    for i, (delay, kind) in enumerate(FAN_OUT):
        link = net.connect(sender, Recorder(net, f"p{i}"), delay)
        if kind in ("traced", "drop"):
            link.trace_hook = tracer
        if kind == "jitter":
            link.fault_hook = lambda face, packet: 0.0
        elif kind == "drop":
            link.fault_hook = lambda face, packet: None
        elif kind == "egress":
            link.sim = egress
        faces.append(sender.faces[i])
    return net, sender, faces, tracer, records


class TestSendAll:
    PACKETS = [Packet(size=100), Packet(size=7)]

    def _run(self, send):
        net, sender, faces, tracer, records = _fan_out_world()
        for at, packet in enumerate(self.PACKETS):
            net.sim.schedule_at(float(at), send, sender, faces, packet)
        net.sim.run()
        return net, {
            "counters": [(link.bytes_carried, link.packets_carried) for link in net.links],
            "rows": list(tracer.events),
            "arrivals": net.arrivals,
            "egress": records,
            "events": net.sim.events_processed,
        }

    def test_same_as_one_face_send_per_face(self):
        def one_by_one(sender, faces, packet):
            for face in faces:
                face.send(packet)

        bursts, observed = self._run(send_all)
        _, expected = self._run(one_by_one)
        assert observed == expected
        # Four runs per packet fold: two traced and then traced + plain at
        # 1 ms, plain and traced at 2 ms (a tracer does not split a run).
        assert (bursts.sim.batch_pops, bursts.sim.batch_members) == (8, 18)
        assert len(expected["rows"]) == 2 * 6 and len(expected["egress"]) == 2

    def test_a_single_face_takes_face_send(self):
        net, sender, faces, _, _ = _fan_out_world()
        send_all(sender, faces[4:5], Packet(size=1))
        net.sim.run()
        assert net.sim.batch_pops == 0 and len(net.arrivals) == 1
