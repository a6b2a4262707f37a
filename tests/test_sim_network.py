"""Tests for the node/face/link fabric."""

import pytest

from repro.packets import Packet
from repro.sim.network import Network, Node
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
