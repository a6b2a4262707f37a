"""Tests for closed-form flow accounting, including DES agreement."""

import pytest

from repro.sim.flows import FlowAccountant
from repro.sim.routing import network_links, network_next_hops, network_ranks


def install_tables(net, dst):
    table = network_next_hops(net, [dst])
    for node in net.nodes.values():
        node.add_routes(table[node.name])


def accountant(links):
    """A FlowAccountant over ``links``, nodes ranked by first appearance."""
    ranks = {}
    for a, b, _delay in links:
        ranks.setdefault(a, len(ranks))
        ranks.setdefault(b, len(ranks))
    return FlowAccountant(links, ranks)


def line_graph(n=4, weight=2.0):
    return accountant([(f"n{i}", f"n{i+1}", weight) for i in range(n - 1)])


def star_graph():
    return accountant([("hub", f"leaf{i}", 1.0) for i in range(4)])


class TestPaths:
    def test_hop_count_and_delay(self):
        flows = line_graph()
        assert flows.hop_count("n0", "n3") == 3
        assert flows.path_delay("n0", "n3") == pytest.approx(6.0)

    def test_unicast_bytes(self):
        """A unicast's load is hop count x size, and nothing to itself."""
        flows = line_graph()
        assert flows.hop_count("n0", "n3") * 100 == 300
        assert flows.hop_count("n0", "n0") == 0

    def test_weighted_path_choice(self):
        flows = accountant([("a", "c", 10.0), ("a", "b", 1.0), ("b", "c", 1.0)])
        assert flows.path("a", "c") == ("a", "b", "c")
        assert flows.path_delay("a", "c") == 2.0

    def test_equal_cost_tie_goes_to_the_lower_ranked_hop(self):
        links = [("s", "x", 1.0), ("s", "y", 1.0), ("x", "d", 1.0), ("y", "d", 1.0)]
        assert accountant(links).path("s", "d") == ("s", "x", "d")
        ranks = {"s": 0, "y": 1, "x": 2, "d": 3}
        assert FlowAccountant(links, ranks).path("s", "d") == ("s", "y", "d")


class TestMulticastTree:
    def test_star_tree_shares_nothing(self):
        flows = star_graph()
        tree = flows.multicast_tree("hub", ["leaf0", "leaf1", "leaf2"])
        assert len(tree) == 3

    def test_line_tree_shares_prefix(self):
        flows = line_graph()
        tree = flows.multicast_tree("n0", ["n2", "n3"])
        # Path to n3 contains path to n2: union is just 3 edges.
        assert len(tree) == 3

    def test_root_only_receiver_excluded(self):
        flows = line_graph()
        assert flows.multicast_tree("n0", ["n0"]) == frozenset()

    def test_multicast_bytes(self):
        """A multicast's load is tree edges x size."""
        flows = line_graph()
        assert len(flows.multicast_tree("n0", ["n2", "n3"])) * 10 == 30

    def test_multicast_cheaper_than_unicast_fanout(self):
        flows = line_graph(6)
        receivers = [f"n{i}" for i in range(1, 6)]
        unicast = sum(flows.hop_count("n0", r) * 100 for r in receivers)
        multicast = len(flows.multicast_tree("n0", receivers)) * 100
        assert multicast < unicast

    def test_tree_cached(self):
        flows = line_graph()
        t1 = flows.multicast_tree("n0", ["n3", "n2"])
        t2 = flows.multicast_tree("n0", ["n2", "n3"])
        assert t1 is t2  # frozenset receiver key

    def test_multicast_delay_per_receiver(self):
        """Root-to-receiver delay over the tree is the unicast path delay."""
        flows = line_graph()
        assert flows.path_delay("n0", "n1") == pytest.approx(2.0)
        assert flows.path_delay("n0", "n3") == pytest.approx(6.0)

    def test_tree_is_the_union_of_receiver_routes_toward_the_root(self):
        # Two equal-cost ways between r and x, split at both ends by rank:
        # r's route toward x takes a1, x's route toward r takes b2.  The
        # tree is x's route, as a Subscribe from x would walk it.
        links = [
            ("r", "a1", 1.0), ("a1", "a2", 1.0), ("a2", "x", 1.0),
            ("r", "b1", 1.0), ("b1", "b2", 1.0), ("b2", "x", 1.0),
        ]
        ranks = {"r": 0, "a1": 1, "b2": 2, "b1": 3, "a2": 4, "x": 5}
        flows = FlowAccountant(links, ranks)
        assert flows.path("r", "x") == ("r", "a1", "a2", "x")
        assert flows.path("x", "r") == ("x", "b2", "b1", "r")
        assert flows.multicast_tree("r", ["x"]) == frozenset(
            {("b1", "r"), ("b1", "b2"), ("b2", "x")}
        )


class TestDesAgreement:
    def test_flow_load_matches_des_unicast(self):
        """The DES fabric and the flow accountant must agree on bytes
        carried for the same route."""
        from repro.packets import Packet
        from repro.sim.network import Network, Node

        class Forwarder(Node):
            def receive(self, packet, face):
                if packet.dst == self.name:  # type: ignore[attr-defined]
                    return
                self.send(self.routes[packet.dst], packet)  # type: ignore[attr-defined]

        class Dgram(Packet):
            def __init__(self, size, dst):
                super().__init__(size=size)
                self.dst = dst

        net = Network()
        nodes = [Forwarder(net, f"n{i}") for i in range(4)]
        for i in range(3):
            net.connect(nodes[i], nodes[i + 1], 2.0)
        install_tables(net, "n3")

        packet = Dgram(123, "n3")
        nodes[0].receive(packet, None)  # type: ignore[arg-type]
        net.sim.run()

        flows = FlowAccountant(network_links(net), network_ranks(net))
        assert net.total_bytes == flows.hop_count("n0", "n3") * 123

    def test_flow_delay_matches_des_delivery_time(self):
        from repro.packets import Packet
        from repro.sim.network import Network, Node

        arrivals = {}

        class Forwarder(Node):
            def receive(self, packet, face):
                if packet.dst == self.name:  # type: ignore[attr-defined]
                    arrivals[self.name] = self.sim.now
                    return
                self.send(self.routes[packet.dst], packet)  # type: ignore[attr-defined]

        class Dgram(Packet):
            def __init__(self, dst):
                super().__init__(size=1)
                self.dst = dst

        net = Network()
        nodes = [Forwarder(net, f"n{i}") for i in range(4)]
        for i in range(3):
            net.connect(nodes[i], nodes[i + 1], 1.5)
        install_tables(net, "n3")
        nodes[0].receive(Dgram("n3"), None)  # type: ignore[arg-type]
        net.sim.run()

        flows = FlowAccountant(network_links(net), network_ranks(net))
        assert arrivals["n3"] == pytest.approx(flows.path_delay("n0", "n3"))
