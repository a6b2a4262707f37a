"""Integration tests for the G-COPSS router engine (paper §III)."""

import pytest

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, MapHierarchy, RpTable
from repro.core.packets import MulticastPacket
from repro.names import Name, ROOT
from repro.ndn import Data
from repro.sim.network import Network


def build_line(rp_name="R2", rp_prefix="/"):
    """alice -- R1 -- R2 -- R3 -- bob/carol, RP at R2 by default."""
    net = Network()
    routers = {name: GCopssRouter(net, name) for name in ("R1", "R2", "R3")}
    net.connect(routers["R1"], routers["R2"], 2.0)
    net.connect(routers["R2"], routers["R3"], 2.0)
    alice = GCopssHost(net, "alice")
    bob = GCopssHost(net, "bob")
    carol = GCopssHost(net, "carol")
    net.connect(alice, routers["R1"], 1.0)
    net.connect(bob, routers["R3"], 1.0)
    net.connect(carol, routers["R3"], 1.0)
    table = RpTable()
    table.assign(rp_prefix, rp_name)
    GCopssNetworkBuilder(net, table).install()
    return net, routers, alice, bob, carol


def deliveries(host):
    got = []
    host.on_update.append(lambda h, p: got.append((str(p.cd), h.sim.now - p.created_at)))
    return got


class TestPubSub:
    def test_subscriber_receives_matching_publication(self):
        net, routers, alice, bob, _ = build_line()
        got = deliveries(bob)
        bob.subscribe(["/1/2"])
        net.sim.run()
        alice.publish("/1/2", payload_size=100)
        net.sim.run()
        assert [cd for cd, _ in got] == ["/1/2"]

    def test_non_matching_publication_not_delivered(self):
        net, routers, alice, bob, _ = build_line()
        got = deliveries(bob)
        bob.subscribe(["/1/2"])
        net.sim.run()
        alice.publish("/3/4", payload_size=100)
        net.sim.run()
        assert got == []

    def test_hierarchical_delivery(self):
        # Subscriber of /1 receives /1/2 publications (paper §III-B).
        net, routers, alice, bob, _ = build_line()
        got = deliveries(bob)
        bob.subscribe(["/1"])
        net.sim.run()
        alice.publish("/1/2", payload_size=50)
        alice.publish("/1", payload_size=50)
        alice.publish("/2", payload_size=50)
        net.sim.run()
        assert [cd for cd, _ in got] == ["/1/2", "/1"]

    def test_publisher_does_not_need_subscription(self):
        net, routers, alice, bob, _ = build_line()
        got = deliveries(bob)
        bob.subscribe(["/x"])
        net.sim.run()
        assert alice.subscriptions == set()
        alice.publish("/x", payload_size=10)
        net.sim.run()
        assert len(got) == 1

    def test_multiple_subscribers_one_packet_per_shared_link(self):
        net, routers, alice, bob, carol = build_line()
        bob.subscribe(["/a"])
        carol.subscribe(["/a"])
        net.sim.run()
        net.reset_counters()
        alice.publish("/a", payload_size=100)
        net.sim.run()
        assert bob.stats.updates_received == 1
        assert carol.stats.updates_received == 1
        # Replication happens at R3, not at the RP: the R2-R3 link carried
        # exactly one copy of the multicast.
        link_r2_r3 = next(
            l for l in net.links if {"R2", "R3"} == {e[0].name for e in l._ends}
        )
        assert link_r2_r3.packets_carried == 1

    def test_rp_decapsulation_counted_and_charged(self):
        net, routers, alice, bob, _ = build_line()
        bob.subscribe(["/z"])
        net.sim.run()
        alice.publish("/z", payload_size=10)
        net.sim.run()
        rp = routers["R2"]
        assert rp.decapsulations == 1
        assert rp.queue.total_service_time >= rp.rp_service_time

    def test_unsubscribe_stops_delivery(self):
        net, routers, alice, bob, _ = build_line()
        got = deliveries(bob)
        bob.subscribe(["/a"])
        net.sim.run()
        bob.unsubscribe(["/a"])
        net.sim.run()
        alice.publish("/a", payload_size=10)
        net.sim.run()
        assert got == []

    def test_unsubscribe_prunes_tree_state(self):
        net, routers, alice, bob, _ = build_line()
        bob.subscribe(["/a"])
        net.sim.run()
        bob.unsubscribe(["/a"])
        net.sim.run()
        for router in routers.values():
            assert router.st.all_cds() == set()

    def test_set_subscriptions_diff(self):
        net, routers, alice, bob, _ = build_line()
        bob.subscribe(["/a", "/b"])
        net.sim.run()
        bob.set_subscriptions(["/b", "/c"])
        net.sim.run()
        got = deliveries(bob)
        for cd in ("/a", "/b", "/c"):
            alice.publish(cd, payload_size=10)
        net.sim.run()
        assert sorted(cd for cd, _ in got) == ["/b", "/c"]

    def test_publication_with_no_subscribers_stops_at_rp(self):
        net, routers, alice, bob, _ = build_line()
        net.sim.run()
        alice.publish("/lonely", payload_size=10)
        net.sim.run()
        assert routers["R2"].decapsulations == 1
        assert routers["R2"].multicasts_forwarded == 0


class TestRpPlacementVariants:
    def test_rp_at_publisher_access_router(self):
        net, routers, alice, bob, _ = build_line(rp_name="R1")
        got = deliveries(bob)
        bob.subscribe(["/a"])
        net.sim.run()
        alice.publish("/a", payload_size=10)
        net.sim.run()
        assert len(got) == 1
        assert routers["R1"].decapsulations == 1

    def test_multiple_rps_prefix_partition(self):
        net = Network()
        routers = {name: GCopssRouter(net, name) for name in ("R1", "R2", "R3")}
        net.connect(routers["R1"], routers["R2"], 2.0)
        net.connect(routers["R2"], routers["R3"], 2.0)
        alice = GCopssHost(net, "alice")
        bob = GCopssHost(net, "bob")
        net.connect(alice, routers["R1"], 1.0)
        net.connect(bob, routers["R3"], 1.0)
        table = RpTable()
        table.assign("/1", "R1")
        table.assign("/2", "R3")
        GCopssNetworkBuilder(net, table).install()
        got = deliveries(bob)
        bob.subscribe(["/1", "/2"])
        net.sim.run()
        alice.publish("/1/1", payload_size=10)
        alice.publish("/2/2", payload_size=10)
        net.sim.run()
        assert sorted(cd for cd, _ in got) == ["/1/1", "/2/2"]
        assert routers["R1"].decapsulations == 1
        assert routers["R3"].decapsulations == 1

    def test_aggregate_subscription_spans_rps(self):
        """Subscribing to / must join the trees of every RP (paper: the
        subscriber of /1 subscribes at the RPs of /1/1, /1/2, ...)."""
        net = Network()
        routers = {name: GCopssRouter(net, name) for name in ("R1", "R2", "R3")}
        net.connect(routers["R1"], routers["R2"], 2.0)
        net.connect(routers["R2"], routers["R3"], 2.0)
        alice = GCopssHost(net, "alice")
        bob = GCopssHost(net, "bob")
        net.connect(alice, routers["R1"], 1.0)
        net.connect(bob, routers["R3"], 1.0)
        table = RpTable()
        table.assign("/1", "R1")
        table.assign("/2", "R2")
        GCopssNetworkBuilder(net, table).install()
        got = deliveries(bob)
        bob.subscribe(["/"])  # aggregate above every served prefix
        net.sim.run()
        alice.publish("/1/9", payload_size=10)
        alice.publish("/2/9", payload_size=10)
        net.sim.run()
        assert sorted(cd for cd, _ in got) == ["/1/9", "/2/9"]


class TestNdnCoexistence:
    def test_query_response_still_works_through_gcopss_routers(self):
        """Fig. 2: NDN Interests/Data pass through untouched."""
        net, routers, alice, bob, _ = build_line()
        bob.serve("/files", lambda i: Data(name=i.name, payload_size=33, content="doc"))
        from repro.ndn.engine import install_routes

        install_routes(net, "/files", bob)
        got = []
        alice.express_interest("/files/readme", lambda d: got.append(d.content))
        net.sim.run()
        assert got == ["doc"]

    def test_pubsub_and_queryresponse_interleaved(self):
        net, routers, alice, bob, _ = build_line()
        from repro.ndn.engine import install_routes

        bob.serve("/files", lambda i: Data(name=i.name, payload_size=10))
        install_routes(net, "/files", bob)
        got = deliveries(bob)
        bob.subscribe(["/game"])
        net.sim.run()
        fetched = []
        alice.publish("/game", payload_size=10)
        alice.express_interest("/files/x", lambda d: fetched.append(d))
        net.sim.run()
        assert len(got) == 1
        assert len(fetched) == 1


class TestHostBehaviour:
    def test_duplicate_suppression(self):
        net, routers, alice, bob, _ = build_line()
        bob.subscribe(["/a"])
        net.sim.run()
        packet = MulticastPacket(cd=Name.parse("/a"), payload_size=5, publisher="x")
        bob.receive(packet, bob.access_face)
        bob.receive(packet, bob.access_face)
        assert bob.stats.updates_received == 1
        assert bob.stats.duplicates_suppressed == 1

    def test_subscribe_idempotent_on_wire(self):
        net, routers, alice, bob, _ = build_line()
        bob.subscribe(["/a"])
        bob.subscribe(["/a"])
        net.sim.run()
        r3 = routers["R3"]
        bob_face = next(iter(r3.st.faces()))
        assert len(r3.st.cds_on(bob_face)) == 1
