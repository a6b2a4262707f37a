"""Edge-case tests for the G-COPSS router engine."""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RpTable,
)
from repro.core.packets import MulticastPacket
from repro.core.planes import rp_target_of
from repro.names import Name
from repro.ndn.packets import Interest
from repro.sim.network import Network


def build_pair():
    net = Network()
    r1 = GCopssRouter(net, "R1")
    r2 = GCopssRouter(net, "R2")
    net.connect(r1, r2, 1.0)
    pub = GCopssHost(net, "pub")
    sub = GCopssHost(net, "sub")
    net.connect(pub, r1, 0.5)
    net.connect(sub, r2, 0.5)
    return net, r1, r2, pub, sub


class TestServiceCost:
    def test_rp_tunnel_charged_rp_service(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "R2")
        GCopssNetworkBuilder(net, table).install()
        sub.subscribe(["/1"])
        net.sim.run()
        pub.publish("/1/x", payload_size=10)
        net.sim.run()
        # R2 decapsulated once at rp_service_time; R1 only forwarded.
        assert r2.queue.total_service_time >= r2.rp_service_time
        assert r1.queue.total_service_time < r1.rp_service_time

    def test_first_hop_rp_charged_rp_service(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "R1")  # publisher's access router is the RP
        GCopssNetworkBuilder(net, table).install()
        net.sim.run()
        pub.publish("/1/x", payload_size=10)
        net.sim.run()
        assert r1.decapsulations == 1
        assert r1.queue.total_service_time >= r1.rp_service_time

    def test_root_prefix_rp_charged(self):
        # Regression: Name('/') is falsy; the serving-prefix check must
        # use an identity test, not truthiness.
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/", "R2")
        GCopssNetworkBuilder(net, table).install()
        net.sim.run()
        pub.publish("/anything", payload_size=10)
        net.sim.run()
        assert r2.queue.total_service_time >= r2.rp_service_time


class TestMalformedAndStray:
    def test_rp_target_of_rejects_bad_names(self):
        with pytest.raises(ValueError):
            rp_target_of(Interest(name="/nope"))
        with pytest.raises(ValueError):
            rp_target_of(Interest(name="/rp"))

    def test_unroutable_multicast_counted(self):
        net, r1, r2, pub, sub = build_pair()
        # No RP table installed at all: the publish has nowhere to go.
        pub.publish("/1/x", payload_size=10)
        net.sim.run()
        assert r1.stats.multicast_dropped_no_rp == 1

    def test_tunnel_toward_unrouted_rp_is_a_counted_drop(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "R2")
        GCopssNetworkBuilder(net, table).install()
        reasons = []

        class DropReasons:
            def on_drop(self, node, packet, reason):
                reasons.append(reason)

            def __getattr__(self, name):
                return lambda *args: None

        r1.trace_hook = DropReasons()
        mcast = MulticastPacket(cd="/1/x", payload_size=10)
        r1.receive(Interest(name="/rp/ghost", payload=mcast), pub.access_face.peer_face)
        net.sim.run()
        assert r1.stats.multicast_dropped_no_rp == 1
        assert reasons == ["no_route_to_rp"]

    def test_unknown_packet_type_raises(self):
        from repro.packets import Packet

        net, r1, r2, pub, sub = build_pair()
        with pytest.raises(TypeError):
            r1.dispatcher.dispatch(Packet(size=1), next(iter(r1.faces.values())))

    def test_host_ignores_stray_interest_without_handler(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "R2")
        GCopssNetworkBuilder(net, table).install()
        # An Interest routed at a host with no producer registered is
        # silently unanswered (NDN semantics), not an error.
        face = sub.access_face
        sub.receive(Interest(name="/no/such/thing"), face)


class TestBuilderValidation:
    def test_rp_must_be_router(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "pub")  # a host cannot be an RP
        with pytest.raises(ValueError):
            GCopssNetworkBuilder(net, table).install()

    def test_rp_must_exist(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "ghost")
        with pytest.raises(ValueError):
            GCopssNetworkBuilder(net, table).install()

    def test_reinstall_is_idempotent(self):
        net, r1, r2, pub, sub = build_pair()
        table = RpTable()
        table.assign("/1", "R2")
        builder = GCopssNetworkBuilder(net, table)
        builder.install()
        builder.install()
        assert r1.cd_routes.lookup("/1/x") == {"R2"}


class TestHostDedupHorizon:
    def test_dedup_window_slides(self):
        net, r1, r2, pub, sub = build_pair()
        sub._seen.horizon = 4
        packets = [MulticastPacket(cd="/1", payload_size=1) for _ in range(6)]
        for packet in packets:
            sub.receive(packet, sub.access_face)
        assert sub.stats.updates_received == 6
        # The oldest uids fell out of the window; replaying the first
        # packet counts as new (bounded memory beats perfect dedup).
        sub.receive(packets[0], sub.access_face)
        assert sub.stats.updates_received == 7
        # A recent uid is still suppressed.
        sub.receive(packets[-1], sub.access_face)
        assert sub.stats.duplicates_suppressed == 1
