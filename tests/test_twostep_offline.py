"""Tests for the two-step dissemination mode and offline-player support."""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RpTable,
)
from repro.core.offline import MAX_BUFFERED, OfflineGuardian, ReconnectFetcher
from repro.core.twostep import TwoStepPublisher, TwoStepSubscriber, content_name
from repro.names import Name
from repro.ndn.engine import install_routes
from repro.sim.network import Network


def build_line():
    net = Network()
    r1, r2, r3 = (GCopssRouter(net, n) for n in ("R1", "R2", "R3"))
    net.connect(r1, r2, 2.0)
    net.connect(r2, r3, 2.0)
    alice = GCopssHost(net, "alice")
    bob = GCopssHost(net, "bob")
    carol = GCopssHost(net, "carol")
    net.connect(alice, r1, 1.0)
    net.connect(bob, r3, 1.0)
    net.connect(carol, r3, 1.0)
    table = RpTable()
    table.assign("/1", "R2")
    table.assign("/2", "R2")
    table.assign("/0", "R2")
    GCopssNetworkBuilder(net, table).install()
    return net, (r1, r2, r3), alice, bob, carol


class TestTwoStep:
    def test_snippet_then_pull(self):
        net, routers, alice, bob, carol = build_line()
        publisher = TwoStepPublisher(alice)
        install_routes(net, Name(["content", "alice"]), alice)
        got = []
        TwoStepSubscriber(bob, on_content=lambda h, cd, cid, lat: got.append((str(cd), lat)))
        bob.subscribe(["/1"])
        net.sim.run()
        publisher.publish("/1/2", payload_size=5000)
        net.sim.run()
        assert len(got) == 1
        assert got[0][0] == "/1/2"
        assert publisher.payloads_served >= 1

    def test_two_step_latency_exceeds_one_step(self):
        """The pull round trip adds latency — why G-COPSS uses one-step
        for small gaming packets."""
        net, routers, alice, bob, carol = build_line()
        publisher = TwoStepPublisher(alice)
        install_routes(net, Name(["content", "alice"]), alice)
        one_step_lat = []
        two_step_lat = []
        bob.on_update.append(
            lambda h, p: one_step_lat.append(h.sim.now - p.created_at)
            if p.object_id < 0
            else None
        )
        TwoStepSubscriber(bob, on_content=lambda h, cd, cid, lat: two_step_lat.append(lat))
        bob.subscribe(["/1"])
        net.sim.run()
        bob.publish("/0", 0)  # warm nothing; keep hosts symmetrical
        alice.publish("/1/9", payload_size=100)  # plain one-step update
        publisher.publish("/1/9", payload_size=100)  # two-step announce
        net.sim.run()
        assert one_step_lat and two_step_lat
        assert two_step_lat[0] > one_step_lat[0]

    def test_content_store_absorbs_second_subscriber(self):
        net, routers, alice, bob, carol = build_line()
        publisher = TwoStepPublisher(alice)
        install_routes(net, Name(["content", "alice"]), alice)
        for host in (bob, carol):
            TwoStepSubscriber(host)
            host.subscribe(["/1"])
        net.sim.run()
        publisher.publish("/1/1", payload_size=8000)
        net.sim.run()
        # Two subscribers, but PIT aggregation + CS mean the publisher
        # served the payload only once.
        assert publisher.payloads_served == 1

    def test_unknown_content_silent(self):
        net, routers, alice, bob, carol = build_line()
        TwoStepPublisher(alice)
        install_routes(net, Name(["content", "alice"]), alice)
        got = []
        bob.express_interest(
            content_name("alice", 424242),
            on_data=got.append,
            lifetime=50.0,
            on_timeout=lambda n: got.append("timeout"),
        )
        net.sim.run()
        assert got == ["timeout"]

    def test_negative_payload_rejected(self):
        net, routers, alice, bob, carol = build_line()
        publisher = TwoStepPublisher(alice)
        with pytest.raises(ValueError):
            publisher.publish("/1", payload_size=-1)


class TestOfflineGuardian:
    def build(self):
        net, routers, alice, bob, carol = build_line()
        guardian = OfflineGuardian(net, "guardian")
        net.connect(guardian, routers[0], 1.0)
        install_routes(net, Name(["offline"]), guardian)
        return net, alice, bob, guardian

    def test_guardian_buffers_for_offline_player(self):
        net, alice, bob, guardian = self.build()
        guardian.register("bob", ["/1/2", "/0"])
        net.sim.run()
        alice.publish("/1/2", payload_size=100, sequence=1)
        alice.publish("/2/9", payload_size=100, sequence=2)  # not guarded
        net.sim.run()
        backlog = guardian.backlog_of("bob")
        assert [str(u.cd) for u in backlog] == ["/1/2"]

    def test_reconnect_replays_in_order(self):
        net, alice, bob, guardian = self.build()
        guardian.register("bob", ["/1"])
        net.sim.run()
        for i in range(80):  # multiple replay batches
            alice.publish("/1/2", payload_size=50, sequence=i)
        net.sim.run()
        done = []
        ReconnectFetcher(bob, "bob", on_complete=done.append)
        net.sim.run()
        fetcher = done[0]
        assert not fetcher.failed
        assert len(fetcher.updates) == 80
        times = [u.published_at for u in fetcher.updates]
        assert times == sorted(times)
        assert not fetcher.partial
        assert fetcher.catch_up_time > 0

    def test_bounded_buffer_marks_partial(self):
        net, alice, bob, guardian = self.build()
        guardian.register("bob", ["/1"])
        net.sim.run()
        for i in range(MAX_BUFFERED + 15):
            alice.publish("/1/1", payload_size=10, sequence=i)
        net.sim.run()
        assert len(guardian.backlog_of("bob")) == MAX_BUFFERED
        assert guardian.dropped["bob"] == 15
        done = []
        ReconnectFetcher(bob, "bob", on_complete=done.append)
        net.sim.run()
        assert done[0].partial

    def test_release_stops_buffering(self):
        net, alice, bob, guardian = self.build()
        guardian.register("bob", ["/1"])
        net.sim.run()
        guardian.release("bob")
        net.sim.run()
        alice.publish("/1/1", payload_size=10)
        net.sim.run()
        assert guardian.backlog_of("bob") == []
        assert "bob" not in guardian._watched

    def test_guarding_multiple_players(self):
        net, alice, bob, guardian = self.build()
        guardian.register("bob", ["/1"])
        guardian.register("carol", ["/2"])
        net.sim.run()
        alice.publish("/1/1", payload_size=10)
        alice.publish("/2/2", payload_size=10)
        net.sim.run()
        assert [str(u.cd) for u in guardian.backlog_of("bob")] == ["/1/1"]
        assert [str(u.cd) for u in guardian.backlog_of("carol")] == ["/2/2"]

    def test_register_requires_cds(self):
        net, alice, bob, guardian = self.build()
        with pytest.raises(ValueError):
            guardian.register("bob", [])

    def test_fetch_unknown_player_fails(self):
        net, alice, bob, guardian = self.build()
        done = []
        ReconnectFetcher(bob, "ghost", on_complete=done.append, interest_lifetime_ms=50.0)
        net.sim.run()
        assert done[0].failed
