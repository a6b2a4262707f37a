"""Tests for the IP client/server and NDN gaming baselines."""

import pytest

from repro.baselines import (
    DatagramPacket,
    GameServerNode,
    IpClientNode,
    IpRouter,
    NdnGamePlayer,
)
from repro.baselines.ip_server import install_ip_routes
from repro.names import Name
from repro.ndn.engine import NdnRouter, install_routes
from repro.sim.network import Network


def build_ip_world():
    """client0/client1 -- R1 -- R2 -- server."""
    net = Network()
    r1 = IpRouter(net, "R1")
    r2 = IpRouter(net, "R2")
    net.connect(r1, r2, 1.0)
    server = GameServerNode(net, "server")
    net.connect(server, r2, 0.5)
    clients = []
    for i in range(3):
        client = IpClientNode(net, f"client{i}")
        client.server_for_cd = lambda cd: "server"
        net.connect(client, r1, 0.5)
        clients.append(client)
    install_ip_routes(net)
    return net, server, clients


class TestIpServer:
    def test_server_fans_out_to_subscribers(self):
        net, server, clients = build_ip_world()
        server.set_subscribers("/1/1", ["client0", "client1", "client2"])
        clients[0].publish("/1/1", payload_size=100, sequence=7)
        net.sim.run()
        # Publisher excluded; the other two receive.
        assert clients[0].stats.updates_received == 0
        assert clients[1].stats.updates_received == 1
        assert clients[2].stats.updates_received == 1
        assert server.stats.fanout_sent == 2

    def test_non_subscribers_not_contacted(self):
        net, server, clients = build_ip_world()
        server.set_subscribers("/1/1", ["client1"])
        clients[0].publish("/1/1", payload_size=10)
        net.sim.run()
        assert clients[2].stats.updates_received == 0

    def test_service_time_scales_with_recipients(self):
        net, server, clients = build_ip_world()
        server.per_recipient_ms = 1.0
        server.base_service_ms = 1.0
        server.set_subscribers("/big", [f"client{i}" for i in range(3)])
        server.set_subscribers("/small", ["client1"])
        t_big = []
        t_small = []
        clients[1].on_update.append(
            lambda c, p: (t_big if str(p.cd) == "/big" else t_small).append(c.sim.now)
        )
        clients[0].publish("/small", payload_size=10)
        net.sim.run()
        small_done = net.sim.now
        clients[0].publish("/big", payload_size=10)
        net.sim.run()
        # /big fan-out is 2 recipients: service 1+2*1=3 vs /small 1+0... the
        # publisher is excluded so /small has 1 recipient.
        assert server.queue.total_service_time == pytest.approx((1 + 1) + (1 + 2))

    def test_unicast_load_grows_with_recipients(self):
        net, server, clients = build_ip_world()
        server.set_subscribers("/1", ["client1", "client2"])
        clients[0].publish("/1", payload_size=100)
        net.sim.run()
        many = net.total_bytes
        net.reset_counters()
        server.set_subscribers("/1", ["client1"])
        clients[0].publish("/1", payload_size=100)
        net.sim.run()
        assert net.total_bytes < many

    def test_datagram_needs_destination(self):
        with pytest.raises(ValueError):
            DatagramPacket(src="a", dst="", payload_size=1)

    def test_client_without_server_mapping(self):
        net = Network()
        r = IpRouter(net, "R")
        client = IpClientNode(net, "c")
        net.connect(client, r, 0.5)
        with pytest.raises(RuntimeError):
            client.publish("/1", payload_size=1)

    def test_router_drops_unroutable(self):
        net, server, clients = build_ip_world()
        clients[0].server_for_cd = lambda cd: "ghost"
        clients[0].publish("/1", payload_size=1)
        net.sim.run()
        routers = [n for n in net.nodes.values() if isinstance(n, IpRouter)]
        assert sum(r.stats.dropped_no_route for r in routers) == 1

    def test_latency_includes_server_queueing(self):
        net, server, clients = build_ip_world()
        server.base_service_ms = 5.0
        server.per_recipient_ms = 0.0
        server.set_subscribers("/1", ["client1"])
        arrivals = []
        clients[1].on_update.append(lambda c, p: arrivals.append(c.sim.now - p.created_at))
        for _ in range(3):
            clients[0].publish("/1", payload_size=10)
        net.sim.run()
        # Three updates serialized at the server: ~5, ~10, ~15 ms + wire.
        assert arrivals[1] - arrivals[0] == pytest.approx(5.0, abs=0.5)
        assert arrivals[2] - arrivals[1] == pytest.approx(5.0, abs=0.5)


def build_ndn_world(num_players=3, accumulation=20.0):
    net = Network()
    r1 = NdnRouter(net, "R1")
    r2 = NdnRouter(net, "R2")
    net.connect(r1, r2, 1.0)
    players = []
    for i in range(num_players):
        player = NdnGamePlayer(
            net, f"p{i}", accumulation_ms=accumulation, pipeline_window=3,
            interest_lifetime_ms=500.0,
        )
        net.connect(player, r1 if i % 2 == 0 else r2, 0.5)
        players.append(player)
        install_routes(net, NdnGamePlayer.stream_prefix(player.name), player)
    return net, players


class TestNdnGame:
    def test_update_batches_delivered(self):
        net, players = build_ndn_world()
        got = []
        players[1].on_batch.append(
            lambda host, publisher, times, count: got.append((publisher, count))
        )
        players[1].watch("p0")
        net.sim.run(until=10.0)
        players[0].local_update(50)
        players[0].local_update(60)
        net.sim.run(until=200.0)
        assert got == [("p0", 2)]

    def test_accumulation_batches_within_interval(self):
        net, players = build_ndn_world(accumulation=50.0)
        got = []
        players[1].on_batch.append(lambda h, p, times, count: got.append(count))
        players[1].watch("p0")
        net.sim.run(until=10.0)
        for _ in range(5):
            players[0].local_update(10)
        net.sim.run(until=300.0)
        assert got == [5]
        assert players[0].versions_published == 1

    def test_per_update_latency_at_least_accumulation_lag(self):
        net, players = build_ndn_world(accumulation=40.0)
        latencies = []
        players[1].on_batch.append(
            lambda h, p, times, count: latencies.extend(h.sim.now - t for t in times)
        )
        players[1].watch("p0")
        net.sim.run(until=10.0)
        players[0].local_update(10)
        net.sim.run(until=300.0)
        assert latencies and latencies[0] >= 40.0

    def test_pipeline_window_respected(self):
        net, players = build_ndn_world()
        players[1].watch("p0")
        assert len(players[1]._watch_outstanding["p0"]) == 3

    def test_refresh_after_timeout_still_delivers(self):
        net, players = build_ndn_world()
        got = []
        players[1].on_batch.append(lambda h, p, times, count: got.append(count))
        players[1].watch("p0")
        # Let the initial interests expire (lifetime 500) before publishing.
        net.sim.run(until=1500.0)
        players[0].local_update(10)
        net.sim.run(until=3000.0)
        assert got == [1]

    def test_watch_self_ignored(self):
        net, players = build_ndn_world()
        players[0].watch("p0")
        assert players[0]._watch_next_seq == {}

    def test_sequence_progression(self):
        net, players = build_ndn_world(accumulation=10.0)
        counts = []
        players[1].on_batch.append(lambda h, p, times, count: counts.append(count))
        players[1].watch("p0")
        net.sim.run(until=5.0)
        players[0].local_update(10)
        net.sim.run(until=100.0)
        players[0].local_update(10)
        net.sim.run(until=400.0)
        assert counts == [1, 1]
        assert players[0].versions_published == 2

    def test_query_volume_scales_with_watchers(self):
        """The VoCCN architecture's cost driver (paper §V-A): every
        watcher keeps its own interest pipeline."""
        net, players = build_ndn_world(num_players=3)
        for watcher in players[1:]:
            watcher.watch("p0")
        net.sim.run(until=50.0)
        baseline = players[1].stats.interests_sent + players[2].stats.interests_sent
        assert baseline >= 2 * 3  # two watchers x window
