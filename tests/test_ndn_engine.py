"""End-to-end tests for the NDN forwarding engine."""

import pytest

from repro.ndn import Data, Interest, NdnHost, NdnRouter, install_routes
from repro.sim.network import Network


def build_line(num_routers=2):
    """consumer -- R0 -- R1 ... -- producer."""
    net = Network()
    routers = [NdnRouter(net, f"R{i}") for i in range(num_routers)]
    consumer = NdnHost(net, "consumer")
    producer = NdnHost(net, "producer")
    net.connect(consumer, routers[0], 1.0)
    for a, b in zip(routers, routers[1:]):
        net.connect(a, b, 1.0)
    net.connect(routers[-1], producer, 1.0)
    return net, routers, consumer, producer


class TestQueryResponse:
    def test_basic_fetch(self):
        net, routers, consumer, producer = build_line()
        producer.serve("/game", lambda i: Data(name=i.name, payload_size=50, content="v1"))
        install_routes(net, "/game", producer)
        got = []
        consumer.express_interest("/game/x", lambda d: got.append(d.content))
        net.sim.run()
        assert got == ["v1"]

    def test_content_store_serves_second_fetch(self):
        net, routers, consumer, producer = build_line()
        producer.serve("/game", lambda i: Data(name=i.name, payload_size=50))
        install_routes(net, "/game", producer)
        consumer.express_interest("/game/x", lambda d: None)
        net.sim.run()
        first_producer_hits = producer.stats.packets_received
        consumer.express_interest("/game/x", lambda d: None)
        net.sim.run()
        assert producer.stats.packets_received == first_producer_hits  # cache hit upstream
        assert routers[0].cs.hits >= 1

    def test_no_route_drops_interest(self):
        net, routers, consumer, producer = build_line()
        got = []
        consumer.express_interest("/nowhere", got.append, on_timeout=lambda n: got.append("timeout"))
        net.sim.run()
        assert got == ["timeout"]
        assert routers[0].stats.interests_dropped_no_route == 1

    def test_producer_silence_yields_timeout(self):
        net, routers, consumer, producer = build_line()
        producer.serve("/game", lambda i: None)
        install_routes(net, "/game", producer)
        events = []
        consumer.express_interest(
            "/game/x", events.append, lifetime=100.0, on_timeout=lambda n: events.append("timeout")
        )
        net.sim.run()
        assert events == ["timeout"]
        assert consumer.stats.timeouts_fired == 1

    def test_data_after_timeout_is_ignored_by_consumer(self):
        net, routers, consumer, producer = build_line()
        waiting = []
        producer.serve("/game", lambda i: waiting.append(i) or None)
        install_routes(net, "/game", producer)
        got = []
        consumer.express_interest("/game/x", got.append, lifetime=10.0, on_timeout=lambda n: None)
        net.sim.run()
        # Producer answers way too late: PIT entries are gone.
        data = Data(name="/game/x", payload_size=5)
        producer.send(producer.access_face, data)
        net.sim.run()
        assert got == []


class TestAggregation:
    def test_interest_aggregation_multiple_consumers(self):
        net = Network()
        router = NdnRouter(net, "R0")
        producer = NdnHost(net, "producer")
        consumers = [NdnHost(net, f"c{i}") for i in range(3)]
        net.connect(router, producer, 1.0)
        for c in consumers:
            net.connect(c, router, 1.0)
        install_routes(net, "/game", producer)

        calls = []
        producer.serve("/game", lambda i: calls.append(i) or Data(name=i.name, payload_size=5))
        got = []
        for c in consumers:
            c.express_interest("/game/x", lambda d, name=c.name: got.append(name))
        net.sim.run()
        assert sorted(got) == ["c0", "c1", "c2"]
        # Aggregation: producer saw one interest, router aggregated the rest.
        assert len(calls) == 1
        assert router.pit.aggregated == 2

    def test_unsolicited_data_dropped(self):
        net, routers, consumer, producer = build_line()
        producer.send(producer.access_face, Data(name="/spam", payload_size=5))
        net.sim.run()
        assert routers[-1].stats.data_dropped_unsolicited == 1


class TestProcessingModel:
    def test_router_service_time_adds_latency(self):
        slow_net, _, slow_consumer, slow_producer = build_line()
        for node in slow_net.nodes.values():
            if isinstance(node, NdnRouter):
                node.service_time = 5.0
        slow_producer.serve("/g", lambda i: Data(name=i.name, payload_size=1))
        install_routes(slow_net, "/g", slow_producer)
        times = []
        slow_consumer.express_interest("/g/x", lambda d: times.append(slow_net.sim.now))
        slow_net.sim.run()
        # 3 links each way (1ms) + 2 routers x 5ms each way = 26.
        assert times[0] == pytest.approx(26.0)

    def test_queueing_under_burst(self):
        net, routers, consumer, producer = build_line(num_routers=1)
        routers[0].service_time = 1.0
        producer.serve("/g", lambda i: Data(name=i.name, payload_size=1))
        install_routes(net, "/g", producer)
        done = []
        for i in range(10):
            consumer.express_interest(f"/g/{i}", lambda d: done.append(net.sim.now))
        net.sim.run()
        assert len(done) == 10
        # Interests serialized at the router: completions are spread out.
        assert done[-1] - done[0] >= 8.0

    def test_host_requires_single_face(self):
        net = Network()
        host = NdnHost(net, "h")
        r1 = NdnRouter(net, "r1")
        r2 = NdnRouter(net, "r2")
        net.connect(host, r1, 1.0)
        net.connect(host, r2, 1.0)
        with pytest.raises(RuntimeError):
            _ = host.access_face
