"""Detailed tests for the VoCCN-style NDN gaming baseline internals."""

import pytest

from repro.baselines.ndn_game import UPDATE_FRAME_BYTES, VERSION_HISTORY, NdnGamePlayer
from repro.ndn.engine import NdnRouter, install_routes
from repro.sim.network import Network


def build(accumulation=20.0, lifetime=500.0):
    net = Network()
    r1 = NdnRouter(net, "R1")
    producer = NdnGamePlayer(
        net, "prod", accumulation_ms=accumulation, interest_lifetime_ms=lifetime
    )
    consumer = NdnGamePlayer(
        net, "cons", accumulation_ms=accumulation,
        interest_lifetime_ms=lifetime,
    )
    net.connect(producer, r1, 0.5)
    net.connect(consumer, r1, 0.5)
    install_routes(net, NdnGamePlayer.stream_prefix("prod"), producer)
    install_routes(net, NdnGamePlayer.stream_prefix("cons"), consumer)
    return net, producer, consumer


class TestProducerSide:
    def test_version_history_pruned(self):
        net, producer, consumer = build()
        for i in range(VERSION_HISTORY + 5):
            producer.local_update(10)
            net.sim.run(until=net.sim.now + 50.0)
        assert producer.versions_published == VERSION_HISTORY + 5
        assert len(producer._versions) == VERSION_HISTORY
        assert min(producer._versions) == 6

    def test_batch_payload_accounts_frames(self):
        net, producer, consumer = build(accumulation=30.0)
        producer.local_update(100)
        producer.local_update(50)
        net.sim.run(until=net.sim.now + 100.0)
        _, payload = producer._versions[1]
        assert payload == 150 + 2 * UPDATE_FRAME_BYTES

    def test_waiting_interest_answered_on_cut(self):
        net, producer, consumer = build(accumulation=40.0)
        got = []
        consumer.on_batch.append(lambda h, p, times, count: got.append(count))
        consumer.watch("prod")
        net.sim.run(until=net.sim.now + 10.0)  # interests now parked
        assert producer._waiting_interests  # the VoCCN long-lived pattern
        producer.local_update(10)
        net.sim.run(until=net.sim.now + 200.0)
        assert got == [1]

    def test_no_empty_versions(self):
        net, producer, consumer = build(accumulation=10.0)
        net.sim.run(until=net.sim.now + 100.0)
        assert producer.versions_published == 0

    def test_validation(self):
        net = Network()
        with pytest.raises(ValueError):
            NdnGamePlayer(net, "x", accumulation_ms=0)
        with pytest.raises(ValueError):
            NdnGamePlayer(net, "y", pipeline_window=0)


class TestConsumerSide:
    def test_batches_arrive_in_sequence_order(self):
        net, producer, consumer = build(accumulation=15.0)
        seqs = []
        original = consumer._on_version

        def spy(publisher, seq, data):
            seqs.append(seq)
            original(publisher, seq, data)

        consumer._on_version = spy
        consumer.watch("prod")
        net.sim.run(until=net.sim.now + 5.0)
        for _ in range(4):
            producer.local_update(10)
            net.sim.run(until=net.sim.now + 60.0)
        assert seqs == sorted(seqs)
        assert len(seqs) == 4

    def test_interest_volume_proportional_to_progress(self):
        net, producer, consumer = build(accumulation=10.0, lifetime=10_000.0)
        consumer.watch("prod")
        net.sim.run(until=net.sim.now + 5.0)
        base = consumer.stats.interests_sent
        assert base == 3  # the pipeline window
        for _ in range(5):
            producer.local_update(10)
            net.sim.run(until=net.sim.now + 50.0)
        # One new interest per consumed version (window slides).
        assert consumer.stats.interests_sent == base + 5
