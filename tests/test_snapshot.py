"""Tests for snapshot brokers and the two retrieval modes (paper §IV-A)."""

import random

import pytest

from repro.core import (
    CyclicSnapshotReceiver,
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    QrSnapshotFetcher,
    RpTable,
    SnapshotBroker,
)
from repro.core.packets import MulticastPacket
from repro.core.snapshot import FETCH_MAX_RETRIES, group_cd, snapshot_name
from repro.names import Name
from repro.ndn.engine import install_routes
from repro.sim.network import Network


AREA_A = Name.parse("/1/1")
AREA_B = Name.parse("/1/2")


def build_world():
    """broker -- R1 -- R2 -- player, game RP at R2, group RP at R1."""
    net = Network()
    r1 = GCopssRouter(net, "R1")
    r2 = GCopssRouter(net, "R2")
    net.connect(r1, r2, 1.0)
    player = GCopssHost(net, "player")
    publisher = GCopssHost(net, "publisher")
    net.connect(player, r2, 0.5)
    net.connect(publisher, r2, 0.5)
    broker = SnapshotBroker(
        net,
        "broker",
        objects_by_cd={AREA_A: [0, 1, 2], AREA_B: [3, 4]},
        cyclic_pacing_ms=4.0,
    )
    net.connect(broker, r1, 0.5)
    table = RpTable()
    table.assign("/1", "R2")
    table.assign(group_cd(AREA_A), "R1")
    table.assign(group_cd(AREA_B), "R1")
    GCopssNetworkBuilder(net, table).install()
    broker.broker_role.attach_group_hooks(r1)
    broker.broker_role.start()
    for cd in broker.broker_role.objects:
        install_routes(net, snapshot_name(cd, 0).parent, broker)
    net.sim.run()
    return net, broker, player, publisher


class TestBrokerState:
    def test_broker_folds_live_updates(self):
        net, broker, player, publisher = build_world()
        publisher.publish(AREA_A, payload_size=100, sequence=1)
        net.sim.run()
        # The broker subscribed to its areas and folded the update.
        assert broker.broker_role.updates_folded == 0  # object_id was -1: unknown
        packet = MulticastPacket(
            cd=AREA_A, payload_size=100, publisher="publisher", object_id=1
        )
        publisher.send(publisher.access_face, packet)
        net.sim.run()
        assert broker.broker_role.updates_folded == 1
        state = broker.broker_role.objects[AREA_A][1]
        assert state.version == 1
        assert state.size == pytest.approx(100.0)

    def test_decay_model(self):
        net, broker, player, publisher = build_world()
        state = broker.broker_role.objects[AREA_A][0]
        state.apply_update(100, decay=0.95)
        state.apply_update(100, decay=0.95)
        assert state.size == pytest.approx(0.95 * 100 + 100)
        assert state.version == 2

    def test_preseed_reaches_paper_size_band(self):
        net, broker, player, publisher = build_world()
        broker.broker_role.preseed(lambda cd, oid: 100, (29, 87), random.Random(1))
        sizes = [s.size for area in broker.broker_role.objects.values() for s in area.values()]
        # Steady state of u/(1 - 0.95) for u in [29, 87]: 580..1740.
        assert all(350 <= size <= 1800 for size in sizes)

    def test_unknown_object_counted(self):
        net, broker, player, publisher = build_world()
        packet = MulticastPacket(
            cd=AREA_A, payload_size=10, publisher="p", object_id=999
        )
        publisher.send(publisher.access_face, packet)
        net.sim.run()
        assert broker.broker_role.unknown_updates == 1

    def test_bad_decay_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            SnapshotBroker(net, "b", objects_by_cd={}, decay=1.5)


class TestQrRetrieval:
    def test_fetch_all_objects(self):
        net, broker, player, publisher = build_world()
        broker.broker_role.preseed(lambda cd, oid: 3, (29, 87), random.Random(2))
        done = []
        QrSnapshotFetcher(
            player,
            {AREA_A: [0, 1, 2], AREA_B: [3, 4]},
            window=2,
            on_complete=done.append,
        )
        net.sim.run()
        assert len(done) == 1
        fetcher = done[0]
        assert fetcher.objects_fetched == 5
        assert fetcher.failed == []
        assert fetcher.convergence_time > 0

    def test_empty_fetch_completes_immediately(self):
        net, broker, player, publisher = build_world()
        done = []
        QrSnapshotFetcher(player, {}, window=5, on_complete=done.append)
        assert done and done[0].convergence_time == 0.0

    def test_window_must_be_positive(self):
        net, broker, player, publisher = build_world()
        with pytest.raises(ValueError):
            QrSnapshotFetcher(player, {AREA_A: [0]}, window=0)

    def test_larger_window_is_faster(self):
        results = {}
        for window in (1, 3):
            net, broker, player, publisher = build_world()
            broker.broker_role.preseed(lambda cd, oid: 3, (29, 87), random.Random(2))
            done = []
            QrSnapshotFetcher(
                player, {AREA_A: [0, 1, 2], AREA_B: [3, 4]}, window=window,
                on_complete=done.append,
            )
            net.sim.run()
            results[window] = done[0].convergence_time
        assert results[3] < results[1]

    def test_unfetchable_object_fails_after_retries(self):
        net, broker, player, publisher = build_world()
        done = []
        QrSnapshotFetcher(
            player,
            {Name.parse("/9/9"): [42]},  # no broker serves /9/9
            window=1,
            on_complete=done.append,
            interest_lifetime=50.0,
        )
        net.sim.run()
        assert len(done) == 1
        assert done[0].failed == [snapshot_name(Name.parse("/9/9"), 42)]
        assert done[0].retries == FETCH_MAX_RETRIES


class TestCyclicRetrieval:
    def test_receive_all_objects_then_unsubscribe(self):
        net, broker, player, publisher = build_world()
        broker.broker_role.preseed(lambda cd, oid: 3, (29, 87), random.Random(2))
        done = []
        CyclicSnapshotReceiver(
            player, {AREA_A: [0, 1, 2], AREA_B: [3, 4]}, on_complete=done.append
        )
        net.sim.run()
        assert len(done) == 1
        assert done[0].objects_received == 5
        # Group subscription withdrawn afterwards.
        assert all(group_cd(cd) not in player.subscriptions for cd in (AREA_A, AREA_B))

    def test_groups_stop_after_last_receiver(self):
        net, broker, player, publisher = build_world()
        broker.broker_role.preseed(lambda cd, oid: 3, (29, 87), random.Random(2))
        CyclicSnapshotReceiver(player, {AREA_A: [0, 1, 2]})
        net.sim.run()
        assert broker.broker_role._active_groups == {}
        sent_after = broker.broker_role.cyclic_objects_sent
        net.sim.run(until=net.sim.now + 100)
        assert broker.broker_role.cyclic_objects_sent == sent_after

    def test_empty_needed_completes_immediately(self):
        net, broker, player, publisher = build_world()
        done = []
        CyclicSnapshotReceiver(player, {}, on_complete=done.append)
        assert done and done[0].convergence_time == 0.0

    def test_concurrent_receivers_share_the_cycle(self):
        net, broker, player, publisher = build_world()
        broker.broker_role.preseed(lambda cd, oid: 3, (29, 87), random.Random(2))
        done = []
        CyclicSnapshotReceiver(player, {AREA_A: [0, 1, 2]}, on_complete=done.append)
        CyclicSnapshotReceiver(publisher, {AREA_A: [0, 1, 2]}, on_complete=done.append)
        net.sim.run()
        assert len(done) == 2
        # The shared multicast served both without doubling broker sends:
        # both needed one full cycle (3 objects) plus stop lag.
        assert broker.broker_role.cyclic_objects_sent <= 10


class TestNaming:
    def test_snapshot_name_layout(self):
        assert str(snapshot_name(AREA_A, 7)) == "/snapshot/1/1/7"

    def test_group_cd_layout(self):
        assert str(group_cd(AREA_A)) == "/snapgrp/1/1"
