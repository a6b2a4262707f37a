"""Failure-path accounting for the pull-based retrieval layers.

Satellite coverage for two spots the happy-path suites skip: the
two-step subscriber's timeout counter when a snippet's payload pull can
never be satisfied, and `QrSnapshotFetcher.failed` ordering/determinism
under mixed timeout/data interleavings (including the retry backoff and
the pruning of `_retry_counts` on success).
"""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RpTable,
)
from repro.core.snapshot import (
    FETCH_MAX_RETRIES,
    QrSnapshotFetcher,
    SnapshotBroker,
    snapshot_name,
)
from repro.core.twostep import TwoStepPublisher, TwoStepSubscriber
from repro.names import Name
from repro.ndn.engine import install_routes
from repro.sim.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim.network import Network


AREA_A = Name.parse("/1/1")
AREA_B = Name.parse("/1/2")


def build_twostep_line(install_content_route: bool):
    """alice - R1 - R2 - R3 - bob, RPs at R2; content route optional."""
    net = Network()
    r1, r2, r3 = (GCopssRouter(net, n) for n in ("R1", "R2", "R3"))
    net.connect(r1, r2, 2.0)
    net.connect(r2, r3, 2.0)
    alice = GCopssHost(net, "alice")
    bob = GCopssHost(net, "bob")
    net.connect(alice, r1, 1.0)
    net.connect(bob, r3, 1.0)
    table = RpTable()
    for p in ("/1", "/2", "/0"):
        table.assign(p, "R2")
    GCopssNetworkBuilder(net, table).install()
    if install_content_route:
        install_routes(net, Name(["content", "alice"]), alice)
    return net, alice, bob


class TestTwoStepTimeouts:
    def test_unroutable_pull_counts_one_timeout_per_snippet(self):
        net, alice, bob = build_twostep_line(install_content_route=False)
        publisher = TwoStepPublisher(alice)
        sub = TwoStepSubscriber(bob, interest_lifetime_ms=100.0)
        bob.subscribe(["/1"])
        net.sim.run()
        publisher.publish("/1/2", payload_size=5000)
        publisher.publish("/1/2", payload_size=5000)
        net.sim.run()
        assert sub.snippets_seen == 2
        assert sub.payloads_received == 0
        assert sub.timeouts == 2
        assert bob.stats.timeouts_fired == 2

    def test_filtered_snippets_cost_no_interest_and_no_timeout(self):
        net, alice, bob = build_twostep_line(install_content_route=False)
        publisher = TwoStepPublisher(alice)
        sub = TwoStepSubscriber(
            bob, interest_lifetime_ms=100.0, wants=lambda cd, cid: False
        )
        bob.subscribe(["/1"])
        net.sim.run()
        publisher.publish("/1/2", payload_size=5000)
        net.sim.run()
        assert sub.snippets_seen == 1
        assert sub.snippets_filtered == 1
        assert sub.timeouts == 0
        assert bob.stats.interests_sent == 0

    def test_successful_pull_counts_no_timeout(self):
        net, alice, bob = build_twostep_line(install_content_route=True)
        publisher = TwoStepPublisher(alice)
        sub = TwoStepSubscriber(bob, interest_lifetime_ms=100.0)
        bob.subscribe(["/1"])
        net.sim.run()
        publisher.publish("/1/2", payload_size=5000)
        net.sim.run()
        assert sub.payloads_received == 1
        assert sub.timeouts == 0


def build_snapshot_world():
    """broker - R1 - R2 - player; broker serves AREA_A and AREA_B."""
    net = Network()
    r1 = GCopssRouter(net, "R1")
    r2 = GCopssRouter(net, "R2")
    net.connect(r1, r2, 1.0)
    player = GCopssHost(net, "player")
    net.connect(player, r2, 0.5)
    broker = SnapshotBroker(
        net, "broker", objects_by_cd={AREA_A: [0, 1], AREA_B: [3]}
    )
    net.connect(broker, r1, 0.5)
    table = RpTable()
    table.assign("/1", "R2")
    GCopssNetworkBuilder(net, table).install()
    broker.broker_role.start()
    for cd in broker.broker_role.objects:
        install_routes(net, snapshot_name(cd, 0).parent, broker)
    net.sim.run()
    return net, broker, player


UNREACHABLE = Name.parse("/9/9")


class TestSnapshotFailedOrdering:
    def fetch(self, lifetime=50.0, **kwargs):
        net, broker, player = build_snapshot_world()
        done = []
        fetcher = QrSnapshotFetcher(
            player,
            # Mixed fates: /1/* served by the broker, /9/9 unroutable.
            {AREA_A: [0, 1], UNREACHABLE: [7, 2], AREA_B: [3]},
            window=2,
            interest_lifetime=lifetime,
            on_complete=done.append,
            **kwargs,
        )
        net.sim.run()
        assert done == [fetcher]
        return fetcher

    def test_failed_holds_only_unreachable_names_in_issue_order(self):
        fetcher = self.fetch()
        assert fetcher.objects_fetched == 3
        # The queue is sorted by (cd, object_id) at construction; failures
        # surface in that same deterministic order, duplicates impossible.
        assert fetcher.failed == [
            snapshot_name(UNREACHABLE, 7),
            snapshot_name(UNREACHABLE, 2),
        ]
        assert fetcher._retry_counts == {}

    def test_mixed_interleavings_are_deterministic(self):
        a = self.fetch()
        b = self.fetch()
        assert a.failed == b.failed
        assert a.finished_at == b.finished_at
        assert a.retries == b.retries == 2 * FETCH_MAX_RETRIES

    def test_retry_backoff_schedule_is_exact(self):
        net, broker, player = build_snapshot_world()
        start = net.sim.now
        done = []
        QrSnapshotFetcher(
            player,
            {UNREACHABLE: [7]},
            window=1,
            interest_lifetime=50.0,
            retry_backoff_ms=100.0,
            on_complete=done.append,
        )
        net.sim.run()
        # issue@0 -> timeout@50 -> retry@150 -> timeout@200 -> retry@400
        # (backoff doubled) -> timeout@450 -> retry@850 (doubled again)
        # -> timeout@900 -> retries exhausted.
        assert done[0].finished_at - start == pytest.approx(900.0)
        assert done[0].failed == [snapshot_name(UNREACHABLE, 7)]
        assert done[0].retries == FETCH_MAX_RETRIES == 3

    def test_retry_counts_pruned_after_transient_loss_success(self):
        net, broker, player = build_snapshot_world()
        start = net.sim.now
        # Black out the access link long enough to eat the first Interest
        # and its first (immediate) retry; the second retry gets through.
        FaultInjector(
            net,
            FaultPlan(
                links={"player<->R2": LinkFaults(down=((start, start + 60.0),))}
            ),
        ).install()
        done = []
        fetcher = QrSnapshotFetcher(
            player,
            {AREA_A: [0]},
            window=1,
            interest_lifetime=50.0,
            on_complete=done.append,
        )
        net.sim.run()
        assert done == [fetcher]
        assert fetcher.failed == []
        assert fetcher.objects_fetched == 1
        assert fetcher.retries == 2
        assert fetcher._retry_counts == {}  # pruned on success
