"""Unit tests for the runtime invariant monitor and its ledger."""

import pytest

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, RpTable
from repro.core.packets import MulticastPacket
from repro.names import Name
from repro.sim.invariants import (
    InvariantMonitor,
    SubscriptionLedger,
    covered,
    expected_deliveries,
    refresh_budget,
)
from repro.sim.network import Network


def build_pair():
    """One router serving as RP for everything, one host."""
    net = Network()
    router = GCopssRouter(net, "R1")
    host = GCopssHost(net, "h1")
    net.connect(host, router, 0.5)
    table = RpTable()
    table.assign("/0", "R1")
    table.assign("/1", "R1")
    GCopssNetworkBuilder(net, table).install()
    return net, router, host


class TestLedger:
    def test_epochs_overlapping_windows(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1"])
        ledger.note("h", 100.0, ["/2"])
        ledger.note("h", 200.0, ["/3"])
        # Window entirely inside the middle epoch.
        assert [t for t, _, _ in ledger.epochs_overlapping("h", 120.0, 180.0)] == [100.0]
        # Window spanning all three.
        assert len(ledger.epochs_overlapping("h", 50.0, 250.0)) == 3
        assert ledger.epochs_overlapping("nobody", 0.0, 10.0) == []

    def test_epochs_must_be_time_ordered(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 100.0, ["/1"])
        with pytest.raises(ValueError):
            ledger.note("h", 50.0, ["/2"])

    def test_covered_is_hierarchical(self):
        subs = [Name.parse("/1")]
        assert covered(Name.parse("/1/2"), subs)
        assert covered(Name.parse("/1"), subs)
        assert not covered(Name.parse("/2"), subs)

    def test_stable_through_steady_subscription(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1/2"])
        assert ledger.stable_through("h", Name.parse("/1/2"), 100.0, 500.0)

    def test_stable_through_needs_one_covering_name(self):
        # Coverage stitched from different names spans a fresh wire
        # Subscribe, which soft state does not guarantee: a move from
        # zone /1/2 to region /1 keeps /1/2 publications covered, but
        # through a brand-new subscription.
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1/2", "/0"])
        ledger.note("h", 300.0, ["/1", "/0"])
        cd = Name.parse("/1/2")
        assert not ledger.stable_through("h", cd, 100.0, 400.0)
        # Once the /1 epoch alone spans the window, it is stable again.
        assert ledger.stable_through("h", cd, 310.0, 400.0)
        # And a name held across the boundary keeps its own CDs stable.
        assert ledger.stable_through("h", Name.parse("/0/x"), 100.0, 400.0)

    def test_stable_through_offline_breaks(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1"])
        ledger.note_offline("h", 200.0)
        ledger.note("h", 300.0, ["/1"])
        assert not ledger.stable_through("h", Name.parse("/1"), 100.0, 400.0)
        assert ledger.stable_through("h", Name.parse("/1"), 0.0, 150.0)

    def test_uncovered_since(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1"])
        cd = Name.parse("/1/2")
        assert ledger.uncovered_since("h", cd) is None
        ledger.note("h", 500.0, ["/9"])
        assert ledger.uncovered_since("h", cd) == 500.0
        ledger.note("h", 900.0, ["/1"])
        assert ledger.uncovered_since("h", cd) is None

    def test_covered_in_window(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, [])
        ledger.note("h", 100.0, ["/1"])
        ledger.note("h", 200.0, [])
        cd = Name.parse("/1/x")
        assert ledger.covered_in_window("h", cd, 150.0, 160.0)
        assert ledger.covered_in_window("h", cd, 150.0, 300.0)
        assert not ledger.covered_in_window("h", cd, 210.0, 300.0)


class TestExpectedDeliveries:
    def test_join_margin_excludes_young_subscribers(self):
        ledger = SubscriptionLedger()
        ledger.note("old", 0.0, ["/1"])
        ledger.note("young", 990.0, ["/1"])
        publishes = [(0, 1000.0, Name.parse("/1/2"), "pub")]
        strict = expected_deliveries(ledger, publishes, 500.0, 5000.0)
        assert {h for _, _, h in strict} == {"old", "young"}
        margined = expected_deliveries(
            ledger, publishes, 500.0, 5000.0, join_margin_ms=100.0
        )
        assert {h for _, _, h in margined} == {"old"}

    def test_publisher_echo_not_expected(self):
        ledger = SubscriptionLedger()
        ledger.note("pub", 0.0, ["/1"])
        publishes = [(0, 1000.0, Name.parse("/1/2"), "pub")]
        assert expected_deliveries(ledger, publishes, 500.0, 5000.0) == []


class TestRefreshBudget:
    def test_budget_scale(self):
        assert refresh_budget(10, 1000.0, 500.0, 4.0) == pytest.approx(80.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            refresh_budget(10, 1000.0, 0.0, 4.0)


class TestMonitorSafety:
    def _monitor(self, net):
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/1"])
        return InvariantMonitor(ledger).install(net)

    def test_duplicate_delivery_flagged(self):
        net, router, host = build_pair()
        inv = self._monitor(net)
        packet = MulticastPacket(cd=Name.parse("/1/2"), publisher="p", sequence=0)
        inv.on_deliver(host, packet)
        inv.on_deliver(host, packet)
        kinds = [v.kind for v in inv.violations]
        assert kinds == ["duplicate_delivery"]
        assert inv.deliveries[(0, "h1")] == net.sim.now

    def test_phantom_delivery_flagged_and_graced(self):
        net, router, host = build_pair()
        inv = self._monitor(net)
        packet = MulticastPacket(cd=Name.parse("/9/9"), publisher="p", sequence=0)
        inv.on_deliver(host, packet)
        assert [v.kind for v in inv.violations] == ["phantom_delivery"]
        # With a grace window reaching back to when /9 was covered, the
        # same delivery is soft-state residue, not a leak.
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/9"])
        ledger.note("h1", 400.0, [])
        graced = InvariantMonitor(ledger, phantom_grace_ms=10_000.0)
        net.sim.schedule(500.0, lambda: None)
        net.sim.run()
        graced.install(net)
        graced.on_deliver(host, MulticastPacket(cd=Name.parse("/9/9"), publisher="p"))
        assert graced.violations == []

    def test_tee_chaining_and_uninstall_restore(self):
        net, router, host = build_pair()

        class Recorder:
            def __init__(self):
                self.delivered = 0

            def on_deliver(self, node, packet):
                self.delivered += 1

            def __getattr__(self, name):
                if name.startswith("on_"):
                    return lambda *a, **k: None
                raise AttributeError(name)

        incumbent = Recorder()
        host.trace_hook = incumbent
        inv = self._monitor(net)
        assert host.trace_hook is not incumbent  # tee'd
        packet = MulticastPacket(cd=Name.parse("/1/2"), publisher="p", sequence=3)
        host.trace_hook.on_deliver(host, packet)
        assert incumbent.delivered == 1
        assert (3, "h1") in inv.deliveries
        inv.uninstall()
        assert host.trace_hook is incumbent
        assert router.trace_hook is None

    def test_orphaned_st_detection(self):
        net, router, host = build_pair()
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/1"])
        inv = InvariantMonitor(ledger).install(net)
        host.subscribe(["/1"])
        net.sim.run()
        # The host silently stops covering /1 (the Unsubscribe is never
        # sent), so the router's ST entry decays into an orphan.
        ledger.note("h1", net.sim.now, [])
        now = net.sim.now + 10_000.0
        assert inv.check_subscription_tables(net, now, grace_ms=1_000.0) >= 1
        assert any(v.kind == "orphaned_st" for v in inv.violations)
        # Within the grace window the same state is legitimate.
        fresh = InvariantMonitor(ledger).install(net)
        assert fresh.check_subscription_tables(net, now, grace_ms=1e9) == 0


class TestVerdict:
    def _setup(self):
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/1"])
        ledger.note("h2", 0.0, ["/1"])
        inv = InvariantMonitor(ledger)
        publishes = [
            (0, 1000.0, Name.parse("/1/2"), "pub"),
            (1, 3000.0, Name.parse("/1/2"), "pub"),
        ]
        return inv, publishes

    def test_liveness_counts_only_checked_window(self):
        inv, publishes = self._setup()
        # h2 misses both updates; only the second is inside the window.
        deliveries = {(0, "h1"): 1002.0, (1, "h1"): 3002.0}
        verdict = inv.verdict(
            publishes,
            check_after_ms=2000.0,
            horizon_ms=10_000.0,
            stability_window_ms=500.0,
            fault_clear_ms=1500.0,
            deliveries=deliveries,
        )
        assert not verdict.ok and verdict.safety_ok and not verdict.liveness_ok
        assert verdict.permanent_misses == 1
        assert verdict.missed_sample == [(1, "h2")]
        # expected and got_checked count the window; got counts the whole run.
        assert (verdict.deliveries_expected, verdict.deliveries_got_checked) == (2, 1)
        assert verdict.deliveries_got == 2
        # Recovery SLO sees *all* misses, including the unchecked one.
        assert verdict.last_miss_ms == 3000.0
        assert verdict.recovery_time_ms == 1500.0

    def test_clean_run_is_ok(self):
        inv, publishes = self._setup()
        deliveries = {
            (0, "h1"): 1002.0,
            (0, "h2"): 1002.0,
            (1, "h1"): 3002.0,
            (1, "h2"): 3002.0,
        }
        verdict = inv.verdict(
            publishes,
            check_after_ms=0.0,
            horizon_ms=10_000.0,
            stability_window_ms=500.0,
            deliveries=deliveries,
        )
        assert verdict.ok
        assert verdict.permanent_misses == 0
        assert verdict.recovery_time_ms is None

    def test_join_margin_waives_young_subscription(self):
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/1"])
        ledger.note("h2", 2990.0, ["/1"])
        inv = InvariantMonitor(ledger)
        publishes = [(0, 3000.0, Name.parse("/1/2"), "pub")]
        deliveries = {(0, "h1"): 3002.0}
        strict = inv.verdict(
            publishes, 0.0, 10_000.0, 500.0, deliveries=deliveries
        )
        assert strict.permanent_misses == 1
        waived = inv.verdict(
            publishes, 0.0, 10_000.0, 500.0,
            deliveries=deliveries, join_margin_ms=100.0,
        )
        assert waived.permanent_misses == 0


class TestCheckOwnership:
    """The RP-ownership invariants: single owner + region coverage."""

    def build(self, owners, relays=()):
        """A router mesh with served-prefix / relay state stamped on."""
        net = Network()
        routers = {}
        previous = None
        for name in sorted({n for n, _ in owners} | {n for n, _, _ in relays}):
            routers[name] = GCopssRouter(net, name)
            if previous is not None:
                net.connect(previous, routers[name], 1.0)
            previous = routers[name]
        for name, prefix in owners:
            routers[name].rp_prefixes.add(Name.parse(prefix))
        for name, prefix, onward in relays:
            routers[name].relinquished[Name.parse(prefix)] = onward
        return net, InvariantMonitor(SubscriptionLedger())

    def test_disjoint_owners_are_clean(self):
        net, inv = self.build([("A", "/1"), ("B", "/2")])
        assert inv.check_ownership(net, 0.0) == 0
        assert inv.violations == []

    def test_equal_prefixes_flag_dual_owner(self):
        net, inv = self.build([("A", "/1"), ("B", "/1")])
        assert inv.check_ownership(net, 0.0) == 1
        assert inv.violations[0].kind == "dual_owner"

    def test_nested_prefixes_flag_dual_owner(self):
        net, inv = self.build([("A", "/1"), ("B", "/1/x")])
        assert inv.check_ownership(net, 0.0) == 1
        assert inv.violations[0].kind == "dual_owner"

    def test_same_router_may_nest_its_own_prefixes(self):
        net, inv = self.build([("A", "/1"), ("A", "/1/x")])
        assert inv.check_ownership(net, 0.0) == 0

    def test_uncovered_prefix_flags_coverage_gap(self):
        net, inv = self.build([("A", "/1")])
        assert inv.check_ownership(net, 0.0, expected_cover=["/2"]) == 1
        assert inv.violations[0].kind == "coverage_gap"

    def test_owner_prefix_covers_finer_cd(self):
        net, inv = self.build([("A", "/1")])
        assert inv.check_ownership(net, 0.0, expected_cover=["/1/x/y"]) == 0

    def test_relay_chain_to_owner_is_covered(self):
        # Mid-handoff state is legal: A relinquished /1 to B, B owns it.
        net, inv = self.build(
            [("B", "/1")], relays=[("A", "/1", "B")]
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1"]) == 0

    def test_multi_hop_relay_chain_is_covered(self):
        net, inv = self.build(
            [("C", "/1")],
            relays=[("A", "/1", "B"), ("B", "/1", "C")],
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1"]) == 0

    def test_relay_chain_over_hop_bound_is_a_black_hole(self):
        net, inv = self.build(
            [("C", "/1")],
            relays=[("A", "/1", "B"), ("B", "/1", "C")],
        )
        assert inv.check_ownership(
            net, 0.0, expected_cover=["/1"], max_relay_hops=1
        ) == 1
        assert inv.violations[0].kind == "relay_black_hole"
        assert inv.violations[0].host == "A"

    def test_stale_relay_entry_is_a_black_hole(self):
        # The relay-safety failure shape: C owns /1, but A's relay map
        # still points /1 at B which neither serves nor relays it —
        # publications arriving at A die even though an owner exists.
        net, inv = self.build(
            [("C", "/1")],
            relays=[("A", "/1", "B")],
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1"]) == 1
        assert inv.violations[0].kind == "relay_black_hole"

    def test_relay_cycle_is_a_black_hole_not_a_hang(self):
        # Two routers pointing the prefix at each other while the real
        # owner sits elsewhere: the walk must terminate and flag both.
        net, inv = self.build(
            [("Z", "/1")],
            relays=[("A", "/1", "B"), ("B", "/1", "A")],
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1"]) == 2
        assert {v.kind for v in inv.violations} == {"relay_black_hole"}

    def test_relay_entry_covers_finer_cd(self):
        # Longest-prefix semantics: the /1 relay entry routes a /1/x/y
        # publication toward the owner.
        net, inv = self.build(
            [("B", "/1")], relays=[("A", "/1", "B")]
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1/x/y"]) == 0
