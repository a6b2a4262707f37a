"""Unit tests for the runtime invariant monitor and its ledger."""

from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, RpTable
from repro.core.packets import MulticastPacket
from repro.names import Name
from repro.obs.tracer import trace_id_of
from repro.sim.invariants import (
    MAX_RELAY_HOPS,
    InvariantMonitor,
    SubscriptionLedger,
    Violation,
    _any_covered,
    _stable,
    expected_deliveries,
    refresh_budget,
)
from repro.sim.network import Network


def covered(cd, subscriptions):
    """COPSS coverage: a subscription receives its CD and everything below."""
    return any(sub == cd or sub.is_prefix_of(cd) for sub in subscriptions)


def covered_in_window(ledger, host, cd, start, end):
    """The monitor's phantom test: an online epoch meeting the window covers ``cd``."""
    times = ledger._times.get(host)
    if not times:
        return False
    return _any_covered(times, ledger._coverage(host, cd)[0], start, end, len(times))


def stable_through(ledger, host, cd, start, end):
    """The liveness test ``expected_deliveries`` applies to one host."""
    times = ledger._times.get(host)
    if not times:
        return False
    return _stable(times, ledger._coverage(host, cd)[1], start, end)


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
    def test_epochs_must_be_time_ordered(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 100.0, ["/1"])
        with pytest.raises(ValueError):
            ledger.note("h", 50.0, ["/2"])

    def test_stable_through_steady_subscription(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1/2"])
        assert stable_through(ledger, "h", Name.parse("/1/2"), 100.0, 500.0)

    def test_stable_through_needs_one_covering_name(self):
        # Coverage stitched from different names spans a fresh wire
        # Subscribe, which soft state does not guarantee: a move from
        # zone /1/2 to region /1 keeps /1/2 publications covered, but
        # through a brand-new subscription.
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1/2", "/0"])
        ledger.note("h", 300.0, ["/1", "/0"])
        cd = Name.parse("/1/2")
        assert not stable_through(ledger, "h", cd, 100.0, 400.0)
        # Once the /1 epoch alone spans the window, it is stable again.
        assert stable_through(ledger, "h", cd, 310.0, 400.0)
        # And a name held across the boundary keeps its own CDs stable.
        assert stable_through(ledger, "h", Name.parse("/0/x"), 100.0, 400.0)

    def test_stable_through_offline_breaks(self):
        ledger = SubscriptionLedger()
        ledger.note("h", 0.0, ["/1"])
        ledger.note_offline("h", 200.0)
        ledger.note("h", 300.0, ["/1"])
        assert not stable_through(ledger, "h", Name.parse("/1"), 100.0, 400.0)
        assert stable_through(ledger, "h", Name.parse("/1"), 0.0, 150.0)

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
        assert covered_in_window(ledger, "h", cd, 150.0, 160.0)
        assert covered_in_window(ledger, "h", cd, 150.0, 300.0)
        assert not covered_in_window(ledger, "h", cd, 210.0, 300.0)


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

    def test_install_leaves_trace_hooks_alone(self):
        net, router, host = build_pair()
        tracer = object()  # stands in for a telemetry tracer
        host.trace_hook = tracer

        def other(node, packet):
            pass

        host.on_update.append(other)
        inv = self._monitor(net)
        assert host.trace_hook is tracer and router.trace_hook is None
        packet = MulticastPacket(cd=Name.parse("/1/2"), publisher="p", sequence=3)
        for callback in host.on_update:
            callback(host, packet)
        assert (3, "h1") in inv.deliveries
        inv.uninstall()
        assert host.on_update == [other]
        assert host.trace_hook is tracer and router.trace_hook is None

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


def deliver(inv, deliveries):
    """Feed ``(sequence, host) -> time`` deliveries through ``on_deliver``."""
    for (sequence, host), t in deliveries.items():
        node = SimpleNamespace(name=host, sim=SimpleNamespace(now=t))
        packet = MulticastPacket(
            cd=Name.parse("/1/2"), publisher="pub", sequence=sequence,
            created_at=t - 2.0,
        )
        inv.on_deliver(node, packet)


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
        deliver(inv, {(0, "h1"): 1002.0, (1, "h1"): 3002.0})
        verdict = inv.verdict(
            publishes,
            check_after_ms=2000.0,
            horizon_ms=10_000.0,
            stability_window_ms=500.0,
            fault_clear_ms=1500.0,
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
        deliver(inv, {
            (0, "h1"): 1002.0,
            (0, "h2"): 1002.0,
            (1, "h1"): 3002.0,
            (1, "h2"): 3002.0,
        })
        verdict = inv.verdict(
            publishes,
            check_after_ms=0.0,
            horizon_ms=10_000.0,
            stability_window_ms=500.0,
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
        deliver(inv, {(0, "h1"): 3002.0})
        strict = inv.verdict(publishes, 0.0, 10_000.0, 500.0)
        assert strict.permanent_misses == 1
        waived = inv.verdict(publishes, 0.0, 10_000.0, 500.0, join_margin_ms=100.0)
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
        # N0 -> N1 -> ... -> N8 -> C: the owner is one hop past the bound
        # from N0 and within it from every later holder.
        chain = [f"N{i}" for i in range(MAX_RELAY_HOPS + 1)] + ["C"]
        net, inv = self.build(
            [("C", "/1")],
            relays=[(a, "/1", b) for a, b in zip(chain, chain[1:])],
        )
        assert inv.check_ownership(net, 0.0, expected_cover=["/1"]) == 1
        assert inv.violations[0].kind == "relay_black_hole"
        assert inv.violations[0].host == "N0"

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


# ----------------------------------------------------------------------
# Brute-force oracle: the ledger reads, ``expected_deliveries`` and the
# per-delivery safety checks as they were before the ledger was indexed
# and the monitor judged after the run — a linear scan per query.
# ----------------------------------------------------------------------
class BruteForceLedger(SubscriptionLedger):
    """The ledger reads as one scan over the overlapping epochs per query."""

    def epochs_overlapping(self, host, start, end):
        epochs = self._epochs.get(host, [])
        if not epochs:
            return []
        # Epoch i is active on [t_i, t_{i+1}); the last one runs forever.
        times = [t for t, _, _ in epochs]
        lo = max(0, bisect_right(times, start) - 1)
        hi = bisect_right(times, end)
        return epochs[lo:hi]

    def covered_in_window(self, host, cd, start, end):
        return any(
            online and covered(cd, subs)
            for _, subs, online in self.epochs_overlapping(host, start, end)
        )

    def stable_through(self, host, cd, start, end):
        epochs = self.epochs_overlapping(host, start, end)
        if not epochs or epochs[0][0] > start:
            return False  # the window head predates the host's first epoch
        if not all(online for _, _, online in epochs):
            return False
        _, first_subs, _ = epochs[0]
        return any(
            all(sub in subs for _, subs, _ in epochs)
            for sub in first_subs
            if sub == cd or sub.is_prefix_of(cd)
        )

    def uncovered_since(self, host, cd):
        epochs = self._epochs.get(host, [])
        if not epochs:
            return None
        since = None
        for t, subs, online in epochs:
            if online and covered(cd, subs):
                since = None
            elif since is None:
                since = t
        return since


def brute_expected_deliveries(
    ledger, publishes, stability_window_ms, horizon_ms, join_margin_ms=0.0
):
    out = []
    hosts = sorted(ledger._epochs)
    for sequence, t_pub, cd, publisher in publishes:
        until = min(t_pub + stability_window_ms, horizon_ms)
        for host in hosts:
            if host == publisher:
                continue  # publishers suppress their own echo
            if ledger.stable_through(host, cd, t_pub - join_margin_ms, until):
                out.append((sequence, t_pub, host))
    return out


class OnlineChecks:
    """The duplicate and phantom checks run at each delivery instant."""

    def __init__(self, ledger, phantom_grace_ms):
        self.ledger = ledger
        self.phantom_grace_ms = phantom_grace_ms
        self.violations = []
        self._delivered_ids = {}

    def on_deliver(self, node, packet):
        now = node.sim.now
        key = (trace_id_of(packet), node.name)
        count = self._delivered_ids.get(key, 0) + 1
        self._delivered_ids[key] = count
        if count > 1:
            self.violations.append(
                Violation(
                    t=now,
                    kind="duplicate_delivery",
                    host=node.name,
                    detail=f"trace {key[0]} delivered {count} times",
                )
            )
        cd = getattr(packet, "cd", None)
        if cd is not None:
            created = getattr(packet, "created_at", now)
            window_start = created - self.phantom_grace_ms
            if not self.ledger.covered_in_window(node.name, cd, window_start, now):
                self.violations.append(
                    Violation(
                        t=now,
                        kind="phantom_delivery",
                        host=node.name,
                        detail=f"update for {cd} without a covering subscription",
                    )
                )


HOSTS = ["a", "b", "c"]
#: Subscription names, the root included; CDs add names nobody holds.
SUB_NAMES = ["/", "/1", "/1/2", "/1/3", "/2", "/2/1"]
CDS = [Name.parse(text) for text in SUB_NAMES + ["/1/2/3", "/3"]]

#: (host, time step, subscription set, online); step 0 makes same-instant
#: epochs common, and an offline epoch may still list names.
notes = st.tuples(
    st.sampled_from(HOSTS),
    st.sampled_from([0.0, 0.0, 5.0, 10.0, 50.0]),
    st.frozensets(st.sampled_from(SUB_NAMES), max_size=3),
    st.booleans(),
)
#: (host, cd, start, end): unknown hosts, windows before any epoch and
#: ``end < start`` (what the horizon clamp produces) all occur.
queries = st.tuples(
    st.sampled_from(HOSTS + ["zz"]),
    st.sampled_from(CDS),
    st.integers(-20, 200).map(float),
    st.integers(-30, 150).map(float),
)


def fill(note_list, *ledgers):
    """Apply the notes to every ledger; per-host times accumulate from 10."""
    clock = {}
    for host, step, subs, online in note_list:
        clock[host] = clock.get(host, 10.0) + step
        for ledger in ledgers:
            ledger.note(host, clock[host], sorted(subs), online=online)


class TestIndexedLedgerMatchesBruteForce:
    @settings(max_examples=200)
    @given(st.lists(notes, max_size=25), st.lists(queries, min_size=1, max_size=20))
    def test_reads_equal_the_scan(self, note_list, query_list):
        indexed, brute = SubscriptionLedger(), BruteForceLedger()
        fill(note_list, indexed, brute)
        for host, cd, start, width in query_list:
            end = start + width
            assert covered_in_window(indexed, host, cd, start, end) == (
                brute.covered_in_window(host, cd, start, end)
            )
            assert stable_through(indexed, host, cd, start, end) == (
                brute.stable_through(host, cd, start, end)
            )
            assert indexed.uncovered_since(host, cd) == brute.uncovered_since(host, cd)

    @settings(max_examples=200)
    @given(
        st.lists(notes, max_size=25),
        st.lists(
            st.tuples(
                st.integers(0, 200).map(float),
                st.sampled_from(CDS),
                st.sampled_from(HOSTS + ["p"]),
            ),
            max_size=12,
        ),
        st.sampled_from([0.0, 10.0, 50.0]),
        st.integers(0, 250).map(float),
        st.sampled_from([0.0, 5.0, 30.0]),
    )
    def test_expected_deliveries_equal_the_scan(
        self, note_list, pubs, window, horizon, margin
    ):
        indexed, brute = SubscriptionLedger(), BruteForceLedger()
        fill(note_list, indexed, brute)
        publishes = [(seq, t, cd, pub) for seq, (t, cd, pub) in enumerate(pubs)]
        assert expected_deliveries(
            indexed, publishes, window, horizon, join_margin_ms=margin
        ) == brute_expected_deliveries(
            brute, publishes, window, horizon, join_margin_ms=margin
        )

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("note"), notes),
                st.tuples(
                    st.just("deliver"),
                    st.tuples(
                        st.sampled_from(HOSTS + ["zz"]),
                        st.sampled_from(CDS),
                        st.sampled_from([0.0, 3.0, 20.0]),
                        st.integers(-1, 5),
                    ),
                ),
                st.tuples(st.just("judge"), st.none()),
            ),
            max_size=40,
        ),
        st.sampled_from([0.0, 10.0]),
    )
    def test_post_run_safety_pass_equals_the_online_checks(self, ops, grace):
        indexed, brute = SubscriptionLedger(), BruteForceLedger()
        monitor = InvariantMonitor(indexed, phantom_grace_ms=grace)
        online = OnlineChecks(brute, grace)
        clock = SimpleNamespace(now=10.0)
        sent = []
        for op, args in ops:
            if op == "note":
                host, step, subs, is_online = args
                clock.now += step
                for ledger in (indexed, brute):
                    ledger.note(host, clock.now, sorted(subs), online=is_online)
            elif op == "deliver":
                host, cd, age, again = args
                node = SimpleNamespace(name=host, sim=clock)
                if 0 <= again < len(sent):
                    packet = sent[again]  # the same trace id, delivered again
                else:
                    packet = MulticastPacket(
                        cd=cd, publisher="p", sequence=len(sent),
                        created_at=clock.now - age,
                    )
                    sent.append(packet)
                monitor.on_deliver(node, packet)
                online.on_deliver(node, packet)
            else:
                monitor.violations  # an early read judges what is recorded so far
        assert monitor.violations == online.violations


class TestDeferredJudgement:
    def test_epoch_noted_later_at_the_same_instant_does_not_excuse(self):
        net, router, host = build_pair()
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/9"])
        inv = InvariantMonitor(ledger).install(net)
        net.sim.schedule(500.0, lambda: None)
        net.sim.run()
        cd = Name.parse("/1/2")
        inv.on_deliver(host, MulticastPacket(cd=cd, publisher="p", created_at=500.0))
        ledger.note("h1", 500.0, ["/1"])
        # Read in full, the ledger now covers the delivery's window...
        assert covered_in_window(ledger, "h1", cd, 500.0, 500.0)
        # ...but at the delivery instant h1 held only /9.
        assert [(v.kind, v.t, v.host) for v in inv.violations] == [
            ("phantom_delivery", 500.0, "h1")
        ]

    def test_violation_list_equals_the_online_checks(self):
        """Duplicate, phantom, divergence and orphaned ST in one run.

        Safety findings come first, in delivery order (what the
        per-delivery online checks produced for this run), then the
        record-versus-counters check and the orphan audit.
        """
        net = Network()
        router = GCopssRouter(net, "R1")
        h1 = GCopssHost(net, "h1")
        h2 = GCopssHost(net, "h2")
        net.connect(h1, router, 0.5)
        net.connect(h2, router, 0.5)
        table = RpTable()
        table.assign("/1", "R1")
        table.assign("/9", "R1")
        GCopssNetworkBuilder(net, table).install()
        ledger = SubscriptionLedger()
        ledger.note("h1", 0.0, ["/1"])
        ledger.note("h2", 0.0, [])
        inv = InvariantMonitor(ledger).install(net)
        h1.subscribe(["/1"])
        net.sim.run()
        t_pub = net.sim.now
        first = h2.publish("/1/2", 64, sequence=0)
        net.sim.run()
        inv.on_deliver(h1, first)  # a second delivery of the same trace
        net.sim.schedule(100.0, lambda: None)
        net.sim.run()
        stray = MulticastPacket(
            cd=Name.parse("/9/9"), publisher="h2", sequence=1, created_at=net.sim.now
        )
        inv.on_deliver(h1, stray)
        # h1 stops covering /1 without an Unsubscribe: R1's entry orphans.
        ledger.note("h1", net.sim.now, [])
        net.sim.schedule(10_000.0, lambda: None)
        net.sim.run()
        # Two of the three rows were fed by hand, not accepted by a host.
        inv.check_delivery_count(net.sim.now)
        inv.check_subscription_tables(net, net.sim.now, grace_ms=1_000.0)
        verdict = inv.verdict(
            [(0, t_pub, Name.parse("/1/2"), "h2")], 0.0, net.sim.now, 500.0
        )
        assert [(v.kind, v.t, v.host, v.detail) for v in verdict.violations] == [
            ("duplicate_delivery", 4.85, "h1", f"trace {first.uid} delivered 2 times"),
            ("phantom_delivery", 104.85, "h1",
             "update for /9/9 without a covering subscription"),
            ("monitor_divergence", 10104.85, "-",
             "3 deliveries recorded, hosts counted 1"),
            ("orphaned_st", 10104.85, "R1",
             "ST entry for /1 toward h1 (count 1) uncovered for 10000ms"),
        ]
        assert not verdict.safety_ok
