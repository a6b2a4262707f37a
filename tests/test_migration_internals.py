"""Focused tests for the RP migration machinery inside the router."""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RpTable,
)
from repro.core.packets import FibAddPacket
from repro.names import Name
from repro.sim.network import Network


def build_square(prefixes=("/1", "/2", "/0")):
    """R0-R1-R2-R3 ring, hosts on R0 (pub) and R2 (sub), RP at R0."""
    net = Network()
    routers = [GCopssRouter(net, f"R{i}") for i in range(4)]
    for i in range(4):
        net.connect(routers[i], routers[(i + 1) % 4], 1.0)
    pub = GCopssHost(net, "pub")
    sub = GCopssHost(net, "sub")
    net.connect(pub, routers[0], 0.5)
    net.connect(sub, routers[2], 0.5)
    table = RpTable()
    for p in prefixes:
        table.assign(p, "R0")
    GCopssNetworkBuilder(net, table).install()
    return net, routers, pub, sub


class TestHandoffStateMachine:
    def test_relinquished_prefixes_relay(self):
        net, routers, pub, sub = build_square()
        sub.subscribe(["/2"])
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        assert routers[0].relinquished == {Name.parse("/2"): "R2"}
        # A publish routed to the old RP by a stale client path is relayed.
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        assert routers[2].decapsulations == 1
        assert sub.stats.updates_received == 1

    def test_new_rp_announces_and_routes_update(self):
        net, routers, pub, sub = build_square()
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        for router in routers:
            assert router.cd_routes.lookup("/2/x") == {"R2"}
            # Unmoved prefixes still route to the old RP.
            assert router.cd_routes.lookup("/1/x") == {"R0"}

    def test_flood_dedup(self):
        net, routers, pub, sub = build_square()
        net.sim.run()
        flood = FibAddPacket(prefixes=(Name.parse("/2"),), origin="R2")
        before = routers[1].stats.packets_received
        routers[1].control.handle_fib_add(flood, face=None)
        routers[1].control.handle_fib_add(flood, face=None)  # duplicate: ignored
        net.sim.run()
        # Each neighbour got exactly one copy from R1.
        assert flood.uid in routers[1].control.seen_floods

    def test_migration_confirmed_without_messages_when_upstream_unchanged(self):
        net, routers, pub, sub = build_square()
        sub.subscribe(["/2"])
        net.sim.run()
        # R2's access router is R2 itself... check a router whose path to
        # both old and new RP uses the same face: subscribe via R2; move
        # the prefix to R3.  R2's upstream face toward R0 and toward R3
        # differ, so it must PEND; but R1 (no subscriptions) must not
        # create any migration at all.
        routers[0].control.initiate_handoff([Name.parse("/2")], "R3")
        net.sim.run()
        assert routers[1].control.migrations == {} or all(
            not m.pending_downstream for m in routers[1].control.migrations.values()
        )

    def test_handoff_preserves_other_prefix_delivery(self):
        net, routers, pub, sub = build_square()
        sub.subscribe(["/1", "/2"])
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        got = []
        sub.on_update.append(lambda h, p: got.append(str(p.cd)))
        pub.publish("/1/a", payload_size=10)
        pub.publish("/2/b", payload_size=10)
        net.sim.run()
        assert sorted(got) == ["/1/a", "/2/b"]

    def test_subscribe_after_migration_joins_new_rp(self):
        net, routers, pub, sub = build_square()
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        # A brand-new subscriber after the move must anchor at R2.
        sub.subscribe(["/2"])
        net.sim.run()
        got = []
        sub.on_update.append(lambda h, p: got.append(str(p.cd)))
        pub.publish("/2/z", payload_size=10)
        net.sim.run()
        assert got == ["/2/z"]
        assert routers[2].decapsulations >= 1
        assert routers[0].stats.relays >= 0  # publisher edge already re-routed

    def test_replayed_handoff_does_not_resurrect_relinquished_prefix(self):
        # A lossy ack flood makes the old RP retransmit its handoff; the
        # replay can land after the new RP already shed the same prefix
        # onward in a split cascade.  Re-adopting would leave two RPs
        # flooding rival routes for the prefix.
        net, routers, pub, sub = build_square()
        net.sim.run()
        packet = routers[0].control.initiate_handoff([Name.parse("/2")], "R1")
        net.sim.run()
        assert Name.parse("/2") in routers[1].rp_prefixes
        routers[1].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        assert routers[1].relinquished == {Name.parse("/2"): "R2"}
        # Replay of the first handoff at R1 (old RP never saw the ack).
        replay_face = routers[1].face_toward(routers[0])
        routers[1].control.handle_handoff(packet, replay_face)
        net.sim.run()
        assert Name.parse("/2") not in routers[1].rp_prefixes
        assert routers[1].relinquished == {Name.parse("/2"): "R2"}
        for router in routers:
            assert router.cd_routes.lookup("/2/x") == {"R2"}
        # Delivery keeps working end to end through the final owner.
        sub.subscribe(["/2"])
        net.sim.run()
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        assert sub.stats.updates_received == 1

    def test_handback_from_successor_readopts(self):
        # The inverse case must still work: the *current* owner handing
        # the prefix back is legitimate and clears the relay entry.
        net, routers, pub, sub = build_square()
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R1")
        net.sim.run()
        routers[1].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        routers[2].control.initiate_handoff([Name.parse("/2")], "R1")
        net.sim.run()
        assert Name.parse("/2") in routers[1].rp_prefixes
        assert Name.parse("/2") not in routers[1].relinquished
        for router in routers:
            assert router.cd_routes.lookup("/2/x") == {"R1"}

    def test_new_rp_keeps_its_upstream_for_a_coarser_subscription(self):
        # R2 subscribes to the aggregate /1 and then becomes RP of /1/1.
        # /1 as a whole is still served elsewhere, so adopting /1/1 must
        # not drop R2's /1 upstream pointer: its last Unsubscribe for /1
        # would never leave and the upstream branch would stay for ever.
        net, routers, pub, sub = build_square(("/1/1", "/1/2", "/1/0", "/2", "/0"))
        sub.subscribe(["/1"])
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/1/2")], "R3")
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/1/1")], "R2")
        net.sim.run()
        sub.unsubscribe(["/1"])
        net.sim.run(until=net.sim.now + 1000)  # past the leave linger
        # Only the reversed handoff paths for /1/1 and /1/2 remain.
        for router in routers:
            assert Name.parse("/1") not in router.st.all_cds(), router.name

    def test_unsubscribe_after_migration_cleans_state(self):
        net, routers, pub, sub = build_square()
        sub.subscribe(["/2"])
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        sub.unsubscribe(["/2"])
        net.sim.run(until=net.sim.now + 1000)  # past the leave linger
        # No router still carries a /2 subscription for the host's branch.
        for router in routers:
            for cd in router.st.all_cds():
                assert not str(cd).startswith("/2") or cd == Name.parse("/2")


class TestFibRemove:
    def test_route_withdrawal_floods_and_counts_drops(self):
        from repro.core.packets import FibRemovePacket

        net, routers, pub, sub = build_square()
        net.sim.run()
        # R0 retires /2 with no successor.
        packet = FibRemovePacket(prefixes=(Name.parse("/2"),), origin="R0")
        routers[0].control.handle_fib_remove(packet, face=None)
        net.sim.run()
        for router in routers:
            assert router.cd_routes.lookup("/2/x") == set()
            assert router.cd_routes.lookup("/1/x") == {"R0"}  # untouched
        assert Name.parse("/2") not in routers[0].rp_prefixes
        # A publish for the withdrawn prefix is counted, not crashed on.
        pub.publish("/2/x", payload_size=10)
        net.sim.run()
        access = pub.access_face.peer
        assert access.stats.multicast_dropped_no_rp == 1

    def test_remove_flood_dedup(self):
        from repro.core.packets import FibRemovePacket

        net, routers, pub, sub = build_square()
        net.sim.run()
        packet = FibRemovePacket(prefixes=(Name.parse("/2"),), origin="R0")
        routers[1].control.handle_fib_remove(packet, face=None)
        routers[1].control.handle_fib_remove(packet, face=None)  # duplicate ignored
        net.sim.run()
        assert packet.uid in routers[1].control.seen_floods

    def test_coarser_route_takes_over_after_removal(self):
        from repro.core.packets import FibAddPacket, FibRemovePacket

        net, routers, pub, sub = build_square()
        net.sim.run()
        # Install a finer route, then withdraw it: LPM falls back.
        add = FibAddPacket(prefixes=(Name.parse("/2/9"),), origin="R2")
        routers[0].control.handle_fib_add(add, face=None)
        net.sim.run()
        assert routers[3].cd_routes.lookup("/2/9/x") == {"R2"}
        remove = FibRemovePacket(prefixes=(Name.parse("/2/9"),), origin="R2")
        routers[2].control.handle_fib_remove(remove, face=None)
        net.sim.run()
        assert routers[3].cd_routes.lookup("/2/9/x") == {"R0"}


class TestOwnershipMonitorRegression:
    """The PR-8 replay race, re-proven through the ownership monitor.

    The protocol-level assertions above pin the guard's mechanics; these
    replay the same race and let :meth:`InvariantMonitor.check_ownership`
    judge the end state — the check the scenario harness now runs in
    every matrix cell, so a regression of the guard fails both ways.
    """

    def _monitor(self):
        from repro.sim.invariants import InvariantMonitor, SubscriptionLedger

        return InvariantMonitor(SubscriptionLedger())

    def test_replayed_handoff_leaves_ownership_clean(self):
        net, routers, pub, sub = build_square()
        net.sim.run()
        packet = routers[0].control.initiate_handoff([Name.parse("/2")], "R1")
        net.sim.run()
        routers[1].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        # Replay of the first handoff lands after the onward split.
        routers[1].control.handle_handoff(packet, routers[1].face_toward(routers[0]))
        net.sim.run()
        inv = self._monitor()
        assert inv.check_ownership(net, net.sim.now, expected_cover=["/2"]) == 0

    def test_monitor_catches_the_pre_fix_shape(self):
        # Counterfactual: had the guard readopted, /2 would be served by
        # R1 *and* R2 — exactly what dual_owner exists to flag.
        net, routers, pub, sub = build_square()
        net.sim.run()
        routers[0].control.initiate_handoff([Name.parse("/2")], "R1")
        net.sim.run()
        routers[1].control.initiate_handoff([Name.parse("/2")], "R2")
        net.sim.run()
        routers[1].rp_prefixes.add(Name.parse("/2"))  # simulate the bug
        inv = self._monitor()
        assert inv.check_ownership(net, net.sim.now, expected_cover=["/2"]) == 1
        assert inv.violations[0].kind == "dual_owner"

    def test_federated_migration_replay_variant(self):
        # The same race inside a federated region: a zone migrates
        # between two owner members, the stale CdHandoff replays at the
        # new owner, and both the region's relay map and the ownership
        # invariants must come out clean.
        from tests.test_federation import build_region_world

        net, state, region_map, _hosts = build_region_world()
        net.sim.run()
        zone = Name.parse("/region/0/z0")
        old, new = net.nodes["acc0_0"], net.nodes["acc0_1"]
        packet = old.control.initiate_handoff([zone], "acc0_1")
        net.sim.run()
        assert zone in new.rp_prefixes
        # Members form a star through the aggregation point, so the
        # replay arrives on the core-facing face.
        new.control.handle_handoff(packet, new.face_toward(net.nodes["core0"]))
        net.sim.run()
        assert zone in new.rp_prefixes  # replay must not bounce it back
        assert net.nodes["core0"].relinquished[zone] == "acc0_1"
        inv = self._monitor()
        assert inv.check_ownership(
            net, net.sim.now, expected_cover=sorted(state.placement)
        ) == 0
