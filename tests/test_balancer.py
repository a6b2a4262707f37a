"""Tests for dynamic RP load balancing and the no-loss handover (§IV-B)."""

import random
from collections import deque

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    MapHierarchy,
    RpLoadBalancer,
    RpTable,
    SplitPolicy,
)
from repro.core.balancer import default_refiner
from repro.names import Name, ROOT
from repro.sim.network import Network


def build_mesh(num_routers=6, num_hosts=6):
    """A ring-with-chords router mesh with one host per router."""
    net = Network()
    routers = [GCopssRouter(net, f"R{i}") for i in range(num_routers)]
    for i in range(num_routers):
        net.connect(routers[i], routers[(i + 1) % num_routers], 1.0)
    net.connect(routers[0], routers[3], 1.0)
    hosts = []
    for i in range(num_hosts):
        host = GCopssHost(net, f"h{i}")
        net.connect(host, routers[i % num_routers], 0.5)
        hosts.append(host)
    return net, routers, hosts


def install_single_rp(net, hierarchy):
    table = RpTable()
    table.assign(ROOT, "R0")
    GCopssNetworkBuilder(net, table).install()
    return table


class TestManualHandoff:
    def test_handoff_moves_decapsulation_point(self):
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        install_single_rp(net, hierarchy)
        rp0 = routers[0]
        # Refine / into /1,/2,/3,/0 locally so part of it can move.
        rp0.rp_role.prefixes = {Name.parse("/1"), Name.parse("/2"), Name.parse("/3"), Name.parse("/0")}
        rp0.cd_routes.clear()
        for p in rp0.rp_prefixes:
            rp0.cd_routes.add(p, "R0")
        hosts[3].subscribe(["/2"])
        net.sim.run()

        rp0.control.initiate_handoff([Name.parse("/2")], "R3")
        net.sim.run()
        got = []
        hosts[3].on_update.append(lambda h, p: got.append(str(p.cd)))
        hosts[1].publish("/2/x", payload_size=10)
        net.sim.run()
        assert got == ["/2/x"]
        assert routers[3].decapsulations == 1
        assert Name.parse("/2") in routers[3].rp_prefixes
        assert Name.parse("/2") not in rp0.rp_prefixes

    def test_handoff_requires_served_prefix(self):
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        install_single_rp(net, hierarchy)
        with pytest.raises(ValueError):
            routers[0].control.initiate_handoff([Name.parse("/9")], "R3")

    def test_fib_flood_updates_all_routers(self):
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        install_single_rp(net, hierarchy)
        rp0 = routers[0]
        rp0.rp_role.prefixes = {Name.parse("/1"), Name.parse("/2")}
        rp0.cd_routes.clear()
        for p in rp0.rp_prefixes:
            rp0.cd_routes.add(p, "R0")
        # Other routers still route via the coarse table; give them the
        # fine prefixes too so the flood has something to overwrite.
        for r in routers[1:]:
            r.cd_routes.clear()
            for p in rp0.rp_prefixes:
                r.cd_routes.add(p, "R0")
        rp0.control.initiate_handoff([Name.parse("/2")], "R3")
        net.sim.run()
        for router in routers:
            assert router.cd_routes.lookup("/2/anything") == {"R3"}
            assert router.cd_routes.lookup("/1/anything") == {"R0"}


class TestNoLossProperty:
    def test_no_update_missed_during_split_under_load(self):
        """Publish continuously across a handoff; every subscriber must
        receive every update exactly (dedup) once — the paper's §IV-B
        guarantee."""
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        table = RpTable()
        for p in ("/1", "/2", "/3", "/0"):
            table.assign(p, "R0")
        GCopssNetworkBuilder(net, table).install()

        subscribers = hosts[2:5]
        for host in subscribers:
            host.subscribe(["/1", "/2", "/3"])
        net.sim.run()

        received = {h.name: set() for h in subscribers}
        for host in subscribers:
            host.on_update.append(
                lambda h, p: received[h.name].add(p.sequence)
            )

        publisher = hosts[0]
        rng = random.Random(5)
        total = 120
        t0 = net.sim.now
        for i in range(total):
            cd = f"/{rng.randint(1, 3)}/x"
            net.sim.schedule_at(
                t0 + i * 1.0 + 1.0,
                lambda i=i, cd=cd: publisher.publish(cd, payload_size=20, sequence=i),
            )
        # Trigger the handoff mid-stream.
        net.sim.schedule_at(
            t0 + 60.0, lambda: routers[0].control.initiate_handoff([Name.parse("/2")], "R3")
        )
        net.sim.run()

        expected = set(range(total))
        for name, got in received.items():
            assert got == expected, f"{name} missed {sorted(expected - got)[:5]}"

    def test_cascaded_splits_no_loss(self):
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        table = RpTable()
        for p in ("/1", "/2", "/3", "/0"):
            table.assign(p, "R0")
        GCopssNetworkBuilder(net, table).install()
        subscriber = hosts[4]
        subscriber.subscribe(["/1", "/2", "/3"])
        net.sim.run()
        got = set()
        subscriber.on_update.append(lambda h, p: got.add(p.sequence))

        publisher = hosts[1]
        total = 150
        t0 = net.sim.now
        for i in range(total):
            cd = f"/{(i % 3) + 1}/x"
            net.sim.schedule_at(
                t0 + i * 1.0 + 1.0,
                lambda i=i, cd=cd: publisher.publish(cd, payload_size=20, sequence=i),
            )
        net.sim.schedule_at(
            t0 + 40.0, lambda: routers[0].control.initiate_handoff([Name.parse("/2")], "R2")
        )
        net.sim.schedule_at(
            t0 + 80.0, lambda: routers[0].control.initiate_handoff([Name.parse("/3")], "R5")
        )
        net.sim.run()
        assert got == set(range(total))


class TestAutoBalancer:
    def make_loaded_rp(self):
        hierarchy = MapHierarchy([3])
        net, routers, hosts = build_mesh()
        table = RpTable()
        table.assign(ROOT, "R0")
        GCopssNetworkBuilder(net, table).install()
        hosts[3].subscribe(["/1", "/2", "/3"])
        net.sim.run()
        balancer = RpLoadBalancer(
            routers[0],
            candidates=[f"R{i}" for i in range(6)],
            queue_threshold=5,
            refiner=default_refiner(hierarchy),
            cooldown=50.0,
            rng=random.Random(0),
        )
        return net, routers, hosts, balancer

    def test_split_triggered_by_queue_threshold(self):
        net, routers, hosts, balancer = self.make_loaded_rp()
        publisher = hosts[1]
        # Publish far faster than the RP can decapsulate.
        for i in range(80):
            net.sim.schedule_at(
                net.sim.now + i * 0.5,
                lambda i=i: publisher.publish(f"/{(i % 3) + 1}/x", payload_size=10, sequence=i),
            )
        net.sim.run()
        assert balancer.splits_performed >= 1
        rp_holders = [r.name for r in routers if r.rp_prefixes]
        assert len(rp_holders) >= 2

    def test_split_refines_root_prefix(self):
        net, routers, hosts, balancer = self.make_loaded_rp()
        publisher = hosts[1]
        for i in range(60):
            net.sim.schedule_at(
                net.sim.now + i * 0.5,
                lambda i=i: publisher.publish(f"/{(i % 3) + 1}/x", payload_size=10),
            )
        net.sim.run()
        # ROOT is no longer served as a single coarse prefix anywhere.
        all_prefixes = set()
        for router in routers:
            all_prefixes |= router.rp_prefixes
        from repro.names import ROOT as root_name

        assert root_name not in all_prefixes
        assert len(all_prefixes) >= 2

    def test_no_split_without_candidates(self):
        net, routers, hosts, _ = self.make_loaded_rp()
        lone = RpLoadBalancer(
            routers[0], candidates=[], queue_threshold=1, cooldown=0.0
        )
        assert lone.split() is None

    def test_traffic_weighted_policy_balances_window(self):
        net, routers, hosts, _ = self.make_loaded_rp()
        rp = routers[0]
        rp.rp_role.prefixes = {Name.parse(p) for p in ("/1", "/2", "/3", "/0")}
        # Fake a skewed window: /1 dominates.
        rp.rp_role.recent_cds = deque(
            [Name.parse("/1")] * 90 + [Name.parse("/2")] * 5 + [Name.parse("/3")] * 5,
            maxlen=rp.rp_role.recent_cds.maxlen,
        )
        balancer = RpLoadBalancer(
            rp,
            candidates=["R3"],
            policy=SplitPolicy.TRAFFIC_WEIGHTED,
            queue_threshold=1000,
        )
        moved = balancer._choose_moved_prefixes()
        # The hot prefix must not travel with everything else: one side
        # keeps /1, the other gets the rest.
        assert (Name.parse("/1") in moved) == (len(moved) == 1)
