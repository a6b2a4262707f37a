"""Federation unit tests: region map, placement, relay safety, install
wiring and the autoscaler's decision rules."""

import pytest

from repro.core import (
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    RpTable,
)
from repro.core.federation import (
    AutoscalerConfig,
    AutoscalerRole,
    FederationState,
    RegionMap,
    RpRegion,
    install_federation,
    relay_safe,
    spread_placement,
)
from repro.names import Name
from repro.sim.network import Network


def region(name="A", family="/region/0", aggregator="core0", owners=("a0", "a1")):
    return RpRegion(
        name=name, family=Name.parse(family), aggregator=aggregator, owners=tuple(owners)
    )


class TestRpRegion:
    def test_needs_owners(self):
        with pytest.raises(ValueError, match="at least one owner"):
            region(owners=())

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValueError, match="duplicate"):
            region(owners=("a0", "a0"))
        with pytest.raises(ValueError, match="duplicate"):
            region(owners=("core0",))  # aggregator doubling as owner

    def test_size_bounds(self):
        with pytest.raises(ValueError, match="must be 2..8"):
            region(owners=tuple(f"a{i}" for i in range(8)))  # 9 members
        region(owners=tuple(f"a{i}" for i in range(7)))  # 8 members: fine

    def test_covers(self):
        r = region()
        assert r.covers(Name.parse("/region/0"))
        assert r.covers(Name.parse("/region/0/z3"))
        assert not r.covers(Name.parse("/region/1/z3"))
        assert not r.covers(Name.parse("/region"))


class TestRegionMap:
    def test_rejects_nesting_families(self):
        m = RegionMap([region()])
        with pytest.raises(ValueError, match="nests"):
            m.add(region(name="B", family="/region/0/z1", owners=("b0", "b1")))
        with pytest.raises(ValueError, match="nests"):
            m.add(region(name="C", family="/region", aggregator="c", owners=("c0",)))

    def test_rejects_shared_routers(self):
        m = RegionMap([region()])
        with pytest.raises(ValueError, match="already belongs"):
            m.add(region(name="B", family="/region/1", aggregator="core1", owners=("a0", "b1")))

    def test_rejects_duplicate_name(self):
        m = RegionMap([region()])
        with pytest.raises(ValueError, match="duplicate region name"):
            m.add(region(family="/region/9", aggregator="x", owners=("x0",)))

    def test_lookups(self):
        b = region(name="B", family="/region/1", aggregator="core1", owners=("b0", "b1"))
        m = RegionMap([b, region()])
        assert [r.name for r in m.regions()] == ["A", "B"]  # sorted
        assert len(m) == 2


class TestSpreadPlacement:
    def test_round_robin(self):
        r = region(owners=("a0", "a1", "a2"))
        zones = [Name.parse(f"/region/0/z{i}") for i in range(5)]
        placement = spread_placement(r, zones)
        assert [placement[z] for z in sorted(zones)] == ["a0", "a1", "a2", "a0", "a1"]

    def test_skewed_piles_on_first_owner(self):
        r = region(owners=("a0", "a1", "a2"))
        zones = [Name.parse(f"/region/0/z{i}") for i in range(5)]
        placement = spread_placement(r, zones, skewed=True)
        assert set(placement.values()) == {"a0"}

    def test_zone_must_lie_under_family(self):
        with pytest.raises(ValueError, match="not under family"):
            spread_placement(region(), [Name.parse("/region/1/z0")])


class TestRelaySafe:
    def build(self):
        net = Network()
        a = GCopssRouter(net, "A")
        b = GCopssRouter(net, "B")
        net.connect(a, b, 1.0)
        return a, b

    def test_empty_relay_map_is_safe(self):
        a, _b = self.build()
        assert relay_safe(a, [Name.parse("/z")], "B")

    def test_entry_pointing_at_source_is_safe(self):
        # The legitimate hand-back: the guard sees onward == old_rp.
        a, _b = self.build()
        a.relinquished[Name.parse("/z")] = "B"
        assert relay_safe(a, [Name.parse("/z")], "B")

    def test_foreign_entry_is_unsafe(self):
        a, _b = self.build()
        a.relinquished[Name.parse("/z")] = "C"
        assert not relay_safe(a, [Name.parse("/z")], "B")
        # ... but only for the prefixes actually moved.
        assert relay_safe(a, [Name.parse("/other")], "B")


# ----------------------------------------------------------------------
# A tiny two-region world for install / autoscaler tests
# ----------------------------------------------------------------------

def build_region_world(zones_per_region=4, owners_per_region=2, skewed=False):
    """cores in a ring, owners + one host hanging off each core."""
    net = Network()
    table = RpTable()
    regions = []
    hosts = []
    for r in range(2):
        core = GCopssRouter(net, f"core{r}")
        owner_names = []
        for a in range(owners_per_region):
            owner = GCopssRouter(net, f"acc{r}_{a}")
            net.connect(core, owner, 0.5)
            owner_names.append(owner.name)
        host = GCopssHost(net, f"h{r}")
        net.connect(host, net.nodes[owner_names[0]], 0.2)
        hosts.append(host)
        regions.append(
            RpRegion(
                name=f"R{r}",
                family=Name.parse(f"/region/{r}"),
                aggregator=core.name,
                owners=tuple(owner_names),
            )
        )
        table.assign(f"/region/{r}", core.name)
    net.connect(net.nodes["core0"], net.nodes["core1"], 1.0)
    GCopssNetworkBuilder(net, table).install()
    region_map = RegionMap(regions)
    placement = {}
    for r, reg in enumerate(regions):
        zones = [Name.parse(f"/region/{r}/z{z}") for z in range(zones_per_region)]
        placement.update(spread_placement(reg, zones, skewed=skewed))
    state = install_federation(net, region_map, placement)
    return net, state, region_map, hosts


class TestInstallFederation:
    def test_owners_serve_their_zones(self):
        net, state, region_map, _ = build_region_world()
        assert net.nodes["acc0_0"].rp_prefixes == {
            Name.parse("/region/0/z0"),
            Name.parse("/region/0/z2"),
        }
        assert net.nodes["acc0_1"].rp_prefixes == {
            Name.parse("/region/0/z1"),
            Name.parse("/region/0/z3"),
        }

    def test_aggregator_relays_instead_of_serving(self):
        net, state, _, _ = build_region_world()
        core = net.nodes["core0"]
        assert Name.parse("/region/0") not in core.rp_prefixes
        assert core.relinquished[Name.parse("/region/0/z1")] == "acc0_1"
        assert core.control.fib_flood_filter is not None

    def test_members_learn_fine_routes_outsiders_do_not(self):
        net, _, _, _ = build_region_world()
        zone = "/region/0/z3/update"
        assert net.nodes["acc0_0"].cd_routes.lookup(zone) == {"acc0_1"}
        # The other region's routers keep only the aggregate route.
        assert net.nodes["acc1_0"].cd_routes.lookup(zone) == {"core0"}

    def test_misplaced_zone_rejected(self):
        net, _, region_map, _ = build_region_world()
        bad = {Name.parse("/region/0/z0"): "acc1_0"}
        with pytest.raises(ValueError, match="not an owner"):
            install_federation(net, RegionMap([region_map.get("R0")]), bad)

    def test_absent_aggregator_skips_region(self):
        # Sliced builds: a foreign region's routers are missing; its
        # entry must be ignored, not crash the install.
        net = Network()
        a = GCopssRouter(net, "a0")
        b = GCopssRouter(net, "a1")
        net.connect(a, b, 1.0)
        ghost = RpRegion(
            name="G", family=Name.parse("/region/9"), aggregator="nope", owners=("x0", "x1")
        )
        state = install_federation(
            net, RegionMap([ghost]), {Name.parse("/region/9/z0"): "x0"}
        )
        assert isinstance(state, FederationState)
        assert not a.rp_prefixes

    def test_cross_region_publication_delivered_via_aggregator(self):
        net, _, _, hosts = build_region_world()
        h0, h1 = hosts
        h1.subscribe(["/region/1/z2"])
        net.sim.run()
        got = []
        h1.on_update.append(lambda h, p: got.append(str(p.cd)))
        h0.publish("/region/1/z2", payload_size=16)
        net.sim.run()
        assert got == ["/region/1/z2"]

    def test_intra_region_flood_absorbed_at_aggregator(self):
        net, state, _, _ = build_region_world()
        net.sim.run()
        before = state.scoped_floods
        net.nodes["acc0_0"].control.initiate_handoff([Name.parse("/region/0/z0")], "acc0_1")
        net.sim.run()
        assert state.scoped_floods > before
        # The flood never escaped: region 1 still holds only the
        # aggregate route for region 0's family.
        assert net.nodes["acc1_0"].cd_routes.lookup("/region/0/z0/x") == {"core0"}

    def test_relay_refresh_hook_tracks_handoffs(self):
        net, state, _, _ = build_region_world()
        net.sim.run()
        core = net.nodes["core0"]
        assert core.relinquished[Name.parse("/region/0/z0")] == "acc0_0"
        net.nodes["acc0_0"].control.initiate_handoff([Name.parse("/region/0/z0")], "acc0_1")
        net.sim.run()
        assert core.relinquished[Name.parse("/region/0/z0")] == "acc0_1"


# ----------------------------------------------------------------------
# Autoscaler decision rules
# ----------------------------------------------------------------------

class _BacklogQueue:
    """Wrap a router's real queue but report a chosen backlog."""

    def __init__(self, real, backlog):
        self._real = real
        self._backlog = backlog

    def snapshot(self):
        snap = self._real.snapshot()
        snap["backlog"] = self._backlog
        return snap

    def __getattr__(self, name):
        return getattr(self._real, name)


def autoscaled_world(zones_per_region=4, **config):
    net, state, region_map, hosts = build_region_world(zones_per_region=zones_per_region)
    net.sim.run()  # converge the install floods
    role = AutoscalerRole(region_map.get("R0"), AutoscalerConfig(**config))
    role.attach(net.nodes["core0"])
    state.autoscalers.append(role)
    return net, state, role


def set_backlog(net, name, backlog):
    router = net.nodes[name]
    if not isinstance(router.queue, _BacklogQueue):
        router.queue = _BacklogQueue(router.queue, backlog)
    else:
        router.queue._backlog = backlog


class TestAutoscalerDecisions:
    def test_attach_rejects_wrong_node(self):
        net, _, _, _ = build_region_world()
        role = AutoscalerRole(
            RpRegion(
                name="R0",
                family=Name.parse("/region/0"),
                aggregator="core0",
                owners=("acc0_0", "acc0_1"),
            )
        )
        with pytest.raises(ValueError, match="must attach"):
            role.attach(net.nodes["acc0_0"])

    def test_start_requires_attach(self):
        role = AutoscalerRole(
            RpRegion(
                name="R0",
                family=Name.parse("/region/0"),
                aggregator="core0",
                owners=("acc0_0", "acc0_1"),
            )
        )
        with pytest.raises(RuntimeError, match="attach"):
            role.start(1000.0)

    def test_hot_member_splits_half_to_coolest(self):
        net, _, role = autoscaled_world()
        set_backlog(net, "acc0_0", 20)
        set_backlog(net, "acc0_1", 0)
        role._decide(1000.0)
        net.sim.run()
        assert [a.kind for a in role.actions] == ["split"]
        assert role.actions[0].source == "acc0_0"
        assert role.actions[0].target == "acc0_1"
        # greedy_half with flat loads moves one of the two zones.
        assert len(role.actions[0].prefixes) == 1
        assert role.splits == 1

    def test_dominant_zone_migrates_alone(self):
        net, _, role = autoscaled_world()
        hot = net.nodes["acc0_0"]
        top = sorted(hot.rp_prefixes)[0]
        hot.rp_role.recent_cds.extend([top] * 9)
        hot.rp_role.recent_cds.extend([sorted(hot.rp_prefixes)[1]] * 1)
        set_backlog(net, "acc0_0", 20)
        set_backlog(net, "acc0_1", 0)
        role._decide(1000.0)
        net.sim.run()
        assert [a.kind for a in role.actions] == ["migrate"]
        assert role.actions[0].prefixes == (top,)
        assert role.migrates == 1

    def test_single_zone_member_is_unsplittable(self):
        net, _, role = autoscaled_world()
        hot = net.nodes["acc0_0"]
        hot.rp_role.prefixes = {sorted(hot.rp_role.prefixes)[0]}
        set_backlog(net, "acc0_0", 50)
        role._decide(1000.0)
        assert role.actions == []

    def test_cooldown_suppresses_back_to_back_actions(self):
        net, _, role = autoscaled_world(zones_per_region=8, min_split_interval_ms=800.0)
        set_backlog(net, "acc0_0", 20)
        role._decide(1000.0)
        net.sim.run()
        set_backlog(net, "acc0_0", 20)
        role._decide(1400.0)  # inside the cooldown
        assert len(role.actions) == 1
        role._decide(1900.0)  # outside it
        net.sim.run()
        assert len(role.actions) == 2

    def test_relay_unsafe_target_is_skipped(self):
        net, _, role = autoscaled_world()
        hot = net.nodes["acc0_0"]
        for zone in hot.rp_prefixes:
            net.nodes["acc0_1"].relinquished[zone] = "elsewhere"
        set_backlog(net, "acc0_0", 20)
        role._decide(1000.0)
        assert role.actions == []
        assert role.skipped_unsafe > 0

    def test_idle_members_merge_smallest_into_largest(self):
        net, _, role = autoscaled_world()
        small, big = net.nodes["acc0_0"], net.nodes["acc0_1"]
        big.rp_prefixes.add(Name.parse("/region/0/z9"))
        role._decide(1000.0)
        net.sim.run()
        assert [a.kind for a in role.actions] == ["merge"]
        assert role.actions[0].source == small.name
        assert role.actions[0].target == big.name
        assert role.merges == 1
        assert not small.rp_prefixes

    def test_busy_member_never_merged(self):
        net, _, role = autoscaled_world()
        # A nonzero decap delta marks acc0_0 busy even with a
        # zero backlog, so nothing merges.
        net.nodes["acc0_0"].stats.decapsulations += 3
        role._decide(1000.0)
        assert role.actions == []

    def test_telemetry_counters(self):
        net, _, role = autoscaled_world()
        set_backlog(net, "acc0_0", 20)
        role._decide(1000.0)
        gauges = role.telemetry()
        assert gauges["actions"] == 1
        assert gauges["splits"] == 1
        assert gauges["merges"] == 0
