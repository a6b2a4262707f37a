"""Spec-sliced shard builds must be indistinguishable from replica slices.

The parallel executor's correctness argument leans on one property: a
worker that builds only its shard's slice sees *exactly* the state the
old full-replica worker saw for those nodes — same ranks, same face
order, same link delays, same routes, same RP layout.  These tests
compare every slice against the restriction of a full build, across
seeds, topology shapes and shard counts; hold the one copy of each
partition search to a networkx shortest-path oracle on the built world;
and then prove at the process level that nobody on the proc path builds
a full world anymore, or derives the topology table more than once.
"""

import multiprocessing

import networkx as nx
import pytest

from repro.parallel import slicing
from repro.parallel.partition import min_cut_delay
from repro.parallel.scale import ScaleSpec, build_scale_world, run_scale
from repro.parallel.slicing import build_scale_shard, scale_plan_fast, scale_topology

SPECS = [
    ScaleSpec(players=64, regions=4, access_per_region=2, updates=80, seed=9),
    ScaleSpec(players=200, regions=4, access_per_region=8, updates=40, seed=11),
    ScaleSpec(players=37, regions=3, access_per_region=3, updates=20, seed=5),
    ScaleSpec(players=18, regions=2, access_per_region=1, updates=10, seed=2),
]


def spec_shard_cases():
    return [
        pytest.param(
            spec,
            shards,
            id=f"r{spec.regions}a{spec.access_per_region}"
            f"p{spec.players}s{spec.seed}/shards{shards}",
        )
        for spec in SPECS
        for shards in range(2, spec.regions + 1)
    ]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"seed{s.seed}p{s.players}")
class TestSpecGeometry:
    def test_nodes_and_ranks_match_full_build(self, spec):
        world = build_scale_world(spec)
        names = [name for name, _kind in scale_topology(spec).nodes]
        assert names == list(world.network.nodes)
        assert scale_topology(spec).ranks == {
            name: node.rank for name, node in world.network.nodes.items()
        }

    def test_links_match_full_build(self, spec):
        world = build_scale_world(spec)
        expected = [
            (link._ends[0][0].name, link._ends[1][0].name, link.delay)
            for link in world.network.links
        ]
        assert scale_topology(spec).links == expected

    def test_routes_match_installed_fibs(self, spec):
        world = build_scale_world(spec)
        routes = scale_topology(spec).routes
        for name, table in routes.items():
            router = world.network.nodes[name]
            for rp_name, next_hop in table.items():
                assert router.rp_route[rp_name].peer.name == next_hop


@pytest.mark.parametrize("spec,shards", spec_shard_cases())
class TestPlanEquivalence:
    """The single copy of each search vs. networkx on the built world.

    The spec-level plan and lookahead used to be compared with
    network-walking twins; with one implementation left the comparison is
    against an independent oracle: ``networkx`` shortest paths over the
    graph of a genuinely built world.
    """

    def test_plan_fast_matches_network_plan(self, spec, shards):
        graph = build_scale_world(spec).network.graph
        plan = scale_plan_fast(spec, shards)
        assert plan.anchors == tuple(f"core{r}" for r in range(shards))
        assert plan.num_shards == shards
        from_anchor = [
            nx.single_source_dijkstra_path_length(graph, anchor, weight="weight")
            for anchor in plan.anchors
        ]
        # Nearest anchor; the lowest anchor index wins a tie.
        assert plan.assignment == {
            node: min(range(shards), key=lambda i: (from_anchor[i][node], i))
            for node in graph.nodes
        }

    def test_spec_lookahead_matches_plan_lookahead(self, spec, shards):
        world = build_scale_world(spec)
        plan = scale_plan_fast(spec, shards)
        cut = [
            data["weight"]
            for a, b, data in world.network.graph.edges(data=True)
            if plan.assignment[a] != plan.assignment[b]
        ]
        assert min_cut_delay(scale_topology(spec).links, plan.assignment) == min(cut)
        assert plan.lookahead_ms(world.network) == min(cut)


@pytest.mark.parametrize("spec,shards", spec_shard_cases())
def test_slice_is_identical_to_full_replica_restriction(spec, shards):
    full = build_scale_world(spec)
    plan = scale_plan_fast(spec, shards)
    for shard in range(shards):
        world = build_scale_shard(spec, plan, shard)
        members = {n for n, s in plan.assignment.items() if s == shard}
        boundary_far = set()
        for link in full.network.links:
            a, b = link._ends[0][0].name, link._ends[1][0].name
            if (plan.assignment[a] == shard) != (plan.assignment[b] == shard):
                boundary_far.add(b if plan.assignment[a] == shard else a)
        # Node set: exactly the members plus boundary stubs.
        assert set(world.network.nodes) == members | boundary_far
        assert set(world.hosts) == {n for n in members if n.startswith("p")}
        for name in members:
            mine, theirs = world.network.nodes[name], full.network.nodes[name]
            assert mine.rank == theirs.rank
            assert type(mine).__name__ == type(theirs).__name__
            # Same faces in the same order, toward the same peers, over
            # links with the same delay — face iteration order feeds
            # multicast fan-out order, so this must be exact.
            assert [
                (f.face_id, f.peer.name, f.link.delay) for f in mine.faces.values()
            ] == [(f.face_id, f.peer.name, f.link.delay) for f in theirs.faces.values()]
            if hasattr(theirs, "rp_route"):
                assert {
                    rp: face.peer.name for rp, face in mine.rp_route.items()
                } == {rp: face.peer.name for rp, face in theirs.rp_route.items()}
                assert mine.rp_prefixes == theirs.rp_prefixes
        for stub in boundary_far:
            node = world.network.nodes[stub]
            assert node.is_copss_router
            assert node.rank == full.network.nodes[stub].rank
        assert world.host_region == {
            n: full.host_region[n] for n in world.hosts
        }


def test_stub_nodes_refuse_to_execute():
    spec = SPECS[0]
    plan = scale_plan_fast(spec, 2)
    world = build_scale_shard(spec, plan, 0)
    foreign = next(
        n for n in world.network.nodes if plan.assignment[n] != 0
    )
    stub = world.network.nodes[foreign]
    with pytest.raises(RuntimeError, match="stub"):
        stub.receive(object(), None)


def test_plan_fast_rejects_bad_shard_counts():
    spec = SPECS[0]
    with pytest.raises(ValueError, match="shards must be"):
        scale_plan_fast(spec, 0)
    with pytest.raises(ValueError, match="shards must be"):
        scale_plan_fast(spec, spec.regions + 1)


class TestNoFullWorldOnProcPath:
    def test_neither_coordinator_nor_workers_build_the_world(self, monkeypatch):
        """``build_scale_world`` poisoned before the proc run.

        Workers inherit the poison through fork; the run can only finish
        (and match the serial digest) if every process builds from the
        spec slice instead.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        spec = ScaleSpec(players=24, regions=4, access_per_region=2,
                         updates=30, seed=3)
        serial = run_scale(spec)

        import repro.parallel.procpool as procpool
        import repro.parallel.scale as scale_mod

        def boom(_spec):
            raise AssertionError("full world build on the proc path")

        monkeypatch.setattr(scale_mod, "build_scale_world", boom)
        proc = procpool.run_scale_proc(spec, workers=2)
        assert proc["digest"] == serial["digest"]
        assert proc["deliveries"] == serial["deliveries"]
        assert proc["events_processed"] == serial["events_processed"]

    def test_topology_table_is_derived_once_per_process(self, monkeypatch):
        """Coordinator and workers read one table each, never re-derive it.

        The counter lives in shared memory so forked workers count too.
        Workers inherit the coordinator's cached table through fork; the
        bound is one derivation per process.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        spec = ScaleSpec(players=24, regions=4, access_per_region=2,
                         updates=30, seed=3)
        derivations = multiprocessing.get_context("fork").Value("i", 0)
        derive = slicing.ScaleTopology

        def counting(spec):
            with derivations.get_lock():
                derivations.value += 1
            return derive(spec)

        monkeypatch.setattr(slicing, "ScaleTopology", counting)
        scale_topology.cache_clear()
        try:
            proc = run_scale(spec, workers=2)
        finally:
            scale_topology.cache_clear()
        assert proc["mode"] == "proc:2"
        assert 1 <= derivations.value <= 1 + 2
