"""The one routing function, ``repro.sim.routing.next_hop_table``.

Every router forwards from its own table, built once from an edge list
by the ``(dist + delay, rank)`` rule.  Held here:

* properties on random connected graphs: each chosen hop lies on a
  shortest path and is the lowest-ranked of the tied neighbours, every
  chain reaches its destination without a loop, and link order does not
  matter;
* networkx, as a test-only oracle, picks the same hop for every
  router→node pair of the topologies the pins run on (Fig. 3b, the
  default backbone, both live specs), so moving routing off networkx
  moved no route;
* the run-time packages and the paper CLI import no networkx at all.
"""

import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import GCopssHost, GCopssRouter
from repro.net.world import build_world, smoke_spec, sweep_spec
from repro.sim.routing import network_next_hops, next_hop_table
from repro.topology.backbone import build_backbone
from repro.topology.benchmark import build_benchmark_topology
from tests.conftest import nx_graph

#: Multiples of 0.5 add exactly in binary, so equal-cost ties are real.
DELAYS = st.sampled_from([0.5, 1.0, 1.5, 2.0])


@st.composite
def connected_graphs(draw):
    """``(links, ranks)``: a random spanning tree plus extra links."""
    n = draw(st.integers(2, 9))
    names = [f"n{i}" for i in range(n)]
    delays = {}
    for i in range(1, n):
        delays[(draw(st.integers(0, i - 1)), i)] = draw(DELAYS)
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(extra, max_size=2 * n)):
        if a != b:
            delays[(min(a, b), max(a, b))] = draw(DELAYS)
    links = [(names[a], names[b], d) for (a, b), d in delays.items()]
    ranks = dict(zip(names, draw(st.permutations(range(n)))))
    return links, ranks


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_hop_is_the_lowest_ranked_neighbour_on_a_shortest_path(case):
    links, ranks = case
    graph = nx.Graph()
    graph.add_weighted_edges_from(links)
    table = next_hop_table(links, ranks, list(ranks))
    for dst in ranks:
        dist = nx.single_source_dijkstra_path_length(graph, dst)
        for node in ranks:
            if node == dst:
                assert dst not in table[node]
                continue
            tied = [
                m for m in graph[node]
                if dist[m] + graph[node][m]["weight"] == dist[node]
            ]
            hop = table[node][dst]
            assert hop in tied
            assert ranks[hop] == min(ranks[m] for m in tied)


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_chains_reach_the_destination_without_loops(case):
    links, ranks = case
    table = next_hop_table(links, ranks, list(ranks))
    for dst in ranks:
        for node in ranks:
            seen = set()
            while node != dst:
                assert node not in seen
                seen.add(node)
                node = table[node][dst]


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data())
def test_table_ignores_link_order_and_orientation(case, data):
    links, ranks = case
    shuffled = data.draw(st.permutations(links))
    flips = data.draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    turned = [(b, a, d) if flip else (a, b, d) for (a, b, d), flip in zip(shuffled, flips)]
    assert next_hop_table(turned, ranks, list(ranks)) == next_hop_table(
        links, ranks, list(ranks)
    )


def test_unreachable_and_absent_destinations_have_no_entry():
    links = [("a", "b", 1.0), ("c", "d", 1.0)]
    ranks = {name: i for i, name in enumerate("abcd")}
    table = next_hop_table(links, ranks, ["b", "d", "ghost"])
    assert table == {"a": {"b": "b"}, "b": {}, "c": {"d": "d"}, "d": {}}


def assert_matches_networkx(network, sources) -> int:
    """Table == networkx shortest paths for every source→node pair.

    ``single_source_dijkstra_path`` is the search ``shortest_path`` ran
    per pair, without the early stop, which changes no path it returns.
    Returns the number of pairs compared.
    """
    graph = nx_graph(network)
    table = network_next_hops(network, list(network.nodes))
    pairs = 0
    for src in sources:
        paths = nx.single_source_dijkstra_path(graph, src, weight="weight")
        assert set(table[src]) == set(paths) - {src}
        for dst, path in paths.items():
            if dst != src:
                assert table[src][dst] == path[1], (src, dst)
                pairs += 1
    return pairs


def test_fig3b_testbed_matches_networkx():
    topo = build_benchmark_topology(
        GCopssRouter, GCopssHost, [f"player{i}" for i in range(62)]
    )
    assert assert_matches_networkx(topo.network, topo.routers) == 6 * 67


def test_default_backbone_matches_networkx_on_every_router_node_pair():
    built = build_backbone(GCopssRouter)
    built.attach_hosts(GCopssHost, [f"p{i:03d}" for i in range(414)], 1.0)
    routers = [node.name for node in built.core_routers + built.edge_routers]
    assert len(routers) == 240
    assert assert_matches_networkx(built.network, routers) == 240 * 653


@pytest.mark.parametrize("spec", [smoke_spec(), sweep_spec()], ids=["smoke", "sweep"])
def test_live_specs_match_networkx(spec):
    network = build_world(spec).network
    nodes = len(spec["routers"]) + len(spec["hosts"])
    assert assert_matches_networkx(network, spec["routers"]) == (
        len(spec["routers"]) * (nodes - 1)
    )


def test_runtime_packages_import_no_networkx():
    """Routers and flow accounting read next-hop tables, so no run path
    needs networkx (or numpy): with both unimportable, the run-time
    packages and the paper CLI import and Table II runs."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = sys.modules['numpy'] = None\n"
        "import repro.net.runner, repro.parallel.procpool\n"
        "import repro.experiments.scenarios.harness, repro.experiments.__main__\n"
        "import repro.experiments.flowrun, repro.experiments.table2_hybrid\n"
        "print(repro.experiments.table2_hybrid.run_table2(sample=0.0005).gcopss.network_bytes)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "142996744000"
