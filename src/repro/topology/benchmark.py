"""The §V-A microbenchmark topology (paper Fig. 3b).

Six routers with R1 at the hub: R1 links R2 and R3; R2 fans out to R4 and
R5; R3 to R6.  The RP (and, in the IP scenario, the server) sits at R1.
62 player hosts are distributed uniformly across the six routers.

The testbed measured processing and queueing only ("the effects of
bandwidth and congestion related latency issues are not considered"), so
inter-router delays are small and uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.sim.network import Network, Node

__all__ = ["build_benchmark_topology", "BenchmarkTopology"]

#: (a, b) router adjacency of Fig. 3b.
BENCHMARK_EDGES: Tuple[Tuple[str, str], ...] = (
    ("R1", "R2"),
    ("R1", "R3"),
    ("R2", "R4"),
    ("R2", "R5"),
    ("R3", "R6"),
)

ROUTER_NAMES: Tuple[str, ...] = ("R1", "R2", "R3", "R4", "R5", "R6")


@dataclass
class BenchmarkTopology:
    """The built testbed: routers, hosts and their attachment map."""

    network: Network
    routers: Dict[str, Node]
    hosts: List[Node]
    host_router: Dict[str, str] = field(default_factory=dict)

def build_benchmark_topology(
    router_factory: Callable[[Network, str], Node],
    host_factory: Callable[[Network, str], Node],
    host_names: List[str],
    inter_router_delay_ms: float = 0.5,
    host_delay_ms: float = 0.1,
) -> BenchmarkTopology:
    """Build Fig. 3b with pluggable node types.

    ``router_factory`` / ``host_factory`` decide the protocol stack
    (G-COPSS routers, plain NDN routers or IP forwarders), so all three
    §V-A candidates share the identical topology.  Hosts are attached
    round-robin across the six routers — the paper's "players are
    uniformly distributed across the routers".
    """
    net = Network()
    routers = {name: router_factory(net, name) for name in ROUTER_NAMES}
    for a, b in BENCHMARK_EDGES:
        net.connect(routers[a], routers[b], inter_router_delay_ms)
    hosts: List[Node] = []
    host_router: Dict[str, str] = {}
    for i, name in enumerate(host_names):
        router_name = ROUTER_NAMES[i % len(ROUTER_NAMES)]
        host = host_factory(net, name)
        net.connect(host, routers[router_name], host_delay_ms)
        hosts.append(host)
        host_router[name] = router_name
    return BenchmarkTopology(
        network=net, routers=routers, hosts=hosts, host_router=host_router
    )
