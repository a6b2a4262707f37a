"""Closed-form (flow-level) evaluation for full-trace experiments.

Table II replays the *whole* Counter-Strike trace (1.69M updates).  In
that regime nothing queues (6 RPs / 6 servers against a ~15 ms mean
inter-arrival), so latency is deterministic per route and load is a pure
function of routes and sizes.  These runners compute both directly on a
built network's routes with :class:`~repro.sim.flows.FlowAccountant` — no
event scheduling — which keeps paper-scale runs tractable.  Routes are
the DES forwarders' own and packets are priced by their classes' own
size rules, so ``tests/test_flowrun.py::TestDesAgreement`` finds IP
server and G-COPSS load equal to the DES (the G-COPSS count includes the
copy the tree carries down to a subscribed publisher, which drops it).

All three architectures are covered: G-COPSS (RP-anchored multicast),
hybrid G-COPSS (IP multicast groups with edge filtering) and the IP
client/server baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.baselines.ip_server import UDP_HEADER_BYTES
from repro.core.hybrid import HybridMapper
from repro.core.packets import MulticastPacket
from repro.core.planes import RP_NAMESPACE
from repro.core.rp import RpTable
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.common import subscribers_by_leaf_cd
from repro.game.map import GameMap
from repro.names import Name
from repro.ndn.packets import Interest
from repro.sim.flows import FlowAccountant
from repro.sim.network import Network
from repro.sim.routing import network_links, network_ranks
from repro.trace.model import UpdateEvent

__all__ = ["FlowResult", "FlowScenario"]

def _tunnel_overhead(rp: str) -> int:
    """Bytes the ``/rp/<rp>`` Interest adds around a tunnelled Multicast."""
    return Interest(name=Name([RP_NAMESPACE, rp])).size


@dataclass
class FlowResult:
    """Aggregate outcome of one flow-level run."""

    label: str
    network_bytes: int
    deliveries: int
    latency_sum_ms: float
    latency_max_ms: float = 0.0
    extras: Dict[str, object] = None  # type: ignore[assignment]

    @property
    def network_gb(self) -> float:
        return self.network_bytes / 1e9

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.deliveries if self.deliveries else 0.0

class FlowScenario:
    """Shared routing state for flow-level runs over one backbone build.

    The scenario is built once (routes, player-edge attachment, subscriber
    sets) and then each architecture replays the same events over it.
    """

    def __init__(
        self,
        network: Network,
        host_edge: Dict[str, str],
        game_map: GameMap,
        placement: Dict[str, Name],
    ) -> None:
        self.flows = FlowAccountant(network_links(network), network_ranks(network))
        self.host_edge = dict(host_edge)
        self.map = game_map
        self.placement = placement
        self.subscribers = subscribers_by_leaf_cd(game_map, placement)
        # Per-(cd, anchor) aggregates: subscriber sets are fixed for a
        # placement, so downstream hop/latency sums are computed once per
        # CD and reused across the (up to millions of) events touching it.
        self._down_cache: Dict[Tuple[Name, str, str], Tuple[int, float, float, int]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _gcopss_down(self, cd: Name, rp: str) -> Tuple[int, float, float, int]:
        """(tree edge count, latency sum over hosts, max latency, hosts).

        Down-tree aggregates from RP to every subscriber of ``cd``;
        publisher-specific exclusion is applied by the caller.
        """
        key = (cd, rp, "gcopss")
        cached = self._down_cache.get(key)
        if cached is not None:
            return cached
        edges = {self.host_edge[player] for player in self.subscribers[cd]}
        tree = self.flows.multicast_tree(rp, edges)
        lat_sum = 0.0
        lat_max = 0.0
        hosts = 0
        for player in self.subscribers[cd]:
            down = self._gcopss_term(rp, player)
            lat_sum += down
            lat_max = max(lat_max, down)
            hosts += 1
        cached = (len(tree), lat_sum, lat_max, hosts)
        self._down_cache[key] = cached
        return cached

    def _gcopss_term(self, rp: str, player: str) -> float:
        """RP → ``player`` latency down the G-COPSS tree."""
        edge = self.host_edge[player]
        return (
            self.flows.path_delay(rp, edge)
            + self.flows.hop_count(rp, edge) * DEFAULT_CALIBRATION.copss_forward_ms
            + DEFAULT_CALIBRATION.backbone_host_edge_delay_ms
        )

    def _ip_down(self, cd: Name, site: str) -> Tuple[int, float, float, int]:
        """(sum of per-copy link hops, latency-term sum, max, recipients)."""
        key = (cd, site, "ip")
        cached = self._down_cache.get(key)
        if cached is not None:
            return cached
        hop_sum = 0
        lat_sum = 0.0
        lat_max = 0.0
        count = 0
        for player in self.subscribers[cd]:
            hops, term = self._ip_term(site, player)
            hop_sum += hops
            lat_sum += term
            lat_max = max(lat_max, term)
            count += 1
        cached = (hop_sum, lat_sum, lat_max, count)
        self._down_cache[key] = cached
        return cached

    def _ip_term(self, site: str, player: str) -> Tuple[int, float]:
        """(links, latency) of the server's unicast copy to ``player``."""
        cal = DEFAULT_CALIBRATION
        edge = self.host_edge[player]
        hops = self.flows.hop_count(site, edge) + 1  # + server link
        term = (
            1.0
            + self.flows.path_delay(site, edge)
            + cal.backbone_host_edge_delay_ms
            + hops * cal.ip_forward_ms
        )
        return hops + 1, term  # + host link

    def _hybrid_term(self, pub_edge: str, player: str) -> float:
        """Publisher edge → ``player`` latency over the IP multicast core."""
        cal = DEFAULT_CALIBRATION
        edge = self.host_edge[player]
        return (
            2 * cal.backbone_host_edge_delay_ms
            + self.flows.path_delay(pub_edge, edge)
            + self.flows.hop_count(pub_edge, edge) * cal.ip_forward_ms
            + 2 * cal.copss_forward_ms  # COPSS work at both edges
        )

    # ------------------------------------------------------------------
    # G-COPSS
    # ------------------------------------------------------------------
    def run_gcopss(
        self,
        events: Sequence[UpdateEvent],
        rp_table: RpTable,
        label: str = "G-COPSS (flow)",
        load_scale: float = 1.0,
    ) -> FlowResult:
        """RP-anchored multicast: tunnel up to the RP, tree down.

        ``load_scale`` multiplies byte totals, used when replaying a
        sampled prefix of the full trace (Table II default mode).
        """
        cal = DEFAULT_CALIBRATION
        tunnel = {rp: _tunnel_overhead(rp) for rp in rp_table.all_rps()}
        total_bytes = 0
        lat_sum = 0.0
        lat_max = 0.0
        deliveries = 0
        for event in events:
            rp = rp_table.rp_for(event.cd)
            pub_edge = self.host_edge[event.player]
            size = MulticastPacket.wire_size(event.cd, event.size)
            up_hops = self.flows.hop_count(pub_edge, rp)
            # Host access link + tunnel to the RP.
            total_bytes += size + (size + tunnel[rp]) * up_hops
            up_latency = (
                cal.backbone_host_edge_delay_ms
                + self.flows.path_delay(pub_edge, rp)
                + (up_hops + 1) * cal.copss_forward_ms
                + cal.rp_service_ms
            )
            tree_edges, down_sum, down_max, hosts = self._gcopss_down(event.cd, rp)
            if not hosts:
                continue
            # Tree + host links; a subscribed publisher's own host gets
            # its copy too and drops it.
            total_bytes += (tree_edges + hosts) * size
            count = hosts
            if event.player in self.subscribers[event.cd]:
                down_sum -= self._gcopss_term(rp, event.player)
                count -= 1
            deliveries += count
            lat_sum += up_latency * count + down_sum
            lat_max = max(lat_max, up_latency + down_max)
        return FlowResult(
            label=label,
            network_bytes=int(total_bytes * load_scale),
            deliveries=deliveries,
            latency_sum_ms=lat_sum,
            latency_max_ms=lat_max,
            extras={},
        )

    # ------------------------------------------------------------------
    # Hybrid G-COPSS (COPSS + IP multicast core)
    # ------------------------------------------------------------------
    def run_hybrid(
        self,
        events: Sequence[UpdateEvent],
        mapper: HybridMapper,
        label: str = "hybrid-G-COPSS (flow)",
        load_scale: float = 1.0,
    ) -> FlowResult:
        """Source-rooted IP multicast to every edge in the CD's group.

        No RP detour (lowest latency), but packets also reach edges whose
        only relation to the CD is sharing its hashed group — the
        receiver-side edge filters them, the network still carried them.
        """
        # Edge membership from the player subscription sets.
        for player, area in self.placement.items():
            edge = self.host_edge[player]
            cds = self.map.hierarchy.subscriptions_for(area)
            mapper.subscribe(edge, cds)
        total_bytes = 0
        lat_sum = 0.0
        lat_max = 0.0
        deliveries = 0
        filtered = 0
        delivery_cache: Dict[Tuple[Name, str], Tuple[int, float, float, int, int]] = {}
        for event in events:
            pub_edge = self.host_edge[event.player]
            size = MulticastPacket.wire_size(event.cd, event.size)
            key = (event.cd, pub_edge)
            cached = delivery_cache.get(key)
            if cached is None:
                wanted, unwanted = mapper.deliver(event.cd)
                tree = self.flows.multicast_tree(pub_edge, list(wanted) + list(unwanted))
                per_host_latency = 0.0
                latency_max = 0.0
                hosts = 0
                for player in self.subscribers[event.cd]:
                    term = self._hybrid_term(pub_edge, player)
                    per_host_latency += term
                    latency_max = max(latency_max, term)
                    hosts += 1
                cached = (len(tree), per_host_latency, latency_max, hosts, len(unwanted))
                delivery_cache[key] = cached
            tree_edges, down_sum, down_max, hosts, unwanted_count = cached
            filtered += unwanted_count
            count = hosts
            if event.player in self.subscribers[event.cd]:
                down_sum -= self._hybrid_term(pub_edge, event.player)
                count -= 1
            total_bytes += size + tree_edges * size + count * size
            deliveries += count
            lat_sum += down_sum
            lat_max = max(lat_max, down_max)
        return FlowResult(
            label=label,
            network_bytes=int(total_bytes * load_scale),
            deliveries=deliveries,
            latency_sum_ms=lat_sum,
            latency_max_ms=lat_max,
            extras={"filtered_edge_deliveries": filtered, "waste_ratio": mapper.waste_ratio},
        )

    # ------------------------------------------------------------------
    # IP client/server
    # ------------------------------------------------------------------
    def run_ip_server(
        self,
        events: Sequence[UpdateEvent],
        server_table: RpTable,
        label: str = "IP server (flow)",
        load_scale: float = 1.0,
    ) -> FlowResult:
        """Unicast up to the responsible server, unicast fan-out down."""
        cal = DEFAULT_CALIBRATION
        total_bytes = 0
        lat_sum = 0.0
        lat_max = 0.0
        deliveries = 0
        for event in events:
            site = server_table.rp_for(event.cd)
            pub_edge = self.host_edge[event.player]
            size = UDP_HEADER_BYTES + event.size
            up_hops = self.flows.hop_count(pub_edge, site) + 1  # + server link
            total_bytes += size * (up_hops + 1)  # host link + path + server link
            hop_sum, down_sum, down_max, count = self._ip_down(event.cd, site)
            if event.player in self.subscribers[event.cd]:
                own_hops, own_term = self._ip_term(site, event.player)
                hop_sum -= own_hops
                down_sum -= own_term
                count -= 1
            service = cal.server_base_ms + cal.server_per_recipient_ms * count
            up_latency = (
                cal.backbone_host_edge_delay_ms
                + self.flows.path_delay(pub_edge, site)
                + 1.0  # server access link
                + up_hops * cal.ip_forward_ms
                + service
            )
            total_bytes += size * hop_sum
            deliveries += count
            lat_sum += up_latency * count + down_sum
            lat_max = max(lat_max, up_latency + down_max)
        return FlowResult(
            label=label,
            network_bytes=int(total_bytes * load_scale),
            deliveries=deliveries,
            latency_sum_ms=lat_sum,
            latency_max_ms=lat_max,
            extras={},
        )
