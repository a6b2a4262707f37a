"""Topology specs, seeded traces and the live-vs-sim differential.

Live-wire mode model-checks the deployable system against the simulator:
both sides build *the same world from the same spec*, replay *the same
seeded trace* through *the same phased command schedule*, and must agree
**exactly** on every compared counter.  This module owns everything both
sides share:

* the JSON-able topology spec and its deterministic :func:`build_world`
  (the simulator reference builds all of it; each live process builds
  only its slice, the way a multiprocess worker does, with the full
  world's ranks, face ids and routes);
* :func:`make_trace` — the seeded publish trace, a :class:`WireTrace`;
* report collection (:func:`collect_report`, :func:`merge_reports`) and
  the simulator reference (:func:`run_reference`);
* :func:`compare_reports` — the differential itself.

What makes exact equality possible (and honest): the driver serializes
the *subscribe* phase (one host, then global quiescence, then the next),
so control-plane propagation is a deterministic sequence on both sides;
final ST state is a set, tree topologies give unique paths, host dedup
keys on packet uids that the codec carries explicitly, and the publish
phase — which *is* concurrent over UDP — only feeds counters that are
order-independent sums.  Per-stream ``seq_*`` reorder counters and
anything timing-valued (latency, queue waits) are deliberately *not*
compared: the differential proves functional equivalence, not timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.rp import RpTable
from repro.parallel.slicing import build_slice
from repro.sim.network import Network, Node
from repro.sim.routing import next_hop_table
from repro.trace.model import Trace

__all__ = [
    "COMPARED_COUNTERS",
    "DROP_FIELDS",
    "LiveWorld",
    "smoke_spec",
    "sweep_spec",
    "WireTrace",
    "make_trace",
    "build_world",
    "attach_delivery_tally",
    "collect_report",
    "merge_reports",
    "run_reference",
    "compare_reports",
]

#: Per-node counters the differential compares exactly.  Every one is an
#: order-independent function of *which* packets flowed, not *when*.
COMPARED_COUNTERS: Tuple[str, ...] = (
    "packets_received",
    "unknown_packets",
    "interests_dropped_no_route",
    "data_dropped_unsolicited",
    "interests_sent",
    "data_received",
    "decapsulations",
    "multicasts_forwarded",
    "relays",
    "multicast_dropped_no_rp",
    "duplicate_multicasts_dropped",
    "unsubscribe_misses",
    "updates_received",
    "duplicates_suppressed",
    "own_updates_echoed",
    "published",
    "dropped_no_route",
)

#: The subset summed into the headline drop total.
DROP_FIELDS: Tuple[str, ...] = (
    "unknown_packets",
    "interests_dropped_no_route",
    "data_dropped_unsolicited",
    "multicast_dropped_no_rp",
    "duplicate_multicasts_dropped",
    "unsubscribe_misses",
    "duplicates_suppressed",
    "dropped_no_route",
)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def smoke_spec() -> Dict[str, Any]:
    """3 routers in a star at R1 (the RP), one host per router."""
    return {
        "routers": ["R1", "R2", "R3"],
        "edges": [["R1", "R2", 0.5], ["R1", "R3", 0.5]],
        "hosts": {
            "H1": {"router": "R1", "subs": ["/game/a"], "delay": 0.1},
            "H2": {"router": "R2", "subs": ["/game/a", "/game/b"], "delay": 0.1},
            "H3": {"router": "R3", "subs": ["/game/b"], "delay": 0.1},
        },
        "rp": {"/game": "R1"},
        "service_ms": 0.05,
        "rp_service_ms": 0.1,
    }


def sweep_spec() -> Dict[str, Any]:
    """5 routers on the paper's benchmark tree, two hosts per edge router."""
    return {
        "routers": ["R1", "R2", "R3", "R4", "R5"],
        "edges": [
            ["R1", "R2", 0.5],
            ["R1", "R3", 0.5],
            ["R2", "R4", 0.5],
            ["R2", "R5", 0.5],
        ],
        "hosts": {
            "H1": {"router": "R3", "subs": ["/game/a", "/game/c"], "delay": 0.1},
            "H2": {"router": "R3", "subs": ["/game/b"], "delay": 0.1},
            "H3": {"router": "R4", "subs": ["/game/a"], "delay": 0.1},
            "H4": {"router": "R4", "subs": ["/game/b", "/game/c"], "delay": 0.1},
            "H5": {"router": "R5", "subs": ["/game/a", "/game/b"], "delay": 0.1},
            "H6": {"router": "R5", "subs": ["/game/c"], "delay": 0.1},
        },
        "rp": {"/game": "R1"},
        "service_ms": 0.05,
        "rp_service_ms": 0.1,
    }


def spec_for(routers: int) -> Dict[str, Any]:
    """Pick the canonical spec for a router count (3 = smoke, 5 = sweep)."""
    if routers <= 3:
        return smoke_spec()
    return sweep_spec()


#: Payload sizes of a live trace's publishes, drawn uniformly (bytes).
TRACE_MIN_SIZE = 64
TRACE_MAX_SIZE = 512


class WireTrace(Trace):
    """Trace columns (host, CD, size) read as the dicts a publish carries."""

    def row(self, i: int) -> Dict[str, Any]:
        """Event ``i`` as the wire dict; its index is its ``seq``."""
        return {
            "seq": i,
            "host": self.players[self.player[i]],
            "cd": self.cds[self.cd[i]],
            "size": self.size[i],
        }


def make_trace(spec: Dict[str, Any], seed: int, events: int) -> WireTrace:
    """Seeded publish trace: every event is (host, cd, size) plus a seq.

    CDs are drawn from the union of subscribed CDs so traffic exercises
    the full subscription tree, including publishers hearing (and
    suppressing) their own updates.
    """
    trace = WireTrace(
        sorted(spec["hosts"]),
        sorted({cd for h in spec["hosts"].values() for cd in h["subs"]}),
    )
    # Choosing from range(n) draws what choosing from the n-item table did.
    hosts, cds = range(len(trace.players)), range(len(trace.cds))
    rng = random.Random(seed)
    for _ in range(events):
        trace.player.append(rng.choice(hosts))
        trace.cd.append(rng.choice(cds))
        trace.size.append(rng.randrange(TRACE_MIN_SIZE, TRACE_MAX_SIZE + 1))
    return trace


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------
@dataclass
class LiveWorld:
    network: Network
    routers: Dict[str, GCopssRouter]
    hosts: Dict[str, GCopssHost]
    rp_table: RpTable
    spec: Dict[str, Any]
    #: host name -> cd string -> deliveries, filled by the on_update tally.
    delivered: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: host name -> cd string -> publishes, bumped at the publish call site.
    published: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def publish(self, host: str, cd: str, size: int) -> None:
        """Execute one trace event, tallying the per-CD publication."""
        self.hosts[host].publish(cd, size)
        per_cd = self.published.setdefault(host, {})
        per_cd[cd] = per_cd.get(cd, 0) + 1


def build_world(spec: Dict[str, Any], local: "Set[str] | None" = None) -> LiveWorld:
    """Build the world from a spec, deterministically: all of it, or a slice.

    Construction order is part of the contract: routers in spec order,
    then hosts sorted by name (a node's position is its rank), then
    router edges in spec order, then host access links in sorted host
    order.  ``local`` names the nodes a live runner owns; it gets those,
    one stub per foreign peer and the links between them, with the full
    world's face ids (:func:`~repro.parallel.slicing.build_slice`, the
    multiprocess workers' loop).  Routes come from the spec's whole edge
    list, so a slice routes exactly like the simulator reference, which
    builds everything (``local=None``).
    """
    host_names = sorted(spec["hosts"])
    nodes = [(name, "router") for name in spec["routers"]]
    nodes += [(name, "host") for name in host_names]
    links = [(a, b, delay) for a, b, delay in spec["edges"]]
    links += [
        (name, spec["hosts"][name]["router"], spec["hosts"][name].get("delay", 0.1))
        for name in host_names
    ]

    def make(network: Network, name: str, kind: str) -> Node:
        if kind == "host":
            return GCopssHost(network, name)
        return GCopssRouter(
            network,
            name,
            service_time=spec.get("service_ms", 0.05),
            rp_service_time=spec.get("rp_service_ms", 0.1),
        )

    network = build_slice(nodes, links, dict(nodes) if local is None else local, make)
    rp_table = RpTable()
    for prefix in sorted(spec["rp"]):
        rp_table.assign(prefix, spec["rp"][prefix])
    ranks = {name: rank for rank, (name, _kind) in enumerate(nodes)}
    GCopssNetworkBuilder(network, rp_table).install_slice(
        next_hop_table(links, ranks, spec["routers"])
    )
    nodes_by_name = network.nodes.items()
    routers = {n: node for n, node in nodes_by_name if isinstance(node, GCopssRouter)}
    hosts = {n: node for n, node in nodes_by_name if isinstance(node, GCopssHost)}
    world = LiveWorld(network, routers, hosts, rp_table, spec)
    for host in hosts.values():
        attach_delivery_tally(world, host)
    return world


def attach_delivery_tally(world: LiveWorld, host: GCopssHost) -> None:
    """Hook ``host.on_update`` to count accepted deliveries per CD."""

    def _tally(h: GCopssHost, packet) -> None:
        per_cd = world.delivered.setdefault(h.name, {})
        cd = str(packet.cd)
        per_cd[cd] = per_cd.get(cd, 0) + 1

    host.on_update.append(_tally)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _sum_by_cd(per_host: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for per_cd in per_host.values():
        for cd, n in per_cd.items():
            out[cd] = out.get(cd, 0) + n
    return out


def subscriptions_snapshot(router: GCopssRouter) -> Dict[str, int]:
    """Final ST state as ``{cd: downstream face count}`` — a set, so the
    snapshot is independent of subscription arrival order."""
    counts: Dict[str, int] = {}
    for _face, cd, _n in router.forwarding.st.entries():
        key = str(cd)
        counts[key] = counts.get(key, 0) + 1
    return counts


def collect_report(world: LiveWorld) -> Dict[str, Any]:
    """The differential report of the nodes ``world`` holds.

    A live runner's world is its slice, the simulator reference's the
    whole world; stubs are not reported.  Link counters sum every link
    the process holds: bytes accrue sender-side only, so cross-process
    sums count each carried byte exactly once.
    """
    nodes = {
        name: {f: getattr(node.stats, f) for f in COMPARED_COUNTERS}
        for name, node in {**world.routers, **world.hosts}.items()
    }
    subs = {name: subscriptions_snapshot(router) for name, router in world.routers.items()}
    return {
        "nodes": nodes,
        "delivered_by_host": {h: dict(cds) for h, cds in world.delivered.items()},
        "published_by_host": {h: dict(cds) for h, cds in world.published.items()},
        "subscriptions": subs,
        "link_bytes": sum(l.bytes_carried for l in world.network.links),
        "link_packets": sum(l.packets_carried for l in world.network.links),
    }


def merge_reports(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Union per-process slices into one world-level report."""
    merged: Dict[str, Any] = {
        "nodes": {},
        "delivered_by_host": {},
        "published_by_host": {},
        "subscriptions": {},
        "link_bytes": 0,
        "link_packets": 0,
    }
    for part in parts:
        for key in ("nodes", "delivered_by_host", "published_by_host", "subscriptions"):
            for name, value in part[key].items():
                if name in merged[key]:
                    raise ValueError(f"two processes both reported {key}[{name!r}]")
                merged[key][name] = value
        merged["link_bytes"] += part["link_bytes"]
        merged["link_packets"] += part["link_packets"]
    return finalize_report(merged)


def finalize_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """Derive the headline aggregates from the per-node/per-host detail."""
    nodes = report["nodes"]
    report["deliveries_total"] = sum(n["updates_received"] for n in nodes.values())
    report["published_total"] = sum(n["published"] for n in nodes.values())
    report["drops_total"] = sum(
        n[f] for n in nodes.values() for f in DROP_FIELDS
    )
    report["delivered_by_cd"] = _sum_by_cd(report["delivered_by_host"])
    report["published_by_cd"] = _sum_by_cd(report["published_by_host"])
    return report


# ----------------------------------------------------------------------
# Simulator reference
# ----------------------------------------------------------------------
def run_reference(spec: Dict[str, Any], trace: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Replay the trace in the discrete-event simulator, same schedule.

    Mirrors the live driver phase for phase: subscribe one host at a time
    with full quiescence between (``sim.run()`` to an empty heap is the
    simulator's quiescence), then fire every publish and drain.
    """
    world = build_world(spec)
    sim = world.network.sim
    for name in sorted(world.hosts):
        subs = spec["hosts"][name]["subs"]
        if subs:
            world.hosts[name].subscribe(subs)
            sim.run()
    for event in trace:
        world.publish(event["host"], event["cd"], event["size"])
    sim.run()
    return finalize_report(collect_report(world))


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
def compare_reports(live: Dict[str, Any], sim: Dict[str, Any]) -> List[str]:
    """Exact comparison; returns human-readable mismatch lines (empty = pass)."""
    mismatches: List[str] = []

    def _check(label: str, got: Any, want: Any) -> None:
        if got != want:
            mismatches.append(f"{label}: live={got!r} sim={want!r}")

    for key in ("deliveries_total", "published_total", "drops_total",
                "link_bytes", "link_packets"):
        _check(key, live.get(key), sim.get(key))
    for key in ("delivered_by_cd", "published_by_cd"):
        _check(key, live.get(key), sim.get(key))
    _check("subscriptions", live.get("subscriptions"), sim.get("subscriptions"))
    live_nodes, sim_nodes = live.get("nodes", {}), sim.get("nodes", {})
    _check("node set", sorted(live_nodes), sorted(sim_nodes))
    for name in sorted(set(live_nodes) & set(sim_nodes)):
        for counter in COMPARED_COUNTERS:
            _check(
                f"nodes[{name}].{counter}",
                live_nodes[name].get(counter),
                sim_nodes[name].get(counter),
            )
    return mismatches
