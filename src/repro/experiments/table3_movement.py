"""Table III — snapshot convergence for moving players (§V-B).

Players move per the paper's model (every 5-35 minutes, compressed in sim
time; 10% up / 10% down / lateral otherwise).  On each move the player
must download the snapshot of every newly visible area from one of the 3
decentralized brokers, via query/response with pipelining window 5 or 15,
or via cyclic multicast.  Brokers are pre-seeded with hours of object
churn (decay model, paper Eq. 1), so every object carries a snapshot in
the 579-1,740 byte band.

Reported per movement type (the paper's 6 rows): move count, leaf CDs to
download, and mean convergence time with a 95% CI; plus the aggregate
snapshot traffic, where the paper found QR consuming ~26 GB against
cyclic multicast's ~14 GB for roughly the same object count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import GCopssHost, GCopssNetworkBuilder, GCopssRouter
from repro.core.hierarchy import MoveType
from repro.core.snapshot import (
    CyclicSnapshotReceiver,
    QrSnapshotFetcher,
    SnapshotBroker,
    group_cd,
    snapshot_name,
)
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.common import default_rp_assignment, pick_rp_sites
from repro.game.map import GameMap
from repro.game.movement import MovementModel
from repro.game.player import Player
from repro.names import Name
from repro.ndn.engine import install_routes
from repro.sim.stats import LatencyRecorder
from repro.topology.backbone import build_backbone

__all__ = ["MovementModeResult", "Table3Result", "run_table3", "MOVE_TYPE_ORDER"]

#: Rendezvous points for the game CDs (§V-B: three, as for Table I).
NUM_RPS = 3

MOVE_TYPE_ORDER: Tuple[MoveType, ...] = (
    MoveType.TO_LOWER_LAYER,
    MoveType.ZONE_TO_REGION,
    MoveType.REGION_TO_WORLD,
    MoveType.ZONE_SAME_REGION,
    MoveType.ZONE_DIFF_REGION,
    MoveType.REGION_TO_REGION,
)


@dataclass
class MovementModeResult:
    """One retrieval mode's outcome."""

    label: str
    convergence: Dict[MoveType, LatencyRecorder] = field(default_factory=dict)
    cd_counts: Dict[MoveType, List[int]] = field(default_factory=dict)
    moves_completed: int = 0
    moves_skipped: int = 0
    network_bytes: int = 0
    objects_transferred: int = 0

    def record(self, move_type: MoveType, convergence_ms: float, cds: int) -> None:
        self.convergence.setdefault(
            move_type, LatencyRecorder(move_type.value)
        ).record(convergence_ms)
        self.cd_counts.setdefault(move_type, []).append(cds)
        self.moves_completed += 1

    def mean_ms(self, move_type: MoveType) -> Optional[float]:
        recorder = self.convergence.get(move_type)
        return recorder.mean if recorder and recorder.count else None

    def overall_mean_ms(self) -> float:
        """Mean convergence over every completed move (the Total row)."""
        total = 0.0
        count = 0
        for recorder in self.convergence.values():
            total += sum(recorder.samples)
            count += recorder.count
        return total / count if count else 0.0

    @property
    def network_gb(self) -> float:
        return self.network_bytes / 1e9


@dataclass
class Table3Result:
    modes: Dict[str, MovementModeResult]

    def rows(self) -> List[Sequence[object]]:
        """Table III layout: one row per move type plus the total."""
        labels = list(self.modes)
        out: List[Sequence[object]] = []
        for move_type in MOVE_TYPE_ORDER:
            row: List[object] = [move_type.value]
            counts = None
            cds = None
            for label in labels:
                mode = self.modes[label]
                recorder = mode.convergence.get(move_type)
                if recorder and recorder.count:
                    if counts is None:
                        counts = recorder.count
                        cds = round(
                            sum(mode.cd_counts[move_type])
                            / len(mode.cd_counts[move_type]),
                            1,
                        )
                    row_value = (
                        f"{recorder.mean:.1f}"
                        f" ({recorder.confidence_interval_95():.1f})"
                    )
                else:
                    row_value = "-"
                row.append(row_value)
            row.insert(1, counts if counts is not None else 0)
            row.insert(2, cds if cds is not None else 0)
            out.append(row)
        total_row: List[object] = ["Total", "", ""]
        for label in labels:
            total_row.append(f"{self.modes[label].overall_mean_ms():.1f}")
        out.append(total_row)
        return out


def _partition_broker_areas(
    game_map: GameMap, broker_count: int
) -> List[Dict[Name, List[int]]]:
    shares: List[Dict[Name, List[int]]] = [{} for _ in range(broker_count)]
    for i, cd in enumerate(sorted(game_map.hierarchy.leaf_cds())):
        shares[i % broker_count][cd] = game_map.objects_in(cd)
    return shares


def run_table3(
    mode: str,
    num_players: int = 93,
    num_moves: int = 120,
    seed: int = 42,
) -> MovementModeResult:
    """Run one retrieval mode ("qr5", "qr15" or "cyclic").

    The movement timescale is compressed by
    ``DEFAULT_CALIBRATION.movement_compression`` so a 120-move schedule
    fits in minutes of simulated time; convergence of an individual move is
    unaffected (it is a property of the retrieval protocol and routes).
    A player whose previous snapshot download is still running skips its
    next move (counted), mirroring a client that is still loading.
    """
    if mode not in ("qr5", "qr15", "cyclic"):
        raise ValueError(f"unknown mode {mode!r}")
    window = {"qr5": 5, "qr15": 15}.get(mode)
    cal = DEFAULT_CALIBRATION

    game_map = GameMap(seed=seed)
    placement = game_map.place_players(
        num_players, per_area=(1, max(4, num_players // 10)), seed=seed
    )
    built = build_backbone(
        lambda net, name: GCopssRouter(
            net,
            name,
            service_time=cal.copss_forward_ms,
            rp_service_time=cal.rp_service_ms,
        )
    )
    network = built.network
    host_nodes = built.attach_hosts(
        GCopssHost, sorted(placement), cal.backbone_host_edge_delay_ms
    )
    hosts: Dict[str, GCopssHost] = {h.name: h for h in host_nodes}  # type: ignore[misc]

    # Rendezvous points for the game CDs.
    rp_names = pick_rp_sites(built, NUM_RPS)
    rp_table = default_rp_assignment(game_map.hierarchy, rp_names)

    # Brokers: attach to spread-out cores; their access routers serve the
    # snapshot-group CDs as RPs so cyclic groups start/stop on demand.
    broker_sites = pick_rp_sites(built, cal.broker_count + NUM_RPS)[NUM_RPS:]
    shares = _partition_broker_areas(game_map, cal.broker_count)
    brokers: List[SnapshotBroker] = []
    for i, (site, share) in enumerate(zip(broker_sites, shares)):
        broker = SnapshotBroker(
            network,
            f"broker{i}",
            objects_by_cd=share,
            decay=cal.object_size_decay,
            cyclic_pacing_ms=cal.broker_cyclic_pacing_ms,
        )
        network.connect(broker, network.nodes[site], 1.0)
        for cd in share:
            rp_table.assign(group_cd(cd), site)
        brokers.append(broker)

    GCopssNetworkBuilder(network, rp_table).install()

    rng = random.Random(seed + 1)
    depth_versions = {0: 200, 1: 60, 2: 30}
    for broker, site in zip(brokers, broker_sites):
        router = network.nodes[site]
        if not isinstance(router, GCopssRouter):
            raise TypeError(
                f"broker site {site} must be a GCopssRouter, got {type(router).__name__}"
            )
        broker.broker_role.attach_group_hooks(router)
        broker.broker_role.start()
        broker.broker_role.preseed(
            lambda cd, oid: depth_versions[
                game_map.hierarchy.area_of_leaf(cd).depth
            ],
            cal.snapshot_update_size_range,
            rng,
        )
        for cd in broker.broker_role.objects:
            install_routes(network, snapshot_name(cd, 0).parent, broker)

    players: Dict[str, Player] = {}
    for name, host in hosts.items():
        player = Player(host, game_map, placement[name])
        player.join()
        players[name] = player
    network.sim.run()
    network.reset_counters()

    # Movement schedule, compressed.
    model = MovementModel(game_map.hierarchy, seed=seed + 2)
    duration = 40 * 60_000.0  # 40 minutes of wall-clock player behaviour
    moves = model.schedule(placement, duration)[:num_moves]

    result = MovementModeResult(label=mode)
    busy: Dict[str, bool] = {name: False for name in players}

    def start_move(decision) -> None:
        player = players[decision.player]
        if busy[decision.player] or player.area != decision.src:
            result.moves_skipped += 1
            return
        needed_cds = player.move_to(decision.dst)
        needed = {
            cd: game_map.objects_in(cd) for cd in sorted(needed_cds)
        }
        total_cds = len(needed)
        if not any(needed.values()):
            result.record(decision.move_type, 0.0, total_cds)
            return
        busy[decision.player] = True

        def done(fetcher) -> None:
            busy[decision.player] = False
            result.objects_transferred += getattr(
                fetcher, "objects_fetched", getattr(fetcher, "objects_received", 0)
            )
            result.record(decision.move_type, fetcher.convergence_time, total_cds)

        if window is not None:
            QrSnapshotFetcher(player.host, needed, window=window, on_complete=done)
        else:
            CyclicSnapshotReceiver(player.host, needed, on_complete=done)

    offset = network.sim.now
    for decision in moves:
        network.sim.schedule_at(
            offset + decision.time_ms / cal.movement_compression,
            start_move,
            decision,
        )
    network.sim.run()
    result.network_bytes = network.total_bytes
    return result


def run_table3_all(
    num_players: int = 93,
    num_moves: int = 120,
    seed: int = 42,
) -> Table3Result:
    """All three Table III retrieval modes on the same movement schedule."""
    modes = {}
    for mode, label in (("qr5", "QR w=5"), ("qr15", "QR w=15"), ("cyclic", "Cyclic")):
        outcome = run_table3(
            mode,
            num_players=num_players,
            num_moves=num_moves,
            seed=seed,
        )
        outcome.label = label
        modes[label] = outcome
    return Table3Result(modes=modes)
