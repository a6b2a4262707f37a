#!/usr/bin/env python3
"""Player movement and snapshot retrieval (the paper's §IV-A add-on).

A soldier teleports from zone /1/1 to the top of the world and must
download the snapshot of every newly visible area from the brokers.  The
same move is performed twice — once with pipelined query/response and
once with cyclic multicast — and the convergence times are compared.

Run:  python examples/moving_players.py
"""

import random

from repro.core import (
    CyclicSnapshotReceiver,
    GCopssHost,
    GCopssNetworkBuilder,
    GCopssRouter,
    QrSnapshotFetcher,
    RpTable,
    SnapshotBroker,
)
from repro.core.snapshot import group_cd, snapshot_name
from repro.game import GameMap, Player
from repro.ndn.engine import install_routes
from repro.sim import Network


def build_world(squad_size=1):
    game_map = GameMap(seed=7)
    net = Network()
    r1, r2, r3 = (GCopssRouter(net, n) for n in ("R1", "R2", "R3"))
    net.connect(r1, r2, 2.0)
    net.connect(r2, r3, 2.0)

    hosts = []
    for i in range(squad_size):
        host = GCopssHost(net, f"soldier{i}" if squad_size > 1 else "soldier")
        net.connect(host, r3 if i % 2 == 0 else r2, 1.0)
        hosts.append(host)
    host = hosts[0]

    broker = SnapshotBroker(net, "broker", objects_by_cd=game_map.objects_by_cd())
    net.connect(broker, r1, 1.0)

    table = RpTable()
    for region in game_map.hierarchy.areas(1):
        table.assign(region, "R2")
    table.assign("/0", "R2")
    for cd in game_map.hierarchy.leaf_cds():
        table.assign(group_cd(cd), "R1")
    GCopssNetworkBuilder(net, table).install()

    broker.broker_role.attach_group_hooks(r1)
    broker.broker_role.start()
    # Pre-seed hours of object churn so snapshots are non-trivial.
    broker.broker_role.preseed(lambda cd, oid: 60, (29, 87), random.Random(1))
    for cd in broker.broker_role.objects:
        install_routes(net, snapshot_name(cd, 0).parent, broker)

    players = [Player(h, game_map, "/1/1") for h in hosts]
    for p in players:
        p.join()
    net.sim.run()
    return game_map, net, players, broker


def run_move(mode, squad_size):
    game_map, net, players, broker = build_world(squad_size)
    label = f"{mode}, squad of {squad_size}" if squad_size > 1 else mode
    print(f"\n=== {label} ===")
    done = []
    needed = {}
    for player in players:
        needed_cds = player.move_to("/")  # zone -> world: the big move
        needed = {cd: game_map.objects_in(cd) for cd in sorted(needed_cds)}
        if mode.startswith("QR"):
            QrSnapshotFetcher(player.host, needed, window=15, on_complete=done.append)
        else:
            CyclicSnapshotReceiver(player.host, needed, on_complete=done.append)
    total_objects = sum(len(v) for v in needed.values())
    print(
        f"{squad_size} player(s) moved /1/1 -> / : each must fetch"
        f" {len(needed)} area snapshots ({total_objects} objects)"
    )
    net.sim.run()
    mean_convergence = sum(f.convergence_time for f in done) / len(done)
    served = (
        broker.broker_role.snapshot_objects_served
        if mode.startswith("QR")
        else broker.broker_role.cyclic_objects_sent
    )
    print(
        f"mean convergence {mean_convergence:,.0f} ms;"
        f" wire total {net.total_bytes / 1e6:.2f} MB"
        f" = {net.total_bytes / 1e6 / squad_size:.2f} MB per player;"
        f" broker egress {served} objects"
    )
    # A landing move needs nothing, in any mode.
    back_down = players[0].move_to("/2/2")
    print(f"then / -> /2/2 (landing): {len(back_down)} snapshots needed")


def main() -> None:
    run_move("QR (window=15)", squad_size=1)
    run_move("cyclic multicast", squad_size=1)
    # The paper's point: "cyclic multicast is very effective ... when
    # players move in a group" — the same cycle serves the whole squad.
    run_move("QR (window=15)", squad_size=5)
    run_move("cyclic multicast", squad_size=5)


if __name__ == "__main__":
    main()
