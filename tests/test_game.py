"""Tests for the game model: map, objects, players and movement."""

import collections

import pytest

from repro.core import GCopssHost, GCopssNetworkBuilder, GCopssRouter, RpTable
from repro.core.hierarchy import MoveType
from repro.game import GameMap, MovementModel, Player
from repro.names import Name
from repro.sim.network import Network


class TestGameMap:
    def test_paper_object_population(self):
        game_map = GameMap()
        assert 31 * 80 <= game_map.total_objects <= 31 * 120
        for cd, objects in game_map.objects_by_cd().items():
            assert 80 <= len(objects) <= 120

    def test_deterministic_for_seed(self):
        assert GameMap(seed=5).objects_by_cd() == GameMap(seed=5).objects_by_cd()
        assert GameMap(seed=5).objects_by_cd() != GameMap(seed=6).objects_by_cd()

    def test_object_ids_globally_unique(self):
        game_map = GameMap()
        all_ids = [oid for oids in game_map.objects_by_cd().values() for oid in oids]
        assert len(all_ids) == len(set(all_ids))

    def test_area_of_object_inverse(self):
        game_map = GameMap()
        for cd in list(game_map.objects_by_cd())[:5]:
            for oid in game_map.objects_in(cd)[:3]:
                assert game_map.area_of_object(oid) == cd

    def test_visible_objects_zone_player(self):
        game_map = GameMap()
        visible = set(game_map.visible_objects("/1/2"))
        expected = (
            set(game_map.objects_in("/1/2"))
            | set(game_map.objects_in("/1/0"))
            | set(game_map.objects_in("/0"))
        )
        assert visible == expected

    def test_objects_per_layer_matches_paper_ratio(self):
        # Paper: 87 top / 483 middle / 2,627 bottom -> ~1:5:25 by area count.
        game_map = GameMap()
        layers = collections.Counter()
        for cd, oids in game_map.objects_by_cd().items():
            layers[game_map.hierarchy.area_of_leaf(cd).depth] += len(oids)
        assert layers[0] < layers[1] < layers[2]
        assert layers[2] / layers[0] == pytest.approx(25, rel=0.5)

    def test_unknown_leaf_cd_raises(self):
        with pytest.raises(KeyError):
            GameMap().objects_in("/7/7")


class TestPlacement:
    def test_envelope_respected(self):
        game_map = GameMap()
        placement = game_map.place_players(414)
        counts = game_map.players_per_area(placement)
        assert sum(counts.values()) == 414
        assert all(4 <= c <= 20 for c in counts.values())
        assert set(counts) <= set(game_map.hierarchy.areas())

    def test_impossible_population_rejected(self):
        game_map = GameMap()
        with pytest.raises(ValueError):
            game_map.place_players(10)  # below 4 * 31
        with pytest.raises(ValueError):
            game_map.place_players(10_000)  # above 20 * 31

    def test_deterministic(self):
        game_map = GameMap()
        assert game_map.place_players(414, seed=3) == game_map.place_players(414, seed=3)


class TestMovementModel:
    def test_probabilities_roughly_respected(self):
        game_map = GameMap()
        model = MovementModel(game_map.hierarchy, seed=1)
        outcomes = {"up": 0, "down": 0, "lateral": 0}
        src = Name.parse("/2/3")  # zone: up and lateral possible, down not
        for _ in range(3000):
            dst = model.choose_destination(src)
            if dst == src.parent:
                outcomes["up"] += 1
            elif dst.depth == src.depth:
                outcomes["lateral"] += 1
            else:
                outcomes["down"] += 1
        total = sum(outcomes.values())
        assert outcomes["down"] == 0
        assert outcomes["up"] / total == pytest.approx(0.10, abs=0.03)
        # 80-90% lateral, per the paper.
        assert 0.8 <= outcomes["lateral"] / total <= 0.93

    def test_down_moves_from_region(self):
        game_map = GameMap()
        model = MovementModel(game_map.hierarchy, seed=2)
        downs = sum(
            1
            for _ in range(3000)
            if model.choose_destination("/2").depth == 2
        )
        assert downs / 3000 == pytest.approx(0.10, abs=0.03)

    def test_schedule_sorted_and_consistent(self):
        game_map = GameMap()
        model = MovementModel(game_map.hierarchy, seed=3)
        placement = {"p0": Name.parse("/1/1"), "p1": Name.parse("/2")}
        moves = model.schedule(placement, duration_ms=120 * 60_000.0)
        assert moves == sorted(moves, key=lambda m: (m.time_ms, m.player))
        # Each player's chain is positionally consistent.
        position = dict(placement)
        for move in moves:
            assert move.src == position[move.player]
            position[move.player] = move.dst

    def test_intervals_within_bounds(self):
        game_map = GameMap()
        model = MovementModel(game_map.hierarchy, interval_minutes=(5, 35), seed=4)
        for _ in range(100):
            interval = model.next_interval()
            assert 5 * 60_000 <= interval <= 35 * 60_000

    def test_invalid_params(self):
        hierarchy = GameMap().hierarchy
        with pytest.raises(ValueError):
            MovementModel(hierarchy, interval_minutes=(0, 5))
        with pytest.raises(ValueError):
            MovementModel(hierarchy, interval_minutes=(35, 5))

    def test_move_type_counts(self):
        game_map = GameMap()
        model = MovementModel(game_map.hierarchy, seed=5)
        placement = game_map.place_players(120, per_area=(1, 20), seed=5)
        moves = model.schedule(placement, duration_ms=240 * 60_000.0)
        counts = collections.Counter(move.move_type for move in moves)
        # Lateral zone moves dominate (most players are in zones).
        lateral = counts.get(MoveType.ZONE_DIFF_REGION, 0) + counts.get(
            MoveType.ZONE_SAME_REGION, 0
        )
        assert lateral > sum(counts.values()) / 2


class TestPlayer:
    def build(self):
        net = Network()
        r1 = GCopssRouter(net, "R1")
        host = GCopssHost(net, "p0")
        other = GCopssHost(net, "p1")
        net.connect(host, r1, 0.5)
        net.connect(other, r1, 0.5)
        table = RpTable()
        table.assign("/1", "R1")
        table.assign("/2", "R1")
        table.assign("/3", "R1")
        table.assign("/4", "R1")
        table.assign("/5", "R1")
        table.assign("/0", "R1")
        GCopssNetworkBuilder(net, table).install()
        game_map = GameMap()
        return net, game_map, Player(host, game_map, "/1/2"), other

    def test_join_subscribes_by_position(self):
        net, game_map, player, other = self.build()
        player.join()
        assert player.host.subscriptions == set(
            game_map.hierarchy.subscriptions_for("/1/2")
        )

    def test_move_updates_subscriptions_and_reports_downloads(self):
        net, game_map, player, other = self.build()
        player.join()
        needed = player.move_to("/1")
        assert needed == game_map.hierarchy.snapshot_cds_for_move("/1/2", "/1")
        assert player.host.subscriptions == set(
            game_map.hierarchy.subscriptions_for("/1")
        )
        assert player.moves == 1

    def test_move_hooks_fire(self):
        net, game_map, player, other = self.build()
        player.join()
        calls = []
        player.on_move.append(lambda p, src, dst, needed: calls.append((str(src), str(dst), len(needed))))
        player.move_to("/1/3")
        assert calls == [("/1/2", "/1/3", 1)]

    def test_move_to_same_area_is_noop(self):
        net, game_map, player, other = self.build()
        player.join()
        assert player.move_to("/1/2") == frozenset()
        assert player.moves == 0

    def test_invalid_area_rejected(self):
        net, game_map, player, other = self.build()
        with pytest.raises(ValueError):
            player.move_to("/9")
        with pytest.raises(ValueError):
            Player(player.host, game_map, "/8/8")

