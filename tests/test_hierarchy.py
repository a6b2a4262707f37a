"""Tests for the hierarchical game map nomenclature (paper §III-A)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hierarchy import AIRSPACE, MapHierarchy, MoveType
from repro.names import Name, ROOT


@pytest.fixture
def paper_map():
    """The evaluation map: 5 regions x 5 zones."""
    return MapHierarchy([5, 5])


class TestStructure:
    def test_paper_map_has_31_leaf_cds(self, paper_map):
        # 25 zones + 5 region airspaces + 1 world airspace (paper §V).
        assert len(paper_map.leaf_cds()) == 31

    def test_layer_counts(self, paper_map):
        assert paper_map.num_layers == 3
        assert len(paper_map.areas(0)) == 1
        assert len(paper_map.areas(1)) == 5
        assert len(paper_map.areas(2)) == 25

    def test_children(self, paper_map):
        assert paper_map.children(ROOT) == [Name.parse(f"/{i}") for i in range(1, 6)]
        assert paper_map.children("/1/2") == []

    def test_is_area(self, paper_map):
        assert paper_map.is_area("/")
        assert paper_map.is_area("/3")
        assert paper_map.is_area("/3/5")
        assert not paper_map.is_area("/6")
        assert not paper_map.is_area("/1/2/3")

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            MapHierarchy([])
        with pytest.raises(ValueError):
            MapHierarchy([0])

    def test_describe(self, paper_map):
        info = paper_map.describe()
        assert info == {"layers": 3, "areas": 31, "leaf_cds": 31, "bottom_areas": 25}


class TestLeafCds:
    def test_zone_leaf_is_itself(self, paper_map):
        assert paper_map.leaf_cd("/1/2") == Name.parse("/1/2")

    def test_region_leaf_is_airspace(self, paper_map):
        assert paper_map.leaf_cd("/1") == Name.parse(f"/1/{AIRSPACE}")

    def test_world_leaf_is_airspace(self, paper_map):
        assert paper_map.leaf_cd("/") == Name.parse(f"/{AIRSPACE}")

    def test_area_of_leaf_inverse(self, paper_map):
        for cd in paper_map.leaf_cds():
            area = paper_map.area_of_leaf(cd)
            assert paper_map.leaf_cd(area) == cd

    def test_is_leaf_cd(self, paper_map):
        leaves = set(paper_map.leaf_cds())
        assert Name.parse("/1/2") in leaves
        assert Name.parse("/1/0") in leaves
        assert Name.parse("/0") in leaves
        assert Name.parse("/1") not in leaves
        assert Name.parse("/") not in leaves


class TestSubscriptions:
    def test_zone_player(self, paper_map):
        # Paper: a player standing on 1/2 subscribes to /0, /1/0 and /1/2.
        subs = paper_map.subscriptions_for("/1/2")
        assert subs == frozenset(
            {Name.parse("/1/2"), Name.parse("/1/0"), Name.parse("/0")}
        )

    def test_region_player_aggregates(self, paper_map):
        # Paper: a player flying over 1 subscribes to /1 (aggregate) and /0.
        subs = paper_map.subscriptions_for("/1")
        assert subs == frozenset({Name.parse("/1"), Name.parse("/0")})

    def test_world_player_sees_everything(self, paper_map):
        subs = paper_map.subscriptions_for("/")
        visible = paper_map.visible_leaf_cds("/")
        assert visible == frozenset(paper_map.leaf_cds())
        # World subscription covers only the game namespace, not the root.
        assert ROOT not in subs

    def test_zone_visibility(self, paper_map):
        visible = paper_map.visible_leaf_cds("/1/2")
        assert visible == frozenset(
            {Name.parse("/1/2"), Name.parse("/1/0"), Name.parse("/0")}
        )

    def test_region_visibility(self, paper_map):
        # Flying over region 1: all 5 zones, own airspace, world airspace.
        visible = paper_map.visible_leaf_cds("/1")
        assert len(visible) == 7
        assert Name.parse("/1/3") in visible
        assert Name.parse("/2/1") not in visible

    def test_hierarchical_delivery_semantics(self, paper_map):
        """A region flyer's subscription must cover zone publications."""
        subs = paper_map.subscriptions_for("/1")
        publish = paper_map.publish_cd("/1/4")
        assert any(s.is_prefix_of(publish) for s in subs)


class TestMovement:
    # The paper's Table III download counts for the 5x5 map.
    CASES = [
        ("/1", "/1/1", MoveType.TO_LOWER_LAYER, 0),
        ("/1/1", "/1", MoveType.ZONE_TO_REGION, 4),
        ("/1", "/", MoveType.REGION_TO_WORLD, 24),
        ("/1/1", "/1/2", MoveType.ZONE_SAME_REGION, 1),
        ("/2/3", "/3/2", MoveType.ZONE_DIFF_REGION, 2),
        ("/1", "/2", MoveType.REGION_TO_REGION, 6),
    ]

    @pytest.mark.parametrize("src,dst,move_type,downloads", CASES)
    def test_paper_move_types_and_download_counts(
        self, paper_map, src, dst, move_type, downloads
    ):
        assert paper_map.classify_move(src, dst) is move_type
        assert len(paper_map.snapshot_cds_for_move(src, dst)) == downloads

    def test_same_area_is_not_a_move(self, paper_map):
        with pytest.raises(ValueError):
            paper_map.classify_move("/1", "/1")

    def test_world_to_zone_is_down(self, paper_map):
        assert paper_map.classify_move("/", "/3/3") is MoveType.TO_LOWER_LAYER

    def test_lateral_neighbors(self, paper_map):
        laterals = paper_map.lateral_neighbors("/1/1")
        assert len(laterals) == 24
        assert Name.parse("/1/1") not in laterals

    def test_downward_move_needs_no_snapshot(self, paper_map):
        # Landing players already see the destination (paper Table III).
        assert paper_map.snapshot_cds_for_move("/", "/4") == frozenset()
        assert paper_map.snapshot_cds_for_move("/4", "/4/4") == frozenset()


branchings = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


class TestProperties:
    @given(branchings)
    def test_every_leaf_covered_by_some_bottom_player(self, branching):
        hierarchy = MapHierarchy(branching)
        leaf_set = set(hierarchy.leaf_cds())
        covered = set()
        for area in hierarchy.areas():
            covered |= hierarchy.visible_leaf_cds(area)
        assert covered == leaf_set

    @given(branchings)
    def test_leaf_count_equals_area_count(self, branching):
        # Every area has exactly one leaf CD (physical or airspace).
        hierarchy = MapHierarchy(branching)
        assert len(hierarchy.leaf_cds()) == len(hierarchy.areas())

    @given(branchings)
    def test_visibility_grows_monotonically_up_the_hierarchy(self, branching):
        hierarchy = MapHierarchy(branching)
        for area in hierarchy.areas():
            if area.is_root:
                continue
            mine = hierarchy.visible_leaf_cds(area)
            parents = hierarchy.visible_leaf_cds(area.parent)
            assert mine <= parents | mine  # parent sees everything below it
            assert hierarchy.leaf_cd(area) in parents
