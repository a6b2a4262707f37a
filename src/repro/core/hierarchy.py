"""The hierarchical game map and its Content Descriptor nomenclature.

Paper §III-A: the game map is partitioned into layers (world / regions /
zones ...).  Every *area* — including non-leaf areas like a region or the
whole world — must be representable as a **leaf** of the logical CD
hierarchy so that, e.g., a soldier in zone ``/1/2`` can see the plane
flying over region ``/1`` without subscribing to all of ``/1``.  The paper
writes these synthetic leaves with a trailing slash (``/1/``); here they
are a reserved child component :data:`AIRSPACE` (``"0"``), so the airspace
over region ``/1`` is the leaf CD ``/1/0`` and the satellite layer over
the world is ``/0``.

A player located in (or flying over) an area:

* **publishes** to the area's leaf CD (zone ``/1/2`` -> ``/1/2``;
  region ``/1`` -> ``/1/0``; world -> ``/0``);
* **subscribes** to the area itself (zones: the leaf; regions/world: the
  whole aggregated subtree, e.g. ``/1``) plus the airspace leaves of every
  ancestor, so vision covers everything below and every flying layer
  above (paper Fig. 1c).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Iterator, List, Sequence

from repro.names import Name, ROOT

__all__ = ["AIRSPACE", "MoveType", "MapHierarchy"]

#: Reserved component naming the airspace leaf of a non-leaf area.
AIRSPACE = "0"


class MoveType(Enum):
    """The paper's six player-movement categories (Table III rows)."""

    TO_LOWER_LAYER = "to lower layer"                       # e.g. /1 -> /1/1 (landing)
    ZONE_TO_REGION = "zone -> region"                       # /1/1 -> /1 (take-off)
    REGION_TO_WORLD = "region -> world"                     # /1 -> / (satellite launch)
    ZONE_SAME_REGION = "to a different zone [same region]"  # /1/1 -> /1/2
    ZONE_DIFF_REGION = "to a different zone [different region]"  # /2/3 -> /3/2
    REGION_TO_REGION = "to a different region"              # /1 -> /2
    OTHER = "other"                                          # deeper maps only


class MapHierarchy:
    """Naming hierarchy for a layered game map.

    ``branching`` gives the fan-out per layer: the paper's evaluation map
    is ``MapHierarchy([5, 5])`` — a world of 5 regions x 5 zones, which
    yields 31 leaf CDs (25 zones, 5 region airspaces, 1 world airspace).
    Areas are identified by their :class:`~repro.names.Name`; the world is
    the root name ``/``.
    """

    def __init__(self, branching: Sequence[int]) -> None:
        if not branching:
            raise ValueError("need at least one layer of partitioning")
        if any(b < 1 for b in branching):
            raise ValueError(f"branching factors must be >= 1: {branching}")
        if any(b >= 10**6 for b in branching):
            raise ValueError("unreasonable branching factor")
        self.branching = tuple(int(b) for b in branching)
        self._areas_by_depth: List[List[Name]] = [[ROOT]]
        for fanout in self.branching:
            next_layer = [
                parent / str(i + 1)
                for parent in self._areas_by_depth[-1]
                for i in range(fanout)
            ]
            self._areas_by_depth.append(next_layer)
        self._area_set = frozenset(
            area for layer in self._areas_by_depth for area in layer
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of area layers (world counts as one)."""
        return len(self.branching) + 1

    @property
    def max_depth(self) -> int:
        return len(self.branching)

    def areas(self, depth: int | None = None) -> List[Name]:
        """Areas at one depth, or all areas (top-down) when depth is None."""
        if depth is None:
            return [a for layer in self._areas_by_depth for a in layer]
        return list(self._areas_by_depth[depth])

    def is_area(self, name: "Name | str") -> bool:
        return Name.coerce(name) in self._area_set

    def _require_area(self, name: "Name | str") -> Name:
        area = Name.coerce(name)
        if area not in self._area_set:
            raise ValueError(f"{area} is not an area of this map")
        return area

    def children(self, area: "Name | str") -> List[Name]:
        area = self._require_area(area)
        if area.depth == self.max_depth:
            return []
        fanout = self.branching[area.depth]
        return [area / str(i + 1) for i in range(fanout)]

    # ------------------------------------------------------------------
    # Leaf CDs
    # ------------------------------------------------------------------
    def leaf_cd(self, area: "Name | str") -> Name:
        """The leaf CD a player located in ``area`` publishes to."""
        area = self._require_area(area)
        if area.depth == self.max_depth:
            return area
        return area / AIRSPACE

    def area_of_leaf(self, cd: "Name | str") -> Name:
        """Inverse of :meth:`leaf_cd`."""
        cd = Name.coerce(cd)
        if cd.depth and cd.leaf == AIRSPACE:
            return self._require_area(cd.parent)
        return self._require_area(cd)

    def leaf_cds(self) -> List[Name]:
        """All leaf CDs, top layer first (the paper's 31 for [5, 5])."""
        leaves: List[Name] = []
        for depth, layer in enumerate(self._areas_by_depth):
            for area in layer:
                if depth < self.max_depth:
                    leaves.append(area / AIRSPACE)
                else:
                    leaves.append(area)
        return leaves

    # ------------------------------------------------------------------
    # Pub/sub semantics
    # ------------------------------------------------------------------
    def publish_cd(self, area: "Name | str") -> Name:
        """CD used to publish an update made while located in ``area``."""
        return self.leaf_cd(area)

    def subscriptions_for(self, area: "Name | str") -> FrozenSet[Name]:
        """The aggregated CD set a player in ``area`` subscribes to.

        Bottom-layer player in ``/1/2``: ``{/1/2, /1/0, /0}`` — own zone
        plus every ancestor airspace.  Player over region ``/1``: ``{/1,
        /0}`` — the whole region subtree (aggregated, paper §III-B) plus
        airspaces above.  Satellite (world) player: every top-layer piece
        (``{/0, /1, ..., /5}``).  The paper writes the satellite
        subscription as ``/`` because its CD space contains only the game
        map; here other applications (snapshot groups, for one) share the
        CD space, so the world subscription is the equivalent top-layer
        aggregate set rather than the bare root.
        """
        area = self._require_area(area)
        if area.is_root:
            result = set(self.children(area))
            result.add(area / AIRSPACE)
            return frozenset(result)
        # Own area: for a zone this is its leaf CD; for a region it is the
        # aggregated subtree prefix (which covers its own airspace too).
        result = {area}
        for ancestor in area.ancestors():
            result.add(ancestor / AIRSPACE)
        return frozenset(result)

    def visible_leaf_cds(self, area: "Name | str") -> FrozenSet[Name]:
        """All leaf CDs whose updates a player in ``area`` receives."""
        area = self._require_area(area)
        visible = set()
        for cd in self.leaf_cds():
            if any(sub.is_prefix_of(cd) for sub in self.subscriptions_for(area)):
                visible.add(cd)
        return frozenset(visible)

    # ------------------------------------------------------------------
    # Movement semantics (paper §IV-A / Table III)
    # ------------------------------------------------------------------
    def snapshot_cds_for_move(
        self, src: "Name | str", dst: "Name | str"
    ) -> FrozenSet[Name]:
        """Leaf CDs newly visible after moving src -> dst.

        These are the per-area snapshots the player must download from the
        brokers; a landing player (Table III row 1) needs none.
        """
        return self.visible_leaf_cds(dst) - self.visible_leaf_cds(src)

    def classify_move(self, src: "Name | str", dst: "Name | str") -> MoveType:
        """The paper's movement category for a src -> dst relocation."""
        src = self._require_area(src)
        dst = self._require_area(dst)
        if src == dst:
            raise ValueError("not a move: src == dst")
        if dst.depth > src.depth:
            return MoveType.TO_LOWER_LAYER
        if dst.depth < src.depth:
            if src.depth == self.max_depth and dst.depth == self.max_depth - 1:
                return MoveType.ZONE_TO_REGION
            if dst.is_root and src.depth == 1:
                return MoveType.REGION_TO_WORLD
            return MoveType.OTHER
        # Lateral move at equal depth.
        if src.depth == self.max_depth:
            if src.parent == dst.parent:
                return MoveType.ZONE_SAME_REGION
            return MoveType.ZONE_DIFF_REGION
        if src.depth == self.max_depth - 1:
            return MoveType.REGION_TO_REGION
        return MoveType.OTHER

    def lateral_neighbors(self, area: "Name | str") -> List[Name]:
        """Other areas at the same depth (movement candidates)."""
        area = self._require_area(area)
        return [a for a in self._areas_by_depth[area.depth] if a != area]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Name]:
        return iter(self.areas())

    def describe(self) -> Dict[str, int]:
        """Shape summary: layers, areas, leaf CDs, bottom areas."""
        return {
            "layers": self.num_layers,
            "areas": len(self._area_set),
            "leaf_cds": len(self.leaf_cds()),
            "bottom_areas": len(self._areas_by_depth[-1]),
        }
