"""Concrete game-map instances: areas, objects and player placement.

The paper's evaluation map (Fig. 3a/3d): a world split into 5 regions of
5 zones each; every area (all 31 of them, counting the region airspaces
and the satellite layer) holds 80-120 modifiable objects, ~3,200 objects
in total; 4-20 players live in each area.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.hierarchy import MapHierarchy
from repro.names import Name

__all__ = ["GameMap"]


class GameMap:
    """A map instance: hierarchy + per-area objects + player placement.

    Object ids are globally unique ints, assigned area-by-area in CD
    order, so a (map, seed) pair always produces the identical world —
    the "game client downloaded apriori" all participants share.
    """

    def __init__(
        self,
        hierarchy: Optional[MapHierarchy] = None,
        objects_per_area: tuple[int, int] = (80, 120),
        seed: int = 7,
    ) -> None:
        self.hierarchy = hierarchy if hierarchy is not None else MapHierarchy([5, 5])
        lo, hi = objects_per_area
        if lo < 0 or hi < lo:
            raise ValueError(f"bad objects_per_area range: {objects_per_area}")
        self.seed = seed
        rng = random.Random(seed)
        self._objects_by_cd: Dict[Name, List[int]] = {}
        next_id = 0
        for cd in self.hierarchy.leaf_cds():
            count = rng.randint(lo, hi)
            self._objects_by_cd[cd] = list(range(next_id, next_id + count))
            next_id += count
        self.total_objects = next_id
        self._area_of_object: Dict[int, Name] = {}
        for cd, oids in self._objects_by_cd.items():
            for oid in oids:
                self._area_of_object[oid] = cd

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def objects_in(self, leaf_cd: "Name | str") -> List[int]:
        """Object ids living in one area (identified by its leaf CD)."""
        cd = Name.coerce(leaf_cd)
        if cd not in self._objects_by_cd:
            raise KeyError(f"{cd} is not a leaf CD of this map")
        return list(self._objects_by_cd[cd])

    def objects_by_cd(self) -> Dict[Name, List[int]]:
        return {cd: list(oids) for cd, oids in self._objects_by_cd.items()}

    def area_of_object(self, object_id: int) -> Name:
        """The leaf CD of the area an object belongs to."""
        return self._area_of_object[object_id]

    def visible_objects(self, area: "Name | str") -> List[int]:
        """All objects a player located in ``area`` can see and modify."""
        visible: List[int] = []
        for cd in sorted(self.hierarchy.visible_leaf_cds(area)):
            visible.extend(self._objects_by_cd[cd])
        return visible

    # ------------------------------------------------------------------
    # Player placement
    # ------------------------------------------------------------------
    def place_players(
        self,
        num_players: int,
        per_area: tuple[int, int] = (4, 20),
        seed: Optional[int] = None,
    ) -> Dict[str, Name]:
        """Assign ``num_players`` named players to areas.

        Respects the paper's 4-20 players-per-area envelope where the
        player count allows it; raises when the envelope cannot fit the
        requested population.  Returns ``{player name -> area}`` (areas,
        not leaf CDs).
        """
        lo, hi = per_area
        areas = self.hierarchy.areas()
        if not lo * len(areas) <= num_players <= hi * len(areas):
            raise ValueError(
                f"{num_players} players cannot be placed at {lo}-{hi} per area"
                f" over {len(areas)} areas"
            )
        rng = random.Random(self.seed if seed is None else seed)
        counts = {area: lo for area in areas}
        remaining = num_players - lo * len(areas)
        open_areas = [a for a in areas if counts[a] < hi]
        while remaining > 0:
            area = rng.choice(open_areas)
            counts[area] += 1
            remaining -= 1
            if counts[area] >= hi:
                open_areas.remove(area)
        placement: Dict[str, Name] = {}
        index = 0
        for area in areas:
            for _ in range(counts[area]):
                placement[f"player{index}"] = area
                index += 1
        return placement

    def players_per_area(self, placement: Dict[str, Name]) -> Dict[Name, int]:
        counts: Dict[Name, int] = {}
        for area in placement.values():
            counts[area] = counts.get(area, 0) + 1
        return counts

    def describe(self) -> Dict[str, int]:
        info = dict(self.hierarchy.describe())
        info["objects"] = self.total_objects
        return info
