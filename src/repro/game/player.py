"""Player glue: binds a game-map position to a G-COPSS host.

A :class:`Player` owns a :class:`~repro.core.engine.GCopssHost`, keeps its
area up to date (the subscription set follows the hierarchy semantics of
§III-A), and — on movement — re-subscribes and triggers snapshot
retrieval via whichever mode the experiment configured.  Updates are
published through the host (:meth:`~repro.core.engine.GCopssHost.publish`).
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.engine import GCopssHost
from repro.game.map import GameMap
from repro.names import Name

__all__ = ["Player"]


class Player:
    """One participant: a position on the map plus its network host."""

    def __init__(self, host: GCopssHost, game_map: GameMap, area: "Name | str") -> None:
        self.host = host
        self.map = game_map
        self.area = Name.coerce(area)
        if not game_map.hierarchy.is_area(self.area):
            raise ValueError(f"{self.area} is not an area of the map")
        self.moves = 0
        # fn(player, src_area, dst_area, needed_leaf_cds) — experiments hook
        # snapshot retrieval here.
        self.on_move: List[Callable[["Player", Name, Name, frozenset], None]] = []

    @property
    def name(self) -> str:
        return self.host.name

    # ------------------------------------------------------------------
    # Pub/sub lifecycle
    # ------------------------------------------------------------------
    def join(self) -> None:
        """Come online: subscribe according to the current position."""
        self.host.set_subscriptions(self.map.hierarchy.subscriptions_for(self.area))

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def move_to(self, new_area: "Name | str") -> frozenset:
        """Relocate; returns the leaf CDs whose snapshots must be fetched."""
        new_area = Name.coerce(new_area)
        if not self.map.hierarchy.is_area(new_area):
            raise ValueError(f"{new_area} is not an area of the map")
        if new_area == self.area:
            return frozenset()
        old_area = self.area
        needed = self.map.hierarchy.snapshot_cds_for_move(old_area, new_area)
        self.area = new_area
        self.host.set_subscriptions(self.map.hierarchy.subscriptions_for(new_area))
        self.moves += 1
        for hook in self.on_move:
            hook(self, old_area, new_area, needed)
        return needed

    def __repr__(self) -> str:
        return f"Player({self.name} @ {self.area})"
