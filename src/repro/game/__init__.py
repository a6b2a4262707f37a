"""Game model: hierarchical map instances, objects, players and movement.

This package turns the naming machinery of :mod:`repro.core.hierarchy`
into a concrete game world matching the paper's evaluation setup (§V):
a 5-region x 5-zone map (31 leaf CDs), 80-120 objects per area
(~3,200 total), 4-20 players per area (414 total in the large-scale
trace), and the player movement model of §V-B (move every 5-35 minutes;
10% up, 10% down when possible, otherwise lateral).
"""

from repro.game.map import GameMap
from repro.game.movement import MovementModel
from repro.game.player import Player

__all__ = ["GameMap", "Player", "MovementModel"]
