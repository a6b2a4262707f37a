"""The paper's player-movement model (§V-B "Message Dissemination for
Players Moving").

Every player moves after an interval drawn uniformly from 5-35 minutes;
each movement goes up one layer with 10% probability, down one layer with
10% probability when possible (redistributed to lateral otherwise), and
laterally within the same layer the rest of the time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.hierarchy import MapHierarchy, MoveType
from repro.names import Name

__all__ = ["MoveDecision", "MovementModel"]

MINUTE_MS = 60_000.0
#: Probability that a move goes up one layer, and down one layer (§V-B).
P_UP = 0.10
P_DOWN = 0.10


@dataclass(frozen=True)
class MoveDecision:
    """One scheduled movement of one player."""

    time_ms: float
    player: str
    src: Name
    dst: Name
    move_type: MoveType


class MovementModel:
    """Generates movement schedules over a hierarchy.

    Parameters mirror §V-B: ``interval_minutes`` is the uniform move
    interval range; :data:`P_UP`/:data:`P_DOWN` are the layer-change
    probabilities.
    """

    def __init__(
        self,
        hierarchy: MapHierarchy,
        interval_minutes: tuple[float, float] = (5.0, 35.0),
        seed: int = 11,
    ) -> None:
        lo, hi = interval_minutes
        if lo <= 0 or hi < lo:
            raise ValueError(f"bad interval range: {interval_minutes}")
        self.hierarchy = hierarchy
        self.interval_ms = (lo * MINUTE_MS, hi * MINUTE_MS)
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Single-step decisions
    # ------------------------------------------------------------------
    def next_interval(self) -> float:
        return self.rng.uniform(*self.interval_ms)

    def choose_destination(self, src: "Name | str") -> Name:
        """Pick where a player at ``src`` moves next.

        Up = to the parent area; down = to a uniformly chosen child;
        lateral = to a uniformly chosen different area at the same depth.
        Impossible directions (up from the world, down from a zone) fold
        into the lateral case, keeping move probabilities well-defined at
        the hierarchy boundaries.
        """
        src = Name.coerce(src)
        roll = self.rng.random()
        can_up = not src.is_root
        children = self.hierarchy.children(src)
        if roll < P_UP and can_up:
            return src.parent
        if roll < P_UP + P_DOWN and children:
            return self.rng.choice(children)
        laterals = self.hierarchy.lateral_neighbors(src)
        if laterals:
            return self.rng.choice(laterals)
        if children:  # the world with a single layer below: go down
            return self.rng.choice(children)
        return src.parent  # single-zone degenerate map: go up

    # ------------------------------------------------------------------
    # Schedule generation
    # ------------------------------------------------------------------
    def schedule(
        self,
        placement: Dict[str, Name],
        duration_ms: float,
    ) -> List[MoveDecision]:
        """Full movement schedule for all players over ``duration_ms``.

        Deterministic given the model seed.  Returned sorted by time.
        """
        moves: List[MoveDecision] = []
        for player in sorted(placement):
            position = placement[player]
            t = self.next_interval()
            while t < duration_ms:
                dst = self.choose_destination(position)
                moves.append(
                    MoveDecision(
                        time_ms=t,
                        player=player,
                        src=position,
                        dst=dst,
                        move_type=self.hierarchy.classify_move(position, dst),
                    )
                )
                position = dst
                t += self.next_interval()
        moves.sort(key=lambda m: (m.time_ms, m.player))
        return moves

