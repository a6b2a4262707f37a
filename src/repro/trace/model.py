"""The trace: packed columns read as a sequence of records.

The microbenchmark trace is "composed of publish records like
{time, playerName, CD, Content}" (§V-A); :class:`UpdateEvent` is that
record with the content replaced by its size and the target object id —
the only properties the evaluation consumes.  A :class:`Trace` stores the
records as ``array`` columns (time, player index, CD index, object id,
size) plus the player and CD tables: 24 B an event where an
``UpdateEvent`` takes 154.  Indexing or iterating builds rows on demand,
a slice is a plain ``list`` of rows, and a subclass picks its row type
by overriding :meth:`Trace.row`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List

from repro.names import Name

__all__ = ["UpdateEvent", "Trace"]


@dataclass(frozen=True, order=True)
class UpdateEvent:
    """One publish record of a game trace."""

    time_ms: float
    player: str
    cd: Name
    object_id: int
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cd", Name.coerce(self.cd))
        if self.time_ms < 0:
            raise ValueError(f"negative event time: {self.time_ms}")
        if self.size <= 0:
            raise ValueError(f"update size must be positive: {self.size}")


class Trace(Sequence):
    """Packed trace columns; rows are :class:`UpdateEvent` views."""

    def __init__(self, players: Iterable[str] = (), cds: Iterable[Any] = ()) -> None:
        self.players: List[str] = list(players)
        self.cds: List[Any] = list(cds)
        self._player_codes = {p: i for i, p in enumerate(self.players)}
        self._cd_codes = {c: i for i, c in enumerate(self.cds)}
        self.time_ms = array("d")
        self.player = array("I")
        self.cd = array("I")
        self.object_id = array("i")
        self.size = array("I")

    def append(self, time_ms: float, player: str, cd: Name, object_id: int, size: int) -> None:
        """Add one event; ``player`` and ``cd`` join their tables if new."""
        self.time_ms.append(time_ms)
        self.player.append(_code(self.players, self._player_codes, player))
        self.cd.append(_code(self.cds, self._cd_codes, cd))
        self.object_id.append(object_id)
        self.size.append(size)

    def row(self, i: int) -> UpdateEvent:
        """Event ``i`` as a record, built from the columns."""
        return UpdateEvent(
            self.time_ms[i],
            self.players[self.player[i]],
            self.cds[self.cd[i]],
            self.object_id[i],
            self.size[i],
        )

    def __len__(self) -> int:
        return len(self.size)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        return list(map(self.row, picked)) if isinstance(index, slice) else self.row(picked)

    def __iter__(self) -> Iterator[Any]:
        return map(self.row, range(len(self)))

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, Trace) else NotImplemented


def _code(table: List[Any], codes: Dict[Any, int], value: Any) -> int:
    """``value``'s index in ``table``, appending it first if it is new."""
    code = codes.get(value)
    if code is None:
        code = codes[value] = len(table)
        table.append(value)
    return code
