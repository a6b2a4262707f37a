"""Metrics registry: named sources sampled on sim-time ticks.

Every source is read at each tick.  Sources registered together (one
stats dataclass, one queue snapshot, one role's ``telemetry()``) are
read by one call per tick and stored as one block: float64 rows that
hold only the columns that have moved from zero (most counters of most
nodes never do, and cost no storage).  The registry keeps the one
column of tick times every block's rows line up with, and the ring
(bounded memory, oldest rows evicted); a :class:`TimeSeries` is a view
of one block column against those times.  Existing counter blocks
auto-register: :meth:`MetricsRegistry.register_stats` walks any dataclass
(``NodeStats``, ``FaultStats``) and turns every numeric field into a
series for free; :meth:`register_node` additionally picks up the node's
service queue and role telemetry, and :meth:`register_network` /
:meth:`register_simulator` cover fabric-level aggregates.

Ticks are **pre-scheduled over a bounded horizon**
(:meth:`schedule_ticks`) rather than self-rearming, so a full-drain
``sim.run()`` still terminates.  Sampling callbacks only read state —
they never perturb protocol behavior (they do consume scheduler
sequence numbers, which shifts nothing observable: relative event order
is preserved).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import fields, is_dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.network import Network, Node

__all__ = ["TimeSeries", "MetricsRegistry"]

_ONE = struct.Struct("d")
_ZERO = _ONE.pack(0.0)


class _Block:
    """Sources that are read together, stored as float64 row segments.

    ``read()`` returns one value per column in a single call; a tick
    appends the row's *live* columns to the newest segment, a row-major
    ``(start, live, values)`` that holds the registry rows from ``start``
    to the next segment's.  The tick times are the registry's; a block
    holds none.  A column is dormant, stored nowhere, while every sample
    of it has packed to the bytes of +0.0 (a -0.0 or a NaN counts as a
    move).  The row in which it first moves wakes it: a new segment
    starts there with the column added, and its earlier rows read as
    0.0.  A column wakes at most once, so a block holds at most one
    segment more than it has columns.  A tick is one pick, pack and
    ``bytes`` compare of the dormant columns and one pick and packed
    write of the live ones, all in C; float64 is exact for every counter
    below 2**53, costs 8 bytes a live sample and leaves the garbage
    collector nothing to walk.
    """

    __slots__ = (
        "names", "read", "segments", "_values",
        "_pick_live", "_pack_live", "_pick_dormant", "_pack_dormant", "_zeros",
    )

    def __init__(
        self, names: Sequence[str], read: Callable[[], tuple], start: int
    ) -> None:
        self.names, self.read = tuple(names), read
        self.segments: List[Tuple[int, Tuple[int, ...], array]] = []
        self._store((), start)

    def _store(self, live: Tuple[int, ...], start: int) -> None:
        """Store the ``live`` columns from row ``start`` on, and no other."""
        dormant = tuple(c for c in range(len(self.names)) if c not in live)
        self._values = array("d")
        self.segments.append((start, live, self._values))
        self._pick_live = _columns(live)
        self._pack_live = struct.Struct(f"{len(live)}d").pack
        self._pick_dormant = _columns(dormant)
        self._pack_dormant = struct.Struct(f"{len(dormant)}d").pack
        self._zeros = bytes(8 * len(dormant))

    def append(self, at: int, row: tuple) -> None:
        """Store ``row`` as registry row ``at``."""
        if self._pack_dormant(*self._pick_dormant(row)) != self._zeros:
            live = self.segments[-1][1]
            self._store(tuple(
                c for c in range(len(self.names))
                if c in live or _ONE.pack(row[c]) != _ZERO
            ), at)
        self._values.frombytes(self._pack_live(*self._pick_live(row)))

    def cut(self, first: int, rows: int) -> None:
        """Drop the rows before ``first`` of ``rows``; ``first`` becomes row 0."""
        kept = []
        for start, end, live, values in self._spans(rows):
            if end > first:
                del values[: max(0, first - start) * len(live)]
                kept.append((max(0, start - first), live, values))
        self.segments = kept

    def _spans(self, rows: int) -> Iterator[Tuple[int, int, Tuple[int, ...], array]]:
        """Every segment as ``(start, end, live, values)``."""
        ends = [start for start, _, _ in self.segments[1:]] + [rows]
        for (start, live, values), end in zip(self.segments, ends):
            yield start, end, live, values

    def column(self, column: int, first: int, rows: int) -> array:
        """One column over rows ``first`` to ``rows``, oldest first."""
        out = array("d")
        for start, end, live, values in self._spans(rows):
            lo = max(start, first)
            if end <= lo:
                continue
            if column in live:
                width = len(live)
                at = (lo - start) * width + live.index(column)
                out += values[at : (end - start) * width : width]
            else:
                out.frombytes(bytes(8 * (end - lo)))
        return out

    def last(self, column: int) -> float:
        """The newest row's value of one column."""
        _, live, values = self.segments[-1]
        return values[live.index(column) - len(live)] if column in live else 0.0


class TimeSeries:
    """Ring-buffered ``(t, value)`` samples for one named metric.

    A view of one column of a registry's :class:`_Block`: the values
    are the block's, the times the registry's.
    """

    __slots__ = ("_registry", "_block", "_column")

    def __init__(self, registry: "MetricsRegistry", block: _Block, column: int) -> None:
        self._registry, self._block, self._column = registry, block, column

    def _first(self) -> int:
        """The oldest registry row this series holds inside the ring."""
        return max(self._registry.first_row(), self._block.segments[0][0])

    def points(self) -> List[Tuple[float, float]]:
        """The ring's ``(t, value)`` samples, oldest first."""
        times, first = self._registry.times, self._first()
        values = self._block.column(self._column, first, len(times))
        return list(zip(times[first:], values))

    def latest(self) -> Optional[Tuple[float, float]]:
        times = self._registry.times
        if len(times) == self._block.segments[0][0]:
            return None
        return times[-1], self._block.last(self._column)

    def __len__(self) -> int:
        return len(self._registry.times) - self._first()

    def __repr__(self) -> str:
        name = self._block.names[self._column]
        return f"TimeSeries({name!r}, {len(self)} points)"


class MetricsRegistry:
    """Named metric sources, their ring-buffered series and the tick times.

    One ``times`` array holds every tick; each block's rows line up with
    it.  The ring is kept by amortised trimming: the rows run over
    ``capacity`` by up to a quarter, then every block and the times lose
    the same oldest rows in one pass; readers only ever look at the last
    ``capacity`` rows.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.times = array("d")
        self._limit = capacity + capacity // 4 + 16
        self._blocks: List[_Block] = []
        self.series: Dict[str, TimeSeries] = {}
        self._tick_handles: List["EventHandle"] = []

    def first_row(self) -> int:
        """Index of the oldest row still inside the ring."""
        return max(0, len(self.times) - self.capacity)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self.series:
            raise ValueError(f"metric {name!r} already registered")

    def _add_block(self, names: Sequence[str], read: Callable[[], tuple]) -> int:
        """Register sources read together by one ``read()`` call per tick."""
        for name in names:
            self._claim(name)
        if names:
            block = _Block(names, read, len(self.times))
            self._blocks.append(block)
            for column, name in enumerate(names):
                self.series[name] = TimeSeries(self, block, column)
        return len(names)

    def register_stats(self, prefix: str, stats: object) -> int:
        """Auto-register every numeric field of a stats dataclass.

        Works for ``NodeStats``, ``FaultStats`` or any future counter
        block; non-numeric fields (e.g. ``drops_by_link``) are skipped.
        Returns the number of series registered.
        """
        if not is_dataclass(stats):
            raise TypeError(f"expected a dataclass instance, got {type(stats).__name__}")
        numeric = [
            f.name for f in fields(stats) if _is_numeric(getattr(stats, f.name))
        ]
        names = [f"{prefix}.{name}" for name in numeric]
        return self._add_block(names, partial(_picker(attrgetter, numeric), stats))

    def _register_snapshot(self, prefix: str, snapshot: Callable[[], dict]) -> int:
        """A dict-returning source: one ``snapshot()`` call reads every key."""
        keys = list(snapshot())
        pick = _picker(itemgetter, keys)
        names = [f"{prefix}.{key}" for key in keys]
        return self._add_block(names, lambda: pick(snapshot()))

    def register_node(self, node: "Node", prefix: Optional[str] = None) -> int:
        """One node's stats block, service queue and role telemetry."""
        prefix = prefix if prefix is not None else f"node.{node.name}"
        registered = self.register_stats(prefix, node.stats)
        queue = getattr(node, "queue", None)
        if queue is not None and hasattr(queue, "snapshot"):
            registered += self._register_snapshot(f"{prefix}.queue", queue.snapshot)
        for name, role in sorted(node.roles.items()):
            registered += self._register_snapshot(f"{prefix}.{name}", role.telemetry)
        return registered

    def register_network(self, network: "Network") -> int:
        """Fabric aggregates, plus every node's block."""
        registered = self._add_block(
            ("net.total_bytes", "net.total_packets"),
            partial(attrgetter("total_bytes", "total_packets"), network),
        )
        for name in sorted(network.nodes):
            registered += self.register_node(network.nodes[name])
        return registered

    def register_simulator(self, sim: "Simulator") -> int:
        return self._register_snapshot("sim", sim.telemetry)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one sample of every source at sim time ``now``."""
        at = len(self.times)
        for block in self._blocks:
            block.append(at, block.read())
        self.times.append(now)
        if len(self.times) > self._limit:
            first, rows = self.first_row(), len(self.times)
            for block in self._blocks:
                block.cut(first, rows)
            del self.times[:first]

    def schedule_ticks(
        self, sim: "Simulator", interval_ms: float, until: float
    ) -> int:
        """Pre-schedule sampling ticks every ``interval_ms`` up to ``until``.

        Bounded scheduling (not self-rearming) so full-drain ``sim.run()``
        calls still terminate.  Returns the number of ticks scheduled.
        """
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        count = 0
        t = sim.now + interval_ms
        while t <= until:
            self._tick_handles.append(sim.schedule_at(t, self._tick, sim))
            t += interval_ms
            count += 1
        return count

    def _tick(self, sim: "Simulator") -> None:
        self.sample(sim.now)

    def cancel_ticks(self) -> None:
        for handle in self._tick_handles:
            handle.cancel()
        self._tick_handles.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self.series)

    def as_dict(self) -> Dict[str, List[Tuple[float, float]]]:
        """Every sampled series as plain ``{name: [(t, value), ...]}``."""
        series = sorted(self.series.items())
        return {name: view.points() for name, view in series if len(view)}


def _is_numeric(value: object) -> bool:
    return type(value) in (int, float)


def _picker(getter: Callable, keys: Sequence[str]) -> Callable[[object], tuple]:
    """``getter(*keys)``, but a tuple for one key too (and buildable for none)."""
    if len(keys) > 1:
        return getter(*keys)
    picks = [getter(key) for key in keys]
    return lambda source: tuple(pick(source) for pick in picks)


def _columns(picked: Sequence[int]) -> Callable[[tuple], tuple]:
    """``itemgetter`` over ``picked`` that returns a tuple for any count."""
    if len(picked) > 1:
        return itemgetter(*picked)
    first = picked[0] if picked else 0
    return itemgetter(slice(first, first + len(picked)))
