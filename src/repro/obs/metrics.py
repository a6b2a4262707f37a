"""Metrics registry: named sources sampled on sim-time ticks.

Three source shapes:

* **gauges** — any zero-argument callable returning a number, read at
  each tick (queue backlog, ST size, role state);
* **counters** — monotonically incremented by the owner via
  :meth:`Counter.inc`, sampled like a gauge;
* **windowed histograms** — per-tick distributions: ``observe()`` between
  ticks, and each tick rolls the window into ``.count`` / ``.mean`` /
  ``.max`` series and resets it.

Sources registered together (one stats dataclass, one queue snapshot,
one role's ``telemetry()``) are read by one call per tick and stored as
one row of a float64 table; a :class:`TimeSeries` is a ring-buffered view
of one column (bounded memory, oldest points evicted).  Existing counter
blocks auto-register:
:meth:`MetricsRegistry.register_stats` walks any dataclass
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

from array import array
from dataclasses import fields, is_dataclass
from functools import partial
from operator import attrgetter, itemgetter
from struct import Struct
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.network import Network, Node

__all__ = ["TimeSeries", "Counter", "WindowedHistogram", "MetricsRegistry"]


class _Block:
    """Sources that are read together, stored as one table of float64.

    ``read()`` returns one value per column in a single call; a tick
    appends its time to ``times`` and that row to the row-major
    ``values``.  float64 is exact for every counter below 2**53, costs
    8 bytes a sample and leaves the garbage collector nothing to walk.
    The ring is kept by amortised trimming: the arrays run over by up to
    a quarter, then drop the excess in one ``del``; readers only ever
    look at the last ``capacity`` rows.
    """

    __slots__ = ("names", "read", "capacity", "times", "values", "_limit", "_pack")

    def __init__(
        self, names: Sequence[str], read: Optional[Callable[[], tuple]], capacity: int
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.names, self.read, self.capacity = tuple(names), read, capacity
        self.times, self.values = array("d"), array("d")
        self._limit = capacity + capacity // 4 + 16
        # One packed write per row costs a third of ``extend`` over boxed
        # numbers, and a row of the wrong width raises instead of shearing.
        self._pack = Struct(f"{len(self.names)}d").pack

    def append(self, t: float, row: tuple) -> None:
        self.values.frombytes(self._pack(*row))
        self.times.append(t)
        if len(self.times) > self._limit:
            excess = self.first_row()
            del self.times[:excess]
            del self.values[: excess * len(self.names)]

    def first_row(self) -> int:
        """Index of the oldest row still inside the ring."""
        return max(0, len(self.times) - self.capacity)


class TimeSeries:
    """Ring-buffered ``(t, value)`` samples for one named metric.

    Inside a registry this is a view of one column of a :class:`_Block`;
    built directly it owns a one-column block and takes :meth:`append`.
    """

    __slots__ = ("name", "_block", "_column")

    def __init__(
        self,
        name: str,
        capacity: int = 1024,
        block: Optional[_Block] = None,
        column: int = 0,
    ) -> None:
        self.name = name
        self._block = block or _Block((name,), None, capacity)
        self._column = column

    def append(self, t: float, value: float) -> None:
        self._block.append(t, (value,))  # raises on a wider (sampled) block

    def points(self) -> List[Tuple[float, float]]:
        """The ring's ``(t, value)`` samples, oldest first."""
        block, width = self._block, len(self._block.names)
        first = block.first_row()
        column = block.values[first * width + self._column :: width]
        return list(zip(block.times[first:], column))

    def latest(self) -> Optional[Tuple[float, float]]:
        block = self._block
        if not block.times:
            return None
        return block.times[-1], block.values[self._column - len(block.names)]

    def __len__(self) -> int:
        return min(len(self._block.times), self._block.capacity)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, {len(self)} points)"


class Counter:
    """A registry-owned monotonic counter; sampled like a gauge."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class WindowedHistogram:
    """Distribution over one sampling window, rolled at each tick."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    def roll(self) -> Dict[str, float]:
        """Summarize and reset the current window."""
        values = self._values
        if not values:
            return {"count": 0, "mean": 0.0, "max": 0.0}
        summary = {
            "count": len(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }
        self._values = []
        return summary


class MetricsRegistry:
    """Named metric sources and their ring-buffered time series."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._blocks: List[_Block] = []
        self._histograms: Dict[str, WindowedHistogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._tick_handles: List["EventHandle"] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self.series or name in self._histograms:
            raise ValueError(f"metric {name!r} already registered")

    def _add_block(self, names: Sequence[str], read: Callable[[], tuple]) -> int:
        """Register sources read together by one ``read()`` call per tick."""
        for name in names:
            self._claim(name)
        if names:
            block = _Block(names, read, self.capacity)
            self._blocks.append(block)
            for column, name in enumerate(names):
                self.series[name] = TimeSeries(name, block=block, column=column)
        return len(names)

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a read-on-tick source."""
        self._add_block((name,), lambda: (fn(),))

    def counter(self, name: str) -> Counter:
        """Create and register an owner-incremented counter."""
        counter = Counter(name)
        self._add_block((name,), lambda: (counter.value,))
        return counter

    def histogram(self, name: str) -> WindowedHistogram:
        """Create and register a per-tick windowed histogram."""
        self._claim(name)
        histogram = self._histograms[name] = WindowedHistogram(name)
        self._register_snapshot(name, histogram.roll)  # .count / .mean / .max
        return histogram

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

    def register_network(self, network: "Network", per_node: bool = True) -> int:
        """Fabric aggregates, plus (optionally) every node's block."""
        registered = self._add_block(
            ("net.total_bytes", "net.total_packets"),
            partial(attrgetter("total_bytes", "total_packets"), network),
        )
        if per_node:
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
        for block in self._blocks:
            block.append(now, block.read())

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
