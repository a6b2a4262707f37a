"""Trace (de)serialization: one JSON object per line.

JSONL keeps multi-million-event traces streamable and diff-able; the
format is stable so regenerated traces can be cached on disk between
benchmark runs and loaded back as one :class:`~repro.trace.model.Trace`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.names import Name
from repro.trace.model import Trace, UpdateEvent

__all__ = ["write_events", "read_events", "iter_events"]


def _to_record(event: UpdateEvent) -> dict:
    return {
        "t": event.time_ms,
        "player": event.player,
        "cd": str(event.cd),
        "obj": event.object_id,
        "size": event.size,
    }


def _from_record(record: dict) -> UpdateEvent:
    return UpdateEvent(
        time_ms=float(record["t"]),
        player=str(record["player"]),
        cd=Name.parse(record["cd"]),
        object_id=int(record["obj"]),
        size=int(record["size"]),
    )


def write_events(path: "str | Path", events: Iterable[UpdateEvent]) -> int:
    """Write events as JSONL; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(_to_record(event), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def iter_events(path: "str | Path") -> Iterator[UpdateEvent]:
    """Stream events from a JSONL trace without loading it whole."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield _from_record(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace record") from exc


def read_events(path: "str | Path") -> Trace:
    """Load a whole JSONL trace into one :class:`Trace`."""
    trace = Trace()
    for event in iter_events(path):
        trace.append(event.time_ms, event.player, event.cd, event.object_id, event.size)
    return trace
