"""Scenario data model: seeded, pure, digest-stable event scripts.

A *scenario* is a pure function ``(seed, scale) -> ScenarioScript``: a
time-ordered tuple of :class:`ScenarioEvent` rows plus the knobs the
harness needs to judge the run (refresh cadence, extra recovery margin,
re-Subscribe churn budget).  Scripts are data, not behaviour — the same
script replays under any :class:`~repro.sim.faults.FaultPlan` and any
executor backend, which is what makes the scenario × chaos matrix
meaningful: every cell shares the identical workload.

Determinism contract: building a script twice from the same
``(seed, scale)`` yields byte-identical events and an identical
:meth:`ScenarioScript.digest` — generators must derive all randomness
from ``random.Random`` instances seeded with strings (stable across
processes), never from ``hash()`` or global state.  The property suite
enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Tuple

from repro.parallel.digest import json_digest

__all__ = ["EVENT_KINDS", "ScenarioEvent", "ScenarioScript", "Scenario"]

#: Event kinds a script may contain.
EVENT_KINDS = ("publish", "move", "offline", "reconnect", "split", "merge", "migrate")


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted action, in workload-relative sim time.

    * ``publish`` — ``player`` publishes ``size`` bytes under leaf CD
      ``cd``;
    * ``move`` — ``player`` relocates to ``area`` (diff re-subscription);
    * ``offline`` — ``player`` disconnects (refresh stops, subscriptions
      withdrawn);
    * ``reconnect`` — ``player`` rejoins at ``area`` and pulls a
      snapshot through the broker;
    * ``split`` — the RP router named by ``player`` sheds half its CD
      set through the load balancer;
    * ``merge`` — the RP router named by ``player`` hands its *entire*
      CD set to the RP router named by ``area`` (scale-down);
    * ``migrate`` — the RP router named by ``player`` moves its
      lexicographically-first CD prefix to the router named by ``area``.
    """

    at_ms: float
    kind: str
    player: str = ""
    cd: str = ""
    size: int = 0
    area: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.at_ms < 0:
            raise ValueError(f"at_ms must be >= 0, got {self.at_ms}")

    def as_row(self) -> tuple:
        """Canonical tuple used for digesting and equality tests."""
        return (round(self.at_ms, 6), self.kind, self.player, self.cd, self.size, self.area)


@dataclass(frozen=True)
class ScenarioScript:
    """A built scenario instance: the events plus the judging knobs."""

    name: str
    seed: int
    scale: float
    events: Tuple[ScenarioEvent, ...]
    #: Relative end of the scripted workload; the harness adds drain.
    duration_ms: float
    #: Host keep-alive / ST sweep cadence for this scenario's runs.
    refresh_interval_ms: float = 500.0
    #: Extra slack on top of the plan-declared recovery window (e.g.
    #: snapshot catch-up after a reconnect storm).
    extra_recovery_margin_ms: float = 0.0
    #: Budget multiplier for the bounded re-Subscribe churn check.  The
    #: base budget is hosts x ceil(window / refresh_interval); routers
    #: re-propagate upstream refreshes hop-by-hop, so the factor covers
    #: the backbone amplification (depth <= 3 on fig-3b) plus headroom
    #: for retry storms — a runaway re-Subscribe loop overshoots 10x.
    refresh_churn_factor: float = 10.0
    #: Whether the harness must stand up the snapshot Broker role.
    uses_broker: bool = False
    #: How long a receiver must stay subscribed past a publish to be
    #: *expected* to receive it (liveness stability window).
    stability_window_ms: float = 2000.0

    def __post_init__(self) -> None:
        last = -1.0
        for event in self.events:
            if event.at_ms < last:
                raise ValueError(
                    f"script events must be time-ordered: {event} after t={last}"
                )
            last = event.at_ms
        if self.events and self.events[-1].at_ms > self.duration_ms:
            raise ValueError(
                f"duration_ms {self.duration_ms} ends before the last event "
                f"at {self.events[-1].at_ms}"
            )

    def publishes(self) -> Iterator[Tuple[int, ScenarioEvent]]:
        """Publish events with their dense sequence numbers."""
        sequence = 0
        for event in self.events:
            if event.kind == "publish":
                yield sequence, event
                sequence += 1

    def counts(self) -> dict:
        """Event-kind histogram (for reports and smoke assertions)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event.kind] += 1
        return out

    def digest(self) -> str:
        """Content hash over the full script; the byte-identity anchor."""
        return json_digest(
            {
                "name": self.name,
                "seed": self.seed,
                "scale": self.scale,
                "duration_ms": self.duration_ms,
                "refresh_interval_ms": self.refresh_interval_ms,
                "extra_recovery_margin_ms": self.extra_recovery_margin_ms,
                "refresh_churn_factor": self.refresh_churn_factor,
                "uses_broker": self.uses_broker,
                "stability_window_ms": self.stability_window_ms,
                "events": [event.as_row() for event in self.events],
            }
        )


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: metadata plus its script builder."""

    name: str
    description: str
    build: Callable[[int, float], ScenarioScript] = field(compare=False)

    def __call__(self, seed: int, scale: float = 1.0) -> ScenarioScript:
        return self.build(seed, scale)
