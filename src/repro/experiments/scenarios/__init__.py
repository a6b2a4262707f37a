"""Scenario fleet: seeded workload generators × chaos plans, judged
by the runtime invariant monitor.

Public surface:

* :data:`SCENARIO_NAMES` / :func:`get_scenario` — the registry
  (battle-royale flash crowd, join/leave churn, day/night load curve,
  hotspot mobility);
* :func:`run_scenario` — one (scenario, plan, seed) matrix cell;
* :func:`run_matrix` — the full matrix, in the format of
  ``tests/data/scenario_matrix.json``;
* the data model (:class:`Scenario`, :class:`ScenarioScript`,
  :class:`ScenarioEvent`) for writing new generators.
"""

from repro.experiments.scenarios.base import (
    EVENT_KINDS,
    Scenario,
    ScenarioEvent,
    ScenarioScript,
)
from repro.experiments.scenarios.generators import (
    BUILTIN_SCENARIOS,
)
from repro.experiments.scenarios.harness import (
    SCENARIO_NAMES,
    get_scenario,
    run_matrix,
    run_scenario,
)

__all__ = [
    "EVENT_KINDS",
    "Scenario",
    "ScenarioEvent",
    "ScenarioScript",
    "BUILTIN_SCENARIOS",
    "SCENARIO_NAMES",
    "get_scenario",
    "run_matrix",
    "run_scenario",
]
