"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's evaluation artifacts and
prints it.  Default scales are chosen so ``pytest benchmarks/
--benchmark-only`` finishes in minutes on a laptop; set ``REPRO_FULL=1``
for paper-scale runs (the workload *rates* are identical either way —
only run lengths change, so congestion behaviour and orderings are
preserved).
"""

import pytest

from repro.experiments.benchutil import full_scale, run_once  # noqa: F401


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return full_scale()

