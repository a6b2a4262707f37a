"""Analysis tools: capacity planning and queueing-theory references.

The paper observes that "it is difficult to predict how many RPs would
be required" (§IV-B) and answers with runtime balancing.  This package
provides the complementary *planning* view a deployment would want:

* :mod:`repro.analysis.queueing` — M/D/1 reference formulas used to
  sanity-check the simulator and to predict RP waits;
* :mod:`repro.analysis.capacity` — workload-driven provisioning: CD load
  shares, per-RP utilizations under an assignment and the minimum stable
  RP count for a trace.
"""

from repro.analysis.capacity import (
    cd_load_shares,
    minimum_stable_rps,
    rp_utilizations,
)
from repro.analysis.queueing import md1_mean_wait, utilization

__all__ = [
    "utilization",
    "md1_mean_wait",
    "cd_load_shares",
    "rp_utilizations",
    "minimum_stable_rps",
]
