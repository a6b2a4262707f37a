"""Topology builders for the two evaluation environments.

* :mod:`repro.topology.benchmark` — the 6-router lab testbed of Fig. 3b
  (RP / game server at R1) used by the §V-A microbenchmark;
* :mod:`repro.topology.backbone` — a seeded synthetic stand-in for the
  Rocketfuel AS3967 backbone (79 core routers, 1-3 edge routers per core,
  link weights interpreted as ms, 5 ms edge-core and 1 ms host-edge
  delays) used by the §V-B large-scale experiments.
"""

from repro.topology.backbone import build_backbone
from repro.topology.benchmark import build_benchmark_topology

__all__ = ["build_benchmark_topology", "build_backbone"]
