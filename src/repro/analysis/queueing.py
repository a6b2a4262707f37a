"""Queueing-theory reference formulas.

Rendezvous points and game servers are deterministic single-server
queues fed by (approximately) Poisson arrivals, i.e. M/D/1 stations.
These closed forms predict their steady-state behaviour; the test suite
pins the DES against them, and the capacity planner uses them to turn
"what's the utilization?" into "what latency should I expect?".
"""

from __future__ import annotations

__all__ = ["utilization", "md1_mean_wait", "md1_mean_sojourn"]


def utilization(arrival_rate: float, service_time: float) -> float:
    """rho = lambda * s; the station is stable only for rho < 1.

    ``arrival_rate`` in packets/ms, ``service_time`` in ms.
    """
    if arrival_rate < 0 or service_time < 0:
        raise ValueError("rates and service times must be non-negative")
    return arrival_rate * service_time


def md1_mean_wait(arrival_rate: float, service_time: float) -> float:
    """Mean queueing delay (excluding service) of an M/D/1 station.

    Pollaczek-Khinchine with zero service variance:
    W = rho * s / (2 * (1 - rho)).  Returns ``inf`` when unstable —
    which is exactly the Table I single-RP configuration.
    """
    rho = utilization(arrival_rate, service_time)
    if rho >= 1.0:
        return float("inf")
    return rho * service_time / (2.0 * (1.0 - rho))


def md1_mean_sojourn(arrival_rate: float, service_time: float) -> float:
    """Mean time in system (wait + service) of an M/D/1 station."""
    wait = md1_mean_wait(arrival_rate, service_time)
    return wait + service_time if wait != float("inf") else float("inf")
