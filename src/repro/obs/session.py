"""One-call telemetry bundle: tracer + metrics + exporters on a network.

Experiment harnesses that want observability shouldn't re-wire the three
parts by hand; a :class:`TelemetrySession` owns a
:class:`~repro.obs.tracer.PacketTracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`, installs both onto a
network (optionally scheduling metric ticks over a bounded horizon), and
exports everything to a directory in all three formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.exporters import (
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import PacketTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultStats
    from repro.sim.network import Network

__all__ = ["TelemetryConfig", "TelemetrySession"]

#: Ring-buffer capacity of each metric series a session records.
SERIES_CAPACITY = 4096


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for one telemetry session."""

    #: Trace packets whose trace id is divisible by this (1 = all).
    sample_every: int = 1
    #: Ring-buffer bound on recorded trace events (None = unbounded).
    max_events: Optional[int] = None
    #: Metric sampling period in sim ms.
    metrics_interval_ms: float = 100.0


class TelemetrySession:
    """Owns one tracer + one registry wired onto one network."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.tracer = PacketTracer(
            sample_every=self.config.sample_every,
            max_events=self.config.max_events,
        )
        self.metrics = MetricsRegistry(capacity=SERIES_CAPACITY)
        self._network: Optional["Network"] = None
        self._executor = None

    def install(
        self,
        network: "Network",
        fault_stats: Optional["FaultStats"] = None,
        metrics_until: Optional[float] = None,
        executor=None,
    ) -> "TelemetrySession":
        """Hook the tracer, register metric sources, schedule ticks.

        ``metrics_until`` bounds the pre-scheduled sampling ticks; omit
        it (or call :meth:`schedule_metrics` later) when the horizon is
        not yet known at install time.  With an ``executor`` (the
        serial/sharded seam), metric ticks route through
        ``executor.attach_metrics`` — under sharding they are sampled at
        window barriers rather than as scheduled events.
        """
        self._network = network
        self._executor = executor
        self.tracer.install(network, fault_stats=fault_stats)
        self.metrics.register_simulator(network.sim)
        self.metrics.register_network(network)
        if fault_stats is not None:
            self.metrics.register_stats("faults", fault_stats)
        if metrics_until is not None:
            self.schedule_metrics(metrics_until)
        return self

    def schedule_metrics(self, until: float) -> int:
        """Arrange periodic metric sampling up to ``until``.

        Serially that means bounded tick events on the network clock;
        when an executor was passed to :meth:`install`, sampling is
        delegated to it (the sharded backend evaluates ticks at window
        barriers so telemetry schedules nothing).  Returns the number of
        ticks arranged.
        """
        if self._network is None:
            raise RuntimeError("install() the session before scheduling ticks")
        if self._executor is not None:
            return self._executor.attach_metrics(
                self.metrics, self.config.metrics_interval_ms, until
            )
        return self.metrics.schedule_ticks(
            self._network.sim, self.config.metrics_interval_ms, until
        )

    def finish(self) -> None:
        """Final metrics sample + release every hook slot."""
        if self._network is not None:
            self.metrics.sample(self._network.sim.now)
        self.metrics.cancel_ticks()
        self.tracer.uninstall()

    def export(self, out_dir: "Path | str", stem: str = "trace") -> Dict[str, str]:
        """Write events.jsonl + chrome.json + metrics.prom; return paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        events_path = out_dir / f"{stem}.events.jsonl"
        chrome_path = out_dir / f"{stem}.chrome.json"
        prom_path = out_dir / f"{stem}.metrics.prom"
        write_events_jsonl(events_path, self.tracer.events)
        write_chrome_trace(chrome_path, self.tracer.events)
        write_prometheus(prom_path, self.metrics)
        return {
            "events": str(events_path),
            "chrome": str(chrome_path),
            "prometheus": str(prom_path),
        }
