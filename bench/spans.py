"""Span timers around the public entry points of each ``repro`` layer.

The traced pass wraps the callables listed in :data:`LAYERS` at class or
module level *before* a world is built (handlers are bound at
construction, so a later wrap would miss them), then records a span —
layer, start, end, parent — for every call made while the recorder is
enabled.  Spans are aggregated in memory per ``(layer, parent layer)``;
the first :data:`KEEP_RAW` raw spans are kept too, and both are written
to ``bench/out/`` when the pass ends.

A layer's self time is its spans' duration minus the part their child
spans cover.  The timed phase itself is the root span
``bench.unattributed``, so self times sum to the traced wall time by
construction and whatever no wrapped entry point covers is named, not
lost.  Child processes (``proc:2`` workers, live routers) are not traced
here; their time is the parent waiting, i.e. unattributed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

KEEP_RAW = 10_000
ROOT_LAYER = "bench.unattributed"
CALLBACK_LAYER = "bench.callbacks"

#: layer -> [(module, owner class or None for a module function, attribute)].
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "sim.engine": [
        ("repro.sim.engine", "Simulator", name)
        for name in ("run", "schedule", "schedule_at", "schedule_link")
    ],
    "sim.network": [
        ("repro.sim.network", "Face", "send"),
        ("repro.sim.network", "PacketDispatcher", "dispatch"),
    ],
    "sim.queues": [("repro.sim.queues", "ServiceQueue", "submit")],
    "core.engine": [
        ("repro.core.engine", "GCopssRouter", "receive"),
        ("repro.core.engine", "GCopssHost", "receive"),
    ],
    # ``_serve`` is the service-completion callback GCopssRouter inherits:
    # the only ``ndn.engine`` code on the G-COPSS update path.
    "ndn.engine": [
        ("repro.ndn.engine", "NdnRouter", "receive"),
        ("repro.ndn.engine", "NdnRouter", "_serve"),
    ],
    "core.planes": [
        ("repro.core.planes", "ForwardingPlane", name)
        for name in (
            "handle_interest", "handle_multicast", "handle_tunnel",
            "replicate", "encapsulate_toward",
        )
    ] + [
        ("repro.core.planes", "ControlPlane", name)
        for name in (
            "handle_subscribe", "handle_unsubscribe", "handle_leave",
            "handle_handoff", "handle_fib_add", "handle_fib_remove",
            "handle_join", "handle_confirm", "initiate_handoff",
        )
    ],
    "core.subscriptions": [
        ("repro.core.subscriptions", "SubscriptionTable", name)
        for name in ("match", "subscribe", "unsubscribe")
    ],
    "core.dedup": [("repro.core.dedup", "BoundedUidSet", "add")],
    "sim.invariants": [
        ("repro.sim.invariants", "InvariantMonitor", name)
        for name in (
            "on_publish", "on_deliver", "check_subscription_tables",
            "check_ownership", "verdict",
        )
    ],
    "obs.tracer": [
        ("repro.obs.tracer", "PacketTracer", name)
        for name in (
            "on_forward", "on_fault_drop", "on_enqueue", "on_service",
            "on_decap", "on_drop", "on_publish", "on_deliver",
        )
    ],
    "parallel.executor": [("repro.parallel.executor", "ShardedExecutor", "run")],
    "parallel.digest": [
        ("repro.parallel.digest", "DeliveryLog", "record"),
        ("repro.parallel.digest", "DeliveryLog", "digest"),
    ],
    "net.testbed": [
        ("repro.net.testbed", "LiveTestbed", name)
        for name in ("start", "quiesce", "subscribe_phase", "play", "collect")
    ] + [("repro.net.testbed", "DriverConn", "rpc")],
    "net.codec": [
        ("repro.net.codec", None, "pack_message"),
        ("repro.net.codec", None, "encode_frame"),
    ],
}
#: ``sim.faults`` has no class-level entry point: the per-link hook is a
#: closure stored in the public ``link.fault_hook`` slot, wrapped after
#: ``FaultInjector.install`` arms it.
FAULT_LAYER = "sim.faults"
ALL_LAYERS = sorted([*LAYERS, FAULT_LAYER, CALLBACK_LAYER, ROOT_LAYER])


class SpanRecorder:
    """Wraps entry points with span timers and aggregates what they record."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: List[list] = []  # open spans: [layer, start_ns, child_ns]
        self.agg: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.raw: List[Tuple[str, int, int, Optional[str]]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` with a span recorded around each call while enabled."""
        stack, agg, raw = self._stack, self.agg, self.raw
        now = time.perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, now(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - frame[1]
                parent[2] += duration
                key = (layer, parent[0])
                cell = agg.get(key)
                if cell is None:
                    cell = agg[key] = [0, 0, 0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[2]
                if len(raw) < KEEP_RAW:
                    raw.append((layer, frame[1], end, parent[0]))

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every listed entry point; call before building a world."""
        for layer, targets in LAYERS.items():
            for module_name, cls_name, attr in targets:
                module = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self.span(getattr(owner, attr), layer))
                    continue
                # A module function is imported by name elsewhere; rebind
                # every loaded ``repro`` module that holds the original.
                original = getattr(module, attr)
                wrapped = self.span(original, layer)
                for name, mod in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
        faults = importlib.import_module("repro.sim.faults")
        arm = faults.FaultInjector.install

        def install_and_wrap_hooks(injector: Any) -> Any:
            links = injector.network.links
            before = [link.fault_hook for link in links]
            result = arm(injector)
            for link, old in zip(links, before):
                if link.fault_hook is not None and link.fault_hook is not old:
                    link.fault_hook = self.span(link.fault_hook, FAULT_LAYER)
            return result

        self._patch(faults.FaultInjector, "install", install_and_wrap_hooks)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Recording window
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the root span; everything until :meth:`stop` nests in it."""
        self._stack.append([ROOT_LAYER, time.perf_counter_ns(), 0])
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        end = time.perf_counter_ns()
        layer, start, child_ns = self._stack.pop()
        cell = self.agg.setdefault((layer, None), [0, 0, 0])
        cell[0] += 1
        cell[1] += end - start
        cell[2] += end - start - child_ns

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` for every layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in ALL_LAYERS}
        for (layer, _parent), (calls, _total, self_ns) in self.agg.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_ns / 1e9
        return out

    def write(self, path: Path) -> None:
        """Dump the aggregate and the kept raw spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            "aggregate": [
                {"layer": layer, "parent": parent, "calls": calls,
                 "total_s": total / 1e9, "self_s": self_ns / 1e9}
                for (layer, parent), (calls, total, self_ns) in sorted(
                    self.agg.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            ],
            "raw_spans": [
                {"layer": layer, "start_ns": start, "end_ns": end, "parent": parent}
                for layer, start, end, parent in self.raw
            ],
        }
        path.write_text(json.dumps(body) + "\n")
