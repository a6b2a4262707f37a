"""Seeded, deterministic fault injection for the simulated fabric.

The paper's "lossless handover" claim (Sec. IV-C) is only meaningful if it
survives an imperfect network, yet the base fabric always delivers.  This
module supplies the adversary: a declarative :class:`FaultPlan` describing
per-link loss (Bernoulli or Gilbert–Elliott bursts), hard down/up windows,
extra jitter, and node crash/restart schedules, and a :class:`FaultInjector`
that arms the plan onto a :class:`~repro.sim.network.Network`.

Design constraints:

* **Single hook point.**  Every packet leaves a node through
  :meth:`Face.send`; the injector installs one closure per link as
  ``link.fault_hook``.  The closure returns ``None`` to drop the packet at
  egress (no byte/packet counters accrue — it never touched the wire) or a
  non-negative float of extra propagation delay.  With no plan installed
  the hook slot is ``None`` and the fabric pays one attribute load — the
  PR-1 perf gates are measured with that nil path.

* **Determinism.**  Each armed link *direction* gets its own
  ``random.Random`` seeded with the *string*
  ``f"{plan.seed}:{link.name}:{src}->{dst}"`` (string seeding hashes via
  SHA-512 inside CPython and is stable across processes, unlike salted
  ``hash()`` of tuples).  Two runs of the same plan over the same topology
  and workload therefore drop exactly the same packets, independent of how
  many other links are armed or the order links were created.  Per-direction
  streams (rather than one stream per link) also make the drop decisions a
  pure function of that direction's packet sequence — the two directions of
  a sharded-boundary link may interleave differently than serial execution
  would interleave them, and fate-sharing one RNG across directions would
  leak that interleaving into the drop pattern.

* **Scope.**  A :class:`LinkFaults` spec applies to ``"all"`` packets, only
  ``"control"`` packets (``Packet.is_control`` is True — Subscribe, the
  FIB floods, the migration handshake), or only ``"data"``.  Out-of-scope
  packets pass untouched *and do not advance the RNG or burst state*, so a
  control-scoped plan's drop pattern is invariant to the data workload.
  Down windows and node crashes ignore scope: a dead link or node carries
  nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.packets import Packet
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Face, Link, Network

__all__ = [
    "GilbertElliott",
    "LinkFaults",
    "NodeFaults",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
]

_SCOPES = ("all", "control", "data")


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss model (Gilbert–Elliott).

    The chain sits in a *good* or *bad* state; each in-scope packet first
    advances the state (transition probabilities are per packet), then is
    dropped with the state's loss probability.  The classic Gilbert model
    is ``loss_good=0, loss_bad=1``; the mean burst length is
    ``1 / p_bad_to_good`` packets.
    """

    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Fault behaviour for one link (or the plan-wide default).

    ``loss`` is an independent per-packet Bernoulli drop probability;
    ``burst`` layers a :class:`GilbertElliott` chain on top (either can
    drop).  ``down`` is a tuple of half-open ``(start_ms, end_ms)`` windows
    during which the link carries nothing.  ``jitter_ms`` adds a uniform
    extra delay in ``[0, jitter_ms)`` to each surviving in-scope packet.
    """

    loss: float = 0.0
    burst: Optional[GilbertElliott] = None
    down: Tuple[Tuple[float, float], ...] = ()
    jitter_ms: float = 0.0
    scope: str = "all"

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        for start, end in self.down:
            if end <= start:
                raise ValueError(f"empty down window ({start}, {end})")

    @property
    def is_noop(self) -> bool:
        return (
            self.loss == 0.0
            and self.burst is None
            and not self.down
            and self.jitter_ms == 0.0
        )


@dataclass(frozen=True)
class NodeFaults:
    """Crash (and optional restart) schedule for one node.

    At ``crash_at`` the node goes dark: every incident link drops traffic
    in both directions and the node's ``crash_reset()`` (if it defines one)
    wipes its volatile state — processing queue, PIT, soft protocol state.
    At ``restart_at`` (if given) the node rejoins with that same fresh
    state; recovery is the protocol's problem, which is the point.
    """

    crash_at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.restart_at is not None and self.restart_at <= self.crash_at:
            raise ValueError(
                f"restart_at ({self.restart_at}) must be after crash_at ({self.crash_at})"
            )


@dataclass
class FaultPlan:
    """A named, seeded description of everything that goes wrong.

    ``links`` maps :attr:`Link.name` to a :class:`LinkFaults`; ``default``
    (if set) applies to every link not named.  ``nodes`` maps node names to
    crash schedules.  The plan is pure data — build them in tests, sweep
    them in the chaos harness, serialise them into reports.
    """

    seed: int = 0
    name: str = "plan"
    links: Dict[str, LinkFaults] = field(default_factory=dict)
    nodes: Dict[str, NodeFaults] = field(default_factory=dict)
    default: Optional[LinkFaults] = None

    def data_blackout_clear_ms(self) -> Optional[float]:
        """When the last data-affecting blackout ends (declared, not named).

        A *blackout* is anything that can destroy data packets: a link
        down window, a node crash, or in-scope (``all``/``data``)
        probabilistic loss.  Returns ``None`` when the plan never
        touches data (control-scoped loss only, or no faults at all) —
        such a plan must deliver every update.  Windowed blackouts
        return the latest end instant; an unbounded one (a crash with
        no restart, or persistent in-scope loss) returns ``inf``.

        Harnesses derive their delivery-invariant window from this plus
        a declared recovery margin, so the check is a property of the
        plan's data rather than of its name.
        """
        ends: List[float] = []
        specs = list(self.links.values())
        if self.default is not None:
            specs.append(self.default)
        for spec in specs:
            for _start, end in spec.down:
                ends.append(end)
            if spec.scope != "control" and (spec.loss > 0.0 or spec.burst is not None):
                ends.append(float("inf"))
        for node_faults in self.nodes.values():
            ends.append(
                float("inf")
                if node_faults.restart_at is None
                else node_faults.restart_at
            )
        return max(ends) if ends else None

    def describe(self) -> dict:
        """JSON-friendly summary for chaos reports."""
        return {
            "name": self.name,
            "seed": self.seed,
            "default": None if self.default is None else vars(self.default).copy(),
            "links": {k: vars(v).copy() for k, v in sorted(self.links.items())},
            "nodes": {
                k: {"crash_at": v.crash_at, "restart_at": v.restart_at}
                for k, v in sorted(self.nodes.items())
            },
        }


@dataclass
class FaultStats:
    """What the injector actually did, for report plumbing and tests."""

    dropped: int = 0
    delayed: int = 0
    extra_delay_ms: float = 0.0
    crashes: int = 0
    restarts: int = 0
    #: ``((src node, dst node), reason)`` -> count; reasons are "random",
    #: "burst", "down" and "node_down".  The key is directional — a link's
    #: two directions count separately, which the hop-chain tracer needs
    #: to attribute a loss to the sender side.
    drops_by_link: Dict[Tuple[Tuple[str, str], str], int] = field(default_factory=dict)
    #: Reason of the most recent drop, read synchronously by the packet
    #: tracer's egress hook (not serialised; transient observability state).
    last_drop_reason: str = field(default="", repr=False, compare=False)

    def count_drop(self, src: str, dst: str, reason: str) -> None:
        self.dropped += 1
        self.last_drop_reason = reason
        key = ((src, dst), reason)
        self.drops_by_link[key] = self.drops_by_link.get(key, 0) + 1

    def as_dict(self) -> dict:
        """JSON-friendly summary for chaos reports."""
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "extra_delay_ms": self.extra_delay_ms,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "drops_by_link": {
                f"{src}->{dst}:{reason}": n
                for ((src, dst), reason), n in sorted(self.drops_by_link.items())
            },
        }


class FaultInjector:
    """Arms a :class:`FaultPlan` onto a network; :meth:`uninstall` disarms.

    Installation is idempotent per instance and reversible: the injector
    only ever touches ``link.fault_hook`` slots it set itself and cancels
    its own scheduled crash/restart events on uninstall.
    """

    def __init__(self, network: Network, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.stats = FaultStats()
        self.down_nodes: set[str] = set()
        # Per-clock view of the down set, keyed by id(sim).  Serially there
        # is one clock and one view (aliasing ``down_nodes``); under the
        # sharded executor each shard gets its own view, updated by a
        # mirrored crash/restart event on that shard's clock — so every
        # shard observes the transition in its own event order, exactly
        # where the serial heap would have placed it.  A shared set would
        # leak one shard's progress into another mid-window.
        self._down_by_sim: Dict[int, set] = {}
        self._armed: List[Link] = []
        self._handles: List[EventHandle] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm the plan: set link hooks, schedule node crash/restarts."""
        if self._installed:
            return self
        self._installed = True
        unknown = set(self.plan.links) - {link.name for link in self.network.links}
        if unknown:
            raise ValueError(f"plan names unknown links: {sorted(unknown)}")
        unknown_nodes = set(self.plan.nodes) - set(self.network.nodes)
        if unknown_nodes:
            raise ValueError(f"plan names unknown nodes: {sorted(unknown_nodes)}")
        watch_nodes = bool(self.plan.nodes)
        for link in self.network.links:
            spec = self.plan.links.get(link.name, self.plan.default)
            if spec is not None and spec.is_noop:
                spec = None
            # A link needs a hook if it has its own faults, or if node
            # crashes exist anywhere (the hook enforces the dead-node
            # blackout on every incident link, and crash membership can
            # change at runtime — so watch every link).
            if spec is None and not watch_nodes:
                continue
            if link.fault_hook is not None:
                raise RuntimeError(f"link {link.name} already has a fault hook")
            link.fault_hook = self._make_hook(link, spec)
            self._armed.append(link)
        # One clock serially; one per shard under the sharded executor
        # (install after the executor has rebound node clocks).
        sims = {id(node.sim): node.sim for node in self.network.nodes.values()}
        for sim_id, sim in sims.items():
            self._down_by_sim[sim_id] = (
                self.down_nodes if len(sims) == 1 else set()
            )
        for node_name, nf in sorted(self.plan.nodes.items()):
            owner_sim = self.network.nodes[node_name].sim
            for sim_id, sim in sims.items():
                # Mirror the transition onto every clock: each shard's
                # hooks consult their own down view, so the crash lands in
                # each shard's event order exactly at crash_at — never
                # early or late depending on which shard ran first.  Only
                # the owning clock's mirror wipes state and counts.
                owner = sim is owner_sim
                self._handles.append(
                    sim.schedule_at(nf.crash_at, self._crash, node_name, sim_id, owner)
                )
                if nf.restart_at is not None:
                    self._handles.append(
                        sim.schedule_at(
                            nf.restart_at, self._restart, node_name, sim_id, owner
                        )
                    )
        return self

    def uninstall(self) -> None:
        """Disarm: clear our hooks, cancel pending crash/restart events."""
        for link in self._armed:
            link.fault_hook = None
        self._armed.clear()
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        self._down_by_sim.clear()
        self._installed = False

    # ------------------------------------------------------------------
    # Per-link hook construction
    # ------------------------------------------------------------------
    def _make_hook(
        self, link: Link, spec: Optional[LinkFaults]
    ) -> Callable[[Face, Packet], Optional[float]]:
        stats = self.stats
        down_by_sim = self._down_by_sim
        link_name = link.name

        def node_down(face: Face) -> bool:
            # The sending node's clock identifies the shard whose down
            # view applies; serially there is exactly one view.
            down = down_by_sim.get(id(face.node.sim))
            return bool(down) and (
                face.node.name in down or face.peer.name in down
            )

        if spec is None:
            # Node-blackout watcher only.
            def watch_hook(face: Face, packet: Packet) -> Optional[float]:
                if node_down(face):
                    stats.count_drop(face.node.name, face.peer.name, "node_down")
                    return None
                return 0.0

            return watch_hook

        seed = self.plan.seed
        loss = spec.loss
        burst = spec.burst
        down = spec.down
        jitter = spec.jitter_ms
        scope = spec.scope
        # One RNG + Gilbert–Elliott state per *direction*, created lazily
        # and keyed by the sending node.  Seed with a string so the stream
        # is stable across processes (tuple/int-from-hash seeding would
        # inherit PYTHONHASHSEED salt); including the direction makes each
        # stream a pure function of that direction's packet sequence (see
        # the determinism note in the module docstring).  The chain state
        # lives in a one-element list so the closure can mutate it.
        directions: Dict[str, Tuple[random.Random, List[bool]]] = {}

        def direction_state(face: Face) -> Tuple[random.Random, List[bool]]:
            state = directions.get(face.node.name)
            if state is None:
                rng = random.Random(
                    f"{seed}:{link_name}:{face.node.name}->{face.peer.name}"
                )
                state = (rng, [False])
                directions[face.node.name] = state
            return state

        def hook(face: Face, packet: Packet) -> Optional[float]:
            if node_down(face):
                stats.count_drop(face.node.name, face.peer.name, "node_down")
                return None
            # The sender's clock is the executing clock — correct in both
            # serial and sharded runs (link.sim may be a boundary proxy).
            now = face.node.sim.now
            for start, end in down:
                if start <= now < end:
                    stats.count_drop(face.node.name, face.peer.name, "down")
                    return None
            if scope != "all" and packet.is_control != (scope == "control"):
                return 0.0
            rng, in_bad = direction_state(face)
            if burst is not None:
                if in_bad[0]:
                    if rng.random() < burst.p_bad_to_good:
                        in_bad[0] = False
                else:
                    if rng.random() < burst.p_good_to_bad:
                        in_bad[0] = True
                p_loss = burst.loss_bad if in_bad[0] else burst.loss_good
                if p_loss > 0.0 and rng.random() < p_loss:
                    stats.count_drop(face.node.name, face.peer.name, "burst")
                    return None
            if loss > 0.0 and rng.random() < loss:
                stats.count_drop(face.node.name, face.peer.name, "random")
                return None
            if jitter > 0.0:
                extra = rng.random() * jitter
                stats.delayed += 1
                stats.extra_delay_ms += extra
                return extra
            return 0.0

        return hook

    # ------------------------------------------------------------------
    # Node crash / restart
    # ------------------------------------------------------------------
    def _crash(self, node_name: str, sim_id: int, owner: bool) -> None:
        self._down_by_sim[sim_id].add(node_name)
        if not owner:
            return
        self.down_nodes.add(node_name)
        self.stats.crashes += 1
        node = self.network.nodes[node_name]
        reset = getattr(node, "crash_reset", None)
        if reset is not None:
            reset()

    def _restart(self, node_name: str, sim_id: int, owner: bool) -> None:
        self._down_by_sim[sim_id].discard(node_name)
        if not owner:
            return
        self.down_nodes.discard(node_name)
        self.stats.restarts += 1
        node = self.network.nodes[node_name]
        # Reset again on the way up: a restarted process boots from empty
        # state, not from whatever the crash left mid-flight.
        reset = getattr(node, "crash_reset", None)
        if reset is not None:
            reset()

    def __repr__(self) -> str:
        state = "armed" if self._installed else "disarmed"
        return f"FaultInjector({self.plan.name!r}, seed={self.plan.seed}, {state})"
