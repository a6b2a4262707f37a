"""Concrete router roles: RP service and post-handoff relaying.

The G-COPSS router's "am I the rendezvous point for this CD?" and "did I
hand this prefix off?" questions used to be attribute soup on the router
class.  They are now two attachable roles (:class:`repro.sim.roles.Role`)
owned by the router facade and consulted by the forwarding/control planes:

* :class:`RpRole` — the prefixes this node currently serves as RP, the
  sliding window of recently decapsulated serving prefixes the load
  balancer reads, and the decap/subscriber-presence hooks the snapshot
  broker plugs into;
* :class:`RelayRole` — prefixes relinquished during an RP split, still
  relayed to their new owner while stale routes drain.

Both keep the PR-1 fast-path property: membership is probed against the
CD's cached prefix chain (set/dict lookups), never by scanning prefix
lists — these run inside the per-packet service-cost estimate.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set

from repro.names import Name
from repro.sim.roles import Role

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Node

__all__ = ["RpRole", "RelayRole"]

#: Recently decapsulated serving prefixes an RP remembers for the balancer.
DECAP_WINDOW = 2000


class RpRole(Role):
    """Rendezvous-point state attached to a router."""

    ROLE_NAME = "rp"

    def __init__(self) -> None:
        super().__init__()
        #: Prefixes this node currently serves as RP (prefix-free set).
        self.prefixes: Set[Name] = set()
        # Sliding window of serving prefixes of recently decapsulated
        # packets; the load balancer reads this to pick which CDs to shed.
        # A bounded deque: appends past the window evict O(1).
        self.recent_cds: Deque[Name] = deque(maxlen=DECAP_WINDOW)
        # Hook invoked as fn(router, serving_prefix) after each decap.
        self.on_decap: List[Callable[["Node", Name], None]] = []
        # Subscriber-presence hooks (paper §IV-A): a cyclic-multicast broker
        # starts on the first Subscribe for its group CD and stops on the
        # last Unsubscribe.  Fired only for CDs this router serves as RP.
        self.on_subscriber_appeared: List[Callable[[Name], None]] = []
        self.on_subscriber_vanished: List[Callable[[Name], None]] = []

    def serving_prefix(self, cd: Name) -> Optional[Name]:
        """The rp_prefix under which this node serves ``cd``, if any.

        Set-membership probes over the CD's cached prefix chain: prefix-
        freeness of the RP assignment guarantees at most one hit, so the
        walk order is immaterial.
        """
        serving = self.prefixes
        if not serving:
            return None
        for prefix in cd.prefixes():
            if prefix in serving:
                return prefix
        return None

    def record_decap(self, node: "Node", serving: Name) -> None:
        """Window accounting + decap hooks, after each decapsulation."""
        self.recent_cds.append(serving)  # deque maxlen evicts the oldest
        for hook in self.on_decap:
            hook(node, serving)

    def window_loads(self) -> Counter:
        """Per-CD load meter: decap counts over the sliding window.

        The load balancer and the federation autoscaler both key their
        shed decisions on this counter, so a threshold split and an
        autoscaled split agree on which prefixes are hot.
        """
        return Counter(self.recent_cds)

    def telemetry(self) -> dict:
        """Served-prefix count and decap-window fill, as sampled gauges."""
        return {
            "prefixes": len(self.prefixes),
            "recent_decaps": len(self.recent_cds),
        }


class RelayRole(Role):
    """Relinquished-prefix relaying after an RP handoff (stage 1)."""

    ROLE_NAME = "relay"

    def __init__(self) -> None:
        super().__init__()
        #: Prefixes handed off: publications still arriving here are
        #: relayed to the new RP named in the mapping.
        self.relinquished: Dict[Name, str] = {}

    def telemetry(self) -> dict:
        return {"relinquished": len(self.relinquished)}

    def relay_target(self, cd: Name) -> Optional[str]:
        """Longest relinquished prefix covering ``cd``, via dict probes."""
        relinquished = self.relinquished
        if not relinquished:
            return None
        for prefix in reversed(cd.prefixes()):
            new_rp = relinquished.get(prefix)
            if new_rp is not None:
                return new_rp
        return None
