"""Attachable node roles: behavior as composition, not inheritance.

The paper's Fig. 2 router is a stack of separable engines; likewise a node
in this reproduction can *carry* behaviors — serving as an RP, relaying
relinquished prefixes, brokering snapshots — without each combination
needing its own subclass.  A :class:`Role` is a small state+behavior unit
attached to a :class:`~repro.sim.network.Node` under a well-known name;
owners (planes, experiment harnesses) look it up with
``node.get_role(...)`` or keep a direct reference.

Concrete roles live next to the subsystems they serve:
:class:`repro.core.roles.RpRole` / :class:`repro.core.roles.RelayRole`
(router planes) and :class:`repro.core.snapshot.BrokerRole` (snapshot
dissemination).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Node

__all__ = ["Role"]


class Role:
    """Base class for attachable node behaviors.

    Subclasses set :attr:`ROLE_NAME` (the key in ``node.roles``) and may
    override :meth:`attach` to wire themselves into the node (hook lists,
    subscriptions).  A role instance belongs to at most one node.
    """

    ROLE_NAME = "role"

    def __init__(self) -> None:
        self.node: "Node | None" = None

    def attach(self, node: "Node") -> None:
        """Called by ``Node.attach_role``; override to add wiring."""
        if self.node is not None and self.node is not node:
            raise ValueError(
                f"role {self.ROLE_NAME!r} already attached to {self.node.name}"
            )
        self.node = node

    def telemetry(self) -> dict:
        """Role-level gauges for the metrics registry (override freely).

        Keys are metric-name suffixes, values numbers; the registry
        samples them on sim ticks.  The base role has none.
        """
        return {}

    def __repr__(self) -> str:
        where = self.node.name if self.node is not None else "unattached"
        return f"{type(self).__name__}({where})"
