"""COPSS / G-COPSS packet types.

Paper §III-C adds three packet types to the NDN engine — ``Subscribe``,
``Unsubscribe`` and ``Multicast`` — plus ``FIB add/remove`` control packets
for direct FIB maintenance.  The dynamic RP balancing protocol (§IV-B)
additionally exchanges a CD-handoff message between the old and new RP and
``join``/``confirm``/``leave`` messages while re-anchoring the multicast
tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from repro.names import Name
from repro.packets import Packet

__all__ = [
    "SubscribePacket",
    "UnsubscribePacket",
    "MulticastPacket",
    "FibAddPacket",
    "FibRemovePacket",
    "CdHandoffPacket",
    "JoinPacket",
    "ConfirmPacket",
    "LeavePacket",
    "COPSS_HEADER_BYTES",
]

#: Framing overhead of every COPSS packet.
COPSS_HEADER_BYTES = 16


def _names_wire_bytes(names: Tuple[Name, ...]) -> int:
    return sum(sum(len(c) + 1 for c in name.components) + 2 for name in names)


def _coerce_names(values) -> Tuple[Name, ...]:
    return tuple(Name.coerce(v) for v in values)


@dataclass
class SubscribePacket(Packet):
    """A subscription request for one or more CDs, sent toward the RP(s)."""
    is_control: ClassVar[bool] = True

    cds: Tuple[Name, ...] = ()

    def __post_init__(self) -> None:
        self.cds = _coerce_names(self.cds)
        if not self.cds:
            raise ValueError("Subscribe must carry at least one CD")
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.cds)
        super().__post_init__()


@dataclass
class UnsubscribePacket(Packet):
    """Withdraws subscriptions for the given CDs."""
    is_control: ClassVar[bool] = True

    cds: Tuple[Name, ...] = ()

    def __post_init__(self) -> None:
        self.cds = _coerce_names(self.cds)
        if not self.cds:
            raise ValueError("Unsubscribe must carry at least one CD")
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.cds)
        super().__post_init__()


@dataclass
class MulticastPacket(Packet):
    """A published update, pushed via the RP to all matching subscribers.

    ``cd`` is the (leaf) Content Descriptor of the area/object updated;
    ``payload_size`` the game payload (50-350 bytes in the evaluation
    trace).  ``publisher`` and ``sequence`` identify the update for latency
    accounting; they are measurement metadata, not forwarding state.

    ``pub_seq`` is an optional per-(publisher, CD) sequence number stamped
    by :meth:`GCopssHost.publish` for loss observability: receivers detect
    gaps in the stream and count them in ``NodeStats``.  ``-1`` (the
    default, used by workloads that build packets directly) disables gap
    tracking for the packet.  It rides inside the existing header budget,
    so the wire-size formula is unchanged.
    """

    cd: Name = field(default_factory=Name)
    payload_size: int = 0
    publisher: str = ""
    sequence: int = -1
    object_id: int = -1
    pub_seq: int = -1

    def __post_init__(self) -> None:
        self.cd = Name.coerce(self.cd)
        if self.payload_size < 0:
            raise ValueError(f"negative payload size: {self.payload_size}")
        if self.size == 0:
            self.size = self.wire_size(self.cd, self.payload_size)
        super().__post_init__()

    @staticmethod
    def wire_size(cd: Name, payload_size: int) -> int:
        """Bytes on the wire: COPSS framing, the encoded CD, the payload."""
        return COPSS_HEADER_BYTES + _names_wire_bytes((cd,)) + payload_size


@dataclass
class FibAddPacket(Packet):
    """Direct FIB maintenance: add ``prefixes -> origin`` routes.

    A packet may carry multiple ContentNames "for efficiency" (paper
    §III-C).  ``origin`` is the node the prefixes should route toward
    (an RP announcing the CDs it serves).
    """
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    origin: str = ""

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if not self.prefixes:
            raise ValueError("FIB add must carry at least one prefix")
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 8
        super().__post_init__()


@dataclass
class FibRemovePacket(Packet):
    """Direct FIB maintenance: remove routes for ``prefixes``."""
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    origin: str = ""

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if not self.prefixes:
            raise ValueError("FIB remove must carry at least one prefix")
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 8
        super().__post_init__()


@dataclass
class CdHandoffPacket(Packet):
    """Old RP -> new RP: the list of CD prefixes the new RP takes over."""
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    old_rp: str = ""
    new_rp: str = ""

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if not self.prefixes:
            raise ValueError("handoff must carry at least one prefix")
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 16
        super().__post_init__()


@dataclass
class JoinPacket(Packet):
    """Tree re-anchoring: request to join the new multicast tree.

    ``prefixes`` carries the CDs the joining branch needs on the new tree;
    ``origin`` names the new RP so the join can be routed before the FIB
    flood has reached every router; ``epoch`` identifies the migration
    (one per RP split).
    """
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    epoch: int = 0
    origin: str = ""

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 12
        super().__post_init__()


@dataclass
class ConfirmPacket(Packet):
    """Upstream confirmation that the sender is on the new tree."""
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    epoch: int = 0

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 4
        super().__post_init__()


@dataclass
class LeavePacket(Packet):
    """Detach from the old upstream once the new branch is confirmed."""
    is_control: ClassVar[bool] = True

    prefixes: Tuple[Name, ...] = ()
    epoch: int = 0

    def __post_init__(self) -> None:
        self.prefixes = _coerce_names(self.prefixes)
        if self.size == 0:
            self.size = COPSS_HEADER_BYTES + _names_wire_bytes(self.prefixes) + 4
        super().__post_init__()
