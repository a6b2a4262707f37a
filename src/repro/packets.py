"""Base packet type shared by every protocol family in the reproduction.

NDN packets (:mod:`repro.ndn.packets`), COPSS/G-COPSS packets
(:mod:`repro.core.packets`) and the IP baseline's datagrams
(:mod:`repro.baselines.ip_server`) all derive from :class:`Packet` so the
network fabric can account bytes uniformly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar

__all__ = ["Packet", "use_id_range"]

_packet_ids = itertools.count()


def use_id_range(index: int) -> None:
    """Draw this process's packet uids and Interest nonces from range ``index``.

    Process *i* of a multiprocess or live run counts both from
    ``(i + 1) << 48``, so ids minted in different processes never
    collide and uid-keyed dedup and PIT nonce checks stay exact.
    """
    import repro.ndn.packets as ndn_packets

    global _packet_ids
    base = (index + 1) << 48
    _packet_ids = itertools.count(base)
    ndn_packets._nonces = itertools.count(base + 1)


@dataclass
class Packet:
    """Common base for all simulated packets.

    ``size`` is the wire size in bytes and is what every link/load meter
    accounts.  ``created_at`` is stamped by the publisher (simulated ms) and
    is the reference point for update-latency measurements.  ``uid`` makes
    every packet instance distinguishable in PIT/dedup tables even when the
    payload is identical.
    """

    #: Class marker read by the fault plane's scope filter: control-plane
    #: packet types (Subscribe, FIB floods, the migration handshake, ...)
    #: set this True so a fault plan can degrade control links without
    #: touching data traffic, and vice versa.  A class attribute — like
    #: ``Node.is_copss_router`` — so the sim layer needs no imports from
    #: the protocol layers above it.
    is_control: ClassVar[bool] = False

    size: int = 0
    created_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"packet size must be >= 0, got {self.size}")
