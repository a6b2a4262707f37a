"""The paper's raw-capture filter pipeline (§V-B).

Starting from a server-side packet capture, the paper derives a
decentralized-game trace in three steps:

1. discard all packets *sent from* the server (G-COPSS needs no server);
2. discard address:port pairs that sent fewer than 10 packets — those are
   clients probing the server for RTT, not established connections;
3. collapse each unique address to one player.

:func:`filter_raw_trace` implements this over :class:`RawPacket` records
(the fields a Wireshark export provides), and
:func:`synthesize_raw_capture` fabricates a capture with the same
pathologies (server echo traffic, connection-attempt probes, multiple
ports per address) so the pipeline is testable end-to-end offline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["RawPacket", "FilterReport", "filter_raw_trace", "synthesize_raw_capture"]

#: Step 2: an address:port flow with fewer packets is a probe.
MIN_FLOW_PACKETS = 10
#: Packets each synthesized player sends, drawn uniformly.
PACKETS_PER_PLAYER = (20, 400)


@dataclass(frozen=True, order=True)
class RawPacket:
    """One captured datagram, as a Wireshark export row."""

    time_ms: float
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    size: int


@dataclass
class FilterReport:
    """Outcome of the three-step filter."""

    total_packets: int
    server_packets_dropped: int
    probe_packets_dropped: int
    players: List[str]
    events: List[RawPacket]

    @property
    def kept_packets(self) -> int:
        return len(self.events)


def filter_raw_trace(
    packets: Sequence[RawPacket],
    server_addr: str,
) -> FilterReport:
    """Apply the paper's three filter steps to a raw capture."""
    # Step 1: drop server-originated packets.
    client_packets = [p for p in packets if p.src_addr != server_addr]
    server_dropped = len(packets) - len(client_packets)

    # Step 2: drop address:port flows with fewer than MIN_FLOW_PACKETS packets.
    flow_counts: Dict[Tuple[str, int], int] = {}
    for p in client_packets:
        key = (p.src_addr, p.src_port)
        flow_counts[key] = flow_counts.get(key, 0) + 1
    established = [
        p
        for p in client_packets
        if flow_counts[(p.src_addr, p.src_port)] >= MIN_FLOW_PACKETS
    ]
    probe_dropped = len(client_packets) - len(established)

    # Step 3: one unique address = one player.
    players = sorted({p.src_addr for p in established})

    return FilterReport(
        total_packets=len(packets),
        server_packets_dropped=server_dropped,
        probe_packets_dropped=probe_dropped,
        players=players,
        events=sorted(established),
    )


def synthesize_raw_capture(
    num_players: int = 50,
    num_probes: int = 30,
    duration_ms: float = 60_000.0,
    server_addr: str = "10.0.0.1",
    seed: int = 3,
) -> List[RawPacket]:
    """A fake server capture with the real capture's pathologies.

    Every client packet gets a mirrored server response (dropped by step
    1); probe clients send fewer than 10 packets each (dropped by step 2);
    some players use two source ports (collapsed by step 3).
    """
    rng = random.Random(seed)
    packets: List[RawPacket] = []

    def emit(src: str, sport: int, t: float, size: int) -> None:
        packets.append(RawPacket(t, src, sport, server_addr, 27015, size))
        # Server response mirrored back (filtered in step 1).
        packets.append(RawPacket(t + 0.5, server_addr, 27015, src, sport, size + 20))

    for i in range(num_players):
        addr = f"192.168.{i // 200}.{i % 200 + 2}"
        ports = [27005]
        if rng.random() < 0.3:
            ports.append(27006)  # re-connected on another port
        count = rng.randint(*PACKETS_PER_PLAYER)
        for _ in range(count):
            emit(addr, rng.choice(ports), rng.uniform(0, duration_ms), rng.randint(50, 350))

    for i in range(num_probes):
        addr = f"172.16.0.{i + 2}"
        for _ in range(rng.randint(1, 9)):
            emit(addr, 27005, rng.uniform(0, duration_ms), rng.randint(40, 80))

    packets.sort()
    return packets
