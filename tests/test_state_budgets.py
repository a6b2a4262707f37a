"""Memory budgets for per-subscriber state: it costs what it holds.

The paper's Subscription Table is ``<Face, BloomFilter<CD>>`` (§III-C),
so a face's filter should cost what the face subscribes to, and a host's
gap detection what it has heard.  Each budget measures live bytes with
``tracemalloc`` after shared caches (name interning, Bloom bit
positions) are warmed, so only the per-face or per-mark state counts.
"""

import gc
import tracemalloc

from repro.core import GCopssHost
from repro.core import engine as engine_module
from repro.core.packets import MulticastPacket
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name
from repro.sim.network import Network

FACES = 500
PUBLISHERS = 20_000


def _subscribe_all(plan):
    table = SubscriptionTable()
    for face, cds in plan:
        for cd in cds:
            table.subscribe(face, cd)
    return table


def test_subscription_table_costs_at_most_1_5_kib_a_face():
    # Two zone CDs a face out of 64, as an access router's players hold.
    zones = [Name.parse(f"/{region}/{zone}") for region in range(8) for zone in range(8)]
    plan = [(face, (zones[face % 64], zones[(7 * face + 3) % 64])) for face in range(FACES)]
    _subscribe_all(plan)  # warms interning and the bit-position cache
    gc.collect()
    tracemalloc.start()
    try:
        table = _subscribe_all(plan)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 2 * FACES
    assert held / FACES <= 1.5 * 1024, held / FACES


def test_sequence_marks_cost_at_most_48_bytes_each():
    network = Network()
    host = GCopssHost(network, "h")
    cds = [Name.parse(f"/1/{zone}") for zone in range(4)]
    packets = [
        MulticastPacket(cd=cds[i % 4], publisher=f"p{i:06d}", pub_seq=i % 3)
        for i in range(PUBLISHERS)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for packet in packets:
            host._handle_update(packet, None)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Only what the engine allocated: the dedup window and the packets
    # themselves live in other modules.
    marks = snapshot.filter_traces([tracemalloc.Filter(True, engine_module.__file__)])
    held = sum(stat.size for stat in marks.statistics("filename"))
    assert host.stats.updates_received == PUBLISHERS
    assert host.stats.seq_missing == sum(i % 3 for i in range(PUBLISHERS))
    assert held / PUBLISHERS <= 48, held / PUBLISHERS
