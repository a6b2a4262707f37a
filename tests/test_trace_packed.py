"""The packed trace: rows, pins and the memory budget.

The sha256 pins were computed from the list-of-records traces the column
store replaced (``UpdateEvent`` lists and ``make_trace``'s dicts); the
rows must stay bit-identical to them.
"""

import hashlib
import json
import tracemalloc

import pytest

from repro.experiments.fig4_microbench import microbenchmark_placement
from repro.game import GameMap
from repro.names import Name
from repro.net.codec import pack_message
from repro.net.testbed import BATCH_EVENTS, _publish
from repro.net.world import make_trace, smoke_spec
from repro.trace import CounterStrikeTraceGenerator, microbenchmark_spec, peak_trace_spec
from repro.trace.model import Trace, UpdateEvent

PEAK_SHA = "9f38570dc821ae060132507e059fa7d7c58ee356aa94e7305560a7d50550dd9b"
MICRO_SHA = "2616a61700fc19bbb7d777ba5ae1bf4cc2b976d825a27cc3801d9d503203d932"
WIRE_SHA = "81beaf07ea688d4eedb1ce3c97404eb20baf475c38213783ea7fe49cee3a7279"
FIRST_BATCH_SHA = {
    "R1": "7e898ffaf55c7028644ffa4ee2b84d3659d7a9c9d82cab2a7231420a6dc3bc16",
    "R2": "0ff25de2fa2c3b019eb6b6b090e3565e21cfd79123933d9402b2c0296412ddc6",
    "R3": "0f98229c3c2c885dd3bc1878e12b170c81bdaf02e16cdf0f4390fecec2381830",
}


def rows_sha(events):
    digest = hashlib.sha256()
    for e in events:
        digest.update(f"{e.time_ms!r} {e.player} {e.cd} {e.object_id} {e.size}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def wire_trace():
    return make_trace(smoke_spec(), seed=1, events=80_000)


class TestPins:
    def test_peak_trace_rows(self):
        generator = CounterStrikeTraceGenerator(
            GameMap(seed=1), peak_trace_spec(num_updates=8000, seed=1)
        )
        assert rows_sha(generator.generate()) == PEAK_SHA

    def test_microbenchmark_trace_rows(self):
        game_map = GameMap(seed=1)
        generator = CounterStrikeTraceGenerator(
            game_map,
            microbenchmark_spec(scale=1.0, seed=1),
            placement=microbenchmark_placement(game_map),
        )
        assert rows_sha(generator.generate()) == MICRO_SHA

    def test_wire_trace_rows(self, wire_trace):
        text = "".join(json.dumps(row) + "\n" for row in wire_trace)
        assert hashlib.sha256(text.encode()).hexdigest() == WIRE_SHA

    def test_first_publish_datagram_of_each_runner(self, wire_trace):
        spec = smoke_spec()
        owner = {h: conf["router"] for h, conf in spec["hosts"].items()}
        for node, want in FIRST_BATCH_SHA.items():
            rows = [e for e in wire_trace if owner[e["host"]] == node][:BATCH_EVENTS]
            packed = pack_message(_publish(0, rows))
            assert hashlib.sha256(packed).hexdigest() == want, node


class TestRows:
    def test_index_slice_and_iteration_agree(self):
        trace = Trace()
        trace.append(1.0, "p", Name.parse("/1/2"), 7, 100)
        trace.append(2.5, "q", Name.parse("/1"), 3, 60)
        trace.append(4.0, "p", Name.parse("/1/2"), 7, 80)
        rows = list(trace)
        assert rows[0] == UpdateEvent(1.0, "p", "/1/2", 7, 100)
        assert trace[-1] == rows[2] and trace[1] == rows[1]
        assert trace[1:] == rows[1:] and isinstance(trace[1:], list)
        assert trace.players == ["p", "q"] and len(trace.cds) == 2
        with pytest.raises(IndexError):
            trace[3]

    def test_wire_rows_carry_their_seq(self, wire_trace):
        assert [row["seq"] for row in wire_trace[5:8]] == [5, 6, 7]
        assert wire_trace[-1]["seq"] == len(wire_trace) - 1
        assert set(wire_trace[0]) == {"seq", "host", "cd", "size"}


def test_live_trace_memory_budget():
    """80,000 events as columns; the list of dicts held about 19 MB."""
    tracemalloc.start()
    try:
        trace = make_trace(smoke_spec(), 1, 80_000)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 80_000
    assert held < 3_000_000, f"make_trace holds {held / 1e6:.1f} MB"
