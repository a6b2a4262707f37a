"""Tests for the bounded insertion-ordered uid dedup window."""

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.dedup import DEDUP_HORIZON, BoundedUidSet


class TestBasics:
    def test_first_add_is_new_second_is_duplicate(self):
        seen = BoundedUidSet(8)
        assert seen.add(1) is True
        assert seen.add(1) is False
        assert 1 in seen
        assert len(seen) == 1

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedUidSet(0)

    def test_clear_empties_the_window(self):
        seen = BoundedUidSet(8)
        seen.add(1)
        seen.add(2)
        seen.clear()
        assert len(seen) == 0
        assert seen.add(1) is True


class TestEviction:
    def test_overflow_evicts_oldest_half(self):
        seen = BoundedUidSet(4)
        for uid in range(5):  # 5th add overflows horizon=4
            assert seen.add(uid) is True
        # len grew to 5 > 4, so the oldest 5 // 2 = 2 entries were evicted.
        assert len(seen) == 3
        assert 0 not in seen and 1 not in seen
        assert 2 in seen and 3 in seen and 4 in seen

    def test_evicted_uid_counts_as_new_again(self):
        seen = BoundedUidSet(4)
        for uid in range(5):
            seen.add(uid)
        # uid 0 was evicted: re-adding reports "new" (the accepted cost of
        # a bounded window — ancient replays count once more).
        assert seen.add(0) is True

    def test_eviction_is_insertion_ordered_not_value_ordered(self):
        seen = BoundedUidSet(4)
        for uid in (9, 3, 7, 1, 5):  # arbitrary value order
            seen.add(uid)
        # Oldest two *insertions* (9, 3) go; values play no role.
        assert 9 not in seen and 3 not in seen
        assert 7 in seen and 1 in seen and 5 in seen

    def test_duplicate_add_does_not_refresh_position(self):
        seen = BoundedUidSet(4)
        for uid in (10, 11, 12, 13):
            seen.add(uid)
        assert seen.add(10) is False  # duplicate: stays at its old slot
        seen.add(14)  # overflow: evicts the two oldest, 10 and 11
        assert 10 not in seen and 11 not in seen
        assert 12 in seen and 13 in seen and 14 in seen

    def test_window_keeps_sliding(self):
        seen = BoundedUidSet(10)
        for uid in range(1000):
            assert seen.add(uid) is True
        assert len(seen) <= 10
        assert 999 in seen


class _DictWindow:
    """Reference model: one insertion-ordered dict entry per uid.

    The direct statement of the window's semantics; the bitmap blocks of
    ``BoundedUidSet`` must give the same answer to every operation.
    """

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon
        self._seen = {}

    def add(self, uid: int) -> bool:
        seen = self._seen
        if uid in seen:
            return False
        seen[uid] = None
        if len(seen) > self.horizon:
            for key in list(islice(iter(seen), len(seen) // 2)):
                del seen[key]
        return True

    def __contains__(self, uid: int) -> bool:
        return uid in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def clear(self) -> None:
        self._seen.clear()


#: Small signed uids, one process's dense counter range, and the disjoint
#: ``(i + 1) << 48`` ranges of shard and live processes.
UIDS = st.one_of(
    st.integers(-200, 200),
    st.integers(0, 5000),
    st.builds(lambda i, k: ((i + 1) << 48) + k, st.integers(0, 2), st.integers(0, 300)),
)
HORIZONS = st.integers(1, 16)


class WindowMatchesDictReference(RuleBasedStateMachine):
    """Every operation answers as the dict window does, evictions included."""

    @initialize(horizon=HORIZONS)
    def start(self, horizon):
        self.window = BoundedUidSet(horizon)
        self.model = _DictWindow(horizon)
        self.history = []

    @rule(uid=UIDS)
    def add(self, uid):
        assert self.window.add(uid) == self.model.add(uid)
        self.history.append(uid)

    @precondition(lambda self: self.history)
    @rule(data=st.data())
    def add_again(self, data):
        uid = data.draw(st.sampled_from(self.history))
        assert self.window.add(uid) == self.model.add(uid)

    @rule(uid=UIDS)
    def contains(self, uid):
        assert (uid in self.window) == (uid in self.model)

    @rule()
    def clear(self):
        self.window.clear()
        self.model.clear()

    @rule(horizon=HORIZONS)
    def set_horizon(self, horizon):
        self.window.horizon = horizon
        self.model.horizon = horizon

    @invariant()
    def same_population(self):
        assert len(self.window) == len(self.model)
        for uid in self.history:
            assert (uid in self.window) == (uid in self.model)


TestWindowMatchesDictReference = WindowMatchesDictReference.TestCase


def _traced_bytes(make_window, uids) -> int:
    """Bytes allocated while filling one window, measured with it alive."""
    tracemalloc.start()
    try:
        window = make_window()
        for uid in uids:
            window.add(uid)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_dense_window_costs_at_most_six_tenths_of_the_dict():
    # Every fourth uid of a shuffled 8,000-uid range: about the density a
    # host on the Table I backbone sees.  Uids start past the small-int
    # cache, and the list is built before tracing starts.
    base = 1 << 20
    uids = random.Random(7).sample(range(base, base + 8000), 8000)[::4]
    assert len(uids) == 2000
    blocks = _traced_bytes(BoundedUidSet, uids)
    reference = _traced_bytes(lambda: _DictWindow(DEDUP_HORIZON), uids)
    assert blocks <= 0.6 * reference, (blocks, reference)
