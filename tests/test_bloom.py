"""Tests for Bloom filters backing the Subscription Table."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bloom as bloom_module
from repro.core.bloom import CountingBloomFilter, indexes_for
from repro.names import Name

cd_strategy = st.lists(
    st.sampled_from(["0", "1", "2", "3", "4", "5"]), min_size=0, max_size=3
).map(Name)


class TestBloomFilter:
    """Membership properties of the routers' (counting) Bloom filter."""

    def test_added_items_always_found(self):
        bloom = CountingBloomFilter()
        bloom.add("/1/2")
        assert "/1/2" in bloom
        assert Name.parse("/1/2") in bloom

    def test_absent_item_usually_not_found(self):
        bloom = CountingBloomFilter(num_bits=4096, num_hashes=4)
        bloom.add("/1/2")
        false_positives = sum(1 for i in range(100) if f"/x/{i}" in bloom)
        assert false_positives <= 2

    def test_non_name_not_contained(self):
        assert 42 not in CountingBloomFilter()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            CountingBloomFilter(num_hashes=0)

    @given(st.lists(cd_strategy, max_size=30))
    def test_no_false_negatives(self, cds):
        bloom = CountingBloomFilter(num_bits=512)
        for cd in cds:
            bloom.add(cd)
        for cd in cds:
            assert cd in bloom


class TestCountingBloomFilter:
    def test_add_remove_cycle(self):
        bloom = CountingBloomFilter()
        bloom.add("/1/2")
        bloom.remove("/1/2")
        assert "/1/2" not in bloom
        assert bloom.items == 0

    def test_refcounting(self):
        bloom = CountingBloomFilter()
        bloom.add("/a")
        bloom.add("/a")
        bloom.remove("/a")
        assert "/a" in bloom
        bloom.remove("/a")
        assert "/a" not in bloom

    def test_remove_absent_raises(self):
        bloom = CountingBloomFilter()
        with pytest.raises(KeyError):
            bloom.remove("/never")

    def test_removal_does_not_disturb_others(self):
        bloom = CountingBloomFilter(num_bits=2048)
        bloom.add("/keep")
        bloom.add("/drop")
        bloom.remove("/drop")
        assert "/keep" in bloom

    @settings(max_examples=50)
    @given(st.lists(cd_strategy, max_size=20))
    def test_add_all_remove_all_leaves_empty(self, cds):
        bloom = CountingBloomFilter(num_bits=512)
        for cd in cds:
            bloom.add(cd)
        for cd in cds:
            bloom.remove(cd)
        assert bloom.items == 0
        assert bloom.bit_view == 0

    def test_counters_are_16_bit(self):
        """The 16-bit bound by behaviour: the 65,536th add of one CD raises."""
        from repro.core.bloom import COUNTER_MAX

        assert COUNTER_MAX == 2**16 - 1
        bloom = CountingBloomFilter(num_bits=64)
        idxs = indexes_for("/x", 64, 4)
        for _ in range(COUNTER_MAX):
            bloom.add("/x", idxs)
        with pytest.raises(OverflowError):
            bloom.add("/x", idxs)
        assert bloom.items == COUNTER_MAX
        bloom.remove("/x", idxs)
        bloom.add("/x", idxs)  # back below the bound, one more fits

    def test_counter_overflow_raises(self):
        from repro.core.bloom import COUNTER_MAX

        bloom = CountingBloomFilter(num_bits=16, num_hashes=1)
        idx = 3
        bloom._counts[idx] = COUNTER_MAX
        bloom._bitview |= 1 << idx
        with pytest.raises(OverflowError):
            bloom.add("/x", indexes=(idx,))
        # The failed add must not have bumped anything.
        assert bloom._counts[idx] == COUNTER_MAX
        assert bloom.items == 0

    def test_overflow_check_precedes_partial_increment(self):
        from repro.core.bloom import COUNTER_MAX

        bloom = CountingBloomFilter(num_bits=16, num_hashes=1)
        bloom._counts[5] = COUNTER_MAX
        bloom._bitview |= 1 << 5
        with pytest.raises(OverflowError):
            bloom.add("/y", indexes=(2, 5))
        assert bloom._counts[2] == 0  # earlier index untouched by the abort


_MODEL_BITS = 64
_MODEL_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "remove_all"]), cd_strategy),
    max_size=40,
)


class TestSparseCountersMatchDenseModel:
    """The sparse filter against a list of ``num_bits`` counters.

    The ceiling is lowered so that random sequences reach it: every
    call must raise exactly when the dense model does, and leave the
    same bit view and item count behind.
    """

    @staticmethod
    def _model_call(model, op, idxs, ceiling):
        if op == "add":
            if any(model[idx] >= ceiling for idx in idxs):
                return OverflowError
            for idx in idxs:
                model[idx] += 1
        else:
            if any(model[idx] == 0 for idx in idxs):
                return KeyError
            for idx in idxs:
                model[idx] -= 1
        return None

    @staticmethod
    def _filter_call(bloom, op, cd, idxs):
        try:
            (bloom.add if op == "add" else bloom.remove)(cd, idxs)
        except (OverflowError, KeyError) as exc:
            return type(exc)
        return None

    @settings(max_examples=200)
    @given(ops=_MODEL_OPS, ceiling=st.integers(1, 4))
    def test_random_sequences(self, ops, ceiling):
        bloom = CountingBloomFilter(num_bits=_MODEL_BITS)
        model = [0] * _MODEL_BITS
        items = 0
        added = {}
        with mock.patch.object(bloom_module, "COUNTER_MAX", ceiling):
            for op, cd in ops:
                idxs = indexes_for(cd, _MODEL_BITS, bloom.num_hashes)
                # remove_all: every occurrence this sequence added, one at a time.
                calls = ["remove"] * added.get(cd, 0) if op == "remove_all" else [op]
                for call in calls:
                    expected = self._model_call(model, call, idxs, ceiling)
                    assert self._filter_call(bloom, call, cd, idxs) is expected
                    if expected is None:
                        items += 1 if call == "add" else -1
                        added[cd] = added.get(cd, 0) + (1 if call == "add" else -1)
                    assert bloom.bit_view == sum(1 << i for i, n in enumerate(model) if n)
                    assert bloom.items == items
                    assert (cd in bloom) == all(model[idx] for idx in idxs)
        assert dict(bloom._counts) == {i: n for i, n in enumerate(model) if n}
