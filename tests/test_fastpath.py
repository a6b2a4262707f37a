"""Forwarding fast-path correctness: caches must be invisible.

The memoized ``SubscriptionTable.match`` and the packed Bloom views are
pure optimizations — every observable (matched faces, false-positive
accounting, membership answers) must be identical to the same scan with
the memo bypassed and consistent with exact-set ground truth, across any
interleaving of subscribe / unsubscribe / remove_all / drop_face.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import CountingBloomFilter, indexes_for, mask_for
from repro.core.subscriptions import SubscriptionTable
from repro.names import Name

CDS = [
    Name.parse(text)
    for text in (
        "/",
        "/1",
        "/2",
        "/1/1",
        "/1/2",
        "/2/1",
        "/1/1/1",
        "/1/1/2",
        "/1/2/1",
        "/2/1/1",
        "/3/1/1",
    )
]
FACES = [0, 1, 2, 3]

# One mutation step of the table: (op, face, cd index).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "ensure", "unsubscribe", "remove_all", "drop_face"]),
        st.sampled_from(FACES),
        st.integers(min_value=0, max_value=len(CDS) - 1),
    ),
    min_size=1,
    max_size=40,
)

#: What ``sharded_scale``'s access routers hold: hundreds of host faces.
WIDE_FACES = 320
wide_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "ensure", "unsubscribe", "remove_all", "drop_face"]),
        st.integers(min_value=0, max_value=WIDE_FACES - 1),
        st.integers(min_value=0, max_value=len(CDS) - 1),
    ),
    min_size=1,
    max_size=8,
)


def apply_op(table: SubscriptionTable, op: str, face: int, cd: Name) -> None:
    if op == "subscribe":
        table.subscribe(face, cd)
    elif op == "ensure":
        table.ensure(face, cd)
    elif op == "unsubscribe":
        try:
            table.unsubscribe(face, cd)
        except KeyError:
            pass
    elif op == "remove_all":
        table.remove_all(face, cd)
    elif op == "drop_face":
        table.drop_face(face)


class TestMemoizedMatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy)
    def test_cached_equals_uncached_equals_exact(self, ops):
        """Drive both arms through the same churn; probe after every step.

        The probe set covers every CD (so memo entries from before each
        mutation would be stale if invalidation missed anything).  The
        cached and bypass tables must agree on faces *and* on cumulative
        false-positive accounting; both must equal exact matching plus
        the per-probe FP surplus.
        """
        cached: SubscriptionTable[int] = SubscriptionTable(bloom_bits=64, bloom_hashes=2)
        bypass: SubscriptionTable[int] = SubscriptionTable(bloom_bits=64, bloom_hashes=2)
        bypass.cache_enabled = False
        for op, face, cd_index in ops:
            cd = CDS[cd_index]
            apply_op(cached, op, face, cd)
            apply_op(bypass, op, face, cd)
            for probe in CDS:
                want = bypass.match(probe)
                got = cached.match(probe)
                assert got == want
                exact = cached.match_exact(probe)
                # No false negatives: every exact match is bloom-matched.
                assert set(exact) <= set(got)
            assert cached.false_positive_forwards == bypass.false_positive_forwards

    @settings(max_examples=15, deadline=None)
    @given(ops=wide_ops_strategy)
    def test_wide_table_memo_equals_bypass_equals_exact_plus_surplus(self, ops):
        """The same property on an access router's table: 320 faces.

        Every face starts with two CDs (round-robin), then the churn lands
        on faces spread across the whole width.  A 16-bit filter makes the
        starting table alone forward 448 false positives per probe sweep,
        so the FP surplus is exercised, not just zero.
        """
        cached: SubscriptionTable[int] = SubscriptionTable(bloom_bits=16, bloom_hashes=2)
        bypass: SubscriptionTable[int] = SubscriptionTable(bloom_bits=16, bloom_hashes=2)
        bypass.cache_enabled = False
        for table in (cached, bypass):
            for face in range(WIDE_FACES):
                for slot in (2 * face, 2 * face + 7):
                    table.subscribe(face, CDS[1 + slot % (len(CDS) - 1)])
        surplus = 0
        for op, face, cd_index in ops:
            cd = CDS[cd_index]
            apply_op(cached, op, face, cd)
            apply_op(bypass, op, face, cd)
            for probe in CDS:
                got = cached.match(probe)
                assert got == bypass.match(probe)
                exact = cached.match_exact(probe)
                assert set(exact) <= set(got)
                surplus += len(got) - len(exact)
        assert cached.false_positive_forwards == surplus > 0
        assert bypass.false_positive_forwards == surplus

    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy)
    def test_fp_accounting_matches_exact_surplus(self, ops):
        """FP counter == total bloom-matched faces minus exact-matched."""
        table: SubscriptionTable[int] = SubscriptionTable(bloom_bits=32, bloom_hashes=2)
        surplus = 0
        for op, face, cd_index in ops:
            apply_op(table, op, face, CDS[cd_index])
            for probe in CDS:
                matched = table.match(probe)
                exact = table.match_exact(probe)
                surplus += len(matched) - len(exact)
        assert table.false_positive_forwards == surplus

    def test_false_positive_counted_per_packet_not_per_fill(self):
        """A cache hit must keep accounting FPs for every packet."""
        table: SubscriptionTable[int] = SubscriptionTable(bloom_bits=4, bloom_hashes=1)
        # A tiny filter forces collisions: subscribe enough CDs that an
        # unsubscribed probe aliases onto set bits.
        for i, cd in enumerate(["/1", "/2", "/3", "/4"]):
            table.subscribe(0, cd)
        probe = Name.parse("/7/7")
        matches = table.match(probe)
        if not matches:
            pytest.skip("no collision with this geometry (hash layout changed)")
        fp_per_packet = len(matches) - len(table.match_exact(probe))
        assert fp_per_packet > 0
        before = table.false_positive_forwards
        table.match(probe)  # cache hit
        table.match(probe)  # cache hit
        assert table.false_positive_forwards == before + 2 * fp_per_packet

    def test_mutation_invalidates_memo(self):
        table: SubscriptionTable[int] = SubscriptionTable()
        table.subscribe(0, "/a")
        assert table.match("/a/b") == [0]
        table.subscribe(1, "/a/b")
        assert sorted(table.match("/a/b")) == [0, 1]
        table.unsubscribe(0, "/a")
        assert table.match("/a/b") == [1]
        table.drop_face(1)
        assert table.match("/a/b") == []

    def test_remove_all_invalidates_memo(self):
        table: SubscriptionTable[int] = SubscriptionTable()
        table.subscribe(0, "/x")
        table.subscribe(0, "/x")
        assert table.match("/x") == [0]
        table.remove_all(0, "/x")
        assert table.match("/x") == []

    def test_bypass_switch_returns_fresh_lists(self):
        table: SubscriptionTable[int] = SubscriptionTable()
        table.subscribe(0, "/a")
        first = table.match("/a")
        first.append(99)  # caller-side mutation must not poison the cache
        assert table.match("/a") == [0]


class TestPackedBloomViews:
    def test_mask_and_indexes_agree(self):
        for cd in CDS:
            idxs = indexes_for(cd, 2048, 4)
            mask = mask_for(cd, 2048, 4)
            assert mask == sum({1 << i for i in idxs})
            assert mask.bit_count() == len(set(idxs))

    def test_bit_view_tracks_add_remove(self):
        bloom = CountingBloomFilter(num_bits=256, num_hashes=3)
        assert bloom.bit_view == 0
        bloom.add("/a")
        bloom.add("/b")
        view = bloom.bit_view
        assert view != 0
        mask = mask_for("/a", 256, 3)
        assert bloom.bit_view & mask == mask
        bloom.remove("/b")
        assert bloom.bit_view & mask == mask
        bloom.remove("/a")
        assert bloom.bit_view == 0

    def test_precomputed_add(self):
        bloom = CountingBloomFilter(num_bits=512, num_hashes=4)
        idxs = indexes_for("/p/q", 512, 4)
        bloom.add("/p/q", indexes=idxs)
        assert "/p/q" in bloom
        assert bloom.bit_view == mask_for("/p/q", 512, 4)


class TestNameInterning:
    def test_parse_returns_same_instance(self):
        assert Name.parse("/a/b/c") is Name.parse("/a/b/c")

    def test_coerce_string_interns(self):
        assert Name.coerce("/a/b") is Name.parse("/a/b")

    def test_interned_names_still_value_equal_to_constructed(self):
        assert Name.parse("/a/b") == Name(["a", "b"])
        assert hash(Name.parse("/a/b")) == hash(Name(["a", "b"]))

    def test_prefixes_last_element_is_self(self):
        name = Name.parse("/a/b/c")
        assert name.prefixes()[-1] is name

    def test_bloom_positions_are_cached_per_text_and_per_geometry(self):
        name, twin = Name(["cache", "me"]), Name(["cache", "me"])
        assert name is not twin
        a = indexes_for(name, 1024, 4)
        assert indexes_for(twin, 1024, 4) is a  # one entry for equal names
        b = indexes_for(name, 2048, 4)
        assert indexes_for(twin, 2048, 4) is b  # other geometry coexists
        assert indexes_for(name, 1024, 4) is a

    def test_intern_table_bounded(self):
        from repro import names as names_module

        limit = names_module._INTERN_LIMIT
        for i in range(limit + 100):
            Name.parse(f"/bound/{i}")
        assert len(names_module._INTERNED) <= limit
        # The most recent parse survived eviction.
        assert f"/bound/{limit + 99}" in names_module._INTERNED
