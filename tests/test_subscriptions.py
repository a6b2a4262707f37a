"""Tests for the Subscription Table (paper §III-C)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subscriptions import SubscriptionTable
from repro.names import Name


class TestMatching:
    def test_exact_subscription_matches(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1/2")
        assert st_table.match("/1/2") == ["f1"]

    def test_hierarchical_match(self):
        # The paper's example: a packet for /sports/football must reach a
        # face whose filter holds /sports.
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/sports")
        assert st_table.match("/sports/football") == ["f1"]

    def test_deeper_subscription_does_not_match_shallower_packet(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/sports/football")
        assert st_table.match("/sports") == []

    def test_multiple_faces(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f2", "/1/2")
        st_table.subscribe("f3", "/9")
        assert sorted(st_table.match("/1/2")) == ["f1", "f2"]

    def test_match_exact_agrees_modulo_false_positives(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f2", "/2")
        bloom_result = set(st_table.match("/1/5"))
        exact_result = set(st_table.match_exact("/1/5"))
        assert exact_result <= bloom_result  # bloom may only over-deliver


class TestLifecycle:
    def test_subscribe_returns_first_flag(self):
        st_table = SubscriptionTable()
        assert st_table.subscribe("f1", "/1") is True
        assert st_table.subscribe("f1", "/1") is False

    def test_unsubscribe_refcounts(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f1", "/1")
        assert st_table.unsubscribe("f1", "/1") is False
        assert st_table.match_exact("/1") == ["f1"]
        assert st_table.unsubscribe("f1", "/1") is True
        assert st_table.match_exact("/1") == []

    def test_unsubscribe_missing_raises(self):
        st_table = SubscriptionTable()
        with pytest.raises(KeyError):
            st_table.unsubscribe("f1", "/1")

    def test_remove_all(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f1", "/1")
        assert st_table.remove_all("f1", "/1") == 2
        assert st_table.remove_all("f1", "/1") == 0
        assert st_table.match("/1") == []

    def test_drop_face(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f1", "/2")
        dropped = st_table.drop_face("f1")
        assert dropped == {Name.parse("/1"), Name.parse("/2")}
        assert st_table.match("/1") == []

    def test_unsubscribe_leaves_other_faces(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f2", "/1")
        st_table.unsubscribe("f1", "/1")
        assert st_table.match_exact("/1") == ["f2"]


class TestControlQueries:
    def test_cds_on(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f1", "/2")
        assert st_table.cds_on("f1") == {Name.parse("/1"), Name.parse("/2")}
        assert st_table.cds_on("f9") == set()

    def test_all_cds(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f2", "/2")
        assert st_table.all_cds() == {Name.parse("/1"), Name.parse("/2")}

    def test_has_any_subscriber(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        assert st_table.has_any_subscriber("/1/5")
        assert not st_table.has_any_subscriber("/2")

    def test_len_counts_distinct_cd_face_pairs(self):
        st_table = SubscriptionTable()
        st_table.subscribe("f1", "/1")
        st_table.subscribe("f1", "/2")
        st_table.subscribe("f2", "/1")
        assert len(st_table) == 3

    def test_false_positive_counter(self):
        st_table = SubscriptionTable(bloom_bits=8, bloom_hashes=1)  # tiny: FPs likely
        for i in range(20):
            st_table.subscribe("f1", f"/{i}")
        st_table.match("/definitely/absent/cd")
        # With an 8-bit filter holding 20 items, the FP counter fires.
        assert st_table.false_positive_forwards >= 1


cds = st.lists(
    st.lists(st.sampled_from(["0", "1", "2"]), min_size=1, max_size=3).map(Name),
    min_size=1,
    max_size=15,
)


class TestProperties:
    @settings(max_examples=50)
    @given(cds)
    def test_bloom_match_superset_of_exact(self, cd_list):
        st_table = SubscriptionTable()
        for i, cd in enumerate(cd_list):
            st_table.subscribe(f"f{i % 3}", cd)
        for cd in cd_list:
            assert set(st_table.match_exact(cd)) <= set(st_table.match(cd))

    @settings(max_examples=50)
    @given(cds)
    def test_subscribe_unsubscribe_roundtrip_empties_table(self, cd_list):
        st_table = SubscriptionTable()
        for cd in cd_list:
            st_table.subscribe("f1", cd)
        for cd in cd_list:
            st_table.unsubscribe("f1", cd)
        assert len(st_table) == 0
        for cd in cd_list:
            assert st_table.match(cd) == []
