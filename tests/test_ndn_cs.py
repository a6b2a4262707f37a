"""Tests for the Content Store."""

import pytest

from repro.ndn.cs import ContentStore
from repro.ndn.packets import Data


def make_data(name="/a", freshness=100.0):
    return Data(name=name, payload_size=10, freshness=freshness)


class TestCaching:
    def test_hit_after_insert(self):
        cs = ContentStore()
        data = make_data()
        cs.insert(data, now=0.0)
        assert cs.match("/a", now=1.0) is data
        assert cs.hits == 1

    def test_miss_on_absent(self):
        cs = ContentStore()
        assert cs.match("/a", 0.0) is None
        assert cs.misses == 1

    def test_staleness(self):
        cs = ContentStore()
        cs.insert(make_data(freshness=10.0), now=0.0)
        assert cs.match("/a", now=5.0) is not None
        assert cs.match("/a", now=15.0) is None  # aged out
        assert cs.match("/a", now=16.0) is None  # and removed

    def test_exact_match_only(self):
        cs = ContentStore()
        cs.insert(make_data("/a/b"), now=0.0)
        assert cs.match("/a", 0.0) is None
        assert cs.match("/a/b/c", 0.0) is None

    def test_reinsert_refreshes(self):
        cs = ContentStore()
        cs.insert(make_data(freshness=10.0), now=0.0)
        cs.insert(make_data(freshness=10.0), now=8.0)
        assert cs.match("/a", now=15.0) is not None


class TestEviction:
    def test_lru_eviction_order(self):
        cs = ContentStore(capacity=2)
        cs.insert(make_data("/a"), 0.0)
        cs.insert(make_data("/b"), 0.0)
        cs.match("/a", 1.0)  # touch /a so /b is LRU
        cs.insert(make_data("/c"), 2.0)
        assert "/b" not in cs
        assert "/a" in cs
        assert cs.evictions == 1

    def test_zero_capacity_disables_cache(self):
        cs = ContentStore(capacity=0)
        cs.insert(make_data(), 0.0)
        assert len(cs) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ContentStore(capacity=-1)

    def test_hit_rate(self):
        cs = ContentStore()
        cs.insert(make_data(), 0.0)
        cs.match("/a", 1.0)
        cs.match("/b", 1.0)
        assert (cs.hits, cs.misses) == (1, 1)
