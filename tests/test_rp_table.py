"""Tests for the prefix-free Rendezvous Point table (paper §III-B)."""

import pytest

from repro.core.rp import RpTable
from repro.names import ROOT


class TestPrefixFreeness:
    def test_nested_prefix_rejected(self):
        table = RpTable()
        table.assign("/1/1", "rpA")
        with pytest.raises(ValueError):
            table.assign("/1", "rpB")  # the paper's example: no RP may serve /1
        with pytest.raises(ValueError):
            table.assign("/1/1/1", "rpB")

    def test_siblings_allowed(self):
        table = RpTable()
        table.assign("/1/1", "rpA")
        table.assign("/1/2", "rpB")
        table.assign("/1/3", "rpB")
        assert len(table) == 3

    def test_reassign_same_prefix_is_move(self):
        table = RpTable()
        table.assign("/1", "rpA")
        table.assign("/1", "rpB")
        assert table.rp_for("/1/5") == "rpB"

    def test_root_serves_everything(self):
        table = RpTable()
        table.assign(ROOT, "rp0")
        assert table.rp_for("/anything/below") == "rp0"
        with pytest.raises(ValueError):
            table.assign("/1", "rp1")


class TestLookup:
    def make_paper_table(self):
        """The paper's example: RP serves /1/1 (and so /1/1/1), others /1/2, /1/3."""
        table = RpTable()
        table.assign("/1/1", "rpA")
        table.assign("/1/2", "rpB")
        table.assign("/1/3", "rpC")
        return table

    def test_publication_routes_to_unique_rp(self):
        table = self.make_paper_table()
        assert table.rp_for("/1/1") == "rpA"
        assert table.rp_for("/1/1/1") == "rpA"
        assert table.rp_for("/1/2/9") == "rpB"

    def test_uncovered_cd_raises(self):
        table = self.make_paper_table()
        with pytest.raises(KeyError):
            table.rp_for("/2/1")
        assert table.rp_for("/1/1/5") == "rpA"

    def test_all_rps(self):
        table = self.make_paper_table()
        assert table.all_rps() == {"rpA", "rpB", "rpC"}

