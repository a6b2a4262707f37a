"""Tests for the Pending Interest Table."""

from repro.names import Name
from repro.ndn.pit import InterestAction, Pit


class TestInsert:
    def test_first_interest_forwards(self):
        pit = Pit()
        assert pit.insert("/a", "f1", nonce=1, now=0.0, lifetime=100.0) is InterestAction.FORWARD

    def test_second_face_aggregates(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 100.0)
        action = pit.insert("/a", "f2", 2, 1.0, 100.0)
        assert action is InterestAction.AGGREGATE
        assert pit.aggregated == 1

    def test_duplicate_nonce_is_loop(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 100.0)
        action = pit.insert("/a", "f2", 1, 1.0, 100.0)
        assert action is InterestAction.LOOP
        assert pit.loops_dropped == 1

    def test_expired_entry_forwards_again(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 10.0)
        action = pit.insert("/a", "f1", 2, 50.0, 10.0)
        assert action is InterestAction.FORWARD

    def test_aggregation_extends_lifetime(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 10.0)
        pit.insert("/a", "f2", 2, 8.0, 10.0)
        # Entry should now expire at 18, not 10.
        assert pit.satisfy("/a", 15.0) != []


class TestSatisfy:
    def test_returns_all_faces_and_consumes(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 100.0)
        pit.insert("/a", "f2", 2, 0.0, 100.0)
        faces = pit.satisfy("/a", 5.0)
        assert set(faces) == {"f1", "f2"}
        assert pit.satisfy("/a", 5.0) == []

    def test_unsolicited_data_gets_no_faces(self):
        pit = Pit()
        assert pit.satisfy("/never-asked", 0.0) == []

    def test_expired_entry_not_satisfied(self):
        pit = Pit()
        pit.insert("/a", "f1", 1, 0.0, 10.0)
        assert pit.satisfy("/a", 20.0) == []

    def test_exact_name_matching(self):
        pit = Pit()
        pit.insert("/a/b", "f1", 1, 0.0, 100.0)
        assert pit.satisfy("/a", 1.0) == []
        assert pit.satisfy("/a/b/c", 1.0) == []
        assert pit.satisfy("/a/b", 1.0) == ["f1"]


class TestHousekeeping:
    def test_len_and_contains(self):
        pit = Pit()
        pit.insert("/a", "f", 1, 0.0, 100.0)
        assert len(pit) == 1
        assert Name.parse("/a") in pit
        assert 42 not in pit
