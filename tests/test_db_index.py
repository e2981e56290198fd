"""Unit tests for hash and ordered indexes."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.index import HashIndex, OrderedIndex
from repro.errors import UniqueViolation


class TestHashIndex:
    def test_add_probe(self):
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.add("a", 2)
        idx.add("b", 3)
        assert set(idx.probe_eq("a")) == {1, 2}
        assert set(idx.probe_eq("b")) == {3}
        assert set(idx.probe_eq("zzz")) == set()

    def test_remove(self):
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.add("a", 2)
        idx.remove("a", 1)
        assert set(idx.probe_eq("a")) == {2}
        idx.remove("a", 2)
        assert set(idx.probe_eq("a")) == set()

    def test_remove_absent_is_noop(self):
        idx = HashIndex("i", "c")
        idx.remove("a", 1)  # must not raise

    def test_none_keys_ignored(self):
        idx = HashIndex("i", "c")
        idx.add(None, 1)
        assert len(idx) == 0
        assert list(idx.probe_eq(None)) == []

    def test_unique_violation(self):
        idx = HashIndex("i", "c", unique=True)
        idx.add("a", 1)
        with pytest.raises(UniqueViolation):
            idx.add("a", 2)

    def test_unique_allows_reuse_after_remove(self):
        idx = HashIndex("i", "c", unique=True)
        idx.add("a", 1)
        idx.remove("a", 1)
        idx.add("a", 2)  # ok
        assert set(idx.probe_eq("a")) == {2}

    def test_probe_in_dedupes(self):
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.add("b", 1)
        assert list(idx.probe_in(["a", "b"])) == [1]

    def test_len_counts_entries(self):
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.add("b", 2)
        assert len(idx) == 2

    def test_len_stable_on_duplicate_add(self):
        # Regression: re-adding an existing (key, rowid) pair used to
        # bump _size anyway, so len() drifted above the real entry count.
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.add("a", 1)
        assert len(idx) == 1
        assert set(idx.probe_eq("a")) == {1}
        idx.remove("a", 1)
        assert len(idx) == 0

    def test_len_stable_on_noop_remove(self):
        # Regression: removing a rowid absent from an existing bucket
        # used to decrement _size anyway, driving len() negative.
        idx = HashIndex("i", "c")
        idx.add("a", 1)
        idx.remove("a", 999)   # bucket exists, rowid does not
        assert len(idx) == 1
        idx.remove("b", 1)     # bucket does not exist
        assert len(idx) == 1
        idx.remove("a", 1)
        idx.remove("a", 1)     # bucket already gone
        assert len(idx) == 0


class TestUniqueHashIndexParity:
    """A unique index stores the bare rowid, a plain one a set per key:
    on any history a unique index accepts, both answer alike."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.none() | st.integers(0, 5),
                              st.integers(1, 6)), max_size=40))
    def test_same_answers_as_the_set_backed_index(self, ops):
        unique = HashIndex("u", "c", unique=True)
        plain = HashIndex("p", "c")
        for add, key, rowid in ops:
            if not add:
                unique.remove(key, rowid)
                plain.remove(key, rowid)
            elif key is not None and set(plain.probe_eq(key)) - {rowid}:
                with pytest.raises(UniqueViolation):
                    unique.add(key, rowid)
            else:
                unique.add(key, rowid)
                plain.add(key, rowid)
            assert len(unique) == len(plain)
            assert set(unique.keys()) == set(plain.keys())
            for probe in (None, *range(6)):
                assert list(unique.probe_eq(probe)) \
                    == list(plain.probe_eq(probe))
                assert unique.find(probe) == plain.find(probe) \
                    == next(plain.probe_eq(probe), None)

    def test_unique_entries_hold_no_container(self):
        idx = HashIndex("u", "c", unique=True)
        for n in range(100):
            idx.add(f"k{n}", n)
        assert not any(gc.is_tracked(v) for v in idx._map.values())


class TestOrderedIndex:
    def _populated(self) -> OrderedIndex:
        idx = OrderedIndex("i", "c")
        for key, rowid in [(5, 1), (3, 2), (8, 3), (3, 4), (10, 5)]:
            idx.add(key, rowid)
        return idx

    def test_probe_eq(self):
        idx = self._populated()
        assert set(idx.probe_eq(3)) == {2, 4}
        assert set(idx.probe_eq(99)) == set()

    def test_probe_range_inclusive(self):
        idx = self._populated()
        assert set(idx.probe_range(3, 8)) == {1, 2, 3, 4}

    def test_probe_range_exclusive(self):
        idx = self._populated()
        assert set(idx.probe_range(3, 8, low_inclusive=False,
                                   high_inclusive=False)) == {1}

    def test_probe_range_open_bounds(self):
        idx = self._populated()
        assert set(idx.probe_range(low=8)) == {3, 5}
        assert set(idx.probe_range(high=5)) == {1, 2, 4}
        assert set(idx.probe_range()) == {1, 2, 3, 4, 5}

    def test_iter_ordered(self):
        idx = self._populated()
        keys = [k for k, __ in idx.iter_ordered()]
        assert keys == sorted(keys)
        keys_desc = [k for k, __ in idx.iter_ordered(reverse=True)]
        assert keys_desc == sorted(keys, reverse=True)

    def test_min_max(self):
        idx = self._populated()
        assert idx.min_key() == 3
        assert idx.max_key() == 10
        empty = OrderedIndex("e", "c")
        assert empty.min_key() is None
        assert empty.max_key() is None

    def test_remove(self):
        idx = self._populated()
        idx.remove(3, 2)
        assert set(idx.probe_eq(3)) == {4}
        assert len(idx) == 4

    def test_unique_violation(self):
        idx = OrderedIndex("i", "c", unique=True)
        idx.add(1, 10)
        with pytest.raises(UniqueViolation):
            idx.add(1, 11)

    def test_none_keys_ignored(self):
        idx = OrderedIndex("i", "c")
        idx.add(None, 1)
        assert len(idx) == 0

    def test_supports_range(self):
        assert OrderedIndex("i", "c").supports_range()
        assert not HashIndex("i", "c").supports_range()
