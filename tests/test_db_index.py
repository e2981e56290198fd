"""Unit tests for hash and ordered indexes."""

import gc

import pytest
from hypothesis import example, given, settings
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
    """A unique index never holds a set, a plain one does for a key of
    two rows: on any history a unique index accepts, both answer alike."""

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


class SetBucketIndex:
    """The plain hash index as it was before the bucket rule: a set per
    key, however many rows it holds.  The oracle of the property below."""

    def __init__(self) -> None:
        self._map: dict = {}

    def add(self, key, rowid) -> None:
        if key is not None:
            self._map.setdefault(key, set()).add(rowid)

    def remove(self, key, rowid) -> None:
        bucket = self._map.get(key)
        if bucket is not None and rowid in bucket:
            bucket.remove(rowid)
            if not bucket:
                del self._map[key]

    def probe_eq(self, key):
        return iter(self._map.get(key, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._map.values())


KEYS = (None, 0, 1, 2, "a")
ROWIDS = (0, 1, 2, 3)


def same_answers(idx: HashIndex, oracle: SetBucketIndex) -> None:
    """Every answer of ``idx`` equals the oracle's, and its map keeps the
    bucket rule: a bare row id for one row, a set for two or more."""
    assert len(idx) == len(oracle)
    assert set(idx.keys()) == set(oracle._map)
    for key in KEYS:
        rows = sorted(oracle.probe_eq(key))
        assert sorted(idx.probe_eq(key)) == rows
        found = idx.find(key)
        assert found is None if not rows else found in rows
    for keys in ((0, 1), (1, "a", 0), (None, 2, 2), ()):
        assert sorted(idx.probe_in(keys)) \
            == sorted(set().union(*(oracle.probe_eq(k) for k in keys)))
    for key, rows in oracle._map.items():
        held = idx._map[key]
        if len(rows) == 1:
            assert held == next(iter(rows)) and not gc.is_tracked(held)
        else:
            assert type(held) is set and held == rows


def run_programme(idx: HashIndex, ops) -> None:
    oracle = SetBucketIndex()
    for add, key, rowid in ops:
        for target in (idx, oracle):
            (target.add if add else target.remove)(key, rowid)
        same_answers(idx, oracle)


#: One key through 0 -> 1 -> 2 -> 1 -> 0 rows, with a duplicate add, an
#: absent remove at each size, and a ``None`` key on the way.
THROUGH_EVERY_SIZE = [
    (False, 1, 0), (True, 1, 0), (True, 1, 0), (False, 1, 3),
    (True, None, 0), (True, 1, 2), (True, 1, 2), (False, 1, 3),
    (False, 1, 0), (False, 1, 0), (False, None, 0), (False, 1, 2),
    (False, 1, 2), (True, 1, 2),
]


class TestHashIndexBuckets:
    """A plain hash index keeps a bare row id for a key of one row and
    answers every probe as the set-per-key index did."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from(KEYS),
                              st.sampled_from(ROWIDS)), max_size=60))
    @example(THROUGH_EVERY_SIZE)
    def test_same_answers_as_a_set_per_key(self, ops):
        run_programme(HashIndex("p", "c"), ops)

    def test_a_key_moves_between_a_bare_id_and_a_set(self):
        idx = HashIndex("p", "c")
        held = []
        for add, rowid in ((True, 5), (True, 6), (False, 5), (False, 6)):
            (idx.add if add else idx.remove)("k", rowid)
            bucket = idx._map.get("k")
            held.append(set(bucket) if type(bucket) is set else bucket)
        assert held == [5, {5, 6}, 6, None]

    def test_the_check_catches_an_index_that_never_shrinks(self):
        class NeverShrinks(HashIndex):
            def remove(self, key, rowid):
                bucket = self._map.get(key)
                if type(bucket) is set and rowid in bucket \
                        and len(bucket) == 2:
                    bucket.remove(rowid)
                    self._size -= 1
                else:
                    super().remove(key, rowid)

        with pytest.raises(AssertionError):
            run_programme(NeverShrinks("p", "c"), THROUGH_EVERY_SIZE)


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
