"""Moving unique keys between rows inside one transaction.

Staging checks every statement against the committed indexes plus the
transaction's own pending claims, so a key one row gave up is free to
another row of the same transaction.  Commit has to honour that for the
transaction as a whole: it takes every key the transaction changed out of
the indexes before it files any (ROADMAP 5(ii-b)) — filing row by row in
staging order used to raise ``UniqueViolation`` half way through a commit
whose first row lands on a key its second row has not left yet.

The property: a programme of key moves over two unique columns either is
refused at staging (the statement raises, the transaction is abandoned,
nothing changes) or commits atomically — indexes, rows and a recovery of
the log all equal the model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, col, column, recover
from repro.errors import UniqueViolation

ROWS = 4
KEYS = ("a", "b", "c", "d", "e", "f")


def make_db() -> tuple[Database, list[int]]:
    db = Database("swap")
    db.create_table("t", [column("k", "str"), column("alt", "str"),
                          column("v", "int", default=0)], key="k")
    db.create_index("t", "alt", kind="ordered", unique=True)
    rowids = [db.insert("t", {"k": KEYS[i], "alt": KEYS[i].upper(), "v": i})
              for i in range(ROWS)]
    return db, rowids


def state(db: Database) -> dict:
    return {r.rowid: (r["k"], r["alt"], r["v"])
            for r in db.query("t").run()}


def assert_indexes_match_rows(db: Database) -> None:
    rows = state(db)
    for rowid, (k, alt, _) in rows.items():
        assert db.find("t", "k", k).rowid == rowid
        assert db.find("t", "alt", alt).rowid == rowid
    table = db.table("t")
    for index in table.indexes().values():
        if index.unique:
            assert len(index) == len(rows), index.name


class TestSwap:
    def test_swap_through_a_spare_key_commits(self):
        """The regression: staging accepts it, commit used to raise in
        the middle (row 1 filed ``b`` while row 2 still sat on it)."""
        db, (one, two, *_) = make_db()
        with db.transaction() as txn:
            txn.update("t", one, {"k": "tmp"})
            txn.update("t", two, {"k": "a"})
            txn.update("t", one, {"k": "b"})
        assert state(db)[one][0] == "b" and state(db)[two][0] == "a"
        assert_indexes_match_rows(db)
        assert state(recover(db.wal.records())) == state(db)

    def test_rotation_over_the_ordered_unique_index(self):
        db, (one, two, three, _) = make_db()
        with db.transaction() as txn:
            txn.update("t", one, {"alt": "TMP"})
            txn.update("t", three, {"alt": "A"})
            txn.update("t", two, {"alt": "C"})
            txn.update("t", one, {"alt": "B"})
        assert [state(db)[r][1] for r in (one, two, three)] == ["B", "C", "A"]
        assert_indexes_match_rows(db)

    def test_key_freed_by_a_delete_moves_to_an_earlier_row(self):
        """Row 2 is touched first, row 1 deleted after it: staging order
        puts the taker before the giver."""
        db, (one, two, *_) = make_db()
        with db.transaction() as txn:
            txn.update("t", two, {"v": 99})
            txn.delete("t", one)
            txn.update("t", two, {"k": "a"})
        assert one not in state(db)
        assert state(db)[two] == ("a", "B", 99)
        assert_indexes_match_rows(db)

    def test_direct_swap_is_refused_at_staging(self):
        db, (one, two, *_) = make_db()
        before = state(db)
        txn = db.begin()
        with pytest.raises(UniqueViolation):
            txn.update("t", one, {"k": "b"})
        txn.abort()
        assert state(db) == before
        assert_indexes_match_rows(db)


#: (row pick, column, key pick | None for "delete the row").
moves = st.lists(
    st.tuples(st.integers(0, ROWS - 1), st.sampled_from(("k", "alt")),
              st.none() | st.integers(0, len(KEYS) - 1)),
    min_size=1, max_size=12)


#: A rotation: rows first touched in ``order`` (which fixes the order
#: commit promotes them in), then the keys of ``cycle`` passed round.
rotations = st.tuples(
    st.permutations(range(ROWS)),
    st.lists(st.integers(0, ROWS - 1), min_size=2, max_size=ROWS,
             unique=True),
    st.sampled_from(("k", "alt")))


class TestKeyMoveProgrammes:
    @settings(max_examples=60, deadline=None)
    @given(rotation=rotations)
    def test_rotations_commit_in_any_staging_order(self, rotation):
        order, cycle, name = rotation
        db, rowids = make_db()
        position = 0 if name == "k" else 1
        before = state(db)
        with db.transaction() as txn:
            for pick in order:
                txn.update("t", rowids[pick], {"v": 10 + pick})
            first = rowids[cycle[0]]
            txn.update("t", first, {name: "spare"})
            for giver, taker in zip(cycle, cycle[1:]):
                txn.update("t", rowids[taker],
                           {name: before[rowids[giver]][position]})
            txn.update("t", first,
                       {name: before[rowids[cycle[-1]]][position]})
        after = state(db)
        for giver, taker in zip(cycle, cycle[1:] + cycle[:1]):
            assert after[rowids[taker]][position] \
                == before[rowids[giver]][position]
        assert_indexes_match_rows(db)
        assert state(recover(db.wal.records())) == after

    @settings(max_examples=150, deadline=None)
    @given(programme=moves)
    def test_commit_is_atomic_or_refused_at_staging(self, programme):
        db, rowids = make_db()
        before = state(db)
        model = dict(before)
        txn = db.begin()
        try:
            for pick, name, key in programme:
                rowid = rowids[pick]
                if rowid not in model:
                    continue
                if key is None:
                    txn.delete("t", rowid)
                    del model[rowid]
                    continue
                value = KEYS[key] if name == "k" else KEYS[key].upper()
                txn.update("t", rowid, {name: value})
                k, alt, v = model[rowid]
                model[rowid] = (value, alt, v) if name == "k" \
                    else (k, value, v)
        except UniqueViolation:
            # Refused while staging: the transaction is abandoned whole.
            txn.abort()
            assert state(db) == before
            assert_indexes_match_rows(db)
            return
        # Every statement was accepted, so the final image is
        # duplicate-free and commit must go through — never half way.
        for position in (0, 1):
            values = [row[position] for row in model.values()]
            assert len(set(values)) == len(values)
        txn.commit()
        assert state(db) == model
        assert_indexes_match_rows(db)
        assert state(recover(db.wal.records())) == model
        # Freed keys really are free, taken ones really are taken.
        held = {row[0] for row in model.values()}
        spare = next(k for k in KEYS + ("z",) if k not in held)
        db.insert("t", {"k": spare, "alt": "fresh"})
        assert db.query("t").where(col("k") == spare).count() == 1
