"""Key reads ≡ planned reads.

``Query.run/first/count`` answer a lone equality on a uniquely indexed
column straight from the index and the table's pending-key claims
(``Table.read_key``), skipping the planner, the candidate overlay and
the predicate re-check.  The oracle below is the executor as it was
before that shortcut existed — probe the committed index, overlay the
transaction's own pending images, build every candidate's mapping, then
filter — kept here, verbatim in substance, to prove the two agree under
own and foreign pending inserts, updates, key moves and tombstones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, col, column
from repro.db.table import TOMBSTONE
from repro.errors import LockTimeoutError, RowNotFoundError, UniqueViolation

KEYS = ("a", "b", "c", "d")
ALTS = (1, 2, 3)


def planned_rows(db: Database, txn, column_name: str, value) -> list:
    """The pre-fast-path executor for ``where(col(c) == v).run()``."""
    table = db.table("kv")
    predicate = col(column_name) == value
    index = table.index_on(column_name)
    txn = txn if txn is not None and txn.is_active else None
    pending = table.pending_of(txn.txn_id) if txn is not None else {}
    candidates = []
    emitted = set()
    for rowid in index.probe_eq(value):
        if rowid in pending:
            continue
        row = table.read(rowid)
        if row is not None:
            emitted.add(rowid)
            candidates.append((rowid, row))
    for rowid, image in pending.items():
        if image is not TOMBSTONE and rowid not in emitted:
            candidates.append((rowid, image))
    out = []
    for rowid, row in candidates:
        mapping = table.schema.row_dict(row)
        if predicate.matches(mapping):
            out.append((rowid, mapping))
    return out


steps = st.lists(
    st.tuples(
        st.sampled_from(("own", "foreign", "autocommit")),
        st.sampled_from(("insert", "move_key", "set_alt", "touch",
                         "delete")),
        st.integers(0, 10 ** 6),
        st.sampled_from(KEYS),
        st.none() | st.sampled_from(ALTS)),
    max_size=14)


def make_db() -> Database:
    db = Database("kr", lock_timeout=0.001)
    db.create_table("kv", [column("k", "str"),
                           column("alt", "int", nullable=True),
                           column("v", "int", nullable=True)], key="k")
    db.create_index("kv", "alt", unique=True)
    return db


def apply_step(db: Database, txn, verb: str, pick: int, key: str,
               alt) -> None:
    """One DML through ``txn`` (``None`` = its own committed
    transaction); conflicts with the other writer are simply skipped."""
    rowids = sorted(rowid for rowid, _ in db.table("kv").committed_items())
    if txn is not None:
        rowids = sorted(set(rowids) | {
            r for r, image in db.table("kv").pending_of(txn.txn_id).items()
            if image is not TOMBSTONE})
    actor = txn if txn is not None else db
    try:
        if verb == "insert":
            actor.insert("kv", {"k": key, "alt": alt, "v": pick % 7})
        elif rowids:
            rowid = rowids[pick % len(rowids)]
            if verb == "move_key":
                actor.update("kv", rowid, {"k": key})
            elif verb == "set_alt":
                actor.update("kv", rowid, {"alt": alt})
            elif verb == "touch":
                actor.update("kv", rowid, {"v": pick % 7})
            else:
                actor.delete("kv", rowid)
    except (UniqueViolation, LockTimeoutError, RowNotFoundError):
        pass


@settings(max_examples=300, deadline=None)
@given(steps)
def test_key_read_equals_the_planned_read(programme):
    db = make_db()
    own, foreign = db.begin(), db.begin()
    writers = {"own": own, "foreign": foreign, "autocommit": None}
    for who, verb, pick, key, alt in programme:
        apply_step(db, writers[who], verb, pick, key, alt)
    readers = {"own": own, "foreign": foreign, "none": None}
    for name, txn in readers.items():
        for column_name, values in (("k", KEYS + ("zz",)),
                                    ("alt", ALTS + (9,))):
            for value in values:
                query = (txn.query("kv") if txn is not None
                         else db.query("kv")).where(
                             col(column_name) == value)
                expected = planned_rows(db, txn, column_name, value)
                got = [(r.rowid, dict(r)) for r in query.run()]
                assert got == expected, (name, column_name, value)
                assert query.count() == len(expected)
                first = query.first()
                assert (None if first is None
                        else (first.rowid, dict(first))) \
                    == (expected[0] if expected else None)
    own.abort()
    foreign.abort()


class TestKeyReadShapes:
    def test_key_read_needs_no_plan(self, monkeypatch):
        from repro.db.query import Query
        db = make_db()
        db.insert("kv", {"k": "a", "alt": 1})
        monkeypatch.setattr(Query, "plan", lambda self: pytest.fail(
            "a unique-key equality must not reach the planner"))
        assert db.query("kv").where(col("k") == "a").first()["alt"] == 1
        assert db.query("kv").where(col("alt") == 1).count() == 1
        assert db.query("kv").where(col("k") == "zz").first() is None

    def test_other_shapes_are_still_planned(self):
        db = make_db()
        db.insert("kv", {"k": "a", "alt": 1, "v": 5})
        db.insert("kv", {"k": "b", "alt": 2, "v": 5})
        assert db.query("kv").where(col("v") == 5).count() == 2
        assert db.query("kv").where(
            (col("k") == "a") & (col("v") == 5)).count() == 1
        assert db.query("kv").where(col("k") == None).count() == 0  # noqa: E711
        assert db.query("kv").where(col("k") != "a").count() == 1

    def test_snapshot_readers_keep_their_path(self):
        db = make_db()
        rowid = db.insert("kv", {"k": "a", "alt": 1, "v": 1})
        with db.snapshot() as snap:
            db.update("kv", rowid, {"k": "moved"})
            assert snap.query("kv").where(col("k") == "a").first() \
                is not None
            assert snap.query("kv").where(col("k") == "moved").first() \
                is None

    def test_predicate_runs_before_the_mapping_is_built(self, monkeypatch):
        """A planned query maps only the rows its predicate accepted."""
        db = make_db()
        for n, key in enumerate(KEYS):
            db.insert("kv", {"k": key, "alt": None, "v": n})
        built = []
        from repro.db import query as querymod
        original = querymod.RowView.__init__

        def counting(self, rowid, values):
            built.append(rowid)
            original(self, rowid, values)

        monkeypatch.setattr(querymod.RowView, "__init__", counting)
        rows = db.query("kv").where(col("v") >= 2).run()
        assert len(rows) == len(built) == 2
