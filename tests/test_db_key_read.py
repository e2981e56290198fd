"""Key reads ≡ planned reads.

``Query.run/first/count`` answer a lone equality on a uniquely indexed
column straight from the index and the table's pending-key claims
(``Table.read_key``), skipping the planner, the candidate overlay and
the predicate re-check.  The oracle below is the executor as it was
before that shortcut existed — probe the committed index, overlay the
transaction's own pending images, build every candidate's mapping, then
filter — kept here, verbatim in substance, to prove the two agree under
own and foreign pending inserts, updates, key moves and tombstones.

Snapshot readers get the same shortcut over the table's history overlay
grouped by column value, and so do their equality probes on non-unique
indexes.  Their oracle is the snapshot executor before either shortcut:
probe, skip the overlay's rowids, then the whole overlay, then filter —
plus a model of the committed rows captured when the snapshot was
pinned, which the answer must equal whatever commits and version GC
came after.
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
GRPS = (0, 1, 2)


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


VERBS = ("insert", "move_key", "set_alt", "set_grp", "touch", "delete")

steps = st.lists(
    st.tuples(
        st.sampled_from(("own", "foreign", "autocommit")),
        st.sampled_from(VERBS),
        st.integers(0, 10 ** 6),
        st.sampled_from(KEYS),
        st.none() | st.sampled_from(ALTS)),
    max_size=14)


def make_db() -> Database:
    db = Database("kr", lock_timeout=0.001)
    db.create_table("kv", [column("k", "str"),
                           column("alt", "int", nullable=True),
                           column("v", "int", nullable=True),
                           column("grp", "int", nullable=True)], key="k")
    db.create_index("kv", "alt", unique=True)
    db.create_index("kv", "grp")
    db.create_index("kv", "v", kind="ordered")
    return db


def grp_of(pick: int):
    return None if pick % 4 == 3 else pick % 3


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
            actor.insert("kv", {"k": key, "alt": alt, "v": pick % 7,
                                "grp": grp_of(pick)})
        elif rowids:
            rowid = rowids[pick % len(rowids)]
            if verb == "move_key":
                actor.update("kv", rowid, {"k": key})
            elif verb == "set_alt":
                actor.update("kv", rowid, {"alt": alt})
            elif verb == "set_grp":
                actor.update("kv", rowid, {"grp": grp_of(pick // 7)})
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


#: Snapshot queries: key reads on both unique columns, equality and
#: ``in`` probes on the non-unique ``grp`` index, a range on ``v``.
SNAPSHOT_QUERIES = (
    *(col("k") == key for key in KEYS + ("zz",)),
    *(col("alt") == alt for alt in ALTS + (9,)),
    *(col("grp") == grp for grp in GRPS + (9,)),
    col("grp").isin((0, 1)), col("grp").isin((2, 9)),
    col("grp").isin(GRPS), col("v") >= 3,
)


def snapshot_planned_rows(db: Database, snap, predicate) -> list:
    """The snapshot executor before key reads and grouped overlays:
    probe the committed index, skip rows with history, append the whole
    history overlay, then filter."""
    table = db.table("kv")
    lsn = snap.snapshot_lsn
    hint = next(predicate.index_hints())
    index = table.index_on(hint.column, need_range=hint.op == "range")
    if hint.op == "eq":
        probed = index.probe_eq(hint.value)
    elif hint.op == "in":
        probed = index.probe_in(hint.values)
    else:
        probed = index.probe_range(hint.low, hint.high,
                                   low_inclusive=hint.low_inclusive)
    overlay = table.snapshot_history_rows(lsn)
    candidates = []
    for rowid in probed:
        if rowid not in overlay:
            row = table.snapshot_read(rowid, lsn)
            if row is not None:
                candidates.append((rowid, row))
    candidates.extend(overlay.items())
    out = []
    for rowid, row in candidates:
        mapping = table.schema.row_dict(row)
        if predicate.matches(mapping):
            out.append((rowid, mapping))
    return out


snapshot_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("own", "foreign", "autocommit",
                                   "autocommit")),
                  st.sampled_from(VERBS),
                  st.integers(0, 10 ** 6),
                  st.sampled_from(KEYS),
                  st.none() | st.sampled_from(ALTS)),
        st.sampled_from((("pin",), ("gc",), ("commit",)))),
    max_size=24)


@settings(max_examples=200, deadline=None)
@given(snapshot_steps)
def test_snapshot_reads_equal_the_planned_read(programme):
    db = make_db()
    writers = {"own": db.begin(), "foreign": db.begin(), "autocommit": None}
    snapshots = []
    for step in programme:
        if step[0] == "pin":
            snap = db.begin(read_only=True)
            committed = dict(db.table("kv").committed_items())
            snapshots.append((snap, committed))
            # Build the overlay memo before the later commits.
            snap.find("kv", "k", KEYS[0])
        elif step[0] == "gc":
            db.gc_versions()
        elif step[0] == "commit":
            for who in ("own", "foreign"):
                writers[who].commit()
                writers[who] = db.begin()
        else:
            who, verb, pick, key, alt = step
            apply_step(db, writers[who], verb, pick, key, alt)
    schema = db.table("kv").schema
    for snap, committed in snapshots:
        for predicate in SNAPSHOT_QUERIES:
            query = snap.query("kv").where(predicate)
            expected = snapshot_planned_rows(db, snap, predicate)
            got = [(r.rowid, dict(r)) for r in query.run()]
            assert got == expected, predicate
            model = sorted(
                (rowid, schema.row_dict(row))
                for rowid, row in committed.items()
                if predicate.matches(schema.row_dict(row)))
            assert sorted(got) == model, predicate
            assert query.count() == len(expected)
            first = query.first()
            assert (None if first is None else (first.rowid, dict(first))) \
                == (expected[0] if expected else None)
            if getattr(predicate, "op", None) == "eq":
                found = snap.find("kv", predicate.column, predicate.value)
                assert (None if found is None else (found.rowid, found)) \
                    == (None if first is None else (first.rowid, first))
        snap.commit()
    for who in ("own", "foreign"):
        writers[who].abort()


class TestKeyReadShapes:
    def test_key_read_needs_no_plan(self, monkeypatch):
        from repro.db.query import Query
        db = make_db()
        db.insert("kv", {"k": "a", "alt": 1})
        rowid = db.insert("kv", {"k": "b", "alt": 2})
        snap = db.begin(read_only=True)
        db.update("kv", rowid, {"k": "moved"})   # "b" now has history
        monkeypatch.setattr(Query, "plan", lambda self: pytest.fail(
            "a unique-key equality must not reach the planner"))
        assert db.query("kv").where(col("k") == "a").first()["alt"] == 1
        assert db.query("kv").where(col("alt") == 1).count() == 1
        assert db.query("kv").where(col("k") == "zz").first() is None
        reads = db.obs.registry.counter("txn.snapshot_reads")
        before = reads.value
        assert snap.query("kv").where(col("k") == "a").first()["alt"] == 1
        assert snap.query("kv").where(col("k") == "b").run()[0]["alt"] == 2
        assert snap.query("kv").where(col("alt") == 2).count() == 1
        assert snap.find("kv", "k", "moved") is None
        assert reads.value - before == 4   # one per snapshot read
        snap.commit()

    def test_other_shapes_are_still_planned(self):
        db = make_db()
        db.insert("kv", {"k": "a", "alt": 1, "v": 5})
        db.insert("kv", {"k": "b", "alt": 2, "v": 5})
        assert db.query("kv").where(col("v") == 5).count() == 2
        assert db.query("kv").where(
            (col("k") == "a") & (col("v") == 5)).count() == 1
        assert db.query("kv").where(col("k") == None).count() == 0  # noqa: E711
        assert db.query("kv").where(col("k") != "a").count() == 1

    def test_snapshot_key_reads_see_the_pinned_key(self):
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
