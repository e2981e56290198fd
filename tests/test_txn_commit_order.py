"""The order a commit applies its rows in, against the rule it replaced.

A transaction keeps one record per statement, its redo tuple.  Commit
walks those in order and applies each row at its first statement,
skipping a statement whose row it no longer holds pending; abort rolls
back every row they name.  The oracle here is the rule that came before:
an insertion-ordered set of ``(table, rowid)`` filled as statements
succeed, a row staged again keeping its first place.  With a dict model
of both tables it predicts each commit's change list (table, kind,
rowid, row, before), its redo block and the ``txn.ops`` observation.

The programmes mix, over two tables (one under a hash key, one under an
ordered unique index): inserts, single and multi-row; updates and
deletes of committed and freshly staged rows; an insert deleted again in
the same transaction (a ``noop`` at commit); two rows swapping their
keys through a spare one (the rekeyed pass); statements refused on a
duplicate key; aborts.  After every commit or abort no pending image,
owner entry, key claim or lock may be left behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, column
from repro.db import wal as walmod
from repro.errors import UniqueViolation

TABLES = ("a", "b")
KEYS = tuple("pqrstuvw")
NAMES = ("k", "v")
OPS = ("insert", "insert_many", "update", "rekey", "swap", "delete",
       "insert_delete")


class StagingOracle:
    """The staged rows of one transaction, once each, in the order of
    their first statement."""

    def __init__(self) -> None:
        self.rows: dict[tuple[str, int], None] = {}

    def staged(self, table: str, rowid: int) -> None:
        self.rows.setdefault((table, rowid), None)


def make_db() -> tuple[Database, dict[str, dict[int, dict]], list]:
    db = Database("order")
    db.create_table("a", [column("k", "str"), column("v", "int", default=0)],
                    key="k")
    db.create_table("b", [column("k", "str"), column("v", "int", default=0)])
    db.create_index("b", "k", kind="ordered", unique=True)
    model: dict[str, dict[int, dict]] = {}
    for name in TABLES:
        model[name] = {}
        for v, key in enumerate(KEYS[:3]):
            model[name][db.insert(name, {"k": key, "v": v})] = \
                {"k": key, "v": v}
    blocks: list = []
    append = db.wal.append

    def watched(type_, txn_id, **kw):
        if type_ == walmod.COMMIT:
            blocks.append((txn_id, [tuple(op) for op in kw["dml"]]))
        return append(type_, txn_id, **kw)

    db.wal.append = watched
    return db, model, blocks


def assert_nothing_staged(db: Database) -> None:
    for name in TABLES:
        table = db.table(name)
        assert table._pending == {}
        assert table._pending_images == {}
        assert not any(table._pending_keys.values())
    assert db.locks._states == {}
    assert db.locks._held_by_txn == {}


def committed(db: Database, name: str) -> dict[int, dict]:
    return {rowid: dict(zip(NAMES, row))
            for rowid, row in db.table(name).committed_items()}


def free_keys(rows: dict[int, dict]) -> list[str]:
    taken = {row["k"] for row in rows.values()}
    return [key for key in KEYS if key not in taken]


class Programme:
    """One transaction's statements, mirrored in the model as they run."""

    def __init__(self, db: Database, model, data) -> None:
        self.txn = db.begin()
        self.data = data
        self.work = {name: {rowid: dict(row) for rowid, row in rows.items()}
                     for name, rows in model.items()}
        self.oracle = StagingOracle()
        self.redo: list[tuple] = []

    def draw(self, strategy):
        return self.data.draw(strategy)

    def insert(self, name: str, key: str, v: int) -> int | None:
        rows = self.work[name]
        if key not in free_keys(rows):
            with pytest.raises(UniqueViolation):
                self.txn.insert(name, {"k": key, "v": v})
            return None
        rowid = self.txn.insert(name, {"k": key, "v": v})
        rows[rowid] = {"k": key, "v": v}
        self.oracle.staged(name, rowid)
        self.redo.append((walmod.INSERT, name, rowid, NAMES, (key, v)))
        return rowid

    def update(self, name: str, rowid: int, updates: dict) -> None:
        rows = self.work[name]
        key = updates.get("k")
        if key is not None and any(row["k"] == key for other, row
                                   in rows.items() if other != rowid):
            with pytest.raises(UniqueViolation):
                self.txn.update(name, rowid, updates)
            return
        self.txn.update(name, rowid, updates)
        rows[rowid].update(updates)
        self.oracle.staged(name, rowid)
        self.redo.append((walmod.UPDATE, name, rowid, tuple(updates),
                          tuple(updates.values())))

    def delete(self, name: str, rowid: int) -> None:
        self.txn.delete(name, rowid)
        del self.work[name][rowid]
        self.oracle.staged(name, rowid)
        self.redo.append((walmod.DELETE, name, rowid, (), ()))

    def step(self) -> None:
        op = self.draw(st.sampled_from(OPS))
        name = self.draw(st.sampled_from(TABLES))
        rows = self.work[name]
        value = st.integers(0, 99)
        if op == "insert":
            self.insert(name, self.draw(st.sampled_from(KEYS)),
                        self.draw(value))
        elif op == "insert_many" and free_keys(rows):
            keys = self.draw(st.lists(st.sampled_from(free_keys(rows)),
                                      min_size=1, max_size=3, unique=True))
            values = [{"k": key, "v": self.draw(value)} for key in keys]
            rowids = self.txn.insert_many(name, values)
            for rowid, row in zip(rowids, values):
                rows[rowid] = row
                self.oracle.staged(name, rowid)
                self.redo.append((walmod.INSERT, name, rowid, NAMES,
                                  (row["k"], row["v"])))
        elif op == "insert_delete" and free_keys(rows):
            rowid = self.insert(name, self.draw(st.sampled_from(
                free_keys(rows))), self.draw(value))
            self.delete(name, rowid)
        elif not rows:
            return
        elif op == "update":
            rowid = self.draw(st.sampled_from(sorted(rows)))
            self.update(name, rowid, {"v": self.draw(value)})
        elif op == "rekey":
            rowid = self.draw(st.sampled_from(sorted(rows)))
            self.update(name, rowid, {"k": self.draw(st.sampled_from(KEYS))})
        elif op == "swap" and len(rows) > 1 and free_keys(rows):
            one, two = self.draw(st.lists(st.sampled_from(sorted(rows)),
                                          min_size=2, max_size=2,
                                          unique=True))
            first, second = rows[one]["k"], rows[two]["k"]
            self.update(name, one, {"k": free_keys(rows)[0]})
            self.update(name, two, {"k": first})
            self.update(name, one, {"k": second})
        elif op == "delete":
            self.delete(name, self.draw(st.sampled_from(sorted(rows))))

    def check_reads(self, model) -> None:
        """The transaction reads its own writes, by rowid and by key."""
        for name in TABLES:
            rows = self.work[name]
            for rowid in model[name].keys() | rows.keys():
                assert self.txn.read(name, rowid) == rows.get(rowid)
            by_key = {row["k"]: rowid for rowid, row in rows.items()}
            for key in KEYS:
                found = self.txn.find(name, "k", key)
                assert (found and found.rowid) == by_key.get(key)

    def expected_changes(self, model) -> list[tuple]:
        out = []
        for name, rowid in self.oracle.rows:
            before = model[name].get(rowid)
            after = self.work[name].get(rowid)
            if before is None and after is None:
                continue            # inserted and deleted again: noop
            kind = ("insert" if before is None
                    else "delete" if after is None else "update")
            out.append((name, kind, rowid, after, before))
        return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_commit_applies_rows_in_first_staging_order(data):
    db, model, blocks = make_db()
    ops = db.txn_metrics.ops
    for __ in range(data.draw(st.integers(1, 4), label="transactions")):
        programme = Programme(db, model, data)
        for __ in range(data.draw(st.integers(1, 10), label="statements")):
            programme.step()
        programme.check_reads(model)
        txn = programme.txn
        if data.draw(st.integers(0, 3), label="abort") == 0:
            logged = len(blocks)
            txn.abort()
            assert len(blocks) == logged
        else:
            count, total = ops.count, ops.sum
            changes = txn.commit()
            assert [(c.table, c.kind, c.rowid,
                     None if c.row is None else dict(c.row),
                     None if c.before is None else dict(c.before))
                    for c in changes] == programme.expected_changes(model)
            assert blocks[-1] == (txn.txn_id, programme.redo)
            assert ops.count == count + 1
            assert ops.sum == total + len(programme.oracle.rows)
            model = programme.work
        assert_nothing_staged(db)
        for name in TABLES:
            assert committed(db, name) == model[name]
