"""Tests for transaction semantics: isolation, atomicity, locking."""

import threading
from contextlib import nullcontext

import pytest

from repro.db import Database, column
from repro.db.transaction import Transaction
from repro.errors import (
    LockTimeoutError,
    ReadOnlyTransactionError,
    RowNotFoundError,
    TransactionStateError,
    UniqueViolation,
)


@pytest.fixture
def db():
    db = Database("t")
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db


class TestLifecycle:
    def test_commit_makes_changes_visible(self, db):
        txn = db.begin()
        rid = txn.insert("kv", {"k": "a", "v": 1})
        assert db.read("kv", rid) is None  # not yet committed
        txn.commit()
        assert db.get("kv", rid) == {"k": "a", "v": 1}

    def test_abort_discards_changes(self, db):
        txn = db.begin()
        rid = txn.insert("kv", {"k": "a", "v": 1})
        txn.abort()
        assert db.read("kv", rid) is None

    def test_context_manager_commits(self, db):
        with db.transaction() as txn:
            rid = txn.insert("kv", {"k": "a", "v": 1})
        assert db.get("kv", rid)["v"] == 1

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("kv", {"k": "a", "v": 1})
                raise RuntimeError("boom")
        assert db.query("kv").count() == 0

    def test_operations_after_commit_raise(self, db):
        txn = db.begin()
        txn.insert("kv", {"k": "a", "v": 1})
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.insert("kv", {"k": "b", "v": 2})
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_stats_track_commits_and_aborts(self, db):
        before = dict(db.stats)
        with db.transaction() as txn:
            txn.insert("kv", {"k": "a", "v": 1})
        txn2 = db.begin()
        txn2.abort()
        assert db.stats["commits"] == before["commits"] + 1
        assert db.stats["aborts"] == before["aborts"] + 1


class TestAtomicity:
    def test_multi_row_commit_is_atomic(self, db):
        with db.transaction() as txn:
            for i in range(5):
                txn.insert("kv", {"k": f"k{i}", "v": i})
        assert db.query("kv").count() == 5

    def test_multi_row_abort_is_atomic(self, db):
        txn = db.begin()
        for i in range(5):
            txn.insert("kv", {"k": f"k{i}", "v": i})
        txn.abort()
        assert db.query("kv").count() == 0

    def test_insert_then_delete_in_one_txn_is_noop(self, db):
        with db.transaction() as txn:
            rid = txn.insert("kv", {"k": "a", "v": 1})
            txn.delete("kv", rid)
        assert db.query("kv").count() == 0

    def test_update_then_delete_commits_as_delete(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        with db.transaction() as txn:
            txn.update("kv", rid, {"v": 2})
            txn.delete("kv", rid)
        assert db.read("kv", rid) is None


class TestIsolation:
    def test_reader_sees_committed_only(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        writer = db.begin()
        writer.update("kv", rid, {"v": 99})
        # Outside reader still sees v=1.
        assert db.get("kv", rid)["v"] == 1
        # The writer sees its own change.
        assert writer.get("kv", rid)["v"] == 99
        writer.commit()
        assert db.get("kv", rid)["v"] == 99

    def test_own_delete_visible_to_self(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.delete("kv", rid)
        assert txn.read("kv", rid) is None
        assert db.get("kv", rid)["v"] == 1  # others still see it
        txn.commit()

    def test_query_sees_own_pending_insert(self, db):
        txn = db.begin()
        txn.insert("kv", {"k": "a", "v": 1})
        assert txn.query("kv").count() == 1
        assert db.query("kv").count() == 0
        txn.commit()

    def test_update_of_deleted_row_in_txn_raises(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.delete("kv", rid)
        with pytest.raises(RowNotFoundError):
            txn.update("kv", rid, {"v": 2})
        txn.abort()


class TestLocking:
    def test_write_write_conflict_times_out(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        t1 = db.begin(lock_timeout=0)
        t2 = db.begin(lock_timeout=0)
        t1.update("kv", rid, {"v": 2})
        with pytest.raises(LockTimeoutError):
            t2.update("kv", rid, {"v": 3})
        t1.commit()
        # Now t2 can proceed.
        t2.update("kv", rid, {"v": 3})
        t2.commit()
        assert db.get("kv", rid)["v"] == 3

    def test_locks_released_on_abort(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        t1 = db.begin(lock_timeout=0)
        t1.update("kv", rid, {"v": 2})
        t1.abort()
        t2 = db.begin(lock_timeout=0)
        t2.update("kv", rid, {"v": 3})  # must not block
        t2.commit()

    def test_blocking_wait_succeeds_across_threads(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        t1 = db.begin()
        t1.update("kv", rid, {"v": 2})
        results = {}

        def contender():
            t2 = db.begin(lock_timeout=3.0)
            t2.update("kv", rid, {"v": 3})
            t2.commit()
            results["done"] = True

        thread = threading.Thread(target=contender)
        thread.start()
        t1.commit()
        thread.join(timeout=5)
        assert results.get("done")
        assert db.get("kv", rid)["v"] == 3


class TestUniqueness:
    def test_duplicate_key_rejected(self, db):
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(UniqueViolation):
            db.insert("kv", {"k": "a", "v": 2})

    def test_duplicate_within_txn_rejected(self, db):
        txn = db.begin()
        txn.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(UniqueViolation):
            txn.insert("kv", {"k": "a", "v": 2})
        txn.abort()

    def test_key_freed_by_delete_in_same_txn(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        with db.transaction() as txn:
            txn.delete("kv", rid)
            txn.insert("kv", {"k": "a", "v": 2})
        rows = db.query("kv").run()
        assert len(rows) == 1
        assert rows[0]["v"] == 2

    def test_key_not_freed_by_another_writers_pending_delete(self, db):
        """Regression: an uncommitted delete by someone else frees
        nothing (it may abort) — the insert used to be accepted and then
        blow up the index in the middle of its own commit."""
        rid = db.insert("kv", {"k": "a", "v": 1})
        deleter = db.begin()
        deleter.delete("kv", rid)
        with pytest.raises(UniqueViolation):
            db.insert("kv", {"k": "a", "v": 2})
        deleter.abort()
        assert [r["v"] for r in db.query("kv").run()] == [1]

    def test_concurrent_key_claim_blocks(self, db):
        t1 = db.begin(lock_timeout=0)
        t2 = db.begin(lock_timeout=0)
        t1.insert("kv", {"k": "same", "v": 1})
        with pytest.raises(LockTimeoutError):
            t2.insert("kv", {"k": "same", "v": 2})
        t1.abort()
        t2.insert("kv", {"k": "same", "v": 2})
        t2.commit()
        assert db.query("kv").run()[0]["v"] == 2

    def test_update_to_existing_key_rejected(self, db):
        db.insert("kv", {"k": "a", "v": 1})
        rid = db.insert("kv", {"k": "b", "v": 2})
        with pytest.raises(UniqueViolation):
            db.update("kv", rid, {"k": "a"})


class TestSelectForUpdate:
    def test_get_for_update_blocks_other_writers(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        t1 = db.begin(lock_timeout=0)
        row = t1.get_for_update("kv", rid)
        assert row["v"] == 1
        t2 = db.begin(lock_timeout=0)
        with pytest.raises(LockTimeoutError):
            t2.update("kv", rid, {"v": 2})
        t1.update("kv", rid, {"v": row["v"] + 1})
        t1.commit()
        t2.abort()
        assert db.get("kv", rid)["v"] == 2

    def test_get_for_update_sees_own_pending(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.update("kv", rid, {"v": 5})
        assert txn.get_for_update("kv", rid)["v"] == 5
        txn.abort()

    def test_get_for_update_missing_row(self, db):
        txn = db.begin()
        with pytest.raises(RowNotFoundError):
            txn.get_for_update("kv", 999)
        txn.abort()


class CountingLocks:
    """Stands in for ``db.locks`` and records every method called on
    the lock manager behind it."""

    def __init__(self, locks) -> None:
        self._locks = locks
        self.calls: list[str] = []

    def __getattr__(self, name):
        attr = getattr(self._locks, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)
        return counted


class TestSnapshot:
    """A snapshot never takes a lock, so it never releases one either;
    its only shared state is its pin, dropped however the block ends."""

    @pytest.fixture
    def counted(self, db, monkeypatch):
        counting = CountingLocks(db.locks)
        monkeypatch.setattr(db, "locks", counting)
        return counting

    def test_snapshot_makes_no_lock_manager_call(self, db, counted):
        rid = db.insert("kv", {"k": "a", "v": 1})
        counted.calls.clear()
        with db.snapshot() as snap:
            assert snap.get("kv", rid)["v"] == 1
            assert [r["k"] for r in snap.query("kv").run()] == ["a"]
            assert snap.find("kv", "k", "a")["v"] == 1
        assert counted.calls == []
        with pytest.raises(RuntimeError):
            with db.snapshot() as snap:
                snap.get("kv", rid)
                raise RuntimeError("boom")
        assert counted.calls == []

    def test_snapshot_refuses_a_shared_lock(self, db, counted):
        rid = db.insert("kv", {"k": "a", "v": 1})
        counted.calls.clear()
        with db.snapshot() as snap:
            with pytest.raises(ReadOnlyTransactionError):
                snap.lock_shared("kv", rid)
        assert counted.calls == []

    def test_read_only_transaction_without_a_snapshot_releases(self, db):
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = Transaction(db, 10_000, read_only=True)
        txn.lock_shared("kv", rid)
        assert db.locks.locks_held(txn.txn_id) == {("row", "kv", rid)}
        txn.commit()
        assert db.locks.locks_held(txn.txn_id) == set()

    @pytest.mark.parametrize("raises", [False, True])
    def test_pin_is_released_however_the_block_ends(self, db, raises):
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(RuntimeError) if raises else nullcontext():
            with db.snapshot() as snap:
                pinned = snap.snapshot_lsn
                db.insert("kv", {"k": "b", "v": 2})
                assert db.gc_watermark() == pinned < db.visible_lsn()
                if raises:
                    raise RuntimeError("boom")
        assert not snap.is_active
        assert db.gc_watermark() == db.visible_lsn()
