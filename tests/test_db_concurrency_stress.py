"""Thread-based stress tests for the transaction machinery.

These verify that strict 2PL + read-committed visibility hold up under
real thread interleavings: lost updates are impossible, deadlocks are
detected and recoverable, and the WAL stays replayable.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import Database, col, column, recover_file
from repro.errors import DeadlockError, LockTimeoutError, TransactionError


def make_db(wal_path: str | None = None) -> Database:
    db = Database("stress", lock_timeout=10.0, wal_path=wal_path)
    db.create_table("counters", [column("name", "str"),
                                 column("value", "int")], key="name")
    return db


@pytest.fixture
def db():
    return make_db()


def _increment(db: Database, rowid: int, retries: int = 50) -> None:
    """Read-modify-write increment with retry on conflict."""
    for __ in range(retries):
        txn = db.begin()
        try:
            row = txn.get_for_update("counters", rowid)
            txn.update("counters", rowid, {"value": row["value"] + 1})
            txn.commit()
            return
        except (DeadlockError, LockTimeoutError):
            if txn.is_active:
                txn.abort()
        except TransactionError:
            raise
    raise AssertionError("increment starved")


class TestNoLostUpdates:
    def test_concurrent_increments_all_counted(self, db):
        rowid = db.insert("counters", {"name": "hits", "value": 0})
        n_threads, n_increments = 8, 50
        errors = []

        def worker():
            try:
                for __ in range(n_increments):
                    _increment(db, rowid)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert db.get("counters", rowid)["value"] == \
            n_threads * n_increments

    def test_wal_replayable_after_contention(self, tmp_path):
        db = make_db(str(tmp_path / "wal.jsonl"))
        rowid = db.insert("counters", {"name": "hits", "value": 0})
        threads = [
            threading.Thread(
                target=lambda: [_increment(db, rowid) for __ in range(20)])
            for __ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recovered = recover_file(db.wal.path)
        assert recovered.get("counters", rowid)["value"] == 80


class TestCrossRowDeadlocks:
    def test_opposing_lock_orders_resolve(self, db):
        a = db.insert("counters", {"name": "a", "value": 0})
        b = db.insert("counters", {"name": "b", "value": 0})
        barrier = threading.Barrier(2)
        outcomes = []

        def transfer(first: int, second: int) -> None:
            import random
            import time
            for attempt in range(30):
                if attempt:
                    # Jittered backoff: without it the two threads can
                    # livelock re-deadlocking in lockstep forever.
                    time.sleep(random.random() * 0.01 * attempt)
                txn = db.begin(lock_timeout=2.0)
                try:
                    row1 = txn.get_for_update("counters", first)
                    txn.update("counters", first,
                               {"value": row1["value"] + 1})
                    if len(outcomes) == 0:
                        try:
                            barrier.wait(timeout=1.0)
                        except threading.BrokenBarrierError:
                            pass
                    row2 = txn.get_for_update("counters", second)
                    txn.update("counters", second,
                               {"value": row2["value"] - 1})
                    txn.commit()
                    outcomes.append("ok")
                    return
                except (DeadlockError, LockTimeoutError):
                    if txn.is_active:
                        txn.abort()
            outcomes.append("starved")

        t1 = threading.Thread(target=transfer, args=(a, b))
        t2 = threading.Thread(target=transfer, args=(b, a))
        t1.start()
        t2.start()
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert outcomes.count("ok") == 2
        # Conservation: +1/-1 per successful transfer, two transfers.
        total = (db.get("counters", a)["value"]
                 + db.get("counters", b)["value"])
        assert total == 0


class TestReadersNeverBlock:
    def test_reads_proceed_during_long_write(self, db):
        rowid = db.insert("counters", {"name": "x", "value": 1})
        writer = db.begin()
        writer.update("counters", rowid, {"value": 99})
        results = []

        def reader():
            results.append(db.get("counters", rowid)["value"])

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=2)
        assert results == [1]  # committed value, no blocking
        writer.commit()
        assert db.get("counters", rowid)["value"] == 99

    def test_scan_during_writes(self, db):
        for i in range(20):
            db.insert("counters", {"name": f"c{i}", "value": i})
        stop = threading.Event()
        errors = []

        def scanner():
            try:
                while not stop.is_set():
                    rows = db.query("counters").where(
                        col("value") >= 0).run()
                    assert len(rows) >= 20
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=scanner)
        thread.start()
        for i in range(50):
            db.insert("counters", {"name": f"new{i}", "value": i})
        stop.set()
        thread.join(timeout=5)
        assert errors == []


class TestSnapshotScannersLockFree:
    """MVCC interference contract, asserted through the obs metrics.

    Concurrent snapshot scanners must add *zero* ``lock.acquired``
    traffic (their reads resolve from version chains), every sweep must
    return a transactionally consistent view, and the writers' latency
    distribution must stay within an order of magnitude of running
    scanner-free — snapshot readers never queue a keystroke.
    """

    def test_scanners_acquire_zero_locks_and_stay_consistent(self, db):
        n_rows = 30
        rowids = [db.insert("counters", {"name": f"c{i}", "value": 0})
                  for i in range(n_rows)]
        registry = db.obs.registry
        stop = threading.Event()
        errors = []
        sweeps = [0, 0]
        latencies: list[float] = []

        def writer():
            # Each commit moves two rows by +1/-1 in one transaction, so
            # the table-wide sum is invariantly zero at every commit
            # point — the consistency probe scanners check against.
            import time
            try:
                for i in range(60):
                    started = time.perf_counter()
                    txn = db.begin()
                    a, b = rowids[i % n_rows], rowids[(i + 7) % n_rows]
                    row_a = txn.get_for_update("counters", a)
                    row_b = txn.get_for_update("counters", b)
                    txn.update("counters", a, {"value": row_a["value"] + 1})
                    txn.update("counters", b, {"value": row_b["value"] - 1})
                    txn.commit()
                    latencies.append(time.perf_counter() - started)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def scanner(idx: int):
            try:
                while not stop.is_set():
                    with db.snapshot() as snap:
                        rows = snap.query("counters").run()
                        # Transactional consistency: a sweep interleaved
                        # with +1/-1 commits must never see a half of one.
                        assert sum(r["value"] for r in rows) == 0, \
                            "snapshot saw a torn transfer"
                        assert len(rows) == n_rows
                    sweeps[idx] += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        before_locks = registry.counter("lock.acquired").value
        before_snap_reads = registry.counter("txn.snapshot_reads").value

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        scan_threads = [threading.Thread(target=scanner, args=(i,))
                        for i in range(2)]
        for t in scan_threads:
            t.start()
        writer_thread.join(timeout=30)
        stop.set()
        for t in scan_threads:
            t.join(timeout=10)
        assert errors == []
        assert all(n > 0 for n in sweeps), "a scanner never swept"

        # The writer is single-threaded over disjoint-locked rows: its
        # lock traffic is exactly deterministic (2 reads + 2 updates on 2
        # distinct rows = 2 grants per transaction).  Any extra grant
        # would have to come from a scanner.
        lock_delta = registry.counter("lock.acquired").value - before_locks
        assert lock_delta == 60 * 2, \
            f"snapshot scanners acquired locks ({lock_delta - 120:+d})"
        assert registry.counter("txn.snapshot_reads").value \
            > before_snap_reads

        # Keystroke-latency bound: the writer never waits on a reader,
        # so even its slowest commit stays well under the 10 s lock
        # timeout that blocking readers would push it toward.
        assert len(latencies) == 60
        assert max(latencies) < 2.0, \
            f"writer stalled {max(latencies):.2f}s behind snapshot readers"

    def test_version_gc_runs_under_load(self, db):
        """Superseded versions do not accumulate once pins close."""
        rowid = db.insert("counters", {"name": "gc", "value": 0})
        with db.snapshot() as snap:
            for i in range(40):
                db.update("counters", rowid, {"value": i + 1})
            assert snap.get("counters", rowid)["value"] == 0
            assert db.live_versions() > 0
            # The pin holds the chain down: GC below the watermark keeps
            # everything the snapshot still needs.
            db.gc_versions()
            assert snap.get("counters", rowid)["value"] == 0
        db.gc_versions()
        assert db.live_versions() == 0
        assert db.get("counters", rowid)["value"] == 40
