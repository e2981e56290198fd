"""Unit tests for the fault-injection subsystem: crash points, torn-tail
hardening, lock faults, delivery faults, and the deterministic scheduler.

Each crash-point test pins the *semantics* of one named point — what a
crash there must and must not lose — so the bulk torture suite
(``test_crash_torture.py``) can treat recovery equivalence as a single
property over random schedules.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.db import Database, column, recover_file
from repro.db.wal import WriteAheadLog, committed_txn_ids
from repro.errors import DeadlockError, LockTimeoutError, WalError
from repro.faults import (
    CRASH_POINTS,
    CrashSignal,
    DeliveryFault,
    DeterministicScheduler,
    FaultInjector,
    FaultPlan,
    LockFault,
)


def make_db(tmp_path, plan: FaultPlan | None = None, *, armed: bool = True):
    """A file-backed database with the ``kv`` torture table and a plan."""
    path = str(tmp_path / "wal.jsonl")
    faults = FaultInjector(plan, armed=armed) if plan is not None else None
    db = Database("ft", wal_path=path, faults=faults)
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db, path


def kv_rows(db: Database) -> dict[str, int]:
    if not db.has_table("kv"):
        return {}
    table = db.table("kv")
    return {row[0]: row[1] for __, row in table.committed_items()}


# ---------------------------------------------------------------------------
# Crash-point semantics
# ---------------------------------------------------------------------------

class TestCrashPoints:
    def test_pre_commit_crash_loses_the_transaction(self, tmp_path):
        # Hit 2: the CREATE_TABLE is unlogged by txns; commits count 1, 2...
        db, path = make_db(tmp_path, FaultPlan.crash_once("txn.pre_commit",
                                                          hit=2))
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "b", "v": 2})
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"a": 1}

    def test_post_commit_crash_keeps_the_transaction(self, tmp_path):
        # The commit point is the WAL append: a crash *after* the COMMIT
        # record is durable must surface the transaction on recovery even
        # though the crashed process never applied its staged images.
        db, path = make_db(tmp_path, FaultPlan.crash_once("txn.post_commit",
                                                          hit=2))
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "b", "v": 2})
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"a": 1, "b": 2}

    @pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
    def test_torn_commit_record_loses_the_transaction(self, tmp_path):
        # File appends: CREATE_TABLE(1) BEGIN(2) INSERT(3) COMMIT(4)
        #               BEGIN(5) INSERT(6) COMMIT(7) <- torn
        db, path = make_db(tmp_path, FaultPlan.crash_once("wal.mid_record",
                                                          hit=7, tear=0.5))
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "b", "v": 2})
        # The torn prefix reached "disk" but is not a parseable record.
        last_line = open(path, encoding="utf-8").read().splitlines()[-1]
        with pytest.raises(json.JSONDecodeError):
            json.loads(last_line)
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"a": 1}

    @pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
    @pytest.mark.parametrize("point", ["wal.before_append",
                                       "wal.mid_record"])
    @pytest.mark.parametrize("record", range(5))
    def test_a_crash_at_any_record_of_the_block_loses_it_whole(
            self, tmp_path, point, record):
        """A transaction reaches the log as one block — BEGIN, three
        statements, COMMIT — and the per-record points fire once per
        record of it.  Wherever in the block the crash lands, recovery
        holds all of the transaction before it and none of this one."""
        # Hits before the doomed block: CREATE_TABLE, then the first
        # transaction's BEGIN, INSERT, COMMIT.
        hit = 1 + 3 + 1 + record
        db, path = make_db(tmp_path, FaultPlan.crash_once(point, hit=hit))
        first = db.insert("kv", {"k": "kept", "v": 1})
        logged = len(db.wal)
        txn = db.begin()
        txn.insert("kv", {"k": "b", "v": 2})
        txn.update("kv", first, {"v": 10})
        txn.insert("kv", {"k": "c", "v": 3})
        assert len(db.wal) == logged          # nothing logged before commit
        with pytest.raises(CrashSignal):
            txn.commit()
        assert db.faults.fired[0].detail["type"] == (
            "BEGIN", "INSERT", "UPDATE", "INSERT", "COMMIT")[record]
        assert len(db.wal) == logged          # ... nor by a dying one
        with open(path, "rb") as handle:
            data = handle.read()
        if point == "wal.before_append":
            assert data.endswith(b"}\n")      # not a byte of the block
        else:
            assert not data.endswith(b"\n")   # whole lines, then a torn one
            assert data.count(b"\n") == logged + record
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"kept": 1}
        assert committed_txn_ids(WriteAheadLog.load_file(path)) == {1}

    def test_lost_fsync_under_power_loss_drops_the_commit(self, tmp_path):
        # before_fsync counts commit-boundary syncs: hit 2 is txn b's
        # COMMIT.  Power loss truncates to the last fsync, so the whole
        # second transaction vanishes — cleanly, no torn tail.
        db, path = make_db(tmp_path, FaultPlan.crash_once(
            "wal.before_fsync", hit=2, power_loss=True))
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "b", "v": 2})
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"a": 1}

    def test_lost_fsync_without_power_loss_keeps_the_commit(self, tmp_path):
        # Same crash, but a plain process death: the OS page cache holds
        # the flushed-not-fsynced COMMIT line, so the transaction lives.
        db, path = make_db(tmp_path, FaultPlan.crash_once(
            "wal.before_fsync", hit=2, power_loss=False))
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "b", "v": 2})
        recovered = recover_file(path)
        assert kv_rows(recovered) == {"a": 1, "b": 2}

    def test_before_append_on_ddl_loses_the_table(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(FaultPlan.crash_once("wal.before_append",
                                                    hit=1))
        db = Database("ft", wal_path=path, faults=faults)
        with pytest.raises(CrashSignal):
            db.create_table("kv", [column("k", "str")], key="k")
        recovered = recover_file(path)
        assert not recovered.has_table("kv")

    def test_mid_snapshot_crash_falls_back_to_full_replay(self, tmp_path):
        db, path = make_db(tmp_path,
                           FaultPlan.crash_once("checkpoint.mid_snapshot"))
        for i in range(5):
            db.insert("kv", {"k": f"k{i}", "v": i})
        with pytest.raises(CrashSignal):
            db.checkpoint()
        # The half-built snapshot never reached the log...
        records = WriteAheadLog.load_file(path)
        assert all(r.type != "CHECKPOINT" for r in records)
        # ...and recovery replays the full history instead.
        assert kv_rows(recover_file(path)) == {f"k{i}": i for i in range(5)}

    def test_dead_process_cannot_write_another_byte(self, tmp_path):
        db, path = make_db(tmp_path, FaultPlan.crash_once("txn.pre_commit"))
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "a", "v": 1})
        size = len(open(path, "rb").read())
        # Post-mortem activity (the context manager's abort already ran;
        # pile on a whole extra transaction) must stay off the "disk".
        db.insert("kv", {"k": "ghost", "v": 13})
        assert len(open(path, "rb").read()) == size
        assert kv_rows(recover_file(path)) == {}

    def test_injector_records_what_fired(self, tmp_path):
        db, __ = make_db(tmp_path, FaultPlan.crash_once("txn.pre_commit"))
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "a", "v": 1})
        assert db.faults.crashed
        assert db.faults.crash_point_fired == "txn.pre_commit"
        assert [f.kind for f in db.faults.fired] == ["crash"]

    def test_disarmed_injector_counts_nothing_until_armed(self, tmp_path):
        plan = FaultPlan.crash_once("txn.pre_commit", hit=1)
        path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(plan, armed=False)
        db = Database("ft", wal_path=path, faults=faults)
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        db.insert("kv", {"k": "fixture", "v": 0})   # outside the blast radius
        faults.arm()
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "a", "v": 1})
        assert kv_rows(recover_file(path)) == {"fixture": 0}


# ---------------------------------------------------------------------------
# Torn-tail hardening of WriteAheadLog.load_file (satellite)
# ---------------------------------------------------------------------------

def _valid_line(lsn: int, type_: str = "BEGIN", txn: int = 1) -> str:
    return json.dumps({"lsn": lsn, "type": type_, "txn": txn, "payload": {}})


class TestTornTailHardening:
    def test_torn_trailing_record_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(_valid_line(1) + "\n" + _valid_line(2)[:17] + "\n")
        with pytest.warns(RuntimeWarning, match="torn trailing WAL record"):
            records = WriteAheadLog.load_file(str(path))
        assert [r.lsn for r in records] == [1]

    def test_trailing_record_missing_fields_is_skipped(self, tmp_path):
        # Valid JSON, but not a valid record (no "type"/"txn") — the tear
        # happened to land on a field boundary.
        path = tmp_path / "wal.jsonl"
        path.write_text(_valid_line(1) + "\n" + json.dumps({"lsn": 2}) + "\n")
        with pytest.warns(RuntimeWarning):
            records = WriteAheadLog.load_file(str(path))
        assert [r.lsn for r in records] == [1]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        # A malformed record with valid records after it is corruption,
        # not a crash signature — silently dropping it would drop
        # committed history.
        path = tmp_path / "wal.jsonl"
        path.write_text("garbage{{{\n" + _valid_line(2) + "\n")
        with pytest.raises(WalError, match="not a torn tail"):
            WriteAheadLog.load_file(str(path))

    @pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
    def test_recover_file_survives_a_torn_tail(self, tmp_path):
        db, path = make_db(tmp_path)
        db.insert("kv", {"k": "a", "v": 1})
        db.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"lsn": 99, "type": "COMM')
        assert kv_rows(recover_file(path)) == {"a": 1}


# ---------------------------------------------------------------------------
# Lock faults (injected timeouts / latency)
# ---------------------------------------------------------------------------

class TestLockFaults:
    def test_injected_timeout_aborts_the_victim_only(self, tmp_path):
        plan = FaultPlan(lock_faults=(LockFault(nth=1, kind="timeout"),))
        db, path = make_db(tmp_path, plan, armed=False)
        db.faults.arm()
        with pytest.raises(LockTimeoutError, match="injected timeout"):
            db.insert("kv", {"k": "a", "v": 1})
        assert db.locks.stats["injected"] == 1
        assert db.locks.stats["timeouts"] >= 1
        # The fault was one-shot; the engine is healthy afterwards.
        db.insert("kv", {"k": "b", "v": 2})
        assert kv_rows(db) == {"b": 2}
        db.close()
        assert kv_rows(recover_file(path)) == {"b": 2}

    def test_injected_delay_widens_the_window_but_succeeds(self, tmp_path):
        plan = FaultPlan(lock_faults=(LockFault(nth=1, kind="delay",
                                                delay=0.001),))
        db, __ = make_db(tmp_path, plan, armed=False)
        db.faults.arm()
        db.insert("kv", {"k": "a", "v": 1})
        assert kv_rows(db) == {"a": 1}
        lock_faults = [f for f in db.faults.fired if f.kind == "lock"]
        assert len(lock_faults) == 1
        assert lock_faults[0].detail["kind"] == "delay"


# ---------------------------------------------------------------------------
# Real lock-timeout and deadlock paths (satellite: locks.py coverage)
# ---------------------------------------------------------------------------

class TestLockTimeoutAndDeadlock:
    def test_contended_row_times_out_and_retry_succeeds(self, db):
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        rowid = db.insert("kv", {"k": "a", "v": 1})
        holder = db.begin()
        holder.update("kv", rowid, {"v": 2})
        waiter = db.begin(lock_timeout=0.05)
        with pytest.raises(LockTimeoutError):
            waiter.update("kv", rowid, {"v": 3})
        waiter.abort()
        assert db.locks.stats["timeouts"] >= 1
        holder.commit()
        # The lock was released on commit; a fresh transaction gets it.
        db.update("kv", rowid, {"v": 4})
        assert db.get("kv", rowid)["v"] == 4

    def test_zero_timeout_fails_immediately_on_conflict(self, db):
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        rowid = db.insert("kv", {"k": "a", "v": 1})
        holder = db.begin()
        holder.update("kv", rowid, {"v": 2})
        waited_before = db.locks.stats["waited"]
        waiter = db.begin(lock_timeout=0)
        with pytest.raises(LockTimeoutError, match="would block"):
            waiter.update("kv", rowid, {"v": 3})
        assert db.locks.stats["waited"] == waited_before  # never queued
        waiter.abort()
        holder.abort()

    def test_two_session_deadlock_aborts_exactly_one_victim(self, db):
        """A classic A->B / B->A cycle: one txn dies, the other commits."""
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        r1 = db.insert("kv", {"k": "a", "v": 0})
        r2 = db.insert("kv", {"k": "b", "v": 0})
        barrier = threading.Barrier(2, timeout=5)
        outcomes: dict[str, str] = {}

        def run(name: str, first: int, second: int, value: int) -> None:
            txn = db.begin()
            try:
                txn.update("kv", first, {"v": value})
                barrier.wait()
                txn.update("kv", second, {"v": value})
                txn.commit()
                outcomes[name] = "committed"
            except DeadlockError:
                txn.abort()
                outcomes[name] = "victim"

        t1 = threading.Thread(target=run, args=("t1", r1, r2, 1))
        t2 = threading.Thread(target=run, args=("t2", r2, r1, 2))
        t1.start(); t2.start()
        t1.join(10); t2.join(10)
        assert not t1.is_alive() and not t2.is_alive()
        assert sorted(outcomes.values()) == ["committed", "victim"]
        assert db.locks.stats["deadlocks"] == 1
        # The survivor's value won on both rows; the victim left no trace.
        winner = next(n for n, o in outcomes.items() if o == "committed")
        value = 1 if winner == "t1" else 2
        assert db.get("kv", r1)["v"] == value
        assert db.get("kv", r2)["v"] == value
        # All locks were released either way.
        assert db.locks.holders(("row", "kv", r1)) == {}
        assert db.locks.holders(("row", "kv", r2)) == {}


# ---------------------------------------------------------------------------
# Delivery faults on the collab message bus
# ---------------------------------------------------------------------------

def _pair(server):
    """Two connected users sharing one document; returns (ana, ben, doc)."""
    server.register_user("ana")
    server.register_user("ben")
    ana = server.connect("ana")
    ben = server.connect("ben")
    handle = ana.create_document("shared", text="hello world. ")
    ben.open(handle.doc)
    return ana, ben, handle


class TestDeliveryFaults:
    def test_default_delivery_is_immediate(self):
        from repro.collab import CollaborationServer
        server = CollaborationServer(node="dlv")
        ana, ben, handle = _pair(server)
        ana.insert(handle.doc, 0, "x")
        assert server.delivery.pending == 0
        assert len(ben.notifications()) == 1

    def test_held_notifications_wait_for_drain(self):
        from repro.collab import CollaborationServer
        plan = FaultPlan(delivery=DeliveryFault(p_hold=1.0, reorder=False),
                         seed=1)
        server = CollaborationServer(node="dlv",
                                     faults=FaultInjector(plan))
        ana, ben, handle = _pair(server)
        ana.insert(handle.doc, 0, "x")
        ana.insert(handle.doc, 0, "y")
        assert ben.notifications() == []          # nothing came through
        assert server.delivery.pending == 2
        delivered = server.delivery.drain()
        assert delivered == 2
        assert server.delivery.pending == 0
        seqs = [n.seq for n in ben.notifications()]
        assert len(seqs) == 2
        assert seqs[1] == seqs[0] + 1             # reorder=False: send order
        # Inboxes lag, but replicas never did: the handle cache follows
        # commits, so the text is already converged.
        assert ben.handle(handle.doc).text() == handle.text()

    def test_reordered_drain_is_complete_and_out_of_order(self):
        from repro.collab import CollaborationServer
        plan = FaultPlan(delivery=DeliveryFault(p_hold=1.0, reorder=True),
                         seed=7)
        server = CollaborationServer(node="dlv",
                                     faults=FaultInjector(plan))
        ana, ben, handle = _pair(server)
        for i in range(6):
            ana.insert(handle.doc, 0, "abcdef"[i])
        server.delivery.drain()
        seqs = [n.seq for n in ben.notifications()]
        # No loss, no duplication: six consecutive sequence numbers...
        assert sorted(seqs) == list(range(min(seqs), min(seqs) + 6))
        assert seqs != sorted(seqs)                # ...observed out of order
        assert server.delivery.stats["held"] == 6

    def test_drain_skips_disconnected_sessions(self):
        from repro.collab import CollaborationServer
        plan = FaultPlan(delivery=DeliveryFault(p_hold=1.0, reorder=False),
                         seed=3)
        server = CollaborationServer(node="dlv",
                                     faults=FaultInjector(plan))
        ana, ben, handle = _pair(server)
        ana.insert(handle.doc, 0, "x")
        assert server.delivery.pending == 1
        ben.disconnect()
        server.delivery.drain()                    # send to a closed socket
        assert server.delivery.pending == 0
        assert ben.inbox == []


# ---------------------------------------------------------------------------
# Deterministic scheduler
# ---------------------------------------------------------------------------

def _counting_scheduler(seed: int, n_actors: int = 3):
    sched = DeterministicScheduler(seed)
    counts = {f"a{i}": 0 for i in range(n_actors)}

    def make_step(name):
        def step():
            counts[name] += 1
        return step

    for name in counts:
        sched.add_actor(name, make_step(name))
    return sched, counts


class TestDeterministicScheduler:
    def test_same_seed_same_trace(self):
        s1, __ = _counting_scheduler(42)
        s2, __ = _counting_scheduler(42)
        assert s1.run(50) == s2.run(50)

    def test_different_seeds_differ(self):
        s1, __ = _counting_scheduler(0)
        s2, __ = _counting_scheduler(1)
        assert s1.run(50) != s2.run(50)

    def test_trace_counts_match_executed_steps(self):
        sched, counts = _counting_scheduler(5)
        trace = sched.run(30)
        assert len(trace) == 30
        for name, n in counts.items():
            assert trace.count(name) == n

    def test_weights_bias_the_interleaving(self):
        sched = DeterministicScheduler(9)
        counts = {"heavy": 0, "light": 0}
        sched.add_actor("heavy", lambda: counts.__setitem__(
            "heavy", counts["heavy"] + 1), weight=9)
        sched.add_actor("light", lambda: counts.__setitem__(
            "light", counts["light"] + 1), weight=1)
        sched.run(100)
        assert counts["heavy"] > counts["light"]

    def test_crash_propagates_with_trace_intact(self):
        sched = DeterministicScheduler(3)
        ticks = []

        def boom():
            if len(ticks) >= 4:
                raise CrashSignal("died")
            ticks.append(1)

        sched.add_actor("boom", boom)
        with pytest.raises(CrashSignal):
            sched.run(100)
        assert len(sched.trace) == 5               # the fatal step included


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_random_plans_are_seed_reproducible(self):
        assert FaultPlan.random(1234) == FaultPlan.random(1234)
        assert FaultPlan.delivery_only(9) == FaultPlan.delivery_only(9)

    def test_random_plans_cover_every_crash_point(self):
        points = {FaultPlan.random(s).crashes[0].point for s in range(200)}
        assert points == set(CRASH_POINTS)

    def test_crash_once_rejects_unknown_points(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            FaultPlan.crash_once("wal.no_such_point")

    def test_empty_plan_is_inert(self, tmp_path):
        db, path = make_db(tmp_path, FaultPlan())
        db.insert("kv", {"k": "a", "v": 1})
        db.close()
        assert db.faults.fired == []
        assert kv_rows(recover_file(path)) == {"a": 1}
