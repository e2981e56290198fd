"""Group-commit WAL and batched edit-transaction regression tests.

The contract under test (ISSUE 4 tentpole):

* Under K concurrent committing sessions the WAL performs strictly
  fewer than K·M fsyncs for K·M commits (the barrier groups them), while
  **every acknowledged commit survives** ``power_off(lose_unsynced=True)``
  — the durable-LSN acknowledgement is only given after the group's fsync
  covered the commit's record.
* A leader dying mid-group must not leave followers believing they are
  durable: they raise :class:`~repro.errors.CrashSignal` instead.
* ``Database.batch()`` coalesces a burst of editing operations into one
  transaction — one COMMIT record, one (grouped) fsync — aborts
  atomically, and keeps the causal trace linking every batched keystroke
  to the batch's fsync.
"""

import threading
import time

import pytest

from repro.collab import CollaborationServer, EditorClient
from repro.db.engine import Database
from repro.db.recovery import recover_file
from repro.db.schema import column
from repro.errors import CrashSignal
from repro.faults import FaultInjector, FaultPlan
from repro.obs.export import TraceBuffer


def make_db(tmp_path, **kwargs):
    db = Database(wal_path=str(tmp_path / "wal.jsonl"), **kwargs)
    db.create_table("notes", [column("body", "str")])
    return db


# ---------------------------------------------------------------------------
# Group-commit barrier: fsync sublinearity + durability of acked commits
# ---------------------------------------------------------------------------

class TestGroupCommitBarrier:
    def test_fsyncs_sublinear_and_acked_commits_survive_power_loss(
            self, tmp_path):
        """K concurrent committers share fsyncs; every ack is durable."""
        writers, rounds = 8, 4
        db = make_db(tmp_path, wal_group_window=0.01, wal_group_max=writers)
        barrier = threading.Barrier(writers)
        acked: list[str] = []
        acked_lock = threading.Lock()
        errors: list[BaseException] = []

        def run(worker: int) -> None:
            try:
                for i in range(rounds):
                    barrier.wait()
                    body = f"w{worker}-r{i}"
                    with db.transaction() as txn:
                        txn.insert("notes", {"body": body})
                    # The context exit returned: this commit was
                    # acknowledged durable.
                    with acked_lock:
                        acked.append(body)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(acked) == writers * rounds

        snap = db.metrics_snapshot()
        commits = writers * rounds
        fsyncs = snap["wal.fsyncs"]["value"]
        # Strictly sub-linear: the barrier must have grouped commits.
        assert fsyncs < commits, (fsyncs, commits)
        assert snap["wal.group_commit_size"]["max"] >= 2
        assert snap["wal.sync_wait_seconds"]["count"] >= commits
        assert db.wal.durable_lsn == db.wal.last_lsn()

        # Power loss drops everything since the last fsync — which must
        # not include any acknowledged commit.
        db.wal.power_off(lose_unsynced=True)
        recovered = recover_file(str(tmp_path / "wal.jsonl"))
        bodies = {row["body"] for row in recovered.query("notes").run()}
        assert bodies == set(acked)

    def test_single_threaded_commits_fsync_once_each(self, tmp_path):
        """No concurrency, no window: behaviour identical to per-commit
        fsync — each commit is its own leader with group size 1."""
        db = make_db(tmp_path)
        for i in range(5):
            db.insert("notes", {"body": f"n{i}"})
        snap = db.metrics_snapshot()
        # 5 commits + the CREATE_TABLE has no commit record; fsyncs come
        # from the 5 COMMITs only.
        assert snap["wal.fsyncs"]["value"] == 5
        assert snap["wal.group_commit_size"]["max"] == 1
        assert db.wal.durable_lsn == db.wal.last_lsn()

    def test_leader_crash_mid_group_followers_not_durable(self, tmp_path):
        """Leader dies at wal.before_fsync with a follower enqueued: the
        follower must raise CrashSignal, and neither commit recovers
        after the power loss."""
        # hit=2: the first fsync durably commits a baseline row (and the
        # CREATE_TABLE before it); the crash lands on the group's fsync.
        plan = FaultPlan.crash_once("wal.before_fsync", hit=2,
                                    power_loss=True)
        db = make_db(tmp_path, faults=FaultInjector(plan),
                     wal_group_window=2.0, wal_group_max=2)
        db.insert("notes", {"body": "baseline"})
        outcomes: dict[str, BaseException | str] = {}

        def commit(label: str) -> None:
            try:
                with db.transaction() as txn:
                    txn.insert("notes", {"body": label})
                outcomes[label] = "acked"
            except CrashSignal as exc:
                outcomes[label] = exc

        leader = threading.Thread(target=commit, args=("leader",))
        leader.start()
        # Wait until the leader is actually holding the barrier open
        # (its window is long; it fsyncs as soon as a follower joins).
        deadline = time.time() + 5.0
        while db.wal._pending_commits < 1 and time.time() < deadline:
            time.sleep(0.001)
        assert db.wal._pending_commits >= 1, "leader never reached barrier"
        follower = threading.Thread(target=commit, args=("follower",))
        follower.start()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert not leader.is_alive() and not follower.is_alive()

        assert isinstance(outcomes["leader"], CrashSignal)
        assert isinstance(outcomes["follower"], CrashSignal)
        recovered = recover_file(str(tmp_path / "wal.jsonl"))
        bodies = [row["body"] for row in recovered.query("notes").run()]
        assert bodies == ["baseline"]  # neither group member survived

    def test_crash_at_wal_after_write_rolls_back_unacked_commit(
            self, tmp_path):
        """The new crash point: record buffered, barrier never entered.
        With power loss the commit record is gone — recovery must not
        surface the transaction."""
        plan = FaultPlan.crash_once("wal.after_write", hit=2,
                                    power_loss=True)
        db = make_db(tmp_path, faults=FaultInjector(plan))
        db.insert("notes", {"body": "baseline"})
        with pytest.raises(CrashSignal):
            db.insert("notes", {"body": "lost"})
        recovered = recover_file(str(tmp_path / "wal.jsonl"))
        bodies = [row["body"] for row in recovered.query("notes").run()]
        assert bodies == ["baseline"]

    def test_commits_after_group_leader_keep_working(self, tmp_path):
        """The barrier hands leadership over cleanly: commits issued
        after a grouped round still ack and fsync."""
        db = make_db(tmp_path, wal_group_window=0.005)
        barrier = threading.Barrier(4)

        def run(worker: int) -> None:
            barrier.wait()
            db.insert("notes", {"body": f"w{worker}"})

        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        db.insert("notes", {"body": "after"})
        assert db.wal.durable_lsn == db.wal.last_lsn()
        assert len(db.query("notes").run()) == 5

    def test_recovery_carries_commit_policy_forward(self, tmp_path):
        """A recovered engine keeps the crashed engine's group-commit
        configuration instead of silently resetting it to defaults."""
        db = make_db(tmp_path, wal_group_window=0.25, wal_group_max=7)
        db.insert("notes", {"body": "n"})
        db.wal.power_off()
        recovered = recover_file(str(tmp_path / "wal.jsonl"),
                                 wal_group_window=0.25, wal_group_max=7)
        assert recovered.wal._group_window == 0.25
        assert recovered.wal._group_max == 7
        assert [r["body"] for r in recovered.query("notes").run()] == ["n"]


# ---------------------------------------------------------------------------
# Batched edit transactions
# ---------------------------------------------------------------------------

@pytest.fixture
def duo(tmp_path):
    server = CollaborationServer(wal_path=str(tmp_path / "wal.jsonl"))
    for user in ("ana", "ben"):
        server.register_user(user)
    s1 = server.connect("ana")
    s2 = server.connect("ben")
    handle = s1.create_document("d", text="base")
    s2.open(handle.doc)
    return server, EditorClient(s1, handle.doc), EditorClient(s2, handle.doc)


class TestBatchedEditTransactions:
    def test_typing_burst_coalesces_into_one_commit(self, duo):
        server, e1, e2 = duo
        before = server.db.metrics_snapshot()
        e1.move_end()
        with e1.batch():
            for ch in "hello":
                e1.type(ch)
        after = server.db.metrics_snapshot()
        committed = (after["txn.committed"]["value"]
                     - before["txn.committed"]["value"])
        fsyncs = after["wal.fsyncs"]["value"] - before["wal.fsyncs"]["value"]
        assert committed == 1
        assert fsyncs == 1
        assert after["txn.batched_ops"]["count"] == 1
        assert after["txn.batched_ops"]["max"] >= 5
        assert e1.text() == "basehello"
        assert e2.text() == "basehello"  # one commit fan-out delivered all

    def test_batch_rolls_back_atomically_on_error(self, duo):
        server, e1, __ = duo
        e1.move_end()
        with pytest.raises(RuntimeError):
            with e1.batch():
                e1.type("xyz")
                raise RuntimeError("burst interrupted")
        assert e1.text() == "base"
        assert server.db.current_batch() is None
        # The engine is fully usable afterwards.
        e1.move_end()
        e1.type("!")
        assert e1.text() == "base!"

    def test_nested_batches_join_the_outer_one(self, tmp_path):
        db = make_db(tmp_path)
        with db.batch() as outer:
            with db.batch() as inner:
                assert inner is outer
                with db.transaction() as txn:
                    txn.insert("notes", {"body": "nested"})
            # Inner exit must not have committed.
            assert outer.is_active
        assert db.query("notes").run()[0]["body"] == "nested"
        assert db.metrics_snapshot()["txn.committed"]["value"] == 1

    def test_range_ops_amortise_locks(self, duo):
        server, e1, __ = duo
        before = server.db.metrics_snapshot()["lock.acquired"]["value"]
        e1.select(0, 4)
        e1.style_selection(None)
        after = server.db.metrics_snapshot()["lock.acquired"]["value"]
        # 4 char rows + doc row + a couple of bookkeeping rows: the
        # batched acquire keeps this bounded, and repeat acquires of the
        # same row inside the transaction are free.
        assert after - before <= 10

    def test_batched_keystrokes_trace_to_the_group_fsync(self, duo):
        server, e1, __ = duo
        tracer = server.db.obs.tracer
        buffer = TraceBuffer(max_traces=64)
        tracer.add_sink(buffer)
        try:
            e1.move_end()
            with e1.batch():
                for ch in "abc":
                    e1.type(ch)
        finally:
            tracer.remove_sink(buffer)
        # The whole burst is one trace: the batch txn span roots it; the
        # collab.op spans of each keystroke parent under it, and so does
        # the single wal.fsync with its group_size attribute.
        for trace in buffer.traces():
            names = [s.name for s in trace.spans]
            if "wal.fsync" not in names:
                continue
            txn_spans = [s for s in trace.spans if s.name == "txn"]
            ops = [s for s in trace.spans if s.name == "collab.op"]
            fsyncs = [s for s in trace.spans if s.name == "wal.fsync"]
            if len(ops) >= 3:
                break
        else:
            pytest.fail("no trace linking the batched keystrokes to a fsync")
        assert len(txn_spans) == 1
        txn_span = txn_spans[0]
        assert all(op.parent_id == txn_span.span_id for op in ops)
        assert len(fsyncs) == 1
        assert fsyncs[0].attrs["group_size"] == 1
        assert fsyncs[0].trace_id == txn_span.trace_id

    def test_session_batch_requires_connection(self, duo):
        server, e1, __ = duo
        session = e1.session
        session.disconnect()
        from repro.errors import SessionError
        with pytest.raises(SessionError):
            session.batch()
