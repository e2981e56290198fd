"""In-process replication: tailers, idempotent apply, resume, promotion.

The follower engine's contract is *exactly-once effect from at-least-once
delivery*: segments may be redelivered (reconnects, restarts, paranoid
tailers re-reading the file from zero) and the applier's LSN cursor must
drop every duplicate with zero side effects.  The property test drives
seeded redelivery schedules — random re-send offsets and segment sizes —
and asserts applied state, ``applied_lsn`` and the ``repl.apply_lag_lsn``
gauge all end exactly where single-delivery would leave them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, column
from repro.errors import CrashSignal, ReplicationError
from repro.faults import FaultInjector, FaultPlan
from repro.feed import MaintenanceWorker
from repro.repl import FollowerEngine, WalFileTailer, WalTailer
from repro.search import InvertedIndex
from repro.text import DocumentStore

TABLE = "notes"


def make_leader(wal_path: str, n_txns: int = 20) -> Database:
    db = Database("leader", wal_path=wal_path)
    db.create_table(TABLE, [column("k", "str"), column("v", "int")],
                    key="k")
    for t in range(n_txns):
        txn = db.begin()
        txn.insert(TABLE, {"k": f"t{t}", "v": t})
        if t and t % 3 == 0:
            txn.update(TABLE, t, {"v": t * 10})
        txn.commit()
    return db


def rows(db: Database) -> dict:
    if not db.has_table(TABLE):
        return {}
    table = db.table(TABLE)
    return {rowid: table.schema.row_dict(row)
            for rowid, row in table.committed_items()}


class TestTailerConvergence:
    def test_live_tailer_converges(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        follower = FollowerEngine(node="replica")
        tailer = WalTailer(leader.wal, follower)
        applied = tailer.poll()
        assert applied == leader.wal.durable_lsn
        assert tailer.caught_up()
        assert follower.lag_lsn == 0
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()

    def test_file_tailer_converges_incrementally(self, tmp_path):
        path = str(tmp_path / "leader.wal")
        leader = make_leader(path, n_txns=5)
        follower = FollowerEngine(node="replica")
        tailer = WalFileTailer(path, follower)
        tailer.drain()
        first = follower.applied_lsn
        assert first == leader.wal.durable_lsn
        # More leader commits land; the next poll ships only the delta.
        txn = leader.begin()
        txn.insert(TABLE, {"k": "late", "v": 99})
        txn.commit()
        tailer.drain()
        assert follower.applied_lsn > first
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()

    def test_replica_snapshot_reads_while_applying(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=10)
        follower = FollowerEngine(node="replica")
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()
        # A pinned snapshot on the replica stays consistent while new
        # segments keep applying underneath it.
        with follower.db.snapshot() as snap:
            before = snap.query(TABLE).count()
            txn = leader.begin()
            txn.insert(TABLE, {"k": "while-pinned", "v": 1})
            txn.commit()
            tailer.poll()
            assert snap.query(TABLE).count() == before
        with follower.db.snapshot() as snap:
            assert snap.query(TABLE).count() == before + 1
        leader.close(); follower.close()

    def test_lag_gauge_tracks_leader_tail(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=4)
        follower = FollowerEngine(node="replica")
        follower.note_leader_lsn(leader.wal.durable_lsn)
        assert follower.lag_lsn == leader.wal.durable_lsn
        gauge = follower.db.obs.registry.snapshot()["repl.apply_lag_lsn"]
        assert gauge["value"] == follower.lag_lsn
        WalTailer(leader.wal, follower).poll()
        assert follower.lag_lsn == 0
        leader.close(); follower.close()


class TestTheReplicaPublishesItsApplies:
    """A shipped commit ends in the same ``Database.on_commit`` as a
    local one: the replica's changefeed moves, so whatever is derived
    from it (open handles, an index) follows the stream, and version GC
    ticks.  Consumers on a replica only read."""

    def test_open_handle_and_index_follow_the_stream(self, tmp_path):
        leader = Database("leader", wal_path=str(tmp_path / "leader.wal"))
        pad = DocumentStore(leader).create("pad", "ana", text="hello")
        follower = FollowerEngine(node="replica")
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()
        # The schema arrived with the stream: the store installs nothing.
        handle = DocumentStore(follower.db).handle(pad.doc)
        index = InvertedIndex(follower.db)
        worker = MaintenanceWorker(follower.db)
        worker.register("search-index", index.maintain,
                        sub=index.subscription, checkpoint=False)
        assert handle.text() == "hello"
        mirrored = len(follower.db.wal)

        def full_scans() -> int:
            return follower.db.metrics_snapshot()["doc.full_scans"]["value"]

        scans = full_scans()
        pad.insert_text(5, " world", "ana")
        pad.delete_range(0, 1, "ana")
        tailer.poll()
        assert handle.text() == pad.text() == "ello world"
        assert handle.check_integrity() == []
        assert full_scans() == scans
        assert follower.db.changefeed().last_seq == 2
        assert index.matching_docs(["world"]) == set()
        worker.run_once()
        assert index.matching_docs(["world"]) == {pad.doc}
        assert index.check() == []
        assert follower.db.changefeed().errors == []
        # Nothing but shipped records reached the replica's log.
        assert len(follower.db.wal) - mirrored == \
            follower.applied_lsn - mirrored == len(leader.wal) - mirrored
        leader.close(); follower.close()

    def test_replica_dying_mid_dispatch_resumes_from_its_mirror(
            self, tmp_path):
        leader = Database("leader", wal_path=str(tmp_path / "leader.wal"))
        pad = DocumentStore(leader).create("pad", "ana", text="hello")
        mirror = str(tmp_path / "replica.wal")
        plan = FaultPlan.crash_once("feed.mid_dispatch", hit=2)
        follower = FollowerEngine(mirror, faults=FaultInjector(plan))
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()
        handle = DocumentStore(follower.db).handle(pad.doc)
        for ch in " world":
            pad.insert_text(pad.length(), ch, "ana")
        with pytest.raises(CrashSignal):
            tailer.poll()
        # The commit being dispatched was mirrored and applied before its
        # batch was handed out: a restart finds it in the local log.
        assert handle.text() == "hello "
        follower.close()
        follower = FollowerEngine(mirror)
        WalTailer(leader.wal, follower).poll()
        reopened = DocumentStore(follower.db).handle(pad.doc)
        assert reopened.text() == pad.text() == "hello world"
        assert reopened.check_integrity() == []
        leader.close(); follower.close()

    def test_version_gc_runs_on_the_replica(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=2)
        follower = FollowerEngine(node="replica")
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()
        with follower.db.snapshot() as pinned:
            before = pinned.read(TABLE, 1)
            for v in range(1000):
                leader.update(TABLE, 1, {"v": v})
            tailer.poll()
            # The pin holds every version above it back from the GC.
            assert pinned.read(TABLE, 1) == before
        for v in range(2000):
            leader.update(TABLE, 1, {"v": -v})
        tailer.poll()
        assert rows(follower.db) == rows(leader)
        assert follower.db.live_versions() <= 2 * leader.live_versions()
        leader.close(); follower.close()


class TestIdempotence:
    def test_redelivered_segment_is_a_no_op(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        follower = FollowerEngine(node="replica")
        records = leader.wal.records_from(1)
        follower.apply_records(records, leader_lsn=records[-1].lsn)
        state = rows(follower.db)
        cursor = follower.applied_lsn
        counted = follower.status()["records_applied"]
        # The whole stream again, then a mid-stream slice: both dropped.
        assert follower.apply_records(records) == 0
        assert follower.apply_records(records[3:9]) == 0
        assert follower.applied_lsn == cursor
        assert follower.status()["records_applied"] == counted
        assert rows(follower.db) == state
        leader.close(); follower.close()

    @settings(max_examples=30, deadline=None)
    @given(schedule=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=25))
    def test_seeded_redelivery_schedules(self, tmp_path_factory, schedule):
        """Random (rewind, length) segments must converge exactly once.

        Each step rewinds the send cursor up to ``rewind`` records back
        (redelivery!) and ships ``length`` records from there — always a
        contiguous extension or pure overlap, as a resuming subscriber
        would produce.  Whatever the schedule, the end state must equal
        plain single-delivery and the lag gauge must read true.
        """
        wal_dir = tmp_path_factory.mktemp("redelivery")
        leader = make_leader(str(wal_dir / "leader.wal"))
        reference = FollowerEngine(node="reference")
        records = leader.wal.records_from(1)
        reference.apply_records(records, leader_lsn=records[-1].lsn)

        follower = FollowerEngine(node="replica")
        for rewind, length in schedule:
            start = max(1, follower.applied_lsn + 1 - rewind)
            segment = records[start - 1:start - 1 + length]
            if segment:
                follower.apply_records(segment,
                                       leader_lsn=segment[-1].lsn)
        # Finish the stream, then redeliver everything once more.
        tail = records[follower.applied_lsn:]
        if tail:
            follower.apply_records(tail, leader_lsn=records[-1].lsn)
        state = rows(follower.db)
        cursor = follower.applied_lsn
        follower.apply_records(records, leader_lsn=records[-1].lsn)

        assert follower.applied_lsn == cursor == reference.applied_lsn
        assert rows(follower.db) == state == rows(reference.db)
        snapshot = follower.db.obs.registry.snapshot()
        assert snapshot["repl.apply_lag_lsn"]["value"] == 0
        assert follower.status()["records_applied"] \
            == reference.status()["records_applied"]
        leader.close(); follower.close(); reference.close()

    def test_gap_in_the_stream_raises(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        follower = FollowerEngine(node="replica")
        records = leader.wal.records_from(1)
        follower.apply_records(records[:4])
        with pytest.raises(ReplicationError):
            follower.apply_records(records[6:])
        leader.close(); follower.close()


class TestRestartResume:
    def test_resume_from_local_mirror(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        mirror = str(tmp_path / "follower.wal")
        records = leader.wal.records_from(1)
        half = len(records) // 2
        follower = FollowerEngine(mirror, node="replica")
        follower.apply_records(records[:half])
        applied = follower.applied_lsn
        follower.close()
        # Restarted over its own mirror: the cursor survives, and the
        # stream resumes mid-file without re-applying the prefix.
        follower = FollowerEngine(mirror, node="replica")
        assert follower.applied_lsn == applied
        follower.apply_records(records[applied:],
                               leader_lsn=records[-1].lsn)
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()

    def test_torn_mirror_tail_is_truncated(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        mirror = str(tmp_path / "follower.wal")
        records = leader.wal.records_from(1)
        follower = FollowerEngine(mirror, node="replica")
        follower.apply_records(records[:8])
        applied = follower.applied_lsn
        follower.close()
        with open(mirror, "ab") as raw:
            raw.write(b'{"lsn": 9999, "type": "CO')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="torn trailing WAL record"):
            follower = FollowerEngine(mirror, node="replica")
        assert follower.applied_lsn == applied
        registry = follower.db.obs.registry.snapshot()
        assert registry["wal.torn_tail_recoveries"]["value"] == 1
        with open(mirror, "rb") as raw:
            assert raw.read().endswith(b"}\n")   # cut on a line boundary
        # The truncated mirror must accept the stream where it left off.
        follower.apply_records(records[applied:],
                               leader_lsn=records[-1].lsn)
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()


    def test_restart_keeps_open_transaction_buffers(self, tmp_path):
        """A transaction whose DML shipped before the restart and whose
        COMMIT ships after it (a segment boundary inside its block)
        applies whole: the restart's single replay pass hands the
        applier its uncommitted-transaction buffers."""
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=2)
        leader.insert(TABLE, {"k": "spans-the-restart", "v": 7})
        records = leader.wal.records_from(1)
        assert [r.type for r in records[-3:]] == ["BEGIN", "INSERT", "COMMIT"]
        mirror = str(tmp_path / "follower.wal")
        follower = FollowerEngine(mirror, node="replica")
        follower.apply_records(records[:-1])
        assert follower.status()["pending_txns"] == 1
        follower.close()
        follower = FollowerEngine(mirror, node="replica")
        assert follower.status()["pending_txns"] == 1
        follower.apply_records(records[-1:])
        assert follower.status()["pending_txns"] == 0
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()

    def test_truncated_leader_log_ships_from_its_checkpoint(self, tmp_path):
        """History compacted away below a new follower's cursor: the
        segment starts at the newest checkpoint, which carries the full
        state (the applier's mid-stream entry point)."""
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=6)
        leader.wal.truncate_before(leader.checkpoint())
        leader.insert(TABLE, {"k": "after-checkpoint", "v": 1})
        follower = FollowerEngine(node="replica")
        WalTailer(leader.wal, follower).poll()
        assert follower.applied_lsn == leader.wal.durable_lsn
        assert rows(follower.db) == rows(leader)
        leader.close(); follower.close()


class TestPromotion:
    def test_promoted_follower_is_writable(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"))
        follower = FollowerEngine(node="replica")
        WalTailer(leader.wal, follower).poll()
        db = follower.promote()
        assert follower.promoted
        txn = db.begin()
        txn.insert(TABLE, {"k": "after-failover", "v": 1})
        txn.commit()
        assert db.wal.last_lsn() > leader.wal.last_lsn()
        snapshot = db.obs.registry.snapshot()
        assert snapshot["repl.promotions"]["value"] == 1
        leader.close(); follower.close()

    def test_promotion_drops_uncommitted_buffers(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=5)
        # The leader dies with a transaction's block half shipped:
        # BEGIN/DML arrived, the COMMIT never will.
        leader.insert(TABLE, {"k": "never-committed", "v": -1})
        follower = FollowerEngine(node="replica")
        follower.apply_records(leader.wal.records_from(1)[:-1])
        assert follower.status()["pending_txns"] == 1
        db = follower.promote()
        assert follower.status()["pending_txns"] == 0
        assert all(r["k"] != "never-committed" for r in rows(db).values())
        leader.close(); follower.close()

    @pytest.mark.parametrize("compacted", [False, True])
    def test_promotion_under_the_leaders_node_name_mints_fresh_ids(
            self, tmp_path, compacted):
        """A follower that takes over *as* its leader (same node name,
        the CLI default) must not hand out ``node.char:N`` again: the
        first keystroke after failover used to hit a duplicate key.
        Shipped row by row, or all at once in a checkpoint when the
        leader compacted its log first."""
        from repro.collab import CollaborationServer
        from repro.ids import Oid

        leader = CollaborationServer(
            node="tendax", wal_path=str(tmp_path / "leader.wal"))
        leader.register_user("ana")
        typist = leader.connect("ana")
        pad = typist.create_document("pad", text="typed on the leader")
        typist.insert(pad.doc, 5, " (and edited)")
        if compacted:
            leader.db.wal.truncate_before(leader.db.checkpoint())
        follower = FollowerEngine(node="tendax")
        WalTailer(leader.db.wal, follower).poll()

        shipped: dict[str, int] = {}
        for name in follower.db.tables():
            for _, row in follower.db.table(name).committed_items():
                for value in row:
                    if type(value) is Oid:
                        shipped[value.node] = max(
                            shipped.get(value.node, 0), value.seq)
        assert shipped["tendax.char"] >= len(pad.text())

        promoted = CollaborationServer(follower.promote())
        session = promoted.connect("ana")
        fresh = session.create_document("after failover")
        assert fresh.doc.seq > shipped["tendax.doc"]
        assert fresh.begin_char.seq > shipped["tendax.char"]
        resumed = session.open(pad.doc)
        assert resumed.text() == pad.text()
        minted = session.insert_after(pad.doc, resumed.char_oid_at(4), "!")
        assert all(oid.seq > shipped["tendax.char"] for oid in minted)
        assert resumed.text() == "typed! (and edited) on the leader"
        assert resumed.check_integrity() == []
        # Ids of a different namespace never move the allocators.
        assert follower.db.new_oid("char").node == "tendax.char"
        leader.shutdown(); promoted.shutdown()

    def test_promoted_follower_rejects_the_stream(self, tmp_path):
        leader = make_leader(str(tmp_path / "leader.wal"), n_txns=3)
        follower = FollowerEngine(node="replica")
        records = leader.wal.records_from(1)
        follower.apply_records(records)
        first = follower.promote()
        assert follower.promote() is first  # idempotent
        with pytest.raises(ReplicationError):
            follower.apply_records(records)
        leader.close(); follower.close()
