"""Tests for the write-ahead log and crash recovery."""

import pytest

from repro.db import Database, column, recover, recover_file
from repro.db import wal as walmod
from repro.db.wal import WriteAheadLog, committed_txn_ids, decode_value, encode_value
from repro.errors import WalError
from repro.ids import Oid


def make_db(**kwargs) -> Database:
    db = Database("t", **kwargs)
    db.create_table(
        "docs",
        [column("title", "str"), column("size", "int", default=0)],
        key="title",
    )
    db.create_index("docs", "size", kind="ordered")
    return db


class TestWal:
    def test_lsns_are_monotonic(self):
        wal = WriteAheadLog()
        records = [wal.append(walmod.BEGIN, i) for i in range(5)]
        lsns = [r.lsn for r in records]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_unknown_type_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(WalError):
            wal.append("NOT_A_TYPE", 1)

    def test_committed_txn_ids(self):
        wal = WriteAheadLog()
        wal.append(walmod.COMMIT, 1)
        wal.append(walmod.BEGIN, 2)           # as logs once recorded an
        wal.append(walmod.ABORT, 2)           # aborted transaction
        assert committed_txn_ids(wal.records()) == {1}

    def test_truncate_before(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(walmod.COMMIT, i)      # BEGIN + COMMIT
        dropped = wal.truncate_before(7)
        assert dropped == 6
        assert all(r.lsn >= 7 for r in wal.records())

    def test_commit_appends_its_transaction_as_one_block(self):
        wal = WriteAheadLog()
        wal.append(walmod.CREATE_TABLE, 0, table="t")
        commit = wal.append(walmod.COMMIT, 7, dml=[
            (walmod.INSERT, "t", 1, ("k",), ("a",)),
            (walmod.UPDATE, "t", 1, ("k",), ("b",))])
        assert [(r.lsn, r.type, r.txn_id) for r in wal.records()] == [
            (1, "CREATE_TABLE", 0), (2, "BEGIN", 7), (3, "INSERT", 7),
            (4, "UPDATE", 7), (5, "COMMIT", 7)]
        assert commit == list(wal.records())[-1]
        with pytest.raises(WalError):
            wal.append(walmod.INSERT, 7, table="t", rowid=2)

    def test_value_encoding_roundtrip(self):
        values = {
            "oid": Oid("doc", 3),
            "data": b"\x00\xff",
            "nested": [{"k": Oid("c", 1)}, 2, None],
        }
        assert decode_value(encode_value(values)) == values


class TestRecoveryInMemory:
    def test_committed_changes_survive(self):
        db = make_db()
        db.insert("docs", {"title": "a", "size": 10})
        db.insert("docs", {"title": "b", "size": 20})
        recovered = recover(db.wal.records())
        assert recovered.query("docs").count() == 2
        assert recovered.query("docs").where(
            __import__("repro.db", fromlist=["col"]).col("title") == "a"
        ).run()[0]["size"] == 10

    def test_uncommitted_changes_lost(self):
        db = make_db()
        db.insert("docs", {"title": "a"})
        txn = db.begin()
        txn.insert("docs", {"title": "b"})
        # Crash before commit: recover from the log as-is.
        recovered = recover(db.wal.records())
        assert recovered.query("docs").count() == 1

    def test_aborted_changes_lost(self):
        db = make_db()
        txn = db.begin()
        txn.insert("docs", {"title": "x"})
        txn.abort()
        recovered = recover(db.wal.records())
        assert recovered.query("docs").count() == 0

    def test_updates_and_deletes_replayed(self):
        db = make_db()
        rid = db.insert("docs", {"title": "a", "size": 1})
        db.update("docs", rid, {"size": 5})
        rid2 = db.insert("docs", {"title": "b"})
        db.delete("docs", rid2)
        recovered = recover(db.wal.records())
        rows = recovered.query("docs").run()
        assert len(rows) == 1
        assert rows[0]["size"] == 5

    def test_ddl_replayed(self):
        db = make_db()
        recovered = recover(db.wal.records())
        assert recovered.has_table("docs")
        info = recovered.catalog.table_info("docs")
        assert info.key == "title"
        assert "docs_size_ordered" in info.index_names

    def test_drop_table_replayed(self):
        db = make_db()
        db.create_table("tmp", [column("x", "int")])
        db.drop_table("tmp")
        recovered = recover(db.wal.records())
        assert not recovered.has_table("tmp")

    def test_recovered_db_accepts_new_writes(self):
        db = make_db()
        db.insert("docs", {"title": "a"})
        recovered = recover(db.wal.records())
        recovered.insert("docs", {"title": "b"})
        assert recovered.query("docs").count() == 2

    def test_rowids_not_reused_after_recovery(self):
        db = make_db()
        rid = db.insert("docs", {"title": "a"})
        recovered = recover(db.wal.records())
        new_rid = recovered.insert("docs", {"title": "b"})
        assert new_rid != rid


class TestCheckpoint:
    def test_recovery_from_checkpoint(self):
        db = make_db()
        db.insert("docs", {"title": "a", "size": 1})
        lsn = db.checkpoint()
        db.insert("docs", {"title": "b", "size": 2})
        db.wal.truncate_before(lsn)  # pre-checkpoint history gone
        recovered = recover(db.wal.records())
        assert recovered.query("docs").count() == 2

    def test_checkpoint_preserves_indexes(self):
        db = make_db()
        db.insert("docs", {"title": "a", "size": 9})
        lsn = db.checkpoint()
        db.wal.truncate_before(lsn)
        recovered = recover(db.wal.records())
        from repro.db import col
        plan = recovered.query("docs").where(col("size") >= 5).plan()
        assert plan.kind == "index"

    def test_post_checkpoint_delete_replayed(self):
        db = make_db()
        rid = db.insert("docs", {"title": "a"})
        lsn = db.checkpoint()
        db.delete("docs", rid)
        db.wal.truncate_before(lsn)
        recovered = recover(db.wal.records())
        assert recovered.query("docs").count() == 0


    def test_truncation_keeps_a_straddling_transactions_early_writes(self):
        """Regression (ROADMAP 5(ii)): the checkpoint holds none of an
        open transaction's DML, so cutting the in-memory log right at it
        used to lose those writes when the COMMIT arrived later."""
        db = make_db()
        settled = db.insert("docs", {"title": "settled", "size": 1})
        txn = db.begin()
        txn.insert("docs", {"title": "early", "size": 2})
        txn.update("docs", settled, {"size": 10})      # a delta, pre-cut
        lsn = db.checkpoint()
        db.wal.truncate_before(lsn)
        txn.insert("docs", {"title": "late", "size": 3})
        txn.commit()
        recovered = recover(db.wal.records())
        assert sorted((r["title"], r["size"])
                      for r in recovered.query("docs").run()) \
            == [("early", 2), ("late", 3), ("settled", 10)]
        # Nothing of the transaction lay before the cut to be lost: its
        # whole block follows the checkpoint.
        assert [r.type for r in db.wal.records()] == [
            "CHECKPOINT", "BEGIN", "INSERT", "UPDATE", "INSERT", "COMMIT"]
        # Changefeed catch-up reads the same cut: the delta finds its
        # base row in the checkpoint.
        from repro.feed.changefeed import batches_from_records
        (batch,) = batches_from_records(db.wal.records())
        assert [(e.kind, e.row["title"], e.row["size"])
                for e in batch.events] == [
            ("insert", "early", 2), ("update", "settled", 10),
            ("insert", "late", 3)]


class TestFileRecovery:
    def test_crash_and_recover_from_file(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        db.insert("docs", {"title": "a", "size": 7})
        txn = db.begin()
        txn.insert("docs", {"title": "uncommitted"})
        db.close()  # "crash": uncommitted txn never commits

        recovered = recover_file(path)
        rows = recovered.query("docs").run()
        assert [r["title"] for r in rows] == ["a"]

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        db.insert("docs", {"title": "a"})
        db.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"lsn": 999, "type": "INSERT", "txn"')  # torn record
        with pytest.warns(RuntimeWarning, match="torn trailing WAL record"):
            recovered = recover_file(path)
        assert recovered.query("docs").count() == 1


class TestRecoveryErrors:
    def test_unknown_table_reference_raises(self):
        from repro.db import wal as walmod
        from repro.db.wal import WalRecord
        from repro.errors import RecoveryError
        records = [
            WalRecord(1, walmod.BEGIN, 1),
            WalRecord(2, walmod.INSERT, 1, table="ghost", rowid=1),
            WalRecord(3, walmod.COMMIT, 1),
        ]
        with pytest.raises(RecoveryError):
            recover(records)

    def test_delete_on_missing_table_tolerated(self):
        """A DELETE for a table dropped later in history must not crash."""
        from repro.db import wal as walmod
        from repro.db.wal import WalRecord
        records = [
            WalRecord(1, walmod.BEGIN, 1),
            WalRecord(2, walmod.DELETE, 1, table="ghost", rowid=1),
            WalRecord(3, walmod.COMMIT, 1),
        ]
        recovered = recover(records)   # no exception
        assert recovered.tables() == []

    def test_create_index_replay_idempotent(self):
        db = make_db()
        # Replaying records twice (e.g. checkpoint overlap) must not
        # fail on the already-present index.
        records = list(db.wal.records()) + list(db.wal.records())
        recovered = recover(
            [r for r in records if r.type.startswith("CREATE")]
        )
        assert recovered.has_table("docs")


def titles(db) -> dict:
    return {r["title"]: r["size"] for r in db.query("docs").run()}


class TestCheckpointInsideOpenTransaction:
    """A transaction left open across ``db.checkpoint()`` keeps the DML
    it logged before the snapshot: the snapshot holds committed rows
    only, so those records are the sole carrier of the early writes."""

    def crash_and_recover(self, db, path):
        db.close()
        return recover_file(path)

    def test_early_insert_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        txn = db.begin()
        txn.insert("docs", {"title": "k1", "size": 1})
        db.checkpoint()
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k1": 1, "k2": 2}

    def test_early_update_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        rid = db.insert("docs", {"title": "k1", "size": 1})
        txn = db.begin()
        txn.update("docs", rid, {"size": 10})
        db.checkpoint()
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k1": 10, "k2": 2}

    def test_early_delete_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        rid = db.insert("docs", {"title": "k1", "size": 1})
        txn = db.begin()
        txn.delete("docs", rid)
        db.checkpoint()
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k2": 2}

    def test_abort_after_the_checkpoint_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        txn = db.begin()
        txn.insert("docs", {"title": "k1", "size": 1})
        db.checkpoint()
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.abort()
        assert titles(self.crash_and_recover(db, path)) == {}


@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
class TestRestartOnTheSameLog:
    """``recover_file(p, wal_path=p)`` resumes the log it recovered:
    one strictly increasing history, never a second one from LSN 1."""

    def crashed_log(self, tmp_path, faults=None):
        """One committed transaction, one open one holding an
        uncommitted DELETE of the committed row; then process death."""
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path, faults=faults)
        rid = db.insert("docs", {"title": "keep", "size": 1})
        doomed = db.begin()
        doomed.delete("docs", rid)
        return db, path, doomed

    def test_lsns_txn_ids_and_committed_rows_survive(self, tmp_path):
        db, path, doomed = self.crashed_log(tmp_path)
        db.wal.power_off()
        before = WriteAheadLog.load_file(path)

        resumed = recover_file(path, wal_path=path)
        assert resumed.wal.last_lsn() == before[-1].lsn
        for title in ("new-1", "new-2"):
            txn = resumed.begin()
            assert txn.txn_id > max(r.txn_id for r in before)
            txn.insert("docs", {"title": title, "size": 2})
            txn.commit()
        resumed.close()

        lsns = [r.lsn for r in WriteAheadLog.load_file(path)]
        assert lsns == sorted(set(lsns)), "one strictly increasing history"
        # The pre-crash DELETE never committed — and no post-restart
        # transaction may reuse its id and commit it retroactively.
        assert titles(recover_file(path)) == \
            {"keep": 1, "new-1": 2, "new-2": 2}

    def test_torn_tail_is_cut_before_the_first_new_record(self, tmp_path):
        from repro.errors import CrashSignal
        from repro.faults import FaultInjector, FaultPlan

        faults = FaultInjector(FaultPlan.crash_once("wal.mid_record"),
                               armed=False)
        db, path, doomed = self.crashed_log(tmp_path, faults)
        faults.arm()
        with pytest.raises(CrashSignal):
            db.insert("docs", {"title": "torn", "size": 9})

        resumed = recover_file(path, wal_path=path)
        snapshot = resumed.obs.registry.snapshot()
        assert snapshot["wal.torn_tail_recoveries"]["value"] == 1
        resumed.insert("docs", {"title": "after", "size": 3})
        resumed.close()

        # Nothing torn is left behind and nothing fused with the debris.
        torn = []
        WriteAheadLog.load_file(path, on_torn=lambda: torn.append(1))
        assert not torn
        assert titles(recover_file(path)) == {"keep": 1, "after": 3}

    def test_object_ids_are_not_reissued(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database("t", wal_path=path)
        db.create_table("things", [column("oid", "oid")], key="oid")
        issued = [db.new_oid("thing") for _ in range(3)]
        for oid in issued:
            db.insert("things", {"oid": oid})
        db.wal.power_off()
        resumed = recover_file(path, node="t", wal_path=path)
        assert resumed.new_oid("thing") > max(issued)
