"""Tests for the write-ahead log and crash recovery."""

import json
import os
import shutil
import sys
import threading
import warnings

import pytest

from repro.db import Database, col, column, recover, recover_file
from repro.db import wal as walmod
from repro.db.recovery import restart
from repro.db.wal import (WriteAheadLog, committed_txn_ids,
                          encode_value, untag)
from repro.errors import SchemaError, UnknownTableError, WalError
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


@pytest.fixture
def db(tmp_path) -> Database:
    """:func:`make_db` on a log file."""
    return make_db(wal_path=str(tmp_path / "wal.jsonl"))


def logged(db: Database, from_lsn: int = 1) -> list:
    """The records ``db``'s log file holds from ``from_lsn`` on."""
    return [r for r in WriteAheadLog.load_file(db.wal.path)
            if r.lsn >= from_lsn]


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

    def test_committed_txn_ids(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(walmod.COMMIT, 1)
        wal.append(walmod.BEGIN, 2)           # as logs once recorded an
        wal.append(walmod.ABORT, 2)           # aborted transaction
        assert committed_txn_ids(WriteAheadLog.load_file(path)) == {1}

    def test_commit_appends_its_transaction_as_one_block(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(walmod.CREATE_TABLE, 0, table="t")
        commit = wal.append(walmod.COMMIT, 7, dml=[
            (walmod.INSERT, "t", 1, ("k",), ("a",)),
            (walmod.UPDATE, "t", 1, ("k",), ("b",))])
        records = WriteAheadLog.load_file(path)
        assert [(r.lsn, r.type, r.txn_id) for r in records] == [
            (1, "CREATE_TABLE", 0), (2, "BEGIN", 7), (3, "INSERT", 7),
            (4, "UPDATE", 7), (5, "COMMIT", 7)]
        assert commit == records[-1]
        with pytest.raises(WalError):
            wal.append(walmod.INSERT, 7, table="t", rowid=2)

    def test_value_encoding_roundtrip(self):
        values = {
            "oid": Oid("doc", 3),
            "data": b"\x00\xff",
            "nested": [{"k": Oid("c", 1)}, 2, None],
        }
        text = json.dumps(encode_value(values))
        assert json.loads(text, object_hook=untag) == values


class TestRecoveryInMemory:
    def test_committed_changes_survive(self, db):
        db.insert("docs", {"title": "a", "size": 10})
        db.insert("docs", {"title": "b", "size": 20})
        recovered = recover(logged(db))
        assert recovered.query("docs").count() == 2
        assert recovered.query("docs").where(
            __import__("repro.db", fromlist=["col"]).col("title") == "a"
        ).run()[0]["size"] == 10

    def test_uncommitted_changes_lost(self, db):
        db.insert("docs", {"title": "a"})
        txn = db.begin()
        txn.insert("docs", {"title": "b"})
        # Crash before commit: recover from the log as-is.
        recovered = recover(logged(db))
        assert recovered.query("docs").count() == 1

    def test_aborted_changes_lost(self, db):
        txn = db.begin()
        txn.insert("docs", {"title": "x"})
        txn.abort()
        recovered = recover(logged(db))
        assert recovered.query("docs").count() == 0

    def test_updates_and_deletes_replayed(self, db):
        rid = db.insert("docs", {"title": "a", "size": 1})
        db.update("docs", rid, {"size": 5})
        rid2 = db.insert("docs", {"title": "b"})
        db.delete("docs", rid2)
        recovered = recover(logged(db))
        rows = recovered.query("docs").run()
        assert len(rows) == 1
        assert rows[0]["size"] == 5

    def test_ddl_replayed(self, db):
        recovered = recover(logged(db))
        assert recovered.has_table("docs")
        info = recovered.catalog.table_info("docs")
        assert info.key == "title"
        assert "docs_size_ordered" in info.index_names

    def test_drop_table_replayed(self, db):
        db.create_table("tmp", [column("x", "int")])
        db.drop_table("tmp")
        recovered = recover(logged(db))
        assert not recovered.has_table("tmp")

    def test_recovered_db_accepts_new_writes(self, db):
        db.insert("docs", {"title": "a"})
        recovered = recover(logged(db))
        recovered.insert("docs", {"title": "b"})
        assert recovered.query("docs").count() == 2

    def test_rowids_not_reused_after_recovery(self, db):
        rid = db.insert("docs", {"title": "a"})
        recovered = recover(logged(db))
        new_rid = recovered.insert("docs", {"title": "b"})
        assert new_rid != rid


#: A log written by the engine of commit 0216407, the last that took
#: checkpoints: two CHECKPOINT records (full table snapshots) lie in it,
#: the first still holding a table the log drops after it.
CHECKPOINT_LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "wal_checkpoint_v3.log")


class TestDropTableAgainstAnOpenTransaction:
    """Regression: a table dropped under an open transaction's staged
    rows used to let that transaction's COMMIT block reach the log after
    the DROP_TABLE; the apply then failed half way (the transaction
    stuck ACTIVE with its locks) and recovery refused the log."""

    def two_tables(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database("t", wal_path=path)
        for name in ("t", "u"):
            db.create_table(name, [column("k", "str")], key="k")
        return db, path

    @staticmethod
    def rows(db) -> dict:
        return {name: sorted(r["k"] for r in db.query(name).run())
                for name in db.tables()}

    def test_the_drop_is_refused_and_the_commit_recovers(self, tmp_path):
        db, path = self.two_tables(tmp_path)
        txn = db.begin()
        txn.insert("t", {"k": "a"})
        txn.insert("u", {"k": "b"})
        with pytest.raises(SchemaError, match="uncommitted changes"):
            db.drop_table("t")
        txn.commit()
        assert self.rows(db) == {"t": ["a"], "u": ["b"]}
        assert self.rows(recover_file(path)) == self.rows(db)
        db.drop_table("t")                  # nothing staged any more
        db.close()
        assert self.rows(recover_file(path)) == {"u": ["b"]}

    def test_staging_into_a_dropped_table_raises(self, tmp_path):
        """A transaction that looked the table up before the drop cannot
        stage into it after: nothing naming it reaches the log."""
        db, path = self.two_tables(tmp_path)
        table = db.table("t")
        db.drop_table("t")
        txn = db.begin()
        with pytest.raises(UnknownTableError):
            table.stage_insert(txn.txn_id, {"k": "a"})
        txn.insert("u", {"k": "b"})
        txn.commit()
        db.close()
        assert self.rows(recover_file(path)) == {"u": ["b"]}


class TestLogsHoldingCheckpoints:
    """Replay passes over a CHECKPOINT record: the records around it
    rebuild the same rows from LSN 1."""

    def test_every_committed_row_is_recovered(self):
        recovered = recover_file(CHECKPOINT_LOG)
        assert recovered.tables() == ["d", "notes"]
        assert {r["k"]: (r["v"], r["tag"], r["ref"], r["blob"], r["props"])
                for r in recovered.query("d").run()} == {
            "a": (1, None, Oid("v3.doc", 1), None, None),
            "b": (20, "untagged", Oid("v3.char", 1), b"\x00\xff", None),
            "e": (50, "untagged", None, None, {"after": True}),
        }
        assert sorted(r["body"] for r in recovered.query("notes").run()) \
            == ["first", "second"]

    def test_indexes_come_from_the_logged_ddl(self):
        recovered = recover_file(CHECKPOINT_LOG)
        query = recovered.query("d").where(col("v") >= 5)
        assert query.plan().kind == "index"
        assert sorted(r["k"] for r in query.run()) == ["b", "e"]

    def test_deletes_and_drops_after_a_checkpoint_are_replayed(self):
        records = WriteAheadLog.load_file(CHECKPOINT_LOG)
        first = next(r for r in records if r.type == "CHECKPOINT")
        assert "tmp" in first.payload["tables"]
        recovered = recover_file(CHECKPOINT_LOG)
        assert recovered.find("d", "k", "c") is None
        assert not recovered.has_table("tmp")

    def test_a_restart_extends_the_log_past_its_ids(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        shutil.copyfile(CHECKPOINT_LOG, path)
        last = WriteAheadLog.load_file(path)[-1]
        resumed = restart(path, node="v3")[0]
        txn = resumed.begin()
        assert txn.txn_id > last.txn_id
        note = resumed.new_oid("note")
        assert note > Oid("v3.note", 2)
        txn.insert("notes", {"note": note, "body": "third"})
        txn.commit()
        resumed.close()
        records = WriteAheadLog.load_file(path)
        assert records[-3].lsn == last.lsn + 1      # the new BEGIN
        assert sorted(r["body"] for r in
                      recover_file(path).query("notes").run()) \
            == ["first", "second", "third"]


class TestConcurrentCommits:
    def test_a_commit_parked_before_its_apply_is_already_durable(
            self, tmp_path):
        """A commit parked between its COMMIT record and its apply: a
        snapshot taken meanwhile does not see it, recovery of the file
        already does, and once the apply finishes the live database and
        recovery agree."""
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        db.insert("docs", {"title": "a", "size": 1})
        parked, release = threading.Event(), threading.Event()
        raise_floor = db.raise_commit_floor

        def park_after_commit_record(txn_id, commit_lsn):
            raise_floor(txn_id, commit_lsn)
            parked.set()
            release.wait(10.0)

        db.raise_commit_floor = park_after_commit_record
        writer = threading.Thread(
            target=db.insert, args=("docs", {"title": "b", "size": 2}))
        writer.start()
        assert parked.wait(10.0)
        with db.snapshot() as snap:
            assert sorted(r["title"] for r in snap.query("docs").run()) \
                == ["a"]
        assert sorted(titles(recover_file(path))) == ["a", "b"]
        release.set()
        writer.join(10.0)
        assert not writer.is_alive()
        assert sorted(titles(db)) == ["a", "b"]
        db.close()
        assert sorted(titles(recover_file(path))) == ["a", "b"]

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """More writer threads than cores commit under a short switch
        interval while a reader keeps opening snapshots: nothing
        deadlocks, no snapshot sees fewer rows than one before it, and
        the recovered log holds every row the live database
        acknowledged."""
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        writers, rows, errors = 6, 40, []
        done = threading.Event()

        def write(w):
            try:
                for i in range(rows):
                    db.insert("docs", {"title": f"w{w}-{i}", "size": i})
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def read():
            seen = 0
            while not done.is_set():
                with db.snapshot() as snap:
                    count = snap.query("docs").count()
                if count < seen:  # pragma: no cover - diagnostic
                    errors.append(AssertionError(f"{count} < {seen}"))
                seen = count

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            done.set()
            reader.join(30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [reader])
        assert errors == []
        live = titles(db)
        assert len(live) == writers * rows
        db.close()
        assert titles(recover_file(path)) == live

    def test_a_transaction_open_across_ddl_is_logged_after_it(self, db):
        """A transaction is logged whole at COMMIT: DDL logged while it
        was open lies before all of its records, early ones included."""
        settled = db.insert("docs", {"title": "settled", "size": 1})
        txn = db.begin()
        txn.insert("docs", {"title": "early", "size": 2})
        txn.update("docs", settled, {"size": 10})      # a delta, pre-DDL
        db.create_index("docs", "title", kind="ordered")
        lsn = db.wal.last_lsn()
        txn.insert("docs", {"title": "late", "size": 3})
        txn.commit()
        recovered = recover(logged(db))
        assert sorted((r["title"], r["size"])
                      for r in recovered.query("docs").run()) \
            == [("early", 2), ("late", 3), ("settled", 10)]
        assert [r.type for r in logged(db, lsn)] == [
            "CREATE_INDEX", "BEGIN", "INSERT", "UPDATE", "INSERT", "COMMIT"]


class TestNullSurvivesRestore:
    """Regression (ROADMAP 6(iii)): a nullable column that declares a
    default reads back NULL, not its default, after recovery loads a
    whole row image — a logged INSERT or a full-image UPDATE."""

    def make_db(self, **kwargs) -> Database:
        db = Database("n", **kwargs)
        db.create_table("notes", [
            column("k", "str"),
            column("tag", "str", nullable=True, default="untagged"),
        ], key="k")
        return db

    def tag(self, db):
        return db.query("notes").first()["tag"]

    def test_null_in_a_log_holding_checkpoints_keeps_null(self):
        row = recover_file(CHECKPOINT_LOG).find("d", "k", "a")
        assert row["tag"] is None

    def test_null_survives_a_restart_on_the_file(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = self.make_db(wal_path=path)
        rid = db.insert("notes", {"k": "a", "tag": "x"})
        db.update("notes", rid, {"tag": None})
        assert self.tag(db) is None
        db.close()
        resumed = restart(path)[0]
        assert self.tag(resumed) is None
        resumed.insert("notes", {"k": "b", "tag": None})
        resumed.close()
        recovered = recover_file(path)
        assert [(r["k"], r["tag"]) for r in recovered.query("notes").run()] \
            == [("a", None), ("b", "untagged")]

    def test_full_image_update_without_base_keeps_null(self, tmp_path):
        db = self.make_db(wal_path=str(tmp_path / "wal.jsonl"))
        records = logged(db)
        lsn = records[-1].lsn
        records += [
            walmod.WalRecord(lsn + 1, walmod.BEGIN, 9),
            walmod.WalRecord(lsn + 2, walmod.UPDATE, 9, table="notes",
                             rowid=1, cols=("k", "tag"), vals=("a", None)),
            walmod.WalRecord(lsn + 3, walmod.COMMIT, 9),
        ]
        assert self.tag(recover(records)) is None

    def test_an_inserted_default_is_still_the_default(self, tmp_path):
        db = self.make_db(wal_path=str(tmp_path / "wal.jsonl"))
        db.insert("notes", {"k": "a", "tag": None})
        assert self.tag(db) == "untagged"
        assert self.tag(recover(logged(db))) == "untagged"

    def test_an_image_missing_a_column_is_refused(self):
        schema = self.make_db().table("notes").schema
        assert schema.load_row({"tag": None, "k": "a"}) == ("a", None)
        with pytest.raises(SchemaError, match=r"lacks columns \['tag'\]"):
            schema.load_row({"k": "a"})


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

    def test_create_index_replay_idempotent(self, db):
        # Replaying records twice (a log fed twice) must not
        # fail on the already-present index.
        records = logged(db) + logged(db)
        recovered = recover(
            [r for r in records if r.type.startswith("CREATE")]
        )
        assert recovered.has_table("docs")


def titles(db) -> dict:
    return {r["title"]: r["size"] for r in db.query("docs").run()}


class TestDdlInsideOpenTransaction:
    """A transaction left open while DDL is logged keeps the writes it
    staged before it: the DDL record lands before the transaction's
    whole block, never inside it."""

    def crash_and_recover(self, db, path):
        db.close()
        return recover_file(path)

    @staticmethod
    def ddl(db):
        db.create_table("other", [column("x", "int")])

    def test_early_insert_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        txn = db.begin()
        txn.insert("docs", {"title": "k1", "size": 1})
        self.ddl(db)
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k1": 1, "k2": 2}

    def test_early_update_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        rid = db.insert("docs", {"title": "k1", "size": 1})
        txn = db.begin()
        txn.update("docs", rid, {"size": 10})
        self.ddl(db)
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k1": 10, "k2": 2}

    def test_early_delete_survives(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        rid = db.insert("docs", {"title": "k1", "size": 1})
        txn = db.begin()
        txn.delete("docs", rid)
        self.ddl(db)
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.commit()
        assert titles(self.crash_and_recover(db, path)) == {"k2": 2}

    def test_abort_after_the_ddl_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = make_db(wal_path=path)
        txn = db.begin()
        txn.insert("docs", {"title": "k1", "size": 1})
        self.ddl(db)
        txn.insert("docs", {"title": "k2", "size": 2})
        txn.abort()
        assert titles(self.crash_and_recover(db, path)) == {}


@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
class TestRestartOnTheSameLog:
    """``restart(p)`` resumes the log it recovered: one strictly
    increasing history, never a second one from LSN 1."""

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

        resumed = restart(path)[0]
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

        resumed = restart(path)[0]
        snapshot = resumed.obs.registry.snapshot()
        assert snapshot["wal.torn_tail_recoveries"]["value"] == 1
        resumed.insert("docs", {"title": "after", "size": 3})
        resumed.close()

        # Nothing torn is left behind and nothing fused with the debris.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            WriteAheadLog.load_file(path)
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert titles(recover_file(path)) == {"keep": 1, "after": 3}

    def test_object_ids_are_not_reissued(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database("t", wal_path=path)
        db.create_table("things", [column("oid", "oid")], key="oid")
        issued = [db.new_oid("thing") for _ in range(3)]
        for oid in issued:
            db.insert("things", {"oid": oid})
        db.wal.power_off()
        resumed = restart(path, node="t")[0]
        assert resumed.new_oid("thing") > max(issued)
