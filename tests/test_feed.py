"""Changefeed lifecycle tests: dispatch order, before-images, the
restart contract (derived data rebuilt from the recovered tables after
a crash), the maintenance worker and the staleness it reports."""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.db import Database, column, recover_file
from repro.errors import CrashSignal
from repro.faults import FaultInjector, FaultPlan
from repro.feed import MaintenanceWorker
from repro.feed.changefeed import NOTICE_CONSUMERS
from repro.folders import DynamicFolderManager, StateIs
from repro.search import InvertedIndex
from repro.text import DocumentStore


def make_db() -> Database:
    db = Database("feedtest")
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db


class TestDispatch:
    def test_one_batch_per_commit_with_before_images(self):
        db = make_db()
        batches = []
        db.changefeed().subscribe("probe", batches.append, tables=("kv",))
        rowid = db.insert("kv", {"k": "a", "v": 1})
        db.update("kv", rowid, {"v": 2})
        db.delete("kv", rowid)
        kinds = [e.kind for b in batches for e in b.events]
        assert kinds == ["insert", "update", "delete"]
        insert, update, delete = [b.events[0] for b in batches]
        assert insert.before is None and insert.row["v"] == 1
        assert update.before["v"] == 1 and update.row["v"] == 2
        assert delete.row is None and delete.before["v"] == 2
        assert [b.seq for b in batches] == sorted(b.seq for b in batches)
        assert all(b.lsn > 0 for b in batches)

    def test_table_filter_auto_acks_nonmatching_batches(self):
        db = make_db()
        db.create_table("other", [column("x", "int")])
        seen = []
        sub = db.changefeed().subscribe("probe", seen.append,
                                        tables=("other",))
        db.insert("kv", {"k": "a", "v": 1})
        assert seen == []
        assert sub.lag == 0  # advanced past the batch without a handler call

    def test_deferred_consumer_lags_until_acked(self):
        db = make_db()
        seen = []
        sub = db.changefeed().subscribe("probe", seen.append,
                                        tables=("kv",), deferred=True)
        db.insert("kv", {"k": "a", "v": 1})
        assert len(seen) == 1 and sub.lag == 1
        # The lag is published where a running node's scrape reads it.
        (probe,) = db.changefeed().status()["consumers"]
        assert (probe["name"], probe["deferred"], probe["lag"]) \
            == ("probe", True, 1)
        assert db.metrics_snapshot()["feed.lag{consumer=probe}"]["value"] \
            == 1
        sub.ack(seen[-1].seq)
        assert sub.lag == 0
        assert db.changefeed().status()["consumers"][0]["lag"] == 0

    def test_close_unsubscribes_and_is_idempotent(self):
        db = make_db()
        seen = []
        sub = db.changefeed().subscribe("probe", seen.append, tables=("kv",))
        db.insert("kv", {"k": "a", "v": 1})
        sub.close()
        sub.close()
        db.insert("kv", {"k": "b", "v": 2})
        assert len(seen) == 1
        assert sub not in db.changefeed().subscriptions()
        assert db.changefeed().max_lag() == 0

    def test_duplicate_consumer_names_are_deduped(self):
        db = make_db()
        first = db.changefeed().subscribe("probe", lambda b: None)
        second = db.changefeed().subscribe("probe", lambda b: None)
        assert first.name == "probe"
        assert second.name == "probe-2"

    def test_failing_consumer_is_isolated(self):
        db = make_db()
        seen = []

        def explode(batch):
            raise RuntimeError("boom")

        db.changefeed().subscribe("bad", explode, tables=("kv",))
        db.changefeed().subscribe("good", seen.append, tables=("kv",))
        rowid = db.insert("kv", {"k": "a", "v": 1})  # must not raise
        assert db.get("kv", rowid)["v"] == 1  # commit fully applied
        assert len(seen) == 1  # the good consumer still ran
        name, exc = db.changefeed().errors[-1]
        assert name == "bad" and isinstance(exc, RuntimeError)
        assert db.metrics_snapshot()["feed.consumer_errors"]["value"] == 1

    def test_error_list_is_bounded(self):
        db = make_db()

        def explode(batch):
            raise ValueError("x")

        db.changefeed().subscribe("bad", explode, tables=("kv",))
        for i in range(120):
            db.insert("kv", {"k": f"k{i}", "v": i})
        assert len(db.changefeed().errors) == 100
        assert db.metrics_snapshot()["feed.consumer_errors"]["value"] == 120

    def test_mixed_commit_is_filtered_per_consumer(self):
        db = make_db()
        db.create_table("other", [column("x", "int")])
        only_kv, everything = [], []
        db.changefeed().subscribe("kv-only", only_kv.append, tables=("kv",))
        db.changefeed().subscribe("all-tables", everything.append)
        with db.transaction() as txn:
            txn.insert("kv", {"k": "a", "v": 1})
            txn.insert("other", {"x": 2})
        assert [[e.table for e in b.events] for b in only_kv] == [["kv"]]
        assert [[e.table for e in b.events] for b in everything] == \
            [["kv", "other"]]
        assert only_kv[0].seq == everything[0].seq

    def test_nothing_is_delivered_on_abort(self):
        db = make_db()
        seen = []
        db.changefeed().subscribe("probe", seen.append)
        txn = db.begin()
        txn.insert("kv", {"k": "a", "v": 1})
        txn.abort()
        assert seen == [] and db.changefeed().last_seq == 0
        assert db.stats["aborts"] == 1

    def test_consumer_may_commit_its_own_transaction(self):
        db = make_db()
        db.create_table("echo", [column("v", "int")])
        order = []

        def echo(batch):
            db.insert("echo", {"v": batch.events[0].row["v"]})

        db.changefeed().subscribe("echo", echo, tables=("kv",))
        db.changefeed().subscribe(
            "probe", lambda b: order.append([e.table for e in b.events]))
        db.insert("kv", {"k": "a", "v": 42})
        assert db.query("echo").run()[0]["v"] == 42
        # The nested commit is published inline, inside the outer dispatch.
        assert order == [["echo"], ["kv"]]
        assert db.changefeed().errors == []

    def test_subscriptions_changed_during_dispatch(self):
        db = make_db()
        feed = db.changefeed()
        seen = []

        def first(batch):
            seen.append("first")
            second.close()
            feed.subscribe("late", lambda b: seen.append("late"))

        feed.subscribe("first", first)
        second = feed.subscribe("second", lambda b: seen.append("second"))
        db.insert("kv", {"k": "a", "v": 1})
        # A consumer closed mid-dispatch is skipped; one added
        # mid-dispatch starts with the next batch.
        assert seen == ["first"]
        db.insert("kv", {"k": "b", "v": 2})
        assert seen == ["first", "first", "late"]

    def test_notice_consumers_are_handed_a_batch_last(self):
        db = make_db()
        feed = db.changefeed()
        order = []
        # One fan-out serves every transport; any other name is an
        # ordinary consumer, dispatched in subscription order.
        assert NOTICE_CONSUMERS == ("collab-fanout",)
        for name in ("early", "collab-fanout", "net-fanout", "late",
                     "collab-fanout"):
            feed.subscribe(name, lambda b, name=name: order.append(name))
        db.insert("kv", {"k": "a", "v": 1})
        assert order == ["early", "net-fanout", "late", "collab-fanout",
                         "collab-fanout"]
        # ... and fail like any consumer: recorded by name, isolated.
        def explode(batch):
            raise RuntimeError("fan-out bug")

        feed.subscribe("collab-fanout", explode)
        db.insert("kv", {"k": "b", "v": 2})
        assert feed.errors[-1][0] == "collab-fanout-3"


class TestRestartContract:
    """The feed is live only: after a crash, derived data is whatever a
    consumer rebuilds from the recovered tables.  Wherever the process
    died — mid-dispatch with a batch half handed out, after the commit
    point, before the group fsync — a fresh index, folder manager and
    handle over the recovered engine are clean, agree with a full
    rebuild, hold every committed word and keep up with the next
    commits."""

    @staticmethod
    def steps(store, pad):
        """One committed transaction each: ``(word it adds, word it
        removes, action)``."""
        memo = []
        return [
            ("bravo", None, lambda: pad.insert_text(5, " bravo", "ana")),
            (None, None, lambda: store.set_state(pad.doc, "final", "ana")),
            ("charlie", None, lambda: memo.append(store.import_archived(
                "memo", "ben", text="charlie"))),
            ("delta", None, lambda: pad.insert_text(0, "delta ", "ana")),
            (None, "charlie",
             lambda: store.delete_document(memo[0], "ben")),
            ("echo", None, lambda: pad.insert_text(0, "echo ", "ana")),
        ]

    # Where the process dies, and whether the transaction it was in
    # survives: past its commit point it does; a power loss before the
    # group fsync takes it along.
    @pytest.mark.parametrize("point, hit, survives", [
        ("feed.mid_dispatch", 1, True), ("feed.mid_dispatch", 2, True),
        ("feed.mid_dispatch", 3, True), ("feed.mid_dispatch", 4, True),
        ("txn.post_commit", 5, True), ("wal.before_fsync", 6, False)])
    def test_consumers_rebuilt_over_the_recovered_tables(
            self, tmp_path, point, hit, survives):
        path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(FaultPlan.crash_once(point, hit=hit,
                                                    power_loss=True),
                               armed=False)
        db = Database("restart", wal_path=path, faults=faults)
        store = DocumentStore(db)
        pad = store.create("pad", "ana", text="alpha")
        InvertedIndex(db)
        DynamicFolderManager(db).create_folder("finals", StateIs("final"))
        faults.arm()
        committed = []
        with pytest.raises(CrashSignal):
            for step in self.steps(store, pad):
                committed.append(step)
                step[2]()
        if not survives:
            committed.pop()
        gone = {removed for _, removed, _ in committed} - {None}
        present = {"alpha", *(added for added, _, _ in committed)} \
            - gone - {None}

        recovered = recover_file(path)
        handle = DocumentStore(recovered).handle(pad.doc)
        index = InvertedIndex(recovered)
        finals = DynamicFolderManager(recovered).create_folder(
            "finals", StateIs("final"))
        assert handle.check_integrity() == []
        assert index.check() == []
        for word in present:
            assert index.postings(word), word
        for word in gone:
            assert not index.postings(word), word
        assert {"alpha", "bravo", "delta", "echo"} & present \
            <= set(handle.text().split())
        # ... and they follow the live feed from there on.
        handle.insert_text(0, "golf ", "ana")
        DocumentStore(recovered).set_state(pad.doc, "final", "ana")
        index.ensure_fresh()
        members = finals.contents()
        finals.revalidate()
        assert members == finals.contents() == [pad.doc]
        assert index.check() == [] and index.postings("golf")
        assert handle.check_integrity() == []


class TestMaintenanceWorker:
    def test_worker_drains_the_index(self, tmp_path):
        db = Database("feedtest", wal_path=str(tmp_path / "wal.jsonl"))
        store = DocumentStore(db)
        index = InvertedIndex(db)
        worker = MaintenanceWorker(db)
        worker.register("search-index", index.ensure_fresh)
        handle = store.create("doc", "ana", text="alpha beta")
        handle.insert_text(10, " gamma", "ana")
        assert index.subscription.lag > 0
        rounds = worker.drain()
        assert rounds >= 1
        assert db.changefeed().max_lag() == 0
        assert len(index.postings("gamma")) == 1
        handle.close()
        index.close()

    def test_run_once_isolates_failing_tasks(self):
        db = make_db()
        worker = MaintenanceWorker(db)
        ticks = []

        def bad():
            raise RuntimeError("task boom")

        worker.register("bad", bad)
        worker.register("good", lambda: ticks.append(1))
        result = worker.run_once()
        assert ticks == [1]
        assert worker.errors[-1][0] == "bad"
        assert isinstance(result["bad"], RuntimeError)


class TestStaleness:
    def test_one_observation_per_advancing_ack(self):
        """``feed.staleness_seconds`` observes, per ack of a deferred
        consumer that moves it, how long ago the newest batch it covers
        was committed."""
        clock = SimulatedClock(tick=0.0)
        db = Database("stale", clock=clock)
        store = DocumentStore(db)
        index = InvertedIndex(db)
        worker = MaintenanceWorker(db)
        worker.register("search-index", index.ensure_fresh)

        def staleness() -> tuple:
            metric = db.metrics_snapshot()["feed.staleness_seconds"]
            return metric.get("count", 0), metric.get("sum", 0.0)

        assert staleness() == (0, 0.0)
        store.import_archived("memo", "ana", text="alpha beta")
        clock.advance(2.5)
        assert staleness() == (0, 0.0)      # recorded, not yet absorbed
        worker.run_once()
        assert staleness() == (1, 2.5)
        worker.run_once()                   # nothing new: no ack moves
        assert staleness() == (1, 2.5)
        store.import_archived("note", "ana", text="gamma")
        clock.advance(1.0)
        store.import_archived("list", "ana", text="delta")
        clock.advance(0.5)
        worker.run_once()                   # one ack covers both
        assert staleness() == (2, 3.0)
