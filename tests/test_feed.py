"""Changefeed lifecycle tests: dispatch order, before-images, cursor
checkpoints, WAL catch-up after a restart, and exactly-once delivery
under seeded crash schedules."""

from __future__ import annotations

import pytest

from repro.db import Database, column, recover_file
from repro.db.wal import WriteAheadLog
from repro.errors import CrashSignal, FeedGapError
from repro.faults import FaultInjector, FaultPlan
from repro.feed import MaintenanceWorker
from repro.feed.changefeed import NOTICE_CONSUMERS
from repro.search import InvertedIndex
from repro.text import DocumentStore


def make_db(tmp_path=None, plan: FaultPlan | None = None) -> Database:
    kwargs = {}
    if tmp_path is not None:
        kwargs["wal_path"] = str(tmp_path / "wal.jsonl")
    if plan is not None:
        kwargs["faults"] = FaultInjector(plan)
    db = Database("feedtest", **kwargs)
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db


def kv_state(batches) -> dict:
    """Fold kv batches into the derived key -> value map."""
    state: dict = {}
    for batch in batches:
        for event in batch.events:
            if event.table != "kv":
                continue
            if event.kind == "delete":
                state.pop(event.before["k"], None)
            else:
                state[event.row["k"]] = event.row["v"]
    return state


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
        sub.ack(seen[-1].seq)
        assert sub.lag == 0

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


class TestRetention:
    def test_batches_since_resumes_within_the_window(self):
        db = make_db()
        sub = db.changefeed().subscribe("probe", lambda b: None,
                                        tables=("kv",), deferred=True)
        for i in range(5):
            db.insert("kv", {"k": f"k{i}", "v": i})
        missed = db.changefeed().batches_since(sub.acked_seq)
        assert [e.row["k"] for b in missed for e in b.events] == \
            [f"k{i}" for i in range(5)]

    def test_fallen_off_the_window_raises_gap_error(self):
        db = make_db()
        feed = db.changefeed(retention=3)
        for i in range(6):
            db.insert("kv", {"k": f"k{i}", "v": i})
        with pytest.raises(FeedGapError):
            feed.batches_since(0)


class TestCursorRestart:
    def test_cursor_resume_after_restart(self, tmp_path):
        db = make_db(tmp_path)
        path = db.wal.path
        applied = []

        def apply(batch):
            applied.append(batch)
            sub.ack(batch.seq)

        feed = db.changefeed()
        sub = feed.subscribe("replayer", apply, tables=("kv",),
                             deferred=True)
        db.insert("kv", {"k": "a", "v": 1})
        db.insert("kv", {"k": "b", "v": 2})
        feed.checkpoint(sub)
        # Committed after the checkpoint: durable, but the consumer's
        # derived state never absorbed them before the "crash".
        db.insert("kv", {"k": "c", "v": 3})
        db.insert("kv", {"k": "d", "v": 4})

        history = WriteAheadLog.load_file(path)
        recovered = recover_file(path)
        # Recovery itself leaves the LSN allocator past the replayed
        # history; catch-up only reads.
        assert recovered.wal.last_lsn() == history[-1].lsn
        replayed = []
        delivered = recovered.changefeed().catch_up(
            "replayer", replayed.append, history, tables=("kv",))
        assert recovered.wal.last_lsn() == history[-1].lsn
        assert delivered == 2
        assert [e.row["k"] for b in replayed for e in b.events] == ["c", "d"]
        assert all(b.seq == 0 for b in replayed)  # off the live seq axis
        # Post-restart commits stay monotonic on the LSN axis.
        high_water = max(b.lsn for b in replayed)
        recovered.insert("kv", {"k": "e", "v": 5})
        assert recovered.changefeed().last_lsn > high_water

    def test_catch_up_without_cursor_replays_everything(self, tmp_path):
        db = make_db(tmp_path)
        path = db.wal.path
        db.insert("kv", {"k": "a", "v": 1})
        rowid = db.insert("kv", {"k": "b", "v": 2})
        db.delete("kv", rowid)

        recovered = recover_file(path)
        replayed = []
        delivered = recovered.changefeed().catch_up(
            "fresh-consumer", replayed.append, WriteAheadLog.load_file(path),
            tables=("kv",))
        assert delivered == 3
        assert kv_state(replayed) == {"a": 1}
        # The replayed delete carries its before-image from the WAL.
        delete = replayed[-1].events[0]
        assert delete.kind == "delete" and delete.before["k"] == "b"


class TestExactlyOnce:
    @pytest.mark.parametrize("hit", [1, 2, 3, 4])
    def test_crash_mid_dispatch_redelivers_exactly_the_unabsorbed(
            self, tmp_path, hit):
        """Each committed batch is absorbed exactly once overall.

        The consumer applies a batch, acks it and checkpoints its
        cursor; ``feed.mid_dispatch`` kills the process before the
        ``hit``-th delivery.  After recovery, WAL catch-up from the
        checkpointed cursor must redeliver exactly the committed batches
        the consumer never absorbed — no loss, no double-apply."""
        plan = FaultPlan.crash_once("feed.mid_dispatch", hit=hit)
        db = make_db(tmp_path, plan)
        path = db.wal.path
        feed = db.changefeed()
        absorbed = []

        def apply(batch):
            absorbed.append(batch)
            sub.ack(batch.seq)
            feed.checkpoint(sub)

        sub = feed.subscribe("applier", apply, tables=("kv",),
                             deferred=True)
        keys = ["a", "b", "c", "d"]
        committed = []
        crashed = False
        for i, key in enumerate(keys):
            try:
                db.insert("kv", {"k": key, "v": i})
                committed.append(key)
            except CrashSignal:
                # The publish runs post-commit: the batch is durable
                # even though its dispatch died halfway.
                committed.append(key)
                crashed = True
                break
        assert crashed and len(absorbed) == hit - 1

        recovered = recover_file(path)
        replayed = []
        recovered.changefeed().catch_up(
            "applier", replayed.append, WriteAheadLog.load_file(path),
            tables=("kv",))
        absorbed_keys = [e.row["k"] for b in absorbed for e in b.events]
        replayed_keys = [e.row["k"] for b in replayed for e in b.events]
        assert absorbed_keys + replayed_keys == committed
        assert kv_state(absorbed + replayed) == \
            {k: committed.index(k) for k in committed}


class TestMaintenanceWorker:
    def test_worker_drains_and_checkpoints_the_index_cursor(self, tmp_path):
        db = Database("feedtest", wal_path=str(tmp_path / "wal.jsonl"))
        store = DocumentStore(db)
        index = InvertedIndex(db)
        worker = MaintenanceWorker(db)
        worker.register("search-index", index.maintain,
                        sub=index.subscription)
        handle = store.create("doc", "ana", text="alpha beta")
        handle.insert_text(10, " gamma", "ana")
        assert index.subscription.lag > 0
        rounds = worker.drain()
        assert rounds >= 1
        assert db.changefeed().max_lag() == 0
        assert len(index.postings("gamma")) == 1
        cursor = db.changefeed().cursor(index.subscription.name)
        assert cursor is not None and cursor["lsn"] > 0
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
