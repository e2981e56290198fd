"""Tests for the lock manager, trigger registry, catalog and event bus."""

import threading

import pytest

from repro.db import Database, column
from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.errors import DeadlockError, LockTimeoutError
from repro.events import EventBus


class TestLockManager:
    def test_shared_locks_coexist(self):
        lm = LockManager()
        lm.acquire(1, "r", SHARED)
        lm.acquire(2, "r", SHARED)
        assert set(lm.holders("r")) == {1, 2}

    def test_exclusive_blocks_shared(self):
        lm = LockManager()
        lm.acquire(1, "r", EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "r", SHARED, timeout=0)

    def test_reentrant_acquire(self):
        lm = LockManager()
        lm.acquire(1, "r", EXCLUSIVE)
        lm.acquire(1, "r", EXCLUSIVE)  # no deadlock with self
        lm.acquire(1, "r", SHARED)     # weaker mode is a no-op

    def test_upgrade_shared_to_exclusive(self):
        lm = LockManager()
        lm.acquire(1, "r", SHARED)
        lm.acquire(1, "r", EXCLUSIVE)
        assert lm.holders("r")[1] == EXCLUSIVE

    def test_upgrade_blocked_by_other_sharer(self):
        lm = LockManager()
        lm.acquire(1, "r", SHARED)
        lm.acquire(2, "r", SHARED)
        with pytest.raises(LockTimeoutError):
            lm.acquire(1, "r", EXCLUSIVE, timeout=0)

    def test_release_all_frees_resources(self):
        lm = LockManager()
        lm.acquire(1, "a", EXCLUSIVE)
        lm.acquire(1, "b", EXCLUSIVE)
        lm.release_all(1)
        assert lm.locks_held(1) == set()
        lm.acquire(2, "a", EXCLUSIVE, timeout=0)  # no contention left

    def test_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, "a", EXCLUSIVE)
        lm.acquire(2, "b", EXCLUSIVE)

        errors = {}
        started = threading.Event()

        def t1_waits_for_b():
            started.set()
            try:
                lm.acquire(1, "b", EXCLUSIVE, timeout=5)
            except (DeadlockError, LockTimeoutError) as exc:
                errors["t1"] = exc
            finally:
                lm.release_all(1)

        thread = threading.Thread(target=t1_waits_for_b)
        thread.start()
        started.wait()
        # txn 2 now wants "a" held by txn 1 -> cycle.
        deadlocked = False
        try:
            lm.acquire(2, "a", EXCLUSIVE, timeout=5)
        except DeadlockError:
            deadlocked = True
        finally:
            lm.release_all(2)
        thread.join(timeout=5)
        # One of the two must have been chosen as victim.
        assert deadlocked or isinstance(errors.get("t1"), DeadlockError)

    def test_invalid_mode_rejected(self):
        lm = LockManager()
        with pytest.raises(ValueError):
            lm.acquire(1, "r", "Z")

    def test_stats_counted(self):
        lm = LockManager()
        lm.acquire(1, "r")
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "r", timeout=0)
        assert lm.stats["timeouts"] == 1
        lm.release_all(1)       # grants are counted per transaction
        assert lm.stats["acquired"] == 1


class TestTriggers:
    @pytest.fixture
    def db(self):
        db = Database("t")
        db.create_table("a", [column("x", "int")])
        db.create_table("b", [column("y", "int")])
        return db

    def test_table_trigger_fires_with_own_changes(self, db):
        seen = []
        db.triggers.on_commit("a", lambda txn, chs: seen.append(chs))
        with db.transaction() as txn:
            txn.insert("a", {"x": 1})
            txn.insert("b", {"y": 2})
        assert len(seen) == 1
        assert all(c.table == "a" for c in seen[0])

    def test_wildcard_trigger_sees_all_changes(self, db):
        seen = []
        db.triggers.on_commit("*", lambda txn, chs: seen.append(chs))
        with db.transaction() as txn:
            txn.insert("a", {"x": 1})
            txn.insert("b", {"y": 2})
        assert len(seen) == 1
        assert {c.table for c in seen[0]} == {"a", "b"}

    def test_trigger_not_fired_on_abort(self, db):
        seen = []
        db.triggers.on_commit("a", lambda txn, chs: seen.append(chs))
        txn = db.begin()
        txn.insert("a", {"x": 1})
        txn.abort()
        assert seen == []

    def test_trigger_removal(self, db):
        seen = []
        handle = db.triggers.on_commit("a", lambda txn, chs: seen.append(1))
        handle.remove()
        db.insert("a", {"x": 1})
        assert seen == []

    def test_trigger_can_run_own_transaction(self, db):
        def echo(txn, changes):
            if changes[0].table == "a":
                db.insert("b", {"y": changes[0].row["x"]})

        db.triggers.on_commit("a", echo)
        db.insert("a", {"x": 42})
        assert db.query("b").run()[0]["y"] == 42

    def test_change_payload_shape(self, db):
        captured = []
        db.triggers.on_commit("a", lambda txn, chs: captured.extend(chs))
        rid = db.insert("a", {"x": 1})
        db.update("a", rid, {"x": 2})
        db.delete("a", rid)
        kinds = [c.kind for c in captured]
        assert kinds == ["insert", "update", "delete"]
        assert captured[0].row == {"x": 1}
        assert captured[1].row == {"x": 2}
        assert captured[2].row is None


class TestEventBus:
    def test_publish_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.*", lambda e: seen.append(e.topic))
        bus.publish("a.b")
        bus.publish("a.c", extra=1)
        bus.publish("z.z")
        assert seen == ["a.b", "a.c"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe("x", lambda e: seen.append(1))
        sub.cancel()
        sub.cancel()  # idempotent
        bus.publish("x")
        assert seen == []

    def test_payload_access(self):
        bus = EventBus()
        seen = {}
        bus.subscribe("x", lambda e: seen.update(v=e["v"], d=e.get("nope", 9)))
        bus.publish("x", v=5)
        assert seen == {"v": 5, "d": 9}

    def test_db_commit_event_published(self):
        db = Database("t")
        db.create_table("a", [column("x", "int")])
        topics = []
        db.bus.subscribe("db.*", lambda e: topics.append(e.topic))
        db.insert("a", {"x": 1})
        txn = db.begin()
        txn.abort()
        assert topics == ["db.commit", "db.abort"]


class TestCatalog:
    def test_table_and_index_info(self, people_db):
        info = people_db.catalog.table_info("people")
        assert info.row_count == 5
        assert info.key == "name"
        assert "people_key" in info.index_names
        indexes = list(people_db.catalog.iter_indexes("people"))
        assert {i.column for i in indexes} == {"name", "age"}
        unique_flags = {i.name: i.unique for i in indexes}
        assert unique_flags["people_key"] is True

    def test_total_rows(self, people_db):
        assert people_db.catalog.total_rows() == 5

    def test_table_names_sorted(self, people_db):
        people_db.create_table("aaa", [column("x", "int")])
        names = people_db.catalog.table_names()
        assert names == sorted(names)


class TestTriggerFailureIsolation:
    def test_failing_trigger_does_not_break_commit(self):
        db = Database("t")
        db.create_table("a", [column("x", "int")])

        def bad_trigger(txn, changes):
            raise RuntimeError("trigger bug")

        seen = []
        db.triggers.on_commit("a", bad_trigger)
        db.triggers.on_commit("a", lambda txn, chs: seen.append(1))
        rid = db.insert("a", {"x": 1})        # must not raise
        assert db.get("a", rid)["x"] == 1     # commit fully applied
        assert seen == [1]                    # later triggers still ran
        assert len(db.triggers.errors) == 1
        table, exc = db.triggers.errors[0]
        assert table == "a"
        assert isinstance(exc, RuntimeError)

    def test_error_list_bounded(self):
        db = Database("t")
        db.create_table("a", [column("x", "int")])
        db.triggers.on_commit(
            "a", lambda txn, chs: (_ for _ in ()).throw(ValueError("x")))
        for i in range(db.triggers.ERROR_LIMIT + 20):
            db.insert("a", {"x": i})
        assert len(db.triggers.errors) == db.triggers.ERROR_LIMIT
