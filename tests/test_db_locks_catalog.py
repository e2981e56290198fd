"""Tests for the lock manager and the catalog."""

import threading

import pytest

from repro.db import column
from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.errors import DeadlockError, LockTimeoutError


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
