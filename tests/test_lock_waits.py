"""A lock wait keeps its promise under other transactions' traffic.

* **The timeout is time.**  Every release wakes every waiter, so a wait
  beside a busy engine is woken hundreds of times a second; the timeout
  must still expire after the seconds it names, not after a number of
  wake-ups.
* **The deadlock check walks the waiters, not the locks.**  A bulk
  create holds tens of thousands of uncontended row locks; the check
  that runs before and during every wait must build its wait-for graph
  from the resources somebody waits on, however many others are held.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.locks import LockManager
from repro.errors import DeadlockError, LockTimeoutError


def _wait_until(predicate, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_timeout_measures_time_beside_unrelated_commits():
    locks = LockManager()
    locks.acquire(1, "row")
    stop = threading.Event()

    def committer():
        # Another transaction takes and releases an unrelated row once
        # per millisecond: each release notifies every waiter.
        while not stop.is_set():
            locks.acquire(2, "other")
            locks.release_all(2)
            time.sleep(0.001)

    thread = threading.Thread(target=committer)
    thread.start()
    try:
        started = time.monotonic()
        with pytest.raises(LockTimeoutError, match="timed out"):
            locks.acquire(3, "row", timeout=2.0)
        elapsed = time.monotonic() - started
    finally:
        stop.set()
        thread.join(5)
    assert not thread.is_alive()
    assert 1.8 <= elapsed <= 2.2, f"a 2 s timeout fired after {elapsed:.2f} s"


class _NoScan(dict):
    """A lock map whose entries may be probed but never walked."""

    def _walked(self, *args):
        raise AssertionError("the deadlock check walked every lock")

    values = items = keys = __iter__ = _walked


def test_deadlock_check_skips_uncontended_locks():
    locks = LockManager()
    locks.acquire_many(1, [("row", i) for i in range(60_000)] + ["a"])
    locks.acquire(2, "b")
    locks._states = _NoScan(locks._states)
    errors: dict = {}

    def two_wants_a():
        try:
            locks.acquire(2, "a", timeout=5)
        except (AssertionError, DeadlockError, LockTimeoutError) as exc:
            errors[2] = exc
        finally:
            locks.release_all(2)

    thread = threading.Thread(target=two_wants_a)
    thread.start()
    _wait_until(lambda: locks.stats["waited"] == 1 or not thread.is_alive())
    try:
        with pytest.raises(DeadlockError):
            locks.acquire(1, "b", timeout=5)
    finally:
        locks.release_all(1)
        thread.join(5)
    assert not thread.is_alive() and 2 not in errors
    assert locks.stats["deadlocks"] == 1
