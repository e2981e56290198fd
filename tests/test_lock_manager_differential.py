"""The lock manager against its one-object-per-lock oracle.

:class:`repro.db.locks.LockManager` keeps an uncontended exclusive lock
as one slot and builds a lock state only for a SHARED holder, a second
holder or a waiter.  :class:`tests.state_lock_manager.StateLockManager`
is the manager before that change, a state for every lock.  Both are
driven through the same programmes — three transactions taking mixed
S/X sets cooperatively (``timeout=0``), repeating and upgrading them,
naming a resource twice in one set, and releasing — and must agree on
every grant and error, on ``holders()`` of every resource, on
``locks_held()`` of every transaction and on the counters.  With real
threads, both must pick the same deadlock victim.
"""

from __future__ import annotations

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.errors import DeadlockError, LockTimeoutError
from tests.state_lock_manager import StateLockManager

RESOURCES = ("a", "b", "c", ("row", "t", 1), ("key", "t", "k", 1))
TXNS = (1, 2, 3)

acquire_step = st.tuples(
    st.just("acquire"), st.sampled_from(TXNS),
    st.lists(st.sampled_from(RESOURCES), min_size=1, max_size=4),
    st.sampled_from((EXCLUSIVE, EXCLUSIVE, SHARED)),
    st.booleans())           # one acquire_many, or one acquire each
release_step = st.tuples(st.just("release"), st.sampled_from(TXNS))
programmes = st.lists(st.one_of(acquire_step, acquire_step, release_step),
                      max_size=40)


def outcome(call) -> tuple:
    """What a call did: granted, or the error it raised and its text."""
    try:
        call()
    except (LockTimeoutError, DeadlockError) as exc:
        return (type(exc).__name__, str(exc))
    return ("granted",)


def run_step(locks, step) -> tuple:
    if step[0] == "release":
        locks.release_all(step[1])
        return ("released",)
    __, txn_id, resources, mode, as_set = step
    if as_set:
        return outcome(lambda: locks.acquire_many(txn_id, resources, mode,
                                                  timeout=0))

    def one_by_one():
        for resource in resources:
            locks.acquire(txn_id, resource, mode, timeout=0)
    return outcome(one_by_one)


def observed(locks) -> tuple:
    return ({r: locks.holders(r) for r in RESOURCES},
            {t: locks.locks_held(t) for t in TXNS},
            locks.stats)


@settings(max_examples=300, deadline=None)
@given(programmes)
def test_same_grants_errors_holders_and_counters(programme):
    slots, oracle = LockManager(), StateLockManager()
    for step in programme:
        assert run_step(slots, step) == run_step(oracle, step), step
        assert observed(slots) == observed(oracle), step
    for txn_id in TXNS:
        slots.release_all(txn_id)
        oracle.release_all(txn_id)
    assert observed(slots) == observed(oracle)
    assert slots._states == {} and slots._held_by_txn == {}


def assert_held_record_is_the_grants(locks: LockManager) -> None:
    """The record a transaction reads is what the manager grants."""
    for txn_id in TXNS:
        modes = locks.held_modes(txn_id)
        assert set(modes) == locks.locks_held(txn_id)
        for resource, mode in modes.items():
            assert locks.holders(resource)[txn_id] == mode


@settings(max_examples=100, deadline=None)
@given(programmes)
def test_the_held_record_is_the_grants(programme):
    locks = LockManager()
    for step in programme:
        run_step(locks, step)
        assert_held_record_is_the_grants(locks)


def deadlock_victim(locks, first: str, second: str) -> tuple:
    """Txn 1 holds ``a`` and txn 2 holds ``b`` in the modes given; txn 1
    waits for ``b`` exclusively on a thread, then txn 2 asks for ``a``
    exclusively and closes the cycle.  Returns who lost, and how."""
    locks.acquire(1, "a", first)
    locks.acquire(2, "b", second)
    errors: dict = {}

    def txn1() -> None:
        try:
            locks.acquire(1, "b", EXCLUSIVE, timeout=5)
        except DeadlockError as exc:
            errors[1] = str(exc)
        finally:
            locks.release_all(1)

    thread = threading.Thread(target=txn1)
    thread.start()
    deadline = time.monotonic() + 5
    while not locks.stats["waited"] and time.monotonic() < deadline:
        time.sleep(0.005)
    try:
        locks.acquire(2, "a", EXCLUSIVE, timeout=5)
    except DeadlockError as exc:
        errors[2] = str(exc)
    finally:
        locks.release_all(2)
    thread.join(timeout=10)
    assert not thread.is_alive()
    return errors, locks.stats, locks.holders("a"), locks.holders("b")


def test_both_managers_pick_the_same_deadlock_victim():
    for first, second in ((EXCLUSIVE, EXCLUSIVE), (SHARED, EXCLUSIVE),
                          (EXCLUSIVE, SHARED)):
        slots = deadlock_victim(LockManager(), first, second)
        oracle = deadlock_victim(StateLockManager(), first, second)
        assert slots == oracle, (first, second)
        errors, stats = slots[0], slots[1]
        assert list(errors) == [2]      # the requester closing the cycle
        assert stats["deadlocks"] == 1 and stats["waited"] == 1
