"""Lock sets: an edit declares what it locks and takes it in few calls.

Two things are pinned here.

* **Exact lock traffic of each editing verb** through a default
  ``DocumentStore`` (access logging on): lock-manager *calls* (what this
  PR halves — the repo benchmark only counts grants) and *grants*
  (``lock.acquired``).  A keystroke used to make seven calls: key and
  row of the new character separately, each neighbour, the document row,
  key and row of the access-log entry.
* **A contended ``acquire_many`` behaves as single acquires do**: it
  waits, is chosen as deadlock victim, times out, and honours injected
  lock faults resource by resource — checked against a second manager
  driven one ``acquire`` at a time through the same seeded interleaving
  (``DeterministicScheduler``), and with real threads where the point is
  the waiting itself.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.clock import SimulatedClock
from repro.collab import CollaborationServer, EditorClient
from repro.db import Database
from repro.db.locks import EXCLUSIVE, SHARED, LockManager
from repro.errors import DeadlockError, LockTimeoutError
from repro.faults import DeterministicScheduler, FaultInjector, FaultPlan
from repro.faults.plan import LockFault
from repro.text import DocumentStore


class Traffic:
    """Counts lock-manager calls and grants of one database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.calls = 0
        self.sizes: list[int] = []
        inner = db.locks.acquire_many

        def counted(txn_id, resources, *args, **kwargs):
            self.calls += 1
            self.sizes.append(len(resources))
            return inner(txn_id, resources, *args, **kwargs)

        db.locks.acquire_many = counted

    def of(self, edit) -> tuple[int, int]:
        """``(calls, grants)`` that ``edit()`` cost."""
        calls, grants = self.calls, self.db.locks.stats["acquired"]
        edit()
        return (self.calls - calls,
                self.db.locks.stats["acquired"] - grants)


@pytest.fixture
def pad():
    clock = SimulatedClock(tick=0.0)
    db = Database("locks", clock=clock)
    store = DocumentStore(db)
    handle = store.create("pad", "ana", text="x" * 200)
    clock.advance(10.0)             # past the create's own write entry
    return clock, Traffic(db), handle


class TestExactLockTraffic:
    def test_typed_character(self, pad):
        clock, traffic, handle = pad
        # First of a burst: (key + row of the character) + (both chain
        # neighbours) + (document row) + (key + row of the log entry).
        assert traffic.of(lambda: handle.insert_text(50, "a", "ana")) \
            == (4, 7)
        assert traffic.sizes[-4:] == [2, 2, 1, 2]
        # Every later one inside the resolution: three calls, five grants.
        clock.advance(0.05)
        assert traffic.of(lambda: handle.insert_text(51, "b", "ana")) \
            == (3, 5)
        clock.advance(0.05)
        assert traffic.of(lambda: handle.insert_text(0, "c", "ana")) \
            == (3, 5)

    def test_paste_of_24_characters(self, pad):
        clock, traffic, handle = pad
        handle.insert_text(0, "-", "ana")        # the burst's log entry
        # The run's 24 keys and 24 rows are one lock set.
        assert traffic.of(lambda: handle.insert_text(80, "p" * 24, "ana")) \
            == (3, 51)
        assert sorted(traffic.sizes[-3:]) == [1, 2, 48]

    def test_range_delete(self, pad):
        clock, traffic, handle = pad
        handle.insert_text(0, "-", "ana")
        assert traffic.of(lambda: handle.delete_range(20, 10, "ana")) \
            == (2, 11)

    def test_restyle(self, pad):
        clock, traffic, handle = pad
        handle.insert_text(0, "-", "ana")
        assert traffic.of(lambda: handle.apply_style(20, 10, None, "ana")) \
            == (2, 11)

    def test_the_editing_mix_makes_at_most_four_calls_per_op(self):
        """The repo benchmark's ``local_edit_mix`` shares (60 type, 15
        backspace, 10 style, 7 copy-paste, 8 undo+redo per hundred ops)
        made 8.0 lock-manager calls per op before lock sets."""
        server = CollaborationServer()
        for user in ("ana", "ben"):
            server.register_user(user)
        sessions = [server.connect("ana"), server.connect("ben")]
        doc = sessions[0].create_document("mix", text="lorem " * 500).doc
        editors = [EditorClient(s, doc) for s in sessions]
        for editor in editors:
            editor.move_to(1500)
            editor.type("x")
        traffic = Traffic(server.db)
        rng = random.Random(2006)
        verbs = (["type"] * 60 + ["backspace"] * 15 + ["style"] * 10
                 + ["copy_paste"] * 7 + ["undo_redo"] * 8)
        n_ops = 400
        for n in range(n_ops):
            editor = editors[n & 1]
            verb = verbs[rng.randrange(100)]
            length = editor.handle.length()
            if verb == "type":
                editor.move_to(rng.randrange(length))
                editor.type("y")
            elif verb == "backspace":
                editor.move_to(rng.randrange(1, length))
                editor.backspace(1)
            elif verb == "style":
                count = rng.randint(1, 8)
                editor.select(rng.randrange(length - count), count)
                editor.style_selection(None)
                editor.clear_selection()
            elif verb == "copy_paste":
                count = rng.randint(4, 24)
                editor.select(rng.randrange(length - count), count)
                editor.copy()
                editor.move_to(rng.randrange(length))
                editor.paste()
            else:
                editor.undo()
                editor.redo()
        assert traffic.calls / n_ops <= 4.0, traffic.calls / n_ops
        server.shutdown()


# ---------------------------------------------------------------------------
# Contended acquire_many == contended single acquires
# ---------------------------------------------------------------------------

RESOURCES = ("a", "b", "c", "d")


def outcome(call) -> str:
    try:
        call()
        return "granted"
    except LockTimeoutError as exc:
        return "injected" if "injected" in str(exc) else "timeout"
    except DeadlockError:
        return "deadlock"


class TestContendedLockSets:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_outcomes_as_single_acquires_under_a_seeded_interleaving(
            self, seed):
        """Three transactions take random lock sets and release in a
        seeded interleaving, cooperative (``timeout=0``: a conflict is an
        immediate timeout).  One manager gets each set as one
        ``acquire_many``, the other one ``acquire`` per resource: same
        verdict per step, same holders after it, same counters."""
        rng = random.Random(seed)
        many, single = LockManager(), LockManager()
        sched = DeterministicScheduler(seed)
        log: list = []

        def actor(txn_id: int):
            def step():
                if rng.random() < 0.3:
                    many.release_all(txn_id)
                    single.release_all(txn_id)
                    return
                wanted = rng.sample(RESOURCES, rng.randint(1, 3))
                mode = rng.choice((EXCLUSIVE, EXCLUSIVE, SHARED))
                got = outcome(lambda: many.acquire_many(
                    txn_id, wanted, mode, timeout=0))

                def one_by_one():
                    for resource in wanted:
                        single.acquire(txn_id, resource, mode, timeout=0)
                assert outcome(one_by_one) == got, (txn_id, wanted, mode)
                log.append(got)
                if got != "granted":
                    # What a transaction does on a lock error: abort.
                    many.release_all(txn_id)
                    single.release_all(txn_id)
                for resource in RESOURCES:
                    assert many.holders(resource) \
                        == single.holders(resource)
            return step

        for txn_id in (1, 2, 3):
            sched.add_actor(f"txn{txn_id}", actor(txn_id))
        sched.run(80)
        for txn_id in (1, 2, 3):
            many.release_all(txn_id)
            single.release_all(txn_id)
        assert {"granted", "timeout"} <= set(log)
        # (A failing set still took its uncontended members, a failing
        # sequence stopped at the first conflict: grants may differ.)
        for key in ("waited", "deadlocks", "timeouts", "injected"):
            assert many.stats[key] == single.stats[key], key

    def test_faults_are_consulted_per_resource(self):
        """The third logical acquire is the doomed one, wherever in a
        lock set it falls."""
        plan = FaultPlan(lock_faults=(LockFault(nth=3, kind="timeout"),))
        locks = LockManager(faults=FaultInjector(plan))
        locks.acquire_many(1, ["a", "b"])
        with pytest.raises(LockTimeoutError, match="injected"):
            locks.acquire_many(1, ["c", "d"])
        assert locks.locks_held(1) == {"a", "b"}
        assert locks.stats["injected"] == 1
        # A delay fault only slows its acquire down.
        plan = FaultPlan(lock_faults=(LockFault(nth=2, kind="delay",
                                                delay=0.0),))
        locks = LockManager(faults=FaultInjector(plan))
        locks.acquire_many(1, ["a", "b", "c"])
        assert locks.locks_held(1) == {"a", "b", "c"}
        assert locks.stats["injected"] == 1 and not locks.stats["timeouts"]

    def test_waits_for_the_contended_member_of_a_set(self):
        locks = LockManager()
        locks.acquire(1, "b")
        done = threading.Event()

        def taker():
            locks.acquire_many(2, ["a", "b", "c"], timeout=5)
            done.set()

        thread = threading.Thread(target=taker)
        thread.start()
        assert not done.wait(0.15)                 # blocked on "b" ...
        assert locks.holders("a") == {2: EXCLUSIVE}   # ... holding the rest
        locks.release_all(1)
        assert done.wait(5)
        thread.join(5)
        assert locks.locks_held(2) == {"a", "b", "c"}
        assert locks.stats["waited"] == 1
        locks.release_all(2)
        assert locks.stats["acquired"] == 4

    def test_times_out_on_the_contended_member(self):
        locks = LockManager()
        locks.acquire(1, "b")
        with pytest.raises(LockTimeoutError, match="timed out"):
            locks.acquire_many(2, ["a", "b"], timeout=0.1)
        assert locks.stats["timeouts"] == 1 and locks.stats["waited"] == 1
        with pytest.raises(LockTimeoutError, match="would block"):
            locks.acquire_many(2, ["b"], timeout=0)

    def test_is_chosen_as_deadlock_victim(self):
        locks = LockManager()
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        started = threading.Event()
        errors: dict = {}

        def one_wants_b():
            started.set()
            try:
                locks.acquire_many(1, ["c", "b"], timeout=5)
            except (DeadlockError, LockTimeoutError) as exc:
                errors[1] = exc
            finally:
                locks.release_all(1)

        thread = threading.Thread(target=one_wants_b)
        thread.start()
        assert started.wait(5)
        deadline = time.monotonic() + 5
        while not locks.stats["waited"] and time.monotonic() < deadline:
            time.sleep(0.001)
        assert locks.stats["waited"] == 1     # txn 1 now waits for "b"
        with pytest.raises(DeadlockError):
            locks.acquire_many(2, ["d", "a"], timeout=5)
        locks.release_all(2)
        thread.join(5)
        assert not thread.is_alive() and 1 not in errors
        assert locks.stats["deadlocks"] == 1
