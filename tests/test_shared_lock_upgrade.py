"""A row a transaction locked SHARED is upgraded before it writes it.

Two transactions that each lock a row SHARED, read it and then write
``v + 1`` must not both commit: that is a lost update (two increments
committed, one visible).  The write has to take the row EXCLUSIVE, which
it cannot while the other reader still holds it SHARED — so one of the
two waits, times out or is chosen as deadlock victim, and the value
always equals the number of increments that committed.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import Database, column
from repro.db.locks import EXCLUSIVE, SHARED
from repro.errors import DeadlockError, LockTimeoutError


def make_db() -> tuple[Database, int]:
    db = Database("upgrade")
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db, db.insert("kv", {"k": "a", "v": 0})


def test_a_write_upgrades_the_shared_lock_it_holds():
    db, rowid = make_db()
    txn = db.begin()
    txn.lock_shared("kv", rowid)
    assert db.locks.holders(("row", "kv", rowid)) == {txn.txn_id: SHARED}
    txn.update("kv", rowid, {"v": 1})
    assert db.locks.holders(("row", "kv", rowid)) == {txn.txn_id: EXCLUSIVE}
    txn.lock_shared("kv", rowid)        # weaker than held: no downgrade
    assert db.locks.holders(("row", "kv", rowid)) == {txn.txn_id: EXCLUSIVE}
    txn.commit()
    assert db.get("kv", rowid)["v"] == 1


def test_two_shared_readers_cannot_both_commit_an_increment():
    db, rowid = make_db()
    a = db.begin(lock_timeout=0)
    b = db.begin(lock_timeout=0)
    a.lock_shared("kv", rowid)
    b.lock_shared("kv", rowid)
    va = a.get("kv", rowid)["v"]
    vb = b.get("kv", rowid)["v"]
    committed = 0
    # A's write needs the row EXCLUSIVE while B still holds it SHARED.
    with pytest.raises(LockTimeoutError):
        a.update("kv", rowid, {"v": va + 1})
    a.abort()
    b.update("kv", rowid, {"v": vb + 1})
    b.commit()
    committed += 1
    assert db.get("kv", rowid)["v"] == committed == 1


def test_two_threaded_readers_lose_no_update():
    db, rowid = make_db()
    both_read = threading.Barrier(2, timeout=10)
    outcomes: dict[str, str] = {}

    def increment(name: str) -> None:
        txn = db.begin(lock_timeout=5)
        try:
            txn.lock_shared("kv", rowid)
            value = txn.get("kv", rowid)["v"]
            both_read.wait()
            txn.update("kv", rowid, {"v": value + 1})
            txn.commit()
            outcomes[name] = "committed"
        except (DeadlockError, LockTimeoutError) as exc:
            txn.abort()
            outcomes[name] = type(exc).__name__

    threads = [threading.Thread(target=increment, args=(name,))
               for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads)
    committed = sum(o == "committed" for o in outcomes.values())
    # Both hold the row SHARED when they write: one upgrade waits for
    # the other reader, the other closes the cycle and is the victim.
    assert sorted(outcomes.values()) == ["DeadlockError", "committed"]
    assert db.get("kv", rowid)["v"] == committed == 1
    assert db.locks.stats["deadlocks"] == 1
