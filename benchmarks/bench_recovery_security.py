"""C3 — DBMS features "now available for word processing" (§2).

Recovery: crash mid-edit, replay the WAL, verify the document (and its
character chain) come back exactly — committed keystrokes survive, the
in-flight uncommitted one does not.  Measured against log size: every
restart replays the whole log from LSN 1, so the growing-history arm
keeps the live document at a constant size while its log grows, and
reports what recovery holds at its peak beside how long it takes.

Security: the enforcement overhead a keystroke pays when document ACLs
and character-range protections are switched on.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.collab import CollaborationServer
from repro.db import Database, recover, recover_file
from repro.db.wal import WriteAheadLog
from repro.text import DocumentStore

from .conftest import make_text

EDIT_COUNTS = [100, 500, 2000]


def _edited_db(n_edits: int, wal_path: str):
    db = Database("bench", wal_path=wal_path)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text="seed ")
    for i in range(n_edits):
        handle.insert_text(handle.length(), "x", "ana")
        if i % 10 == 9:
            handle.delete_range(0, 1, "ana")
    return db, store, handle


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_edits", EDIT_COUNTS)
def test_recovery_replay(benchmark, n_edits, tmp_path):
    """Rebuild the database from the WAL after a crash."""
    db, store, handle = _edited_db(n_edits, str(tmp_path / "wal.jsonl"))
    expected_text = handle.text()
    records = WriteAheadLog.load_file(db.wal.path)

    def replay():
        return recover(records)

    benchmark.group = f"C3 recovery edits={n_edits}"
    benchmark.extra_info["wal_records"] = len(records)
    recovered = benchmark.pedantic(replay, rounds=3, iterations=1)
    new_store = DocumentStore(recovered, log_reads=False, log_writes=False)
    new_handle = new_store.handle(handle.doc)
    assert new_handle.text() == expected_text
    assert new_handle.check_integrity() == []


@pytest.mark.parametrize("pairs", [1000, 4000])
def test_recovery_growing_history(benchmark, pairs, tmp_path):
    """Recover a log whose history grows while the document does not:
    a 500-character document, then ``pairs`` keystrokes each undone by
    a delete.  ``traced_peak_bytes`` is what ``recover_file`` holds at
    its peak (tracemalloc, one extra untimed recovery)."""
    path = str(tmp_path / "wal.jsonl")
    db = Database("bench", wal_path=path)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text="seed text " * 50)
    for _ in range(pairs):
        handle.insert_text(250, "x", "ana")
        handle.delete_range(250, 1, "ana")
    expected_text = handle.text()
    db.close()

    tracemalloc.start()
    try:
        recover_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    benchmark.group = f"C3 recovery growing history pairs={pairs}"
    benchmark.extra_info["log_bytes"] = os.path.getsize(path)
    benchmark.extra_info["traced_peak_bytes"] = peak
    recovered = benchmark.pedantic(recover_file, args=(path,), rounds=3,
                                   iterations=1)
    new_handle = DocumentStore(recovered).handle(handle.doc)
    assert new_handle.text() == expected_text
    assert new_handle.check_integrity() == []


def test_crash_loses_only_uncommitted(tmp_path):
    """The durability contract, end to end through a file."""
    path = str(tmp_path / "wal.jsonl")
    db = Database("bench", wal_path=path)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text="committed text")
    # An in-flight transaction that never commits ("the crash").
    txn = db.begin()
    txn.insert("tx_chars", {
        "char": db.new_oid("char"), "doc": handle.doc, "ch": "X",
        "prev": None, "next": None, "author": "ana",
        "created_at": db.now(),
    })
    db.close()

    recovered = recover_file(path)
    new_handle = DocumentStore(recovered).handle(handle.doc)
    assert new_handle.text() == "committed text"
    assert new_handle.check_integrity() == []


def test_wal_write_overhead(benchmark):
    """Keystroke cost with the WAL mirrored to a real file."""
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".jsonl") as tmp:
        db = Database("bench", wal_path=tmp.name)
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("doc", "ana", text=make_text(1000))
        anchor = handle.char_oid_at(500)

        def keystroke():
            handle.insert_after(anchor, "x", "ana")

        benchmark.group = "C3 durability overhead"
        benchmark.extra_info["wal"] = "file-backed"
        benchmark(keystroke)


# ---------------------------------------------------------------------------
# Recovery under torn-tail logs (fault-injection tie-in)
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
@pytest.mark.parametrize("n_edits", EDIT_COUNTS)
def test_recovery_with_torn_tail(benchmark, tmp_path, n_edits):
    """Replay a file whose last record is a torn (crash-severed) write.

    The cost must track log size exactly like the clean-log replay above:
    detecting and skipping the torn tail is O(1), not a rescan.
    """
    path = str(tmp_path / "wal.jsonl")
    db = Database("bench", wal_path=path)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text="seed ")
    for i in range(n_edits):
        handle.insert_text(handle.length(), "x", "ana")
        if i % 10 == 9:
            handle.delete_range(0, 1, "ana")
    expected_text = handle.text()
    db.close()
    # The crash signature: a prefix of a record, mid-JSON.
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"lsn": 999999, "type": "COMMIT", "tx')

    def replay():
        return recover_file(path)

    benchmark.group = f"C3 recovery torn-tail edits={n_edits}"
    recovered = benchmark.pedantic(replay, rounds=3, iterations=1)
    new_handle = DocumentStore(recovered).handle(handle.doc)
    assert new_handle.text() == expected_text
    assert new_handle.check_integrity() == []


@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
def test_recovery_after_seeded_crash_schedule(benchmark, tmp_path):
    """Recover the wreckage of a real injected crash (torture harness)."""
    from repro.faults import (
        FaultPlan,
        check_recovery_equivalence,
        run_engine_schedule,
    )

    seed = 20_06  # fixed: benchmarks must compare like with like
    outcome = run_engine_schedule(
        seed, str(tmp_path / "wal.jsonl"),
        plan=FaultPlan.crash_once("wal.mid_record", hit=40, tear=0.4),
    )
    assert outcome.crashed

    def replay():
        return recover_file(outcome.wal_path)

    benchmark.group = "C3 recovery after injected crash"
    benchmark.extra_info["crash_point"] = outcome.crash_point
    benchmark.pedantic(replay, rounds=3, iterations=1)
    check_recovery_equivalence(outcome)


# ---------------------------------------------------------------------------
# Security enforcement overhead
# ---------------------------------------------------------------------------

#: Rounds of each security arm: fixed, and (with the warm-up) fewer
#: than the 2 000 characters of the document its deletes consume.
SECURITY_ROUNDS = 500


def _party(protections: int):
    """ana's 2 000-character document open for ben.  With protections,
    ben may write it and ``protections`` ranges of 10 characters are
    guarded against him — all below position 200, where his deletes
    (always at 200) never reach, so each delete is checked against them
    and none is refused."""
    server = CollaborationServer()
    server.register_user("ana")
    server.register_user("ben")
    ana = server.connect("ana")
    handle = ana.create_document("doc", text=make_text(2000))
    if protections:
        server.acl.grant(handle.doc, "ben", "write", "ana")
        for i in range(protections):
            server.acl.protect_range(handle, i * 20, 10, "ana")
        assert len(server.acl.protected_oids(handle.doc, "ben")) \
            == 10 * protections
    ben = server.connect("ben")
    ben.open(handle.doc)
    return server, ben, handle


def _delete_keystrokes(benchmark, protections: int, config: str) -> None:
    """One arm of the C3 pair: a Delete keystroke at position 200, held
    for ``SECURITY_ROUNDS`` rounds.  Both arms run the same op the same
    number of times; with protections, each delete is range-checked
    against them."""
    server, ben, handle = _party(protections)

    deletes = []

    def keystroke():
        ben.delete(handle.doc, 200, 1)
        deletes.append(1)

    benchmark.group = "C3 security overhead"
    benchmark.extra_info["config"] = config
    benchmark.pedantic(keystroke, rounds=SECURITY_ROUNDS, iterations=1,
                       warmup_rounds=5)
    assert deletes and handle.length() == 2000 - len(deletes)


def test_keystroke_no_security(benchmark):
    _delete_keystrokes(benchmark, 0, "open document")


def test_keystroke_with_acl_and_protections(benchmark):
    _delete_keystrokes(benchmark, 10, "ACL + 10 range protections")


def test_security_overhead_is_bounded():
    """Enforcement must not dominate the keystroke transaction."""
    import time

    def measure(protections: int) -> float:
        server, ben, handle = _party(protections)
        start = time.perf_counter()
        for __ in range(50):
            ben.delete(handle.doc, 200, 1)
        return (time.perf_counter() - start) / 50

    open_cost = measure(0)
    guarded_cost = measure(10)
    # 24 alternated pairs read 1.26-2.62x (median 1.7x) with ben
    # guarded by all ten ranges; 4x leaves room for a busy box.
    assert guarded_cost < open_cost * 4
