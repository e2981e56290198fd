"""C1 — "very fast transactions for all editing tasks" (§2).

The paper's core performance claim: because characters are neighbour-
linked rows, a keystroke is a constant number of row operations however
large the document is.  We measure the per-keystroke transaction against
the two baselines:

* **offset storage** (one row per character keyed by position): a
  mid-document insert updates O(n) rows, so keystroke cost grows linearly
  with document size;
* **file word processor** (the §1 status quo): durability means rewriting
  the whole file on every save.

Expected shape: TeNDaX flat across document sizes; both baselines grow
linearly; TeNDaX wins by orders of magnitude on large documents.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import threading
import time

import pytest

from repro.baselines import FileWordProcessor, OffsetDocumentStore
from repro.collab import EditorClient
from repro.db import Database, col
from repro.errors import DeadlockError, LockTimeoutError
from repro.ids import Oid
from repro.text import DocumentStore
from repro.text import chars as C
from repro.text import dbschema as S
from repro.text.ordercache import (ChunkedOrderCache, FlatOrderCache,
                                   splice_rows)

from .conftest import make_text

SIZES = [500, 2000, 8000]


# ---------------------------------------------------------------------------
# Mid-document keystroke vs document size (the headline comparison)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", SIZES)
def test_keystroke_tendax(benchmark, size):
    """TeNDaX: one insert + two pointer updates, any document size."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(size))
    anchor = handle.char_oid_at(size // 2)

    def keystroke():
        handle.insert_after(anchor, "x", "ana")

    benchmark.group = f"C1 keystroke mid-doc n={size}"
    benchmark.extra_info["system"] = "tendax"
    benchmark.extra_info["doc_size"] = size
    benchmark(keystroke)


def test_keystroke_bookkept(benchmark):
    """The same keystroke through a *default* store — access logging on,
    as users run it: the document row is touched on every edit, the
    access log once per ``ACCESS_LOG_RESOLUTION``."""
    size = SIZES[0]
    db = Database("bench")
    store = DocumentStore(db)
    handle = store.create("doc", "ana", text=make_text(size))
    anchor = handle.char_oid_at(size // 2)
    started = db.now()

    def keystroke():
        handle.insert_after(anchor, "x", "ana")

    benchmark.group = f"C1 keystroke mid-doc n={size}"
    benchmark.extra_info["system"] = "tendax, book-kept"
    benchmark.extra_info["doc_size"] = size
    benchmark(keystroke)
    typed = handle.length() - size
    assert handle.meta()["size"] == handle.length()
    entries = db.query(S.ACCESS_LOG).where(col("action") == "write").count()
    assert entries <= (db.now() - started) / S.ACCESS_LOG_RESOLUTION + 2
    assert entries < typed


@pytest.mark.parametrize("size", SIZES)
def test_keystroke_offset_baseline(benchmark, size):
    """Offset baseline: the same keystroke shifts O(n) rows."""
    db = Database("bench")
    store = OffsetDocumentStore(db)
    doc = store.create("doc", "ana", make_text(size))

    def keystroke():
        store.insert(doc, size // 2, "x", "ana")

    benchmark.group = f"C1 keystroke mid-doc n={size}"
    benchmark.extra_info["system"] = "offset-baseline"
    benchmark.extra_info["doc_size"] = size
    benchmark.pedantic(keystroke, rounds=5, iterations=1,
                       warmup_rounds=1)


@pytest.mark.parametrize("size", SIZES)
def test_keystroke_file_baseline(benchmark, size):
    """File baseline: durability = rewrite the whole document."""
    wp = FileWordProcessor()
    wp.create("doc.txt", make_text(size))
    wp.open_for_edit("doc.txt", "ana")

    def keystroke():
        wp.insert("doc.txt", "ana", size // 2, "x")

    benchmark.group = f"C1 keystroke mid-doc n={size}"
    benchmark.extra_info["system"] = "file-baseline"
    benchmark.extra_info["doc_size"] = size
    benchmark(keystroke)


def test_shape_tendax_flat_offset_linear():
    """Assert the paper's shape: TeNDaX ~flat, offset baseline ~linear.

    Each point is the best of three measurements with a GC sweep before
    every timed section: a collection pause inherited from an earlier
    benchmark's garbage would otherwise dominate the short small-document
    loops and flip the ratios.
    """
    import gc
    import time

    def time_tendax(size: int) -> float:
        db = Database("bench")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("doc", "ana", text=make_text(size))
        anchor = handle.char_oid_at(size // 2)
        gc.collect()
        start = time.perf_counter()
        for __ in range(20):
            handle.insert_after(anchor, "x", "ana")
        return (time.perf_counter() - start) / 20

    def time_offset(size: int) -> float:
        db = Database("bench")
        store = OffsetDocumentStore(db)
        doc = store.create("doc", "ana", make_text(size))
        gc.collect()
        start = time.perf_counter()
        for __ in range(3):
            store.insert(doc, size // 2, "x", "ana")
        return (time.perf_counter() - start) / 3

    def best(measure, size: int) -> float:
        return min(measure(size) for __ in range(3))

    tendax_small, tendax_big = best(time_tendax, 500), best(time_tendax, 8000)
    offset_small, offset_big = best(time_offset, 500), best(time_offset, 8000)
    # Offset cost must grow steeply with size (16x size -> >4x time).
    assert offset_big / offset_small > 4.0
    # TeNDaX must grow far slower than the baseline does.
    assert (tendax_big / tendax_small) < (offset_big / offset_small)
    # And on large documents TeNDaX must win outright, by a lot.
    assert offset_big / tendax_big > 10.0


# ---------------------------------------------------------------------------
# Order-cache scalability: mid-document keystroke + remote splice
# ---------------------------------------------------------------------------

#: Document sizes for the order-cache arms.  256k is the headline: the
#: flat-list cache pays an O(n) memmove + O(n) identity scan per remote
#: splice there, the chunked cache ~O(sqrt n).
CACHE_SIZES = [4_000, 64_000, 256_000]

#: size -> (db, store, editor handle).  Building a 256k-char document
#: through the full transactional path costs ~20 s, so the document is
#: built once per session and shared by every cache arm (each keystroke
#: grows it by a handful of characters — noise at these sizes).
_cache_docs: dict = {}


def _large_doc(size: int):
    if size not in _cache_docs:
        db = Database("bench")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        handle = store.create("doc", "ana", text=make_text(size))
        _cache_docs[size] = (db, store, handle)
    return _cache_docs[size]


def _mid_anchors(handle, size: int, count: int):
    """Deterministic mid-document anchor positions (hint-hostile)."""
    rng = random.Random(size * 31 + 7)
    spread = min(1000, size // 4)
    return [
        handle.char_oid_at(size // 2 + rng.randint(-spread, spread))
        for __ in range(count)
    ]


def _attach_flat_replica(db, handle):
    """The O(n) baseline arm: a :class:`FlatOrderCache` replica of the
    document, fed by its own changefeed subscription the way the store
    feeds its chunked one.  Returns the subscription (close it)."""
    begin = handle.begin_char
    cache = FlatOrderCache(C.traverse(db, handle.doc, begin))

    def follow(batch):
        splice_rows(cache, [event.row for event in batch.events], begin,
                    lambda oid: C.char_row(db, oid)[1]["prev"])

    return db.changefeed().subscribe("flat-replica", follow,
                                     tables=(S.CHARS,))


def _remote_splice_round(handle, remote, anchors, state) -> None:
    """One mid-document keystroke, observed by an attached remote handle."""
    anchor = anchors[state["i"] % len(anchors)]
    state["i"] += 1
    handle.insert_after(anchor, "x", "ana")


@pytest.mark.parametrize("size", CACHE_SIZES)
def test_cache_remote_splice_chunked(benchmark, size):
    """Chunked order cache: a remote replica splices in ~O(sqrt n)."""
    __, store, handle = _large_doc(size)
    remote = store.handle(handle.doc)           # chunked (default)
    anchors = _mid_anchors(handle, size, 64)
    state = {"i": 0}

    benchmark.group = f"C1 order-cache remote splice n={size}"
    benchmark.extra_info["system"] = "tendax-chunked"
    benchmark.extra_info["doc_size"] = size
    try:
        benchmark.pedantic(_remote_splice_round,
                           args=(handle, remote, anchors, state),
                           rounds=30, iterations=1, warmup_rounds=2)
    finally:
        remote.close()


@pytest.mark.parametrize("size", CACHE_SIZES)
def test_cache_remote_splice_flat(benchmark, size):
    """Flat-list baseline: the same splice pays an O(n) insert + scan."""
    db, __, handle = _large_doc(size)
    remote = _attach_flat_replica(db, handle)
    anchors = _mid_anchors(handle, size, 64)
    state = {"i": 0}

    benchmark.group = f"C1 order-cache remote splice n={size}"
    benchmark.extra_info["system"] = "flat-cache-baseline"
    benchmark.extra_info["doc_size"] = size
    try:
        benchmark.pedantic(_remote_splice_round,
                           args=(handle, remote, anchors, state),
                           rounds=5, iterations=1, warmup_rounds=1)
    finally:
        remote.close()


def _replica_splice_seconds(cache_cls, size: int, count: int) -> float:
    """Seconds per mid-document keystroke as an order cache of ``size``
    characters sees it: one committed row through ``splice_rows``."""
    import gc

    begin = Oid("bench.char", 0)
    cache = cache_cls((
        {"char": Oid("bench.char", seq), "ch": "a", "style": None,
         "author": "ana"} for seq in range(1, size + 1)))
    rng = random.Random(size)
    anchors = [cache.oid_at(size // 2 + rng.randint(-1000, 1000))
               for __ in range(64)]
    fresh = itertools.count(size + 1)
    best = float("inf")
    for __ in range(5):
        rows = [{"char": Oid("bench.char", next(fresh)), "ch": "x",
                 "style": None, "author": "ben", "deleted": False,
                 "prev": anchors[i % len(anchors)]} for i in range(count)]
        gc.collect()
        start = time.perf_counter()
        for row in rows:
            splice_rows(cache, (row,), begin, lambda oid: None)
        best = min(best, (time.perf_counter() - start) / count)
    assert cache.check() == []
    return best


def test_shape_cache_chunked_beats_flat_256k():
    """Acceptance shape: a replica follows a mid-document keystroke in
    sub-linear time, and text() afterwards costs no table scan.

    The gate is on the replica's own work (one committed row through
    ``splice_rows``), so it does not move with what a transaction or an
    identifier comparison costs: 16x the characters cost the chunked
    cache at most 6x (~3x measured, ~5x with every core contended)
    while the flat list pays >= 8x (~15x measured), and at 256k chars
    the chunked splice is >= 30x cheaper than the flat one (~70x
    measured).  End to end, attaching a chunked replica to a 256k
    document adds at most half a keystroke (~10 % measured), where a
    flat one at least triples it (~6.5x measured)."""
    import gc

    chunked_16k = _replica_splice_seconds(ChunkedOrderCache, 16_000, 200)
    chunked_256k = _replica_splice_seconds(ChunkedOrderCache, 256_000, 200)
    flat_16k = _replica_splice_seconds(FlatOrderCache, 16_000, 20)
    flat_256k = _replica_splice_seconds(FlatOrderCache, 256_000, 20)
    assert chunked_256k <= 6.0 * chunked_16k, (chunked_256k, chunked_16k)
    assert flat_256k >= 8.0 * flat_16k, (flat_256k, flat_16k)
    assert flat_256k >= 30.0 * chunked_256k, (flat_256k, chunked_256k)

    size = 256_000
    db, store, handle = _large_doc(size)
    anchors = _mid_anchors(handle, size, 32)

    def typed_seconds(n: int) -> float:
        gc.collect()
        start = time.perf_counter()
        for i in range(n):
            handle.insert_after(anchors[i % len(anchors)], "x", "ana")
        return (time.perf_counter() - start) / n

    alone = min(typed_seconds(20) for __ in range(3))
    remote = store.handle(handle.doc)
    try:
        chunked = min(typed_seconds(20) for __ in range(3))
    finally:
        remote.close()
    remote = _attach_flat_replica(db, handle)
    try:
        flat = min(typed_seconds(4) for __ in range(3))
    finally:
        remote.close()
    assert chunked <= 1.5 * alone, (chunked, alone)
    assert flat >= 3.0 * alone, (flat, alone)

    # And rendering stays off the table-scan path: a keystroke plus a
    # text() must not bump the full-scan counter.
    scans_before = db.metrics_snapshot()["doc.full_scans"]["value"]
    handle.insert_after(anchors[0], "x", "ana")
    assert len(handle.text()) >= size
    scans_after = db.metrics_snapshot()["doc.full_scans"]["value"]
    assert scans_after == scans_before


# ---------------------------------------------------------------------------
# Selection, clipboard and positional lookup on a shared 30k document
# ---------------------------------------------------------------------------

#: The repo benchmark's local_edit_mix document size.
MIX_SIZE = 30_000


def test_select_copy_paste_30k(benchmark, server):
    """Select 16 characters, copy, paste elsewhere — with a second
    editor subscribed, so every paste is also a 16-row remote run
    splice.  The selection is re-validated five times per op (cursor
    publishes, text, copy): membership probes, not position lookups."""
    for user in ("ana", "ben"):
        server.register_user(user)
    sessions = [server.connect("ana"), server.connect("ben")]
    handle = sessions[0].create_document("doc", text=make_text(MIX_SIZE))
    editors = [EditorClient(session, handle.doc) for session in sessions]
    rng = random.Random(30)

    def select_copy_paste():
        editor = editors[0]
        length = editor.handle.length()
        editor.select(rng.randrange(length - 16), 16)
        editor.copy()
        editor.move_to(rng.randrange(length + 1))
        assert len(editor.paste()) == 16
        for session in sessions:
            session.notifications()

    benchmark.group = "C1 editing tasks"
    benchmark.extra_info["doc_size"] = MIX_SIZE
    benchmark.pedantic(select_copy_paste, rounds=40, iterations=1,
                       warmup_rounds=3)
    assert editors[0].text() == editors[1].text()
    assert editors[1].handle.check_integrity() == []


def test_position_lookup_30k(benchmark):
    """Random-access lookups on a 30k document right after a keystroke
    (the chunk directory is rebuilt once, then bisected): 64 single
    ``position_of`` calls, one ``text_of`` over a 64-character stretch,
    and 64 ``char_oid_at`` calls."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(MIX_SIZE))
    rng = random.Random(31)
    order = handle.char_oids()
    probes = [rng.choice(order) for __ in range(64)]
    places = [rng.randrange(MIX_SIZE) for __ in range(64)]
    start = rng.randrange(MIX_SIZE - 64)
    stretch = order[start:start + 64]
    text = handle.text()[start:start + 64]

    def keystroke():
        # Untimed: typing at the end drops the directory and leaves
        # every probed position where it was.
        handle.insert_text(handle.length(), "x", "ana")

    def lookups():
        found = [handle.position_of(oid) for oid in probes]
        assert handle.text_of(stretch) == text
        for place in places:
            handle.char_oid_at(place)
        return found

    benchmark.group = "C1 editing tasks"
    benchmark.extra_info["doc_size"] = MIX_SIZE
    found = benchmark.pedantic(lookups, setup=keystroke, rounds=200,
                               iterations=1, warmup_rounds=3)
    assert found == [order.index(oid) for oid in probes]


def test_keystroke_commit_30k(benchmark, server):
    """One typed character at a random position of the shared 30k
    document, second editor subscribed: the whole commit — four row
    images staged, six log records in one block (a fifth image and a
    seventh record when the access log is due its entry), one replica
    splice, fan-out."""
    for user in ("ana", "ben"):
        server.register_user(user)
    sessions = [server.connect("ana"), server.connect("ben")]
    handle = sessions[0].create_document("doc", text=make_text(MIX_SIZE))
    editors = [EditorClient(session, handle.doc) for session in sessions]
    rng = random.Random(32)
    appended = server.db.obs.registry.counter("wal.appends")
    before = appended.value
    logged = server.db.table(S.ACCESS_LOG).row_count()

    def keystroke():
        editor = editors[0]
        editor.move_to(rng.randrange(editor.handle.length() + 1))
        editor.type("x")
        for session in sessions:
            session.notifications()

    benchmark.group = "C1 editing tasks"
    benchmark.extra_info["doc_size"] = MIX_SIZE
    benchmark.pedantic(keystroke, rounds=300, iterations=1, warmup_rounds=5)
    logged = server.db.table(S.ACCESS_LOG).row_count() - logged
    assert logged <= 2
    assert (appended.value - before) == 6 * 305 + logged
    updates = [r for r in server.db.wal.records() if r.type == "UPDATE"]
    assert max(len(r.cols) for r in updates[-3:]) <= 3   # deltas
    assert editors[0].text() == editors[1].text()
    assert sum(s.name.startswith("doc-cache:")
               for s in server.db.changefeed().subscriptions()) == 1


def test_unique_key_read_30k(benchmark):
    """64 point reads by unique key — ``where(col(k) == v).first()`` on
    the 30k-character table, inside a transaction holding one pending
    row of its own: the read every editing primitive starts with."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(MIX_SIZE))
    rng = random.Random(33)
    probes = rng.sample(handle.char_oids(), 64)
    txn = db.begin()
    txn.update(S.DOCUMENTS, 1, {"state": "review"})

    def reads():
        return [txn.query(S.CHARS).where(col("char") == oid).first()["char"]
                for oid in probes]

    benchmark.group = "C1 editing tasks"
    benchmark.extra_info["doc_size"] = MIX_SIZE
    found = benchmark.pedantic(reads, rounds=200, iterations=1,
                               warmup_rounds=3)
    assert found == probes
    assert txn.query(S.DOCUMENTS).where(
        col("doc") == handle.doc).first()["state"] == "review"
    txn.abort()


# ---------------------------------------------------------------------------
# Group commit + batched typing bursts under concurrent writers
# ---------------------------------------------------------------------------

#: Simulated storage flush latency for the multiwriter comparison.  The
#: CI container's virtio fsync returns in ~0.2 ms without reaching
#: stable media, which under-represents every real durable device
#: (entry-level SSDs take 1-10 ms per FLUSH).  Modelling a 2 ms device
#: makes the comparison measure what the tentpole changes — fsync
#: *scheduling* (per-commit vs. grouped) — deterministically on any
#: runner, instead of measuring the host's write-cache behaviour.
SIM_FSYNC_SECONDS = 0.002


def _durable_multiwriter(tmp_path, tag: str, *, batched: bool,
                         writers: int = 8, bursts: int = 6,
                         burst_len: int = 16) -> dict:
    """K concurrent writers typing bursts into one file-backed database.

    ``batched=False`` is the seed behaviour: every keystroke is its own
    transaction and every commit performs its own fsync.  ``batched=True``
    is the tentpole path: each burst runs inside ``Database.batch()`` (one
    commit record) and the WAL groups concurrent commits behind one fsync.

    Returns wall-clock and durability-cost stats from the engine's own
    metrics, so the numbers cover exactly the measured window.
    """
    db = Database("bench", wal_path=str(tmp_path / f"wal-{tag}.jsonl"),
                  wal_group_commit=batched, wal_group_max=writers)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    anchors = []
    for w in range(writers):
        handle = store.create(f"doc{w}", "ana", text="seed ")
        anchors.append([handle, handle.anchor_for(handle.length())])
    before = db.metrics_snapshot()
    barrier = threading.Barrier(writers + 1)

    def run(w: int) -> None:
        handle, anchor = anchors[w]
        barrier.wait()
        for __ in range(bursts):
            if batched:
                with db.batch():
                    for __ in range(burst_len):
                        (anchor,) = handle.insert_after(anchor, "x", "ana")
            else:
                for __ in range(burst_len):
                    (anchor,) = handle.insert_after(anchor, "x", "ana")
        anchors[w][1] = anchor

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(writers)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    after = db.metrics_snapshot()
    # Everything typed must already be durable: the run measures the
    # full durable path, not deferred flushing.
    assert db.wal.durable_lsn == db.wal.last_lsn()
    keystrokes = writers * bursts * burst_len
    commit_cost = (after["txn.commit_seconds"]["sum"]
                   - before["txn.commit_seconds"]["sum"])
    stats = {
        "keystrokes": keystrokes,
        "wall_per_keystroke": elapsed / keystrokes,
        "commit_cost_per_keystroke": commit_cost / keystrokes,
        "commits": (after["txn.committed"]["value"]
                    - before["txn.committed"]["value"]),
        "fsyncs": (after["wal.fsyncs"]["value"]
                   - before["wal.fsyncs"]["value"]),
    }
    db.close()
    return stats


def test_group_commit_multiwriter(benchmark, tmp_path, monkeypatch):
    """§3.1 durability under concurrency: group commit + typing bursts.

    8 writers type bursts of 16 into their own documents of one shared
    file-backed database, on a simulated 2 ms-per-flush durable device
    (see :data:`SIM_FSYNC_SECONDS`).  The seed path pays one transaction
    and one fsync per keystroke; the tentpole path batches each burst
    into one transaction and groups concurrent commits behind shared
    fsyncs.

    Shape asserted: the file-backed durable keystroke cost (wall clock
    per keystroke, everything durable at the end) improves >= 3x, the
    durable-commit leg (the engine's own ``txn.commit_seconds``) by at
    least as much, and the fsync count is strictly sub-linear in the
    commit count.
    """
    real_fsync = os.fsync

    def flush_of_a_durable_device(fd: int) -> None:
        real_fsync(fd)
        time.sleep(SIM_FSYNC_SECONDS)

    monkeypatch.setattr(os, "fsync", flush_of_a_durable_device)
    rounds: list[dict] = []
    state = {"i": 0}

    def grouped_round():
        state["i"] += 1
        rounds.append(_durable_multiwriter(
            tmp_path, f"grouped{state['i']}", batched=True))

    benchmark.group = "C1 group-commit multiwriter"
    benchmark.extra_info["system"] = "tendax-grouped"
    benchmark.pedantic(grouped_round, rounds=3, iterations=1,
                       warmup_rounds=1)
    baseline = _durable_multiwriter(tmp_path, "percommit", batched=False)
    grouped = min(rounds, key=lambda s: s["wall_per_keystroke"])
    benchmark.extra_info["grouped"] = grouped
    benchmark.extra_info["baseline"] = baseline

    # The baseline fsyncs once per keystroke-commit; the grouped run must
    # stay strictly sub-linear in its own commit count (the barrier
    # actually merged concurrent commits) and far below the baseline.
    assert baseline["fsyncs"] >= baseline["commits"]
    assert grouped["fsyncs"] < grouped["commits"], grouped
    assert grouped["fsyncs"] * 4 < baseline["fsyncs"]

    # The headline: a durable keystroke costs >= 3x less end to end.
    # The burst's single commit record and the group's shared fsync
    # amortise the device flush across burst_len keystrokes and across
    # the concurrent writers of each group.
    wall_ratio = (baseline["wall_per_keystroke"]
                  / grouped["wall_per_keystroke"])
    benchmark.extra_info["durable_cost_ratio"] = round(wall_ratio, 2)
    assert wall_ratio >= 3.0, (baseline, grouped)

    # And the durable-commit leg itself (commit record + barrier wait +
    # flush, straight from txn.commit_seconds) shrinks at least as much.
    commit_ratio = (baseline["commit_cost_per_keystroke"]
                    / grouped["commit_cost_per_keystroke"])
    benchmark.extra_info["commit_leg_ratio"] = round(commit_ratio, 2)
    assert commit_ratio >= 3.0, (baseline, grouped)


# ---------------------------------------------------------------------------
# Reader/writer interference: snapshot scans vs 2PL shared-lock scans
# ---------------------------------------------------------------------------

def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _interference_round(tag: str, *, scanner_mode: str,
                        typists: int = 4, scanners: int = 2,
                        keystrokes: int = 120,
                        doc_size: int = 2000) -> dict:
    """N typists typing while M analytics scanners sweep the CHARS table.

    ``scanner_mode`` selects the reader implementation under test:

    * ``"none"`` — no scanners, the uncontended floor;
    * ``"2pl"`` — the pre-MVCC baseline: each sweep is a read-only
      transaction with ``locking_reads=True``, taking SHARED row locks
      held to the end of the sweep, so typists queue behind it (and it
      behind them);
    * ``"mvcc"`` — each sweep is a snapshot transaction resolving from
      version chains with zero LockManager calls.

    Returns the typists' keystroke latency percentiles plus the
    ``lock.acquired`` delta over the measured window — in the MVCC arm
    that delta must equal the scanner-free floor exactly.

    Scanners pause briefly between sweeps and the interpreter's thread
    switch interval is tightened for the round: both keep CPython's GIL
    scheduling from dominating the typists' tail, so the measured
    difference between the arms is lock blocking — the thing under
    test — not bytecode-slice starvation by busy-looping readers.
    """
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handles = [store.create(f"doc{w}", "ana", text=make_text(doc_size))
               for w in range(typists)]
    anchors = [h.anchor_for(h.length()) for h in handles]
    latencies: list[list[float]] = [[] for __ in range(typists)]
    stop = threading.Event()
    sweeps = [0] * scanners
    aborted = [0] * scanners
    typist_retries = [0] * typists
    barrier = threading.Barrier(typists + 1)

    def scan(idx: int) -> None:
        while not stop.is_set():
            try:
                if scanner_mode == "mvcc":
                    with db.snapshot() as txn:
                        sum(1 for r in txn.query(S.CHARS).run() if r["ch"])
                else:
                    with db.begin(read_only=True,
                                  locking_reads=True) as txn:
                        sum(1 for r in txn.query(S.CHARS).run() if r["ch"])
            except (DeadlockError, LockTimeoutError):
                # The 2PL baseline can be picked as a deadlock victim or
                # time out behind a typing burst; a real reporting job
                # would retry, so the scanner does too.
                aborted[idx] += 1
            else:
                sweeps[idx] += 1
            time.sleep(0.001)

    def typist(w: int) -> None:
        anchor = anchors[w]
        barrier.wait()
        for __ in range(keystrokes):
            started = time.perf_counter()
            while True:
                try:
                    (anchor,) = handles[w].insert_after(anchor, "x", "ana")
                except (DeadlockError, LockTimeoutError):
                    # Under the 2PL baseline a typist can be picked as
                    # the deadlock victim against a scanner's shared
                    # locks.  The editor retries the keystroke, and the
                    # recorded latency honestly includes the retry.
                    typist_retries[w] += 1
                else:
                    break
            latencies[w].append(time.perf_counter() - started)

    scan_threads = []
    if scanner_mode != "none":
        scan_threads = [threading.Thread(target=scan, args=(i,), daemon=True)
                        for i in range(scanners)]
        for t in scan_threads:
            t.start()
    before = db.metrics_snapshot()
    typing_threads = [threading.Thread(target=typist, args=(w,))
                      for w in range(typists)]
    for t in typing_threads:
        t.start()
    barrier.wait()
    for t in typing_threads:
        t.join()
    after = db.metrics_snapshot()
    stop.set()
    for t in scan_threads:
        t.join()
    flat = [lat for per_typist in latencies for lat in per_typist]
    db.close()
    sys.setswitchinterval(switch_interval)
    return {
        "tag": tag,
        "p50": _percentile(flat, 0.50),
        "p99": _percentile(flat, 0.99),
        "lock_acquired": (after["lock.acquired"]["value"]
                          - before["lock.acquired"]["value"]),
        "snapshot_reads": (after["txn.snapshot_reads"]["value"]
                          - before["txn.snapshot_reads"]["value"]),
        "sweeps": sum(sweeps),
        "aborted_sweeps": sum(aborted),
        "typist_retries": sum(typist_retries),
    }


def test_snapshot_scan_interference(benchmark):
    """C1 interference: typist p99 under concurrent analytics scans.

    Four typists type into their own documents while two scanners sweep
    the whole CHARS table in a loop.  With the 2PL-reader baseline every
    sweep holds SHARED locks on every row until it ends, so keystrokes
    queue behind sweeps and the typists' tail latency inflates by the
    sweep duration.  MVCC snapshot sweeps take no locks at all: the
    typist tail must stay within 2x of the 2PL arm's — in practice far
    better — and the ``lock.acquired`` delta of the MVCC arm must equal
    the scanner-free floor exactly (the scanners added zero lock
    traffic).
    """
    rounds: list[dict] = []
    state = {"i": 0}

    def mvcc_round():
        state["i"] += 1
        rounds.append(_interference_round(
            f"mvcc{state['i']}", scanner_mode="mvcc"))

    benchmark.group = "C1 reader interference"
    benchmark.extra_info["system"] = "tendax-mvcc-scan"
    benchmark.pedantic(mvcc_round, rounds=3, iterations=1, warmup_rounds=1)
    floor = _interference_round("floor", scanner_mode="none")
    locking = _interference_round("2pl", scanner_mode="2pl")
    mvcc = min(rounds, key=lambda r: r["p99"])
    benchmark.extra_info["floor"] = floor
    benchmark.extra_info["locking_baseline"] = locking
    benchmark.extra_info["mvcc"] = mvcc

    # Both scanner arms actually swept (the comparison is real).
    assert mvcc["sweeps"] > 0
    assert locking["sweeps"] + locking["aborted_sweeps"] > 0
    # Snapshot sweeps resolved through version chains, not locks: the
    # lock traffic with MVCC scanners running equals the scanner-free
    # floor exactly, and the snapshot read counter moved instead.
    assert mvcc["lock_acquired"] == floor["lock_acquired"], (mvcc, floor)
    assert mvcc["snapshot_reads"] > 0
    assert floor["snapshot_reads"] == 0
    # The headline: the typists' tail latency under concurrent scans is
    # >= 2x better with MVCC readers than with the 2PL-reader baseline.
    ratio = locking["p99"] / mvcc["p99"]
    benchmark.extra_info["p99_ratio"] = round(ratio, 2)
    assert ratio >= 2.0, (locking, mvcc)


# ---------------------------------------------------------------------------
# The other editing tasks of §2
# ---------------------------------------------------------------------------

def test_append_typing_burst(benchmark):
    """Sequential typing at the end of a document (the common case)."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(2000))

    def burst():
        anchor = handle.anchor_for(handle.length())
        for ch in "hello world ":
            (anchor,) = handle.insert_after(anchor, ch, "ana")

    benchmark.group = "C1 editing tasks"
    benchmark(burst)


def test_delete_range_transaction(benchmark):
    """Logical deletion of a 20-char range (one transaction)."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(20_000))
    state = {"pos": 0}

    def delete_range():
        handle.delete_range(state["pos"], 20, "ana")
        state["pos"] += 5

    benchmark.group = "C1 editing tasks"
    benchmark(delete_range)


def test_styling_range_transaction(benchmark):
    """Collaborative layout: styling a 50-char range."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(5000))
    style = db.new_oid("style")

    def style_range():
        handle.apply_style(100, 50, style, "ana")

    benchmark.group = "C1 editing tasks"
    benchmark(style_range)


def test_copy_paste_with_lineage(benchmark, server):
    """Paste of 100 chars including per-character lineage capture."""
    server.register_user("ana")
    session = server.connect("ana")
    src = session.create_document("src", text=make_text(2000))
    dst = session.create_document("dst", text="start ")
    session.copy(src.doc, 0, 100)

    def paste():
        session.paste(dst.doc, 0)

    benchmark.group = "C1 editing tasks"
    benchmark(paste)


def test_document_load(benchmark):
    """Opening a 10k-char document (chain traversal + cache build)."""
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text=make_text(10_000))
    doc = handle.doc

    def open_doc():
        h = store.handle(doc)
        h.close()
        return h.length()

    benchmark.group = "C1 editing tasks"
    result = benchmark(open_doc)
    assert result == 10_000


def test_storage_amplification_report():
    """Ablation: what character-level metadata costs in writes.

    Types 1000 characters into each system and compares the write
    amplification: TeNDaX writes O(1) rows per keystroke (but each row
    carries full metadata); the offset baseline writes O(n) row updates;
    the file baseline rewrites the whole document per save.
    """
    n = 1000
    # TeNDaX: count WAL data records for n keystrokes.
    db = Database("bench")
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana")
    before = len(db.wal)
    anchor = handle.begin_char
    for __ in range(n):
        (anchor,) = handle.insert_after(anchor, "x", "ana")
    tendax_records = len(db.wal) - before

    # Offset baseline: mid-document typing (the unfavourable position).
    odb = Database("bench2")
    offsets = OffsetDocumentStore(odb)
    doc = offsets.create("doc", "ana", "x" * 500)
    before = len(odb.wal)
    for i in range(50):  # 50 keystrokes are plenty to see the shape
        offsets.insert(doc, 250, "x", "ana")
    offset_records = (len(odb.wal) - before) * (n // 50)

    # File baseline: whole-file rewrite per keystroke.
    wp = FileWordProcessor()
    wp.create("doc.txt", "x" * 500)
    wp.open_for_edit("doc.txt", "ana")
    for __ in range(n):
        wp.insert("doc.txt", "ana", 250, "x")
    file_bytes = wp.stats["bytes_written"]

    # Appending at the end, TeNDaX pays ~6 WAL records per keystroke
    # (begin, insert, 2 neighbour updates, doc-row update, commit).
    assert tendax_records <= 7 * n
    # The offset layout pays hundreds of row updates per keystroke.
    assert offset_records > 50 * n
    # The file editor rewrote ~n/2 * n bytes = O(n^2) I/O.
    assert file_bytes > 500 * n
