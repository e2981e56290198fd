"""Recovery and restart read a log file one segment at a time.

A log file has one reader, :func:`repro.db.wal.log_segments`, which walks
it in :func:`~repro.db.wal.read_segment` segments of at most
``SEGMENT_RECORDS`` lines; :func:`recover_file`, :func:`restart` and
``WriteAheadLog.load_file`` all go through it.  These tests pin what
that must not change: corruption raises wherever it sits relative to a
segment boundary, a torn tail is skipped and counted wherever it sits,
only a restart cuts it off the file, the durable prefix a restarted log
publishes is the file it cut, a log whose LSNs go back is refused, and
recovery holds the state it rebuilds plus one segment, not the history.
"""

from __future__ import annotations

import gc
import os
import re
import tracemalloc

import pytest

from repro.db import Database, column, recover_file
from repro.db.recovery import restart
from repro.db.wal import SEGMENT_RECORDS, WriteAheadLog
from repro.errors import WalError
from repro.repl import WalTailer
from repro.text import DocumentStore

CORRUPT = b'{"lsn": 3, "type": "COMM'


def rows(db: Database) -> list[str]:
    return sorted(r["k"] for r in db.query("kv").run())


def write_log(path: str, inserts: int = 200) -> list[bytes]:
    """A real engine's log: one CREATE_TABLE line, then three lines per
    committed insert; returns its lines."""
    db = Database("seg", wal_path=path)
    db.create_table("kv", [column("k", "str")], key="k")
    for i in range(inserts):
        db.insert("kv", {"k": f"k{i:04d}"})
    db.close()
    with open(path, "rb") as handle:
        data = handle.read().split(b"\n")[:-1]
    assert len(data) == 1 + 3 * inserts
    return data


def replace_file(path: str, lines: list[bytes], tail: bytes = b"") -> None:
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines) + tail)


READERS = {
    "recover_file": recover_file,
    "restart": restart,
    "load_file": WriteAheadLog.load_file,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("index", [SEGMENT_RECORDS - 1, SEGMENT_RECORDS])
def test_corrupt_line_at_a_segment_boundary_raises(tmp_path, reader, index):
    """The last line of the first segment and the first of the second:
    either is followed by more lines, so neither is a torn tail."""
    path = str(tmp_path / "wal.jsonl")
    lines = write_log(path)
    lines[index] = CORRUPT
    replace_file(path, lines)
    offset = sum(len(line) + 1 for line in lines[:index])
    before = os.path.getsize(path)
    with pytest.raises(WalError, match=f"at byte {offset} .*not a torn tail"):
        READERS[reader](path)
    assert os.path.getsize(path) == before


@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
def test_a_torn_first_line_of_a_segment_is_skipped_counted_and_kept(
        tmp_path):
    path = str(tmp_path / "wal.jsonl")
    lines = write_log(path)
    kept = lines[:2 * SEGMENT_RECORDS]
    torn = lines[2 * SEGMENT_RECORDS][:40]
    replace_file(path, kept, torn)
    size = os.path.getsize(path)
    clean = str(tmp_path / "clean.jsonl")
    replace_file(clean, kept)

    with pytest.warns(RuntimeWarning, match=f"at byte {size - len(torn)}"):
        recovered = recover_file(path)
    assert rows(recovered) == rows(recover_file(clean))
    counters = recovered.obs.registry.snapshot()
    assert counters["wal.torn_tail_recoveries"]["value"] == 1
    assert WriteAheadLog.load_file(path) == WriteAheadLog.load_file(clean)
    assert os.path.getsize(path) == size, "readers never cut"

    resumed, core = restart(path)
    assert rows(resumed) == rows(recovered)
    counters = resumed.obs.registry.snapshot()
    assert counters["wal.torn_tail_recoveries"]["value"] == 1
    assert core.applied_lsn == WriteAheadLog.load_file(clean)[-1].lsn
    resumed.close()
    with open(path, "rb") as handle, open(clean, "rb") as expected:
        assert handle.read() == expected.read(), "restart cut the tail"


@pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record")
def test_restart_publishes_the_cut_size_and_ships_none_of_the_tail(
        tmp_path):
    path = str(tmp_path / "wal.jsonl")
    lines = write_log(path, inserts=100)
    torn = lines[-1][:30]
    replace_file(path, lines[:-1], torn)

    db, core = restart(path)
    assert db.wal.durable_prefix() == (core.applied_lsn,
                                       os.path.getsize(path))
    tailer = WalTailer(db.wal)
    shipped: list[bytes] = []
    lsns: list[int] = []

    def ship_all() -> None:
        """Pull every segment the log lets a follower have now."""
        while True:
            records, got, _ = tailer.segment((lsns or [0])[-1] + 1)
            if not records:
                return
            lsns.extend(r.lsn for r in records)
            shipped.extend(got)

    ship_all()
    assert lsns[-1] == core.applied_lsn
    db.insert("kv", {"k": "after"})
    ship_all()
    db.close()
    with open(path, "rb") as handle:
        data = handle.read()
    assert b"".join(line + b"\n" for line in shipped) == data
    assert torn not in data
    assert lsns == sorted(set(lsns))


def test_a_second_history_in_one_file_is_refused(tmp_path):
    """Two logs, each written from LSN 1, joined in one file (what an
    engine opened on a log without restarting it used to write); replay
    would let the second history's rows overwrite the first's committed
    ones."""
    path = str(tmp_path / "wal.jsonl")
    logs = []
    for key in ("one", "two"):
        part = str(tmp_path / f"{key}.jsonl")
        db = Database("twice", wal_path=part)
        db.create_table("kv", [column("k", "str")], key="k")
        db.insert("kv", {"k": key})
        db.close()
        with open(part, "rb") as handle:
            logs.append(handle.read())
    first = len(logs[0])
    with open(path, "wb") as handle:
        handle.write(b"".join(logs))
    for read in READERS.values():
        with pytest.raises(WalError,
                           match=f"back to LSN 1 after LSN 4 at byte {first}"):
            read(path)


def test_an_engine_refuses_a_file_that_holds_a_log(tmp_path):
    """Only ``restart`` goes on writing a log: ``Database(wal_path=p)``
    on a file that holds any byte raises before writing one, so the
    file still recovers what it held; restarting it extends it."""
    path = str(tmp_path / "wal.jsonl")
    db = Database("once", wal_path=path)
    db.create_table("kv", [column("k", "str")], key="k")
    db.insert("kv", {"k": "one"})
    db.close()
    size = os.path.getsize(path)
    with pytest.raises(WalError, match=f"{re.escape(repr(path))} already "
                                       f"holds a log.*restart"):
        Database("twice", wal_path=path)
    assert os.path.getsize(path) == size
    assert [row["k"] for row in recover_file(path).query("kv").run()] \
        == ["one"]
    db = restart(path)[0]
    db.insert("kv", {"k": "two"})
    db.close()
    assert sorted(row["k"] for row in recover_file(path).query("kv").run()) \
        == ["one", "two"]


def test_recovery_holds_the_state_not_the_history(tmp_path):
    """1 000 insert + delete pairs on a 500-character document: the log
    grows, the live state does not.  The traced peak of ``recover_file``
    read 10 572 000 B while the whole file's records were parsed before
    the first was replayed and 1 768 000 B streamed; gated halfway."""
    path = str(tmp_path / "wal.jsonl")
    db = Database("bench", wal_path=path)
    store = DocumentStore(db, log_reads=False, log_writes=False)
    handle = store.create("doc", "ana", text="seed text " * 50)
    for _ in range(1000):
        handle.insert_text(250, "x", "ana")
        handle.delete_range(250, 1, "ana")
    db.close()
    gc.collect()
    tracemalloc.start()
    try:
        recovered = recover_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert DocumentStore(recovered).handle(handle.doc).length() == 500
    assert peak <= 6_170_000
