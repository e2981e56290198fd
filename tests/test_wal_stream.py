"""One WAL stream: every reader and every replayer agrees on every log.

Two families of properties over the same generated logs:

* **differential replay** — crash recovery (``recover``), a replication
  follower (``FollowerEngine.apply_records``, also fed in two halves with
  a restart in between) and changefeed catch-up (``batches_from_records``
  folded over an empty map) are three sinks behind one replay core, so
  they must rebuild the same table state from any log: seeded torture
  logs from the crash harness (checkpoints and crash plans on) and
  hypothesis-generated logs that interleave transactions across
  checkpoints and aborts.
* **codec** — render -> parse round-trips every record, parsing any byte
  prefix of a valid log never raises and yields a record prefix ending on
  a line boundary, and corrupting a non-final line raises ``WalError`` —
  the same three assertions against every reader of the line format: the
  parser itself, ``WriteAheadLog.load_file``, ``WalFileTailer`` and a
  ``WalSegment`` frame round trip.

The nightly arm re-runs this file at a larger budget
(``MVCC_PROPERTY_PROFILE=nightly`` for hypothesis,
``--torture-schedules`` for the seeded logs).
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, column, recover
from repro.db import wal as walmod
from repro.db.wal import WalRecord, WriteAheadLog, parse_records, render_record
from repro.errors import WalError
from repro.faults import run_engine_schedule
from repro.feed.changefeed import batches_from_records
from repro.net import FrameDecoder, WalSegment, encode_frame
from repro.repl import FollowerEngine, WalFileTailer

pytestmark = [
    pytest.mark.torture,
    pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record"),
]

_NIGHTLY = os.environ.get("MVCC_PROPERTY_PROFILE") == "nightly"
MAX_EXAMPLES = 300 if _NIGHTLY else 40
MAX_ACTIONS = 80 if _NIGHTLY else 40

SEED_BASE = 4000   # apart from the engine (0) and replication (2000) torture


# ---------------------------------------------------------------------------
# The three sinks
# ---------------------------------------------------------------------------

def table_state(db: Database) -> dict:
    return {(name, rowid): db.table(name).schema.row_dict(row)
            for name in db.tables()
            for rowid, row in db.table(name).committed_items()}


def recovered_state(records: list) -> dict:
    db = recover(records)
    try:
        return table_state(db)
    finally:
        db.close()


def follower_state(records: list, mirror: str | None = None,
                   restart_at: int | None = None) -> dict:
    """State of a follower fed ``records``; with ``restart_at`` it is
    closed after that many records and restarted over its mirror."""
    follower = FollowerEngine(mirror)
    if restart_at is not None:
        follower.apply_records(records[:restart_at])
        follower.close()
        follower = FollowerEngine(mirror)
        assert follower.applied_lsn == \
            (records[restart_at - 1].lsn if restart_at else 0)
    follower.apply_records(records)   # the overlap is dropped as duplicates
    try:
        return table_state(follower.db)
    finally:
        follower.close()


def feed_state(records: list) -> dict:
    state: dict = {}
    for batch in batches_from_records(records):
        for event in batch.events:
            if event.kind == "delete":
                state.pop((event.table, event.rowid), None)
            else:
                state[(event.table, event.rowid)] = event.row
    return state


def assert_sinks_agree(records: list, mirror: str, restart_at: int) -> dict:
    expected = recovered_state(records)
    assert follower_state(records) == expected
    assert feed_state(records) == expected
    assert follower_state(records, mirror, restart_at) == expected
    return expected


# ---------------------------------------------------------------------------
# Differential replay
# ---------------------------------------------------------------------------

class TestSeededTortureLogs:
    def test_recover_follower_and_feed_agree(self, crash_seed, tmp_path):
        seed = SEED_BASE + crash_seed
        outcome = run_engine_schedule(seed, str(tmp_path / "leader.wal"))
        records = WriteAheadLog.load_file(outcome.wal_path)
        restart_at = random.Random(seed).randint(0, len(records))
        state = assert_sinks_agree(records, str(tmp_path / "mirror.wal"),
                                   restart_at)
        assert {rowid: row for (_, rowid), row in state.items()} \
            == outcome.expected_rows, f"seed {seed}"


#: One step of a generated history: (verb, transaction slot, target pick).
actions = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "update", "delete",
                         "commit", "commit", "abort", "checkpoint")),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10 ** 6)),
    max_size=MAX_ACTIONS)


def build_log(steps: list) -> list:
    """Drive a real engine through ``steps``; returns its WAL records.

    Up to three transactions are open at once, so their records
    interleave with each other and with checkpoints; whatever is still
    open at the end is the uncommitted tail of a crash.  Row targets are
    picked among committed rows no open transaction has touched, which
    keeps the schedule free of lock waits.
    """
    db = Database("gen")
    db.create_table("t", [column("k", "str"), column("v", "int")], key="k")
    open_txns: dict = {}          # slot -> (txn, rowids it touched)
    live: set = set()             # committed rowids
    for n, (verb, slot, pick) in enumerate(steps):
        if verb == "checkpoint":
            db.checkpoint()
            continue
        if verb in ("commit", "abort"):
            if slot in open_txns:
                txn, touched = open_txns.pop(slot)
                if verb == "abort":
                    txn.abort()
                    continue
                txn.commit()
                for rowid, alive in touched.items():
                    (live.add if alive else live.discard)(rowid)
            continue
        if slot not in open_txns:
            open_txns[slot] = (db.begin(), {})
        txn, touched = open_txns[slot]
        if verb == "insert":
            touched[txn.insert("t", {"k": f"k{n}", "v": pick})] = True
            continue
        busy = {r for _, rows in open_txns.values() for r in rows}
        free = sorted(live - busy)
        if not free:
            continue
        rowid = free[pick % len(free)]
        if verb == "update":
            txn.update("t", rowid, {"v": pick})
            touched[rowid] = True
        else:
            txn.delete("t", rowid)
            touched[rowid] = False
    return list(db.wal.records())


class TestGeneratedLogs:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(steps=actions, cut=st.floats(min_value=0.0, max_value=1.0))
    def test_recover_follower_and_feed_agree(self, tmp_path_factory,
                                             steps, cut):
        records = build_log(steps)
        mirror = str(tmp_path_factory.mktemp("stream") / "mirror.wal")
        assert_sinks_agree(records, mirror, int(cut * len(records)))

    def test_transaction_open_across_a_checkpoint_and_a_restart(
            self, tmp_path):
        """The motivating case, pinned: early DML, CHECKPOINT, a follower
        restart, then the COMMIT — all four replays keep the early row."""
        records = build_log([("insert", 0, 1), ("checkpoint", 0, 0),
                             ("insert", 0, 2), ("commit", 0, 0)])
        state = assert_sinks_agree(records, str(tmp_path / "mirror.wal"),
                                   restart_at=len(records) - 2)
        assert sorted(row["v"] for row in state.values()) == [1, 2]


# ---------------------------------------------------------------------------
# Codec: one line format, four readers
# ---------------------------------------------------------------------------

class _ShippedTo:
    """Stands in for a follower: keeps what a tailer ships to it."""

    def __init__(self) -> None:
        self.records: list = []
        self.db = self

    def now(self) -> float:
        return 0.0

    def apply_records(self, records, **_) -> int:
        self.records.extend(records)
        return len(records)


def read_with_parser(data: bytes, tmp) -> list:
    return parse_records(data)[0]


def read_with_load_file(data: bytes, tmp) -> list:
    path = tmp / "log.wal"
    path.write_bytes(data)
    return WriteAheadLog.load_file(str(path))


def read_with_file_tailer(data: bytes, tmp) -> list:
    path = tmp / "log.wal"
    half = len(data) // 2
    path.write_bytes(data[:half])
    sink = _ShippedTo()
    tailer = WalFileTailer(str(path), sink)
    tailer.drain()
    with open(path, "ab") as raw:       # the file grows between polls
        raw.write(data[half:])
    tailer.drain()
    return sink.records


def read_with_segment(data: bytes, tmp) -> list:
    """A leader ships whole lines only: the complete lines of ``data``
    cross the wire as one WAL_SEGMENT frame."""
    lines = data.decode("utf-8", "replace").split("\n")[:-1]
    frame = encode_frame(WalSegment(records=tuple(lines), end_lsn=0))
    (segment,) = FrameDecoder().feed(frame)
    return segment.parse()


READERS = [read_with_parser, read_with_load_file, read_with_file_tailer,
           read_with_segment]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 12, 10 ** 12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)

wal_records = st.builds(
    WalRecord,
    st.integers(min_value=1, max_value=10 ** 9),
    st.sampled_from(sorted(walmod._TYPES)),
    st.integers(min_value=0, max_value=10 ** 6),
    st.dictionaries(st.text(max_size=6), json_values, max_size=4))

logs = st.lists(wal_records, min_size=1, max_size=12)


def as_bytes(records: list) -> bytes:
    return "".join(render_record(r) + "\n" for r in records).encode()


@pytest.mark.parametrize("read", READERS, ids=lambda fn: fn.__name__)
class TestCodec:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(records=logs)
    def test_render_parse_round_trip(self, tmp_path_factory, read, records):
        tmp = tmp_path_factory.mktemp("codec")
        assert read(as_bytes(records), tmp) == records

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(records=logs, cut=st.floats(min_value=0.0, max_value=1.0))
    def test_any_byte_prefix_parses_to_a_record_prefix(
            self, tmp_path_factory, read, records, cut):
        tmp = tmp_path_factory.mktemp("codec")
        data = as_bytes(records)
        prefix = data[:int(cut * len(data))]
        got = read(prefix, tmp)
        assert got == records[:len(got)]
        parsed, valid = parse_records(prefix)
        assert parsed == got
        assert valid == len(as_bytes(got))      # a line boundary
        assert len(got) == prefix.count(b"\n")  # every complete line

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(records=logs.filter(lambda log: len(log) > 1),
           where=st.integers(min_value=0, max_value=10 ** 6))
    def test_corrupt_non_final_line_raises(self, tmp_path_factory, read,
                                           records, where):
        tmp = tmp_path_factory.mktemp("codec")
        lines = as_bytes(records).split(b"\n")[:-1]
        lines[where % (len(lines) - 1)] = b'{"lsn": 3, "type": "COMM'
        with pytest.raises(WalError, match="not a torn tail"):
            read(b"\n".join(lines) + b"\n", tmp)
