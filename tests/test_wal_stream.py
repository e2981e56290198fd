"""One WAL stream: every reader and every replayer agrees on every log.

Two families of properties over the same generated logs:

* **differential replay** — crash recovery (``recover``), a replication
  follower (``FollowerEngine.apply_records``, also fed in two halves with
  a restart in between) and changefeed catch-up (``batches_from_records``
  folded over an empty map) are three sinks behind one replay core, so
  they must rebuild the same table state from any log: seeded torture
  logs from the crash harness (checkpoints and crash plans on) and
  hypothesis-generated logs of transactions open across one another,
  across checkpoints and aborts.  The engine logs a transaction as one
  block at COMMIT, so every generated programme is replayed twice: from
  the engine's own log (whose block structure is asserted, in memory
  and read back from its file) and from a **per-statement oracle log**
  of the same programme — BEGIN when the transaction starts, each
  statement as it executes, ABORT records, the records of concurrent
  transactions interleaved — which is how logs were written before and
  what the replay core must keep reading.  Both must rebuild the same
  state.
* **delta programmes** — UPDATE records carry only the columns a
  statement set, so the same equality is re-proved on histories built to
  stress the merge: several updates of one row in one transaction,
  update-after-insert, delete-after-update, NULL versus "unchanged",
  OID / JSON / BYTES columns, aborts, checkpoints mid-transaction and
  shuffled commit orders — for the in-memory records, for the same log
  read back from its lines, and against the live database that wrote
  it.  Two checked-in logs of older formats replay to the state their
  writers held: full-image UPDATEs (v1), and delta UPDATEs logged per
  statement with interleaved transactions and an ABORT (v2).
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

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, column, recover
from repro.db import wal as walmod
from repro.db.wal import WalRecord, WriteAheadLog, parse_records, render_record
from repro.errors import RecoveryError, WalError
from repro.faults import run_engine_schedule
from repro.feed.changefeed import batches_from_records
from repro.ids import Oid
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
# Log shapes: the engine's blocks, and the per-statement oracle
# ---------------------------------------------------------------------------

def assert_block_structured(records: list, *, torn_tail: bool = False
                            ) -> None:
    """What the engine writes: every transaction is one LSN-contiguous
    block BEGIN, DML..., COMMIT, and no record of an uncommitted
    transaction exists (``torn_tail``: except a crash's unfinished block
    at the very end of a file)."""
    assert [r.lsn for r in records] == sorted({r.lsn for r in records})
    open_txn = None
    for at, record in enumerate(records):
        if record.txn_id == 0:
            assert open_txn is None, \
                f"{record.type} at LSN {record.lsn} inside txn {open_txn}"
            continue
        if record.type == walmod.BEGIN:
            assert open_txn is None
            open_txn, previous = record.txn_id, record.lsn
            continue
        assert record.txn_id == open_txn, \
            f"LSN {record.lsn}: txn {record.txn_id} inside txn {open_txn}"
        assert record.lsn == previous + 1
        previous = record.lsn
        assert record.type != walmod.ABORT
        if record.type == walmod.COMMIT:
            open_txn = None
    if not torn_tail:
        assert open_txn is None, f"txn {open_txn} has no COMMIT"


class PerStatementLog:
    """The test oracle for how a programme was logged before
    transactions became blocks: mirror each step of a live engine here
    and get the log the old engine would have written."""

    def __init__(self) -> None:
        self.records: list = []

    def _append(self, type_: str, txn_id: int, **fields) -> None:
        self.records.append(WalRecord(len(self.records) + 1, type_, txn_id,
                                      **fields))

    def copy(self, record: WalRecord) -> None:
        """A DDL or CHECKPOINT record, as the engine logged it."""
        self._append(record.type, record.txn_id, payload=record.payload)

    def begin(self, txn) -> None:
        self._append(walmod.BEGIN, txn.txn_id)

    def statement(self, txn) -> None:
        """The statement ``txn`` just executed."""
        type_, table, rowid, cols, vals = txn._log[-1]
        self._append(type_, txn.txn_id, table=table, rowid=rowid,
                     cols=cols, vals=vals)

    def end(self, txn, type_: str) -> None:
        self._append(type_, txn.txn_id)


# ---------------------------------------------------------------------------
# Differential replay
# ---------------------------------------------------------------------------

class TestSeededTortureLogs:
    def test_recover_follower_and_feed_agree(self, crash_seed, tmp_path):
        seed = SEED_BASE + crash_seed
        outcome = run_engine_schedule(seed, str(tmp_path / "leader.wal"))
        records = WriteAheadLog.load_file(outcome.wal_path)
        # A crashed engine's file: whole blocks, and at most the block
        # it died in, unfinished, at the very end.
        assert_block_structured(records, torn_tail=True)
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


def build_log(steps: list, wal_path: str | None = None,
              oracle: PerStatementLog | None = None) -> list:
    """Drive a real engine through ``steps``; returns its WAL records.

    Up to three transactions are open at once, across each other's
    commits and across checkpoints; whatever is still open at the end
    is what a crash would lose.  Row targets are picked among committed
    rows no open transaction has touched, which keeps the schedule free
    of lock waits.  ``oracle`` receives the same programme statement by
    statement (there the transactions' records do interleave).
    """
    db = Database("gen", wal_path=wal_path)
    oracle = oracle if oracle is not None else PerStatementLog()
    db.create_table("t", [column("k", "str"), column("v", "int")], key="k")
    oracle.copy(db.wal.records_from(1)[-1])
    open_txns: dict = {}          # slot -> (txn, rowids it touched)
    live: set = set()             # committed rowids
    for n, (verb, slot, pick) in enumerate(steps):
        if verb == "checkpoint":
            db.checkpoint()
            oracle.copy(db.wal.records_from(db.wal.last_lsn())[0])
            continue
        if verb in ("commit", "abort"):
            if slot in open_txns:
                txn, touched = open_txns.pop(slot)
                if verb == "abort":
                    txn.abort()
                    oracle.end(txn, walmod.ABORT)
                    continue
                txn.commit()
                oracle.end(txn, walmod.COMMIT)
                for rowid, alive in touched.items():
                    (live.add if alive else live.discard)(rowid)
            continue
        if slot not in open_txns:
            open_txns[slot] = (db.begin(), {})
            oracle.begin(open_txns[slot][0])
        txn, touched = open_txns[slot]
        if verb == "insert":
            touched[txn.insert("t", {"k": f"k{n}", "v": pick})] = True
            oracle.statement(txn)
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
        oracle.statement(txn)
    records = list(db.wal.records())
    db.close()
    return records


class TestGeneratedLogs:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(steps=actions, cut=st.floats(min_value=0.0, max_value=1.0))
    def test_recover_follower_and_feed_agree(self, tmp_path_factory,
                                             steps, cut):
        tmp = tmp_path_factory.mktemp("stream")
        oracle = PerStatementLog()
        records = build_log(steps, str(tmp / "leader.wal"), oracle)
        # The engine's log is blocks, in memory and on its file ...
        assert_block_structured(records)
        assert WriteAheadLog.load_file(str(tmp / "leader.wal")) \
            == as_lines(records)
        state = assert_sinks_agree(records, str(tmp / "mirror.wal"),
                                   int(cut * len(records)))
        # ... and says what the statement-by-statement log says.
        logged = oracle.records
        assert assert_sinks_agree(logged, str(tmp / "mirror2.wal"),
                                  int(cut * len(logged))) == state

    def test_transaction_open_across_a_checkpoint_and_a_restart(
            self, tmp_path):
        """The motivating case, pinned: early DML, CHECKPOINT, a follower
        restart, then the COMMIT — all four replays keep the early row."""
        oracle = PerStatementLog()
        records = build_log([("insert", 0, 1), ("checkpoint", 0, 0),
                             ("insert", 0, 2), ("commit", 0, 0)],
                            oracle=oracle)
        # The engine logs the transaction whole, after the checkpoint;
        # logged per statement its first insert lies before it.
        assert [r.type for r in records][1:] == [
            "CHECKPOINT", "BEGIN", "INSERT", "INSERT", "COMMIT"]
        assert [r.type for r in oracle.records][1:] == [
            "BEGIN", "INSERT", "CHECKPOINT", "INSERT", "COMMIT"]
        for n, log in enumerate((records, oracle.records)):
            state = assert_sinks_agree(
                log, str(tmp_path / f"mirror{n}.wal"),
                restart_at=len(log) - 2)
            assert sorted(row["v"] for row in state.values()) == [1, 2]


# ---------------------------------------------------------------------------
# Delta programmes: UPDATE records name only the columns they set
# ---------------------------------------------------------------------------

#: Values per column of the delta table; ``None`` is a value (NULL), not
#: "leave alone" — a step leaves a column alone by not naming it.
DELTA_VALUES = {
    "v": st.none() | st.integers(-5, 5),
    "ref": st.none() | st.builds(Oid, st.sampled_from(("n.doc", "n.char")),
                                 st.integers(1, 9)),
    "blob": st.none() | st.binary(max_size=4),
    "props": st.none() | st.dictionaries(
        st.sampled_from(("a", "b")),
        st.integers(0, 3) | st.lists(st.integers(0, 3), max_size=2),
        max_size=2),
}

delta_updates = st.dictionaries(
    st.sampled_from(sorted(DELTA_VALUES)), st.none(), min_size=1
).flatmap(lambda keys: st.fixed_dictionaries(
    {name: DELTA_VALUES[name] for name in keys}))

#: (verb, transaction slot, target pick, column values).
delta_steps = st.lists(
    st.tuples(
        st.sampled_from(("insert", "update", "update", "update", "delete",
                         "commit", "commit", "abort", "checkpoint")),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10 ** 6),
        delta_updates),
    max_size=MAX_ACTIONS)


def build_delta_log(steps: list, oracle: PerStatementLog | None = None
                    ) -> tuple[list, dict]:
    """Like :func:`build_log`, but a transaction keeps working on rows it
    already touched — including ones it inserted or updated itself — so
    one transaction logs chains of deltas on one row.  Returns the WAL
    records and the live database's committed state."""
    db = Database("gen")
    oracle = oracle if oracle is not None else PerStatementLog()
    db.create_table("d", [
        column("k", "str"), column("v", "int", nullable=True),
        column("ref", "oid", nullable=True),
        column("blob", "bytes", nullable=True),
        column("props", "json", nullable=True)], key="k")
    oracle.copy(db.wal.records_from(1)[-1])
    open_txns: dict = {}          # slot -> (txn, {rowid: alive})
    live: set = set()             # committed rowids
    for n, (verb, slot, pick, values) in enumerate(steps):
        if verb == "checkpoint":
            db.checkpoint()
            oracle.copy(db.wal.records_from(db.wal.last_lsn())[0])
            continue
        if verb in ("commit", "abort"):
            if slot in open_txns:
                txn, touched = open_txns.pop(slot)
                if verb == "abort":
                    txn.abort()
                    oracle.end(txn, walmod.ABORT)
                    continue
                txn.commit()
                oracle.end(txn, walmod.COMMIT)
                for rowid, alive in touched.items():
                    (live.add if alive else live.discard)(rowid)
            continue
        if slot not in open_txns:
            open_txns[slot] = (db.begin(), {})
            oracle.begin(open_txns[slot][0])
        txn, touched = open_txns[slot]
        if verb == "insert":
            touched[txn.insert("d", {"k": f"k{n}", **values})] = True
            oracle.statement(txn)
            continue
        others = {r for s, (_, rows) in open_txns.items() if s != slot
                  for r in rows}
        mine = {r for r, alive in touched.items() if alive}
        gone = {r for r, alive in touched.items() if not alive}
        free = sorted((live | mine) - others - gone)
        if not free:
            continue
        rowid = free[pick % len(free)]
        if verb == "update":
            txn.update("d", rowid, values)
            touched[rowid] = True
        else:
            txn.delete("d", rowid)
            touched[rowid] = False
        oracle.statement(txn)
    records = list(db.wal.records())
    return records, table_state(db)


def as_lines(records: list) -> list:
    """The same log as a file or a shipped segment would carry it."""
    data = "".join(render_record(r) + "\n" for r in records).encode()
    return parse_records(data)[0]


def state_sha(state: dict) -> str:
    def plain(value):
        if isinstance(value, Oid):
            return {"oid": str(value)}
        if isinstance(value, bytes):
            return {"bytes": value.hex()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value
    rows = sorted((name, rowid, plain(row))
                  for (name, rowid), row in state.items())
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


FULL_IMAGE_LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "wal_full_image_v1.log")
#: SHA of the writer's live tables when the fixture was cut (commit
#: 993e34e: every UPDATE record a full after-image).
FULL_IMAGE_SHA = \
    "5bd3b7a7dcd7aa027d539093a370070a3c8a68e9cb9919ef9122270a37dca7e9"


INTERLEAVED_LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "data", "wal_interleaved_v2.log")
#: SHA of the writer's live tables when the fixture was cut (commit
#: c5d6a7a: delta UPDATEs, every statement appended as it executed).
INTERLEAVED_SHA = \
    "a02a28053b8bec02ccde6c058943eab6c828c6743c5125b1a1b2d60fa9810fe6"


class TestDeltaProgrammes:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(steps=delta_steps, cut=st.floats(min_value=0.0, max_value=1.0))
    def test_every_replica_equals_the_live_database(
            self, tmp_path_factory, steps, cut):
        oracle = PerStatementLog()
        records, live = build_delta_log(steps, oracle)
        assert_block_structured(records)
        tmp = tmp_path_factory.mktemp("delta")
        for n, log in enumerate((records, as_lines(records),
                                 oracle.records, as_lines(oracle.records))):
            state = assert_sinks_agree(log, str(tmp / f"mirror{n}.wal"),
                                       int(cut * len(log)))
            assert state == live

    def test_update_records_carry_only_the_columns_set(self):
        records, live = build_delta_log([
            ("insert", 0, 0, {"v": 1, "blob": b"\x01"}),
            ("update", 0, 0, {"v": 2}),
            ("update", 0, 0, {"ref": Oid("n.doc", 3), "v": None}),
            ("commit", 0, 0, {}),
        ])
        updates = [r for r in records if r.type == walmod.UPDATE]
        assert [(r.cols, r.vals) for r in updates] == [
            (("v",), (2,)), (("ref", "v"), (Oid("n.doc", 3), None))]
        ((_, row),) = live.items()
        assert (row["v"], row["ref"], row["blob"]) \
            == (None, Oid("n.doc", 3), b"\x01")
        assert '"values":{"v":2}' in render_record(updates[0])

    def test_null_is_a_value_and_absence_is_not(self, tmp_path):
        """Setting a column to NULL and not naming it replay differently."""
        records, live = build_delta_log([
            ("insert", 0, 0, {"v": 7, "props": {"a": 1}}),
            ("commit", 0, 0, {}),
            ("update", 1, 0, {"v": None}),          # props not named
            ("commit", 1, 0, {}),
        ])
        state = assert_sinks_agree(as_lines(records),
                                   str(tmp_path / "mirror.wal"), 5)
        ((_, row),) = state.items()
        assert row["v"] is None and row["props"] == {"a": 1}
        assert state == live

    def test_chains_on_one_row_across_a_checkpoint(self, tmp_path):
        """Insert, update, CHECKPOINT, update again, delete another row
        it updated: one transaction, every replica."""
        records, live = build_delta_log([
            ("insert", 1, 0, {"v": 1}), ("insert", 1, 0, {"v": 2}),
            ("commit", 1, 0, {}),
            ("update", 0, 0, {"v": 10}),
            ("checkpoint", 0, 0, {}),
            ("update", 0, 0, {"blob": b"zz"}),
            ("update", 0, 1, {"v": 20}),
            ("delete", 0, 1, {}),
            ("commit", 0, 0, {}),
        ])
        state = assert_sinks_agree(records, str(tmp_path / "mirror.wal"),
                                   restart_at=len(records) - 3)
        assert state == live
        ((_, row),) = state.items()
        assert (row["v"], row["blob"]) == (10, b"zz")

    def test_a_delta_without_its_base_row_raises(self, tmp_path):
        """A cut that loses the base row must fail loudly in every sink,
        naming the table, the row and the LSN — never install a row
        padded with defaults."""
        records, _ = build_delta_log([
            ("insert", 0, 0, {"v": 1}), ("commit", 0, 0, {}),
            ("update", 0, 0, {"v": 2}), ("commit", 0, 0, {}),
        ])
        insert = next(r for r in records if r.type == walmod.INSERT)
        update = next(r for r in records if r.type == walmod.UPDATE)
        holed = [r for r in records if r is not insert]
        with pytest.raises(RecoveryError) as caught:
            recover(holed)
        for part in ("'d'", f"row {update.rowid}", f"LSN {update.lsn}"):
            assert part in str(caught.value)
        with pytest.raises(RecoveryError):
            batches_from_records(holed)
        follower = FollowerEngine(node="replica")
        try:
            # Gap-free for the applier: renumber the records it sees.
            shipped = [r._replace(lsn=n) for n, r in enumerate(holed, 1)]
            with pytest.raises(RecoveryError):
                follower.apply_records(shipped)
            counter = follower.db.metrics_snapshot()["wal.missing_base_rows"]
            assert counter["value"] == 1
        finally:
            follower.close()

    def test_full_image_log_of_the_previous_format_replays_identically(
            self, tmp_path):
        """A log whose UPDATEs are full after-images (what the engine
        wrote before records became deltas) is just the widest delta."""
        records = WriteAheadLog.load_file(FULL_IMAGE_LOG)
        updates = [r for r in records if r.type == walmod.UPDATE]
        assert updates and all(len(r.cols) >= 5 for r in updates)
        state = assert_sinks_agree(records, str(tmp_path / "mirror.wal"),
                                   restart_at=len(records) // 2)
        assert state_sha(state) == FULL_IMAGE_SHA
        # Byte-exact round trip: a follower's mirror of an old leader's
        # log is still the leader's log.
        with open(FULL_IMAGE_LOG, "rb") as handle:
            assert handle.read() == "".join(
                render_record(r) + "\n" for r in records).encode()


    def test_per_statement_log_of_the_previous_format_replays_identically(
            self, tmp_path):
        """A log written statement by statement: three transactions
        interleaved, one aborted (BEGIN/DML/ABORT on record), two open
        across a CHECKPOINT, one cut off by the crash."""
        records = WriteAheadLog.load_file(INTERLEAVED_LOG)
        with pytest.raises(AssertionError):
            assert_block_structured(records)      # it really is not blocks
        assert any(r.type == walmod.ABORT for r in records)
        checkpoint = next(r.lsn for r in records
                          if r.type == walmod.CHECKPOINT)
        straddlers = {r.txn_id for r in records
                      if r.type in walmod.DML and r.lsn < checkpoint} \
            & {r.txn_id for r in records
               if r.type == walmod.COMMIT and r.lsn > checkpoint}
        assert len(straddlers) == 2
        for n, restart_at in enumerate((checkpoint - 1, checkpoint + 3,
                                        len(records) - 1)):
            state = assert_sinks_agree(
                records, str(tmp_path / f"mirror{n}.wal"), restart_at)
            assert state_sha(state) == INTERLEAVED_SHA
        with open(INTERLEAVED_LOG, "rb") as handle:
            assert handle.read() == "".join(
                render_record(r) + "\n" for r in records).encode()


# ---------------------------------------------------------------------------
# Joining at a CHECKPOINT while a leader transaction is open
# ---------------------------------------------------------------------------

class TestJoiningAtACheckpoint:
    """ROADMAP 5(ii), the hole that was left: a replica that starts from
    a CHECKPOINT cut while a transaction was open (a follower joining
    after compaction — ``durable_segment``'s fallback —, a recovery, a
    feed consumer catching up) must end up with that transaction's
    *early* writes once it commits.  The checkpoint holds none of them
    (they were only staged), and when they were logged as they executed
    they lay before it, out of the newcomer's reach.  Logged at COMMIT
    they all follow it."""

    @staticmethod
    def leader(tmp_path, *, compact: bool):
        db = Database("leader", wal_path=str(tmp_path / "leader.wal"))
        db.create_table("d", [column("k", "str"), column("v", "int")],
                        key="k")
        settled = db.insert("d", {"k": "settled", "v": 1})
        txn = db.begin()
        txn.insert("d", {"k": "early", "v": 2})
        txn.update("d", settled, {"v": 10})        # a delta, pre-checkpoint
        cut = db.checkpoint()
        if compact:
            db.wal.truncate_before(cut)
        return db, txn, cut

    EXPECTED = [("early", 2), ("late", 3), ("settled", 10)]

    @staticmethod
    def rows(db) -> list:
        return sorted((r["k"], r["v"]) for r in db.query("d").run())

    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compacted-log", "row-by-row"])
    def test_follower_joining_mid_transaction_gets_its_early_writes(
            self, tmp_path, compact):
        from repro.repl import WalTailer
        leader, txn, cut = self.leader(tmp_path, compact=compact)
        follower = FollowerEngine(str(tmp_path / "follower.wal"))
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()                     # joins while the txn is open
        assert follower.applied_lsn == cut
        assert follower.status()["pending_txns"] == 0
        assert self.rows(follower.db) == [("settled", 1)]
        txn.insert("d", {"k": "late", "v": 3})
        txn.commit()
        tailer.poll()
        assert self.rows(follower.db) == self.EXPECTED
        # ... and so does the follower's own log, replayed from scratch.
        follower.close()
        restarted = FollowerEngine(str(tmp_path / "follower.wal"))
        assert self.rows(restarted.db) == self.EXPECTED
        leader.close(); restarted.close()

    def test_follower_joining_from_the_checkpoint_record_on(self, tmp_path):
        """The same entry point without the tailer: the first record a
        newcomer is handed is the CHECKPOINT itself."""
        leader, txn, cut = self.leader(tmp_path, compact=False)
        txn.insert("d", {"k": "late", "v": 3})
        txn.commit()
        follower = FollowerEngine()
        follower.apply_records(leader.wal.records_from(cut))
        assert self.rows(follower.db) == self.EXPECTED
        leader.close(); follower.close()

    def test_recovery_and_catch_up_from_the_compacted_log(self, tmp_path):
        leader, txn, cut = self.leader(tmp_path, compact=True)
        txn.insert("d", {"k": "late", "v": 3})
        txn.commit()
        records = list(leader.wal.records())
        assert records[0].lsn == cut
        assert self.rows(recover(records)) == self.EXPECTED
        # A feed consumer whose cursor is the checkpoint catches up on
        # the whole transaction, deltas finding their base rows in it.
        fresh = recover(records)
        seen: list = []
        delivered = fresh.changefeed().catch_up(
            "late-consumer", seen.append, records)
        assert delivered == 1
        assert [(e.kind, e.row["k"], e.row["v"]) for e in seen[0].events] \
            == [("insert", "early", 2), ("update", "settled", 10),
                ("insert", "late", 3)]
        leader.close()


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

def _record(lsn: int, type_: str, txn: int, data: dict) -> WalRecord:
    """DML carries its row as parallel column/value tuples, every other
    type a payload mapping."""
    if type_ in walmod.DML:
        return WalRecord(lsn, type_, txn, table="t", rowid=lsn % 97,
                         cols=tuple(data), vals=tuple(data.values()))
    return WalRecord(lsn, type_, txn, data)


wal_records = st.builds(
    _record,
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
