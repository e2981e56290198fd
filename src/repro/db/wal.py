"""Write-ahead log.

A write transaction reaches the log once, at COMMIT, as one block: BEGIN,
its row changes, COMMIT — contiguous LSNs, one hold of the append lock,
one write.  Nothing uncommitted ever reaches a table or a reader of the
log (the store is no-steal), so redo needs nothing before the COMMIT and
an aborted or crashed transaction leaves no trace here.  Recovery
(:mod:`repro.db.recovery`) replays committed transactions in LSN order —
which is exactly what the paper leans on when it promises DBMS-grade
recovery for word processing ("everything which is typed appears ... as
soon as these objects are stored persistently").  Logs written before
transactions were blocks (records of concurrent transactions interleaved,
ABORT records) replay through the same redo core.

The log is its JSON-lines file, and only the file: the engine keeps no
copy of its records in memory, so recovery, a restarted engine and a
follower catching up all read the same bytes, and a "crashed" engine is
rebuilt by a fresh process from them.  A log with no file allocates LSNs
and keeps nothing.  DDL (create table / index) is logged too, so recovery
can start from an empty engine.

A record being appended holds stored values as they are: a DML record
carries the table's own row tuple (or, for an UPDATE, just the changed
columns), shared with the table, never copied.  The JSON-safe encoding
exists only at the file/segment boundary, and this module owns it:
:func:`render_record` is the only writer of a WAL line and
:func:`parse_records` the only parser, for the one file read
(:func:`read_segment`; a whole file is read segment by segment,
:func:`log_segments`) and for ``WAL_SEGMENT`` frames, so all of them
agree on what a record and a torn tail are.  An engine with no file
never encodes anything.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from itertools import islice
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple,
                    Sequence)

from ..errors import CrashSignal, WalError
from ..ids import Oid
from ..obs.metrics import COUNT_BUCKETS, NULL_REGISTRY
from .schema import Column, ColumnType, TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

# Record types.
BEGIN = "BEGIN"
COMMIT = "COMMIT"
ABORT = "ABORT"
INSERT = "INSERT"
UPDATE = "UPDATE"
DELETE = "DELETE"
CREATE_TABLE = "CREATE_TABLE"
DROP_TABLE = "DROP_TABLE"
CREATE_INDEX = "CREATE_INDEX"

_TYPES = {
    BEGIN, COMMIT, ABORT, INSERT, UPDATE, DELETE,
    CREATE_TABLE, DROP_TABLE, CREATE_INDEX,
}

#: Record types carrying row changes (they buffer until COMMIT).
DML = (INSERT, UPDATE, DELETE)

#: The payload of every record that has none (shared; never mutated).
_NO_PAYLOAD: dict = {}


class WalRecord(NamedTuple):
    """One log record.

    A DML record names its row with ``table`` and ``rowid`` and carries
    the columns it sets as two parallel tuples, ``cols`` (names) and
    ``vals`` (stored values, undecorated):

    * INSERT: every column — ``cols`` is the schema's own ``names``
      tuple and ``vals`` the stored row itself;
    * UPDATE: only the columns the statement set.  Redo merges them into
      the row it already holds (:func:`repro.db.replay.merge_image`); a
      record naming every column — what older logs wrote — is simply
      the widest delta;
    * DELETE: nothing — ``table`` and ``rowid`` say it all.  Older logs
      carry the vanished row here too; it parses, renders back the same
      and redo ignores it.

    Every other record keeps its data in ``payload``:

    * CREATE_TABLE: ``table``, ``columns``, ``key``
    * CREATE_INDEX: ``table``, ``name``, ``column``, ``kind``, ``unique``
    * DROP_TABLE: ``table``

    A record of a type this engine no longer writes (older logs hold
    full table snapshots) parses and renders back the same, and redo
    passes over it.
    """

    lsn: int
    type: str
    txn_id: int
    payload: dict = _NO_PAYLOAD
    table: str | None = None
    rowid: int = 0
    cols: tuple = ()
    vals: tuple = ()


def encode_value(value: Any) -> Any:
    """Make a stored value JSON-serialisable (Oid and bytes get wrapped)."""
    # Fast path: the overwhelming majority of row values are plain
    # scalars (checked by exact class, so Oid/bool subtleties fall
    # through to the isinstance chain below).
    if value is None or value.__class__ in (str, int, float, bool):
        return value
    if isinstance(value, Oid):
        return {"__oid__": str(value)}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    return value


def untag(obj: dict, oids: dict[str, Oid] | None = None) -> Any:
    """Inverse of :func:`encode_value`'s tagging, as a ``json`` object
    hook: each object is resolved as it is parsed, so a payload is
    walked once.  With ``oids`` (oid text -> ``Oid``, filled as it
    goes) one text yields one ``Oid`` object however often it appears.
    """
    if len(obj) == 1:
        if "__oid__" in obj:
            text = obj["__oid__"]
            if oids is None:
                return Oid.parse(text)
            oid = oids.get(text)
            if oid is None:
                oid = oids[text] = Oid.parse(text)
            return oid
        if "__bytes__" in obj:
            return bytes.fromhex(obj["__bytes__"])
    return obj


_parse_json = json.JSONDecoder(object_hook=untag).decode


def columns_payload(schema: TableSchema) -> list[dict]:
    """A table's columns as a CREATE_TABLE payload carries them."""
    return [
        {
            "name": c.name,
            "type": c.type.value,
            "nullable": c.nullable,
            "default": c.default,
        }
        for c in schema.columns
    ]


def columns_from_payload(raw_columns: Iterable[dict]) -> list[Column]:
    """Inverse of :func:`columns_payload`."""
    return [
        Column(
            name=c["name"],
            type=ColumnType(c["type"]),
            nullable=c["nullable"],
            default=c.get("default"),
        )
        for c in raw_columns
    ]


#: Upper bound on the records in one segment :func:`read_segment` reads
#: from a log file (keeps a WAL_SEGMENT frame far below the wire's frame
#: limit and bounds the follower's apply batch; a lagging follower acks
#: its way through more segments).
SEGMENT_RECORDS = 256


def render_record(record: WalRecord) -> str:
    """The one-line JSON form of ``record`` (no trailing newline).

    The only place stored values are made JSON-safe: it runs when there
    is a file line or a shipped segment to write, once per record.
    """
    if record.table is not None:
        payload = {"table": record.table, "rowid": record.rowid}
        if record.cols:
            payload["values"] = dict(zip(record.cols,
                                         map(encode_value, record.vals)))
    else:
        payload = encode_value(record.payload)
    return json.dumps({
        "lsn": record.lsn,
        "type": record.type,
        "txn": record.txn_id,
        "payload": payload,
    }, separators=(",", ":"))


def _parse_line(line: bytes) -> WalRecord:
    """Inverse of :func:`render_record` (values decoded back)."""
    raw = _parse_json(line.decode())
    payload = raw.get("payload") or _NO_PAYLOAD
    if raw["type"] in DML:
        values = payload.get("values") or _NO_PAYLOAD
        return WalRecord(raw["lsn"], raw["type"], raw["txn"], _NO_PAYLOAD,
                         payload["table"], payload["rowid"], tuple(values),
                         tuple(values.values()))
    return WalRecord(raw["lsn"], raw["type"], raw["txn"], payload)


def parse_records(data: bytes, source: str = "WAL", start: int = 0
                  ) -> tuple[list[WalRecord], int]:
    """Parse WAL lines; returns ``(records, valid_bytes)``.

    The single torn-tail rule: an unterminated or unparseable *final*
    line is a torn tail — the signature of a crash mid-append — and ends
    the valid prefix on the line boundary before it (``valid_bytes <
    len(data)`` tells the caller it happened).  A malformed line
    *followed by* any further line is corruption and raises
    :class:`~repro.errors.WalError` rather than silently discarding
    committed history.  Blank lines are skipped.  ``data`` is at byte
    ``start`` of ``source`` (error messages name file offsets).
    """
    records: list[WalRecord] = []
    lines = data.split(b"\n")
    tail = lines.pop()  # unterminated remainder: never a record
    pos = 0
    for i, line in enumerate(lines):
        if line and not line.isspace():
            try:
                record = _parse_line(line)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                following = sum(1 for rest in (*lines[i + 1:], tail)
                                if rest and not rest.isspace())
                if following:
                    raise WalError(
                        f"corrupt WAL record in {source!r} at byte "
                        f"{start + pos} (not a torn tail — {following} "
                        f"more lines follow): {exc!r}") from exc
                break
            records.append(record)
        pos += len(line) + 1
    return records, pos


def read_segment(path: str, offset: int, end: int
                 ) -> tuple[list[WalRecord], list[bytes], int]:
    """The next segment of a log file: ``(records, lines, next_offset)``.

    The one file read: at most :data:`SEGMENT_RECORDS` lines of the file
    at ``path`` from byte ``offset`` on, none past byte ``end``, as
    :func:`parse_records` reads them — a torn final line stays unread
    (``next_offset == offset`` means nothing was).  ``lines[i]`` is
    ``records[i]``'s line as the file holds it, so a segment crosses the
    wire without being rendered again.  No lock is taken: appends never
    wait for a reader.
    """
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = b"".join(islice(handle, SEGMENT_RECORDS))
    data = data[:max(0, end - offset)]
    records, valid = parse_records(data, path, offset)
    lines = [line for line in data[:valid].split(b"\n")
             if line and not line.isspace()]
    return records, lines, offset + valid


def log_segments(path: str) -> Iterator[tuple[list[WalRecord], int, int]]:
    """The log file at ``path``, one :func:`read_segment` segment at a
    time, as ``(records, valid, size)``: the bytes read so far and the
    file's size when the read began.  The one reader of a whole log.

    The last item has no records; ``valid < size`` there means a torn
    tail ended the read, skipped with a warning and left in the file.
    Corruption before it raises, and so does an LSN not greater than the
    one before it (a second history appended), naming its byte offset.
    """
    size = os.path.getsize(path)
    offset = last = 0
    while True:
        records, lines, valid = read_segment(path, offset, size)
        if valid == offset:
            break
        pos = offset
        for record, line in zip(records, lines):
            if record.lsn <= last:
                raise WalError(
                    f"WAL {path!r} goes back to LSN {record.lsn} after "
                    f"LSN {last} at byte {pos}: not one history")
            last = record.lsn
            pos += len(line) + 1
        yield records, valid, size
        offset = valid
    if offset < size:
        warnings.warn(f"skipping torn trailing WAL record in {path!r} "
                      f"(crash mid-write) at byte {offset}", RuntimeWarning,
                      stacklevel=2)
    yield [], offset, size


class WriteAheadLog:
    """Append-only log, optionally written to a file.

    Parameters
    ----------
    path:
        Optional file path.  When given, every appended record is written
        as one JSON line and flushed on commit boundaries, so a crash loses
        at most the in-flight (uncommitted) tail — never a committed
        transaction.  The file is the log: nothing is kept in memory.  It
        must be missing or empty: a file that holds a log is one history,
        which only :func:`repro.db.recovery.restart` goes on writing
        (through :meth:`resume`); a second history from LSN 1 behind it
        would make the file unrecoverable, so it raises
        :class:`~repro.errors.WalError` before a byte is written.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`.  The WAL
        passes four crash points — ``wal.before_append`` (once per
        record, before any of its block is written: nothing lands
        anywhere), ``wal.mid_record`` (once per record: the block's
        earlier lines and a torn prefix of this one reach the file,
        then death), ``wal.after_write`` (a
        commit-boundary record reached the file buffer but the commit
        barrier was never entered) and ``wal.before_fsync`` (records
        written, the group's fsync never happens) — and supports
        :meth:`power_off` so a simulated power loss drops every byte
        since the last fsync.
    group_window:
        Seconds the leader lingers at the barrier for more committers
        to join before fsyncing (0.0 = fsync immediately; natural
        batching still occurs because committers that arrive during a
        leader's fsync pile up and are synced by the next leader).
    group_max:
        Size bound for one group: the leader stops waiting for joiners
        once this many commits are pending.
    """

    def __init__(self, path: str | None = None,
                 faults: "FaultInjector | None" = None,
                 registry=None, tracer=None, *,
                 group_window: float = 0.0,
                 group_max: int = 64) -> None:
        from ..faults.injector import NO_FAULTS
        from ..obs.tracing import NULL_TRACER
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.RLock()
        self._next_lsn = 1
        if path and os.path.exists(path) and os.path.getsize(path):
            raise WalError(
                f"{path!r} already holds a log; open it with "
                f"repro.db.recovery.restart, which resumes it")
        self._path = path
        self._file = open(path, "a", encoding="utf-8") if path else None
        # Group-commit barrier state, guarded by ``_group_cond`` (never
        # nested inside ``_lock`` acquisition ordering is always
        # ``_lock`` -> ``_group_cond`` or one at a time).
        self._group_window = group_window
        self._group_max = max(1, group_max)
        self._group_cond = threading.Condition()
        self._leader_busy = False
        self._pending_commits = 0
        #: ``(lsn, size)``: the highest LSN known durable (covered by an
        #: fsync, or flushed on a clean close) and the file size that
        #: holds exactly the records through it — what survives a power
        #: loss and what may be shipped.  Commit waiters block until
        #: their LSN is <= it.  Written under ``_lock`` *and*
        #: ``_group_cond``, so either one reads the pair whole.
        self._durable = (0, 0)
        self.faults = faults if faults is not None else NO_FAULTS
        self.faults.attach_wal(self)
        reg = registry if registry is not None else NULL_REGISTRY
        self._m_appends = reg.counter("wal.appends")
        self._m_append_seconds = reg.histogram("wal.append_seconds")
        self._m_bytes = reg.counter("wal.appended_bytes")
        self._m_fsyncs = reg.counter("wal.fsyncs")
        self._m_fsync_seconds = reg.histogram("wal.fsync_seconds")
        group_sizes = reg.family("wal.group_commit_size", "histogram",
                                 buckets=COUNT_BUCKETS)
        self._m_group_solo = group_sizes.labels(role="solo")
        self._m_group_leader = group_sizes.labels(role="leader")
        self._m_group_size = reg.histogram("wal.group_commit_size",
                                           buckets=COUNT_BUCKETS)
        self._m_sync_wait = reg.histogram("wal.sync_wait_seconds")

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def durable_lsn(self) -> int:
        """Highest LSN acknowledged durable by the commit barrier."""
        return self._durable[0]

    def durable_prefix(self) -> tuple[int, int]:
        """``(durable_lsn, size)``, published together: the first
        ``size`` bytes of the file hold exactly the records through
        ``durable_lsn``, the most a reader may ship."""
        return self._durable

    def _publish_durable(self, lsn: int, size: int) -> None:
        """Raise the durable pair and wake commit waiters (caller holds
        ``_lock``, so a power loss truncates to a pair it published)."""
        with self._group_cond:
            self._durable = max(self._durable, (lsn, size))
            self._group_cond.notify_all()

    def append(self, type_: str, txn_id: int, *,
               dml: Sequence[tuple] = (), **payload: Any) -> WalRecord:
        """Append one record — for COMMIT, one transaction — and return it.

        A COMMIT brings its transaction along: ``dml`` is what the
        transaction buffered, one ``(type, table, rowid, cols, vals)``
        per statement with the :class:`WalRecord` row fields kept by
        reference (hand over the stored tuple).  BEGIN, the statements
        and COMMIT get contiguous LSNs and are logged as one block —
        one hold of the append lock, one write to the file — so records
        of two transactions never interleave and no DDL record lands
        inside one.  The COMMIT record is what comes back.  Every other
        type is a single record with ``payload`` as its mapping.

        The per-record crash points still fire once per record of a
        block; a crash at any of them loses the whole transaction
        (nothing before its COMMIT line is ever redone).

        A COMMIT additionally blocks until the record is durable: the
        lines are written to the file buffer under the append lock, then
        the caller enters the group-commit barrier *outside* it (see
        :meth:`_sync_to`), so concurrent committers share one fsync.
        """
        if type_ not in _TYPES:
            raise WalError(f"unknown WAL record type {type_!r}")
        if type_ in DML:
            raise WalError(f"a {type_} record enters the log inside its "
                           f"transaction's COMMIT block")
        started = perf_counter()
        if self.faults.armed:
            kinds = (BEGIN, *[op[0] for op in dml], COMMIT) \
                if type_ == COMMIT else (type_,)
            for kind in kinds:
                self.faults.fire("wal.before_append", type=kind, txn=txn_id)
        with self._lock:
            lsn = self._next_lsn
            if type_ == COMMIT:
                block = [WalRecord(lsn, BEGIN, txn_id)]
                for op in dml:
                    lsn += 1
                    block.append(WalRecord(lsn, op[0], txn_id, _NO_PAYLOAD,
                                           op[1], op[2], op[3], op[4]))
                record = WalRecord(lsn + 1, COMMIT, txn_id)
                block.append(record)
            else:
                record = WalRecord(lsn, type_, txn_id, payload)
                block = (record,)
            self._write_locked(block)
            needs_sync = self._file is not None and type_ == COMMIT
            if self._file is not None and not needs_sync:
                # DDL: a reader of the file sees it at once.
                self._file.flush()
        if needs_sync:
            # Record is in the file buffer but not yet durable: death
            # here loses the commit without having acknowledged it.
            self.faults.fire("wal.after_write", type=type_, txn=txn_id)
            self._sync_to(record.lsn, type_, txn_id)
        self._m_append_seconds.observe(perf_counter() - started)
        return record

    def _write_locked(self, records: Sequence[WalRecord]) -> None:
        """The one write path (caller holds ``_lock``): write the
        records' lines to the file, if any, in one write, then move the
        LSN allocator past them."""
        if self._file is not None:
            lines = []
            for record in records:
                line = render_record(record)
                torn = self.faults.check("wal.mid_record")
                if torn is not None:
                    # Torn write: the lines before this one and a prefix
                    # of it (never the whole line) reach the file, then
                    # the process dies.
                    keep = max(1, min(len(line) - 1,
                                      int(len(line) * torn.tear)))
                    self._file.write("".join(lines) + line[:keep])
                    self.faults.crash(torn, type=record.type,
                                      txn=record.txn_id)
                lines.append(line + "\n")
            data = "".join(lines)
            self._file.write(data)
            self._m_bytes.inc(len(data))
        self._next_lsn = records[-1].lsn + 1
        self._m_appends.inc(len(records))

    def _fsync_locked(self, group: int, type_: str, txn_id: int) -> None:
        """Flush+fsync the file (caller holds ``_lock``; file is open).

        Traced as well as timed: the fsync span is the durability leg of
        every grouped keystroke's causal trace (child of the leader's txn
        span in scope during commit; followers link via their wait).
        """
        with self._tracer.span("wal.fsync", txn=txn_id, group_size=group):
            self.faults.fire("wal.before_fsync", type=type_, txn=txn_id,
                             group=group)
            fsync_started = perf_counter()
            self._file.flush()
            os.fsync(self._file.fileno())
            self._m_fsyncs.inc()
            self._m_fsync_seconds.observe(perf_counter() - fsync_started)
            self._m_group_size.observe(group)
            self._m_group_solo.observe(group)

    def _sync_to(self, lsn: int, type_: str, txn_id: int) -> None:
        """Block until ``lsn`` is durable (group-commit barrier).

        Concurrent committers enqueue and block while one of them — the
        *leader* — optionally lingers ``group_window`` seconds for more
        committers (bounded by ``group_max``), snapshots the newest
        written LSN, performs a single flush+fsync, and publishes the
        synced LSN so every covered waiter returns: N concurrent
        keystrokes cost one fsync instead of N, and a lone committer is
        a group of one that fsyncs at once.  Waiters whose WAL dies
        before their LSN is durable raise
        :class:`~repro.errors.CrashSignal` — an unacknowledged commit
        must never be reported as durable.
        """
        waited_from = perf_counter()
        cond = self._group_cond
        with cond:
            self._pending_commits += 1
            if self._leader_busy and self._pending_commits >= self._group_max:
                # Wake a leader lingering in its group window: the group
                # is full, so it can fsync immediately instead of
                # sleeping the window out.  (Joins below the bound stay
                # silent — waking every follower per join is a wake
                # storm that costs more than the window saves.)
                cond.notify_all()
            try:
                while True:
                    if self._durable[0] >= lsn:
                        self._m_sync_wait.observe(
                            perf_counter() - waited_from)
                        return
                    if self._file is None:
                        raise CrashSignal(
                            "WAL died before commit became durable "
                            f"(txn {txn_id}, lsn {lsn})")
                    if not self._leader_busy:
                        break  # become leader
                    cond.wait(0.05)
                self._leader_busy = True
                if self._group_window > 0.0:
                    deadline = waited_from + self._group_window
                    while (self._pending_commits < self._group_max
                           and self._file is not None):
                        remaining = deadline - perf_counter()
                        if remaining <= 0.0:
                            break
                        cond.wait(remaining)
                group = self._pending_commits
            finally:
                self._pending_commits -= 1
        # Leader: flush under the append lock (pinning the covered LSN
        # and byte position), then fsync *outside* it on a duped fd, so
        # other writers keep staging records while the disk syncs — the
        # overlap is where group commit's throughput comes from.
        try:
            with self._tracer.span("wal.fsync", txn=txn_id,
                                   group_size=group):
                with self._lock:
                    if self._file is None:
                        raise CrashSignal(
                            "WAL died before commit became durable "
                            f"(txn {txn_id}, lsn {lsn})")
                    self.faults.fire("wal.before_fsync", type=type_,
                                     txn=txn_id, group=group)
                    fsync_started = perf_counter()
                    self._file.flush()
                    flush_upto = self._next_lsn - 1
                    flush_pos = self._file.tell()
                    fd = os.dup(self._file.fileno())
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
                with self._lock:
                    if self._file is None:
                        # power_off raced the fsync: a power loss may
                        # have truncated below our flush point, so the
                        # group must die unacknowledged.
                        raise CrashSignal(
                            "WAL died during the group fsync "
                            f"(txn {txn_id}, lsn {lsn})")
                    self._publish_durable(flush_upto, flush_pos)
                self._m_fsyncs.inc()
                self._m_fsync_seconds.observe(perf_counter() - fsync_started)
                self._m_group_size.observe(group)
                self._m_group_leader.observe(group)
        except BaseException:
            with cond:
                self._leader_busy = False
                cond.notify_all()
            raise
        with cond:
            self._leader_busy = False
            cond.notify_all()
        self._m_sync_wait.observe(perf_counter() - waited_from)

    def append_shipped(self, record: WalRecord) -> WalRecord:
        """Append a record shipped from a leader, preserving its LSN.

        The replication apply path (:mod:`repro.repl`) writes the
        leader's records into the follower's own mirror file *verbatim*
        — same line, same LSN — so the follower's log is byte-equivalent
        to the shipped prefix of the leader's: recovery and promotion
        read it with the ordinary tooling.  No commit barrier is
        entered; durability is batched per shipped segment via
        :meth:`sync_shipped`.  The write goes through the same path as
        :meth:`append`, so torture schedules can tear a record on the
        follower's disk mid-apply (``wal.mid_record``).  Any record
        type is mirrored, one this engine no longer writes included: a
        leader's file is its history as written, and redo passes over
        what it does not act on, on the follower as in recovery.
        """
        with self._lock:
            if record.lsn < self._next_lsn:
                raise WalError(
                    f"shipped record LSN {record.lsn} is behind the local "
                    f"tail {self._next_lsn - 1} (duplicates must be "
                    f"filtered by the applier)")
            if self._path is not None and self._file is None:
                raise CrashSignal("WAL died before shipped append "
                                  f"(lsn {record.lsn})")
            self._write_locked((record,))
        return record

    def sync_shipped(self) -> int:
        """Make every shipped record durable; returns the covered LSN.

        Called at shipped-segment boundaries (and on promotion): one
        flush+fsync covers the whole batch of :meth:`append_shipped`
        writes, mirroring the leader's group-commit economics.  A log
        with no file just advances the durable LSN.
        """
        with self._lock:
            if self._path is not None and self._file is None:
                raise CrashSignal("WAL died before the shipped-segment "
                                  "fsync")
            last = self._next_lsn - 1
            size = 0
            if self._file is not None:
                self._fsync_locked(1, "SEGMENT", 0)
                size = self._file.tell()
            self._publish_durable(last, size)
        return last

    def last_lsn(self) -> int:
        """The LSN of the most recently appended record."""
        with self._lock:
            return self._next_lsn - 1

    def resume(self, lsn: int, size: int, path: str | None = None) -> None:
        """Go on from a log rebuilt from its file, whose first ``size``
        bytes hold exactly the records through ``lsn``.

        LSN allocation moves past ``lsn``.  With ``path`` (a restart)
        this log, which has no file yet, goes on writing that very one:
        it cuts what follows those bytes — a torn tail the next line
        would fuse with — and publishes ``(lsn, size)`` durable: the
        recovered history is shipped, the cut line never.
        """
        with self._lock:
            self._next_lsn = max(self._next_lsn, lsn + 1)
            if path is not None:
                self._path = path
                self._file = open(path, "a", encoding="utf-8")
                self._file.truncate(size)
                self._file.seek(size)
                with self._group_cond:
                    self._durable = (lsn, size)

    def close(self) -> None:
        """Flush and close the mirror file, if any.

        A clean close flushes every buffered record to the OS, so any
        commit still waiting at the group barrier is acknowledged: its
        record will be seen by recovery.
        """
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._publish_durable(self._next_lsn - 1, self._file.tell())
                self._file.close()
                self._file = None
            elif self._path is None:
                self._publish_durable(self._next_lsn - 1, 0)

    def power_off(self, *, lose_unsynced: bool = False) -> None:
        """Simulate losing the process (or the machine) mid-flight.

        A *process* crash loses only user-space buffers — the OS page
        cache survives — so flushed-but-unsynced bytes are kept.  A
        *power loss* (``lose_unsynced=True``) truncates the file back to
        the last fsync boundary: only what :meth:`append` fsynced is
        durable.  Either way the file handle is dropped, so nothing the
        "dead" process does afterwards can reach disk.
        """
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            self._file.close()
            self._file = None
            if lose_unsynced and self._path is not None:
                with open(self._path, "r+b") as raw:
                    raw.truncate(self._durable[1])
        # Wake commit waiters: their next barrier check sees the dead
        # file and raises CrashSignal (never a false durability ack).
        with self._group_cond:
            self._group_cond.notify_all()

    @staticmethod
    def load_file(path: str) -> list[WalRecord]:
        """A log file's records, as one list: :func:`log_segments`
        kept whole, under its rules.  The file is never modified."""
        return [record for records, _, _ in log_segments(path)
                for record in records]


def committed_txn_ids(records: Iterable[WalRecord]) -> set[int]:
    """Return the ids of transactions with a COMMIT record."""
    return {r.txn_id for r in records if r.type == COMMIT}
