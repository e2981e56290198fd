"""Crash recovery: rebuild a database from its write-ahead log.

Recovery is redo-only: starting from an empty engine, the whole log is
read from LSN 1 and records of *committed* transactions are replayed in
LSN order; records of transactions without a COMMIT are discarded.  This
gives the paper's promise — a crash mid-keystroke loses at most the
uncommitted keystroke, never an acknowledged one.  The redo algorithm itself is
:class:`~repro.db.replay.WalReplay`; this module is its crash-recovery
sink (collapsed rows) plus the one restart path.

Under group commit the acknowledgement point is the *group fsync*, not the
COMMIT append: ``power_off(lose_unsynced=True)`` truncates the file back
to the last fsync boundary, so an unacknowledged commit's records never
reach recovery after power loss.  After a plain process crash the page
cache survives and unacknowledged COMMIT records may be replayed — that is
correct, durability is a lower bound, never an upper one.

Version chains (MVCC snapshots, see :mod:`repro.db.table`) do not survive
recovery and need no log records of their own: a fresh process has no live
snapshots, so :meth:`~repro.db.table.Table.load_row` collapses every row
back to a single committed version visible to all future snapshots.

Use :func:`recover` with an in-memory record list (tests),
:func:`recover_file` to read a (crashed) engine's log file, or
:func:`restart` to reopen an engine on its own log and keep writing —
"a leader is a follower with nobody to follow": leaders
(``repro serve --wal``) and replication followers restart through the
same function, the only one that resumes a log.  A file is replayed one
segment at a time (:func:`~repro.db.wal.log_segments`).  Every path
leaves the rebuilt engine's LSN, transaction-id and object-id
allocators past everything replayed, so the log it goes on to extend
stays one strictly increasing history.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..errors import RecoveryError
from . import wal as walmod
from .engine import Database
from .replay import DDL, WalReplay, apply_ddl, merge_image
from .wal import WalRecord, log_segments


def _rebuild(segments: Iterable[tuple[list[WalRecord], int, int]],
             wal_path: str | None = None,
             **engine) -> tuple[Database, WalReplay]:
    """A fresh ``Database(**engine)`` holding what ``segments`` (as
    :func:`~repro.db.wal.log_segments` yields them) committed, going on
    to write ``wal_path`` (the file they were read from) once they are
    replayed.

    One pass through the replay core, from the first record to the last;
    a record type the core does not act on (the table snapshots older
    logs hold) is passed over.
    """
    db = Database(**engine)
    core = WalReplay()
    valid = size = 0
    try:
        for records, valid, size in segments:
            for record in records:
                if record.type in DDL:
                    apply_ddl(db, record)
                for op in core.feed(record) or ():
                    # Collapsed chains: a fresh process has no live snapshots.
                    name = op.table
                    if op.type == walmod.DELETE:
                        if db.has_table(name):  # else dropped later on
                            db.table(name).load_delete(op.rowid)
                    elif not db.has_table(name):
                        raise RecoveryError(f"WAL references unknown table"
                                            f" {name!r} at LSN {op.lsn}")
                    else:
                        table = db.table(name)
                        table.load_row(op.rowid, merge_image(
                            table.schema, table.read(op.rowid), op))
    except BaseException:
        db.close()  # the log file is not open yet: it is left as it was
        raise
    # Everything the rebuilt engine allocates from now on lies past what
    # was replayed (LSNs, transaction ids, the object ids in surviving
    # rows: never reused), and a restarted log is cut to what was replayed.
    db.wal.resume(core.applied_lsn, valid, wal_path)
    db.advance_txn_ids(core.max_txn_id)
    db.advance_object_ids()
    if valid < size:
        db.obs.registry.counter("wal.torn_tail_recoveries").inc()
    return db, core


def recover(records: Iterable[WalRecord], **engine) -> Database:
    """Build a fresh :class:`Database` from WAL records.

    Only effects of committed transactions survive.  DDL records
    (txn id 0) are always applied — the engine logs them after the fact,
    so they describe objects that really existed.  ``engine`` keyword
    arguments but ``wal_path`` go to the :class:`Database` constructor.
    """
    return _rebuild([(records, 0, 0)], wal_path=None, **engine)[0]


def recover_file(path: str, **engine) -> Database:
    """Recover from a WAL file written by a (crashed) engine; the file
    is only read (to go on writing it, :func:`restart` it).

    A torn trailing record (the signature of a crash mid-append) is
    skipped with a warning and counted as ``wal.torn_tail_recoveries``;
    corruption before it raises (see :func:`~repro.db.wal.log_segments`).
    ``engine`` is as for :func:`recover`.
    """
    return _rebuild(log_segments(path), wal_path=None, **engine)[0]


def restart(wal_path: str | None, **engine) -> tuple[Database, WalReplay]:
    """Open an engine on its own log and return it with the replay core.

    The one restart path.  A missing or empty log gives a fresh engine;
    an existing one is replayed, has its torn tail cut, and is then
    extended in place.  The core's counters and still-open transaction
    buffers are what a replication follower resumes its stream from.
    ``engine`` is as for :func:`recover`.
    """
    exists = wal_path is not None and os.path.exists(wal_path)
    return _rebuild(log_segments(wal_path) if exists else (),
                    wal_path=wal_path, **engine)
