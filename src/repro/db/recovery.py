"""Crash recovery: rebuild a database from its write-ahead log.

Recovery is redo-only: starting from the latest CHECKPOINT (or from an
empty engine), records of *committed* transactions are replayed in LSN
order; records of transactions without a COMMIT are discarded.  This gives
the paper's promise — a crash mid-keystroke loses at most the uncommitted
keystroke, never an acknowledged one.  The redo algorithm itself is
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
:func:`recover_file` with a mirrored WAL file (process-crash simulation)
or :func:`restart` to reopen an engine on its own log and keep writing —
"a leader is a follower with nobody to follow": leaders
(``repro serve --wal``) and replication followers restart through the
same function.  Every one of them leaves the rebuilt engine's LSN,
transaction-id and object-id allocators past everything replayed, so the
log it goes on to extend stays one strictly increasing history.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..errors import RecoveryError
from . import wal as walmod
from .engine import Database
from .replay import DDL, WalReplay, apply_ddl, merge_image, restore_checkpoint
from .wal import WalRecord, read_log


def _rebuild(log: tuple[list[WalRecord], bool],
             **engine) -> tuple[Database, WalReplay]:
    """A fresh ``Database(**engine)`` holding what ``log`` committed.

    ``log`` is ``(records, torn)`` as :func:`~repro.db.wal.read_log`
    returns it.  One pass through the replay core.  Table state starts
    from the last CHECKPOINT; the records before it still pass through
    the core, but buffer-only — the snapshot already holds their
    committed effects, while a transaction left open across the
    checkpoint keeps its early DML for the COMMIT that follows it.
    """
    records, torn = log
    db = Database(**engine)
    core = WalReplay()
    start = next((i for i in range(len(records) - 1, -1, -1)
                  if records[i].type == walmod.CHECKPOINT), 0)
    for record in records[:start]:
        core.feed(record)
    for record in records[start:]:
        if record.type == walmod.CHECKPOINT:
            restore_checkpoint(db, record)
        elif record.type in DDL:
            apply_ddl(db, record)
        for op in core.feed(record) or ():
            # Collapsed chains: a fresh process has no live snapshots.
            name = op.table
            if op.type == walmod.DELETE:
                if db.has_table(name):  # else: dropped later in history
                    db.table(name).load_delete(op.rowid)
            elif not db.has_table(name):
                raise RecoveryError(f"WAL references unknown table "
                                    f"{name!r} at LSN {op.lsn}")
            else:
                table = db.table(name)
                table.load_row(op.rowid, merge_image(
                    table.schema, table.read(op.rowid), op))
    # Everything the rebuilt engine allocates from now on lies past what
    # was replayed: LSNs, transaction ids, and the object ids found in
    # surviving rows (ids are never reused, across restarts included).
    db.wal.advance_lsn(core.applied_lsn)
    db.advance_txn_ids(core.max_txn_id)
    db.advance_object_ids()
    if torn:
        db.obs.registry.counter("wal.torn_tail_recoveries").inc()
    return db, core


def recover(records: Iterable[WalRecord], **engine) -> Database:
    """Build a fresh :class:`Database` from WAL records.

    Only effects of committed transactions survive.  DDL records
    (txn id 0) are always applied — the engine logs them after the fact,
    so they describe objects that really existed.

    ``engine`` keyword arguments go to the :class:`Database`
    constructor: pass the crashed engine's ``wal_group_*`` knobs to
    carry its commit policy onto the recovered one, so a configured
    group window or group-size bound is not silently reset to defaults
    by the crash.
    """
    return _rebuild((list(records), False), **engine)[0]


def recover_file(path: str, *, wal_path: str | None = None,
                 **engine) -> Database:
    """Recover from a WAL file written by a (crashed) engine.

    A torn trailing record (the signature of a crash mid-append) is
    skipped with a warning — crash recovery must get past the crash's
    own debris — and counted on the recovered database as
    ``wal.torn_tail_recoveries``.  Corruption *before* the tail still
    raises (see :func:`~repro.db.wal.parse_records`).  When ``wal_path``
    names the very file being recovered, the engine resumes that log:
    the torn tail is cut off the file before it is reopened for append.
    ``engine`` is as for :func:`recover`.
    """
    resuming = wal_path is not None and os.path.exists(wal_path) \
        and os.path.samefile(path, wal_path)
    return _rebuild(read_log(path, cut_torn_tail=resuming),
                    wal_path=wal_path, **engine)[0]


def restart(wal_path: str | None,
            **engine) -> tuple[Database, WalReplay]:
    """Open an engine on its own log and return it with the replay core.

    The one restart path.  A missing or empty log gives a fresh engine;
    an existing one has its torn tail cut, is replayed, and is then
    extended in place.  The core's counters and still-open transaction
    buffers are what a replication follower resumes its stream from.
    ``engine`` is as for :func:`recover`.
    """
    log: tuple[list[WalRecord], bool] = ([], False)
    if wal_path is not None and os.path.exists(wal_path):
        log = read_log(wal_path, cut_torn_tail=True)
    return _rebuild(log, wal_path=wal_path, **engine)
