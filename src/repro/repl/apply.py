"""The replica apply path: turn shipped WAL records into table state.

A :class:`ReplicationApplier` consumes a leader's records in LSN order
and re-enacts the leader's commit protocol against the follower's
:class:`~repro.db.engine.Database` — without transactions, locks or
restaging.  The shared replay core (:class:`~repro.db.replay.WalReplay`)
buffers DML records per transaction id; the COMMIT record applies the
whole buffer atomically under the engine's commit-intent window, so MVCC
snapshot readers on the replica can never observe a torn transaction.  Every shipped record is also appended
verbatim (same LSN) to the follower's own WAL mirror via
:meth:`~repro.db.wal.WriteAheadLog.append_shipped`, which makes the
follower's log a byte-equivalent prefix of the leader's: restart
resumption, promotion and recovery-equivalence all fall out of the
ordinary recovery tooling.

Idempotence is a single rule: a record with ``lsn <= applied_lsn`` is
a duplicate and is dropped before any side effect, so redelivering any
suffix of the stream is always safe.  Only process death (a crash point)
can interrupt a record between entering the core and finishing its
install; a restart then re-derives the cursor from the mirror file, where
the record is either wholly present or a torn tail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db import wal as walmod
from ..db.replay import (DDL, WalReplay, apply_ddl, merge_image,
                         restore_checkpoint)
from ..db.table import VERSIONS_PUSHED
from ..db.transaction import Change
from ..db.wal import WalRecord
from ..errors import RecoveryError, ReplicationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.engine import Database


class ReplicationApplier:
    """Applies a leader's WAL records to a follower database.

    ``replayed`` is the replay core the follower's restart left behind
    (:func:`~repro.db.recovery.restart`): its cursor, transaction-id
    high-water mark and still-open transaction buffers carry straight
    over, so the stream resumes at ``applied_lsn + 1`` as if the restart
    never happened.
    """

    def __init__(self, db: "Database", replayed: WalReplay) -> None:
        self._db = db
        self._core = replayed
        self._m_missing_base = db.obs.registry.counter(
            "wal.missing_base_rows")

    def apply(self, record: WalRecord) -> bool:
        """Process one shipped record; returns False for duplicates.

        Records must arrive in LSN order: a duplicate (``lsn <=
        applied_lsn``) is dropped with **no** side effects — not even a
        WAL append — so redelivered segments are invisible.  A gap is a
        protocol violation except for CHECKPOINT records, which carry
        the full state needed to start mid-stream (a leader that
        truncated its shipped history catches followers up from its
        last checkpoint).
        """
        core = self._core
        if record.lsn <= core.applied_lsn:
            return False
        contiguous = record.lsn == core.applied_lsn + 1
        if not contiguous and record.type != walmod.CHECKPOINT:
            raise ReplicationError(
                f"gap in replication stream: expected LSN "
                f"{core.applied_lsn + 1}, got {record.lsn} "
                f"({record.type})")
        db = self._db
        if record.type == walmod.COMMIT:
            self._apply_commit(record)
            return True
        db.wal.append_shipped(record)
        core.feed(record)
        if record.type in DDL:
            apply_ddl(db, record)
        elif record.type == walmod.CHECKPOINT and not contiguous:
            # Starting mid-stream: the checkpoint *is* the state.  (A
            # contiguously shipped one is a state no-op — the follower
            # already holds exactly the snapshotted state, and restoring
            # it would collapse version chains under live replica
            # snapshots.)
            core.open.clear()
            restore_checkpoint(db, record)
            db.advance_object_ids()
        return True

    def _apply_commit(self, record: WalRecord) -> None:
        """Apply one shipped transaction atomically.

        Mirrors :meth:`~repro.db.transaction.Transaction.commit`: the
        COMMIT record lands in the local WAL first (the commit point),
        then the buffered row images install under the engine's
        commit-intent window so no replica snapshot can pin an LSN that
        covers the COMMIT but see pre-apply tables.  The
        ``repl.mid_apply`` crash point fires halfway through the rows:
        a crash there leaves a torn in-memory state that restart
        recovery must repair from the local log.  Each installed row
        carries the object-id allocators past the ids it holds, so a
        promotion finds them already ahead of everything shipped.  It
        ends where a local commit ends, in the one
        :meth:`~repro.db.engine.Database.on_commit` call, so the
        replica's changefeed consumers and version GC follow the stream;
        the change list is built only when a feed is there to read it.
        """
        db = self._db
        txn_id = record.txn_id
        ops = self._core.feed(record)
        publishing = db.feed is not None
        db.register_commit_intent(txn_id)
        try:
            db.wal.append_shipped(record)
            db.raise_commit_floor(txn_id, record.lsn)
            changes: list[Change] = []
            pushed = 0
            mid = (len(ops) + 1) // 2
            for position, op in enumerate(ops, start=1):
                if position == mid:
                    db.faults.fire("repl.mid_apply", txn=txn_id,
                                   lsn=record.lsn)
                table = db.table(op.table)
                rowid = op.rowid
                if op.type == walmod.DELETE:
                    kind, row, old = table.apply_replica_delete(rowid,
                                                                record.lsn)
                else:
                    try:
                        image = merge_image(table.schema, table.read(rowid),
                                            op)
                    except RecoveryError:
                        self._m_missing_base.inc()
                        raise
                    kind, row, old = table.apply_replica_row(rowid, image,
                                                             record.lsn)
                    db.advance_object_ids_past(table, (row,))
                if kind == "noop":
                    continue
                pushed += VERSIONS_PUSHED[kind]
                if not publishing:
                    continue
                row_dict = table.schema.row_dict
                changes.append(Change(
                    op.table, kind, rowid,
                    None if row is None else row_dict(row),
                    None if old is None else row_dict(old)))
            if pushed:
                db.txn_metrics.versions_live.inc(pushed)
        finally:
            db.clear_commit_intent(txn_id)
        db.on_commit(txn_id, record.lsn, changes)
