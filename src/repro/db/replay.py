"""The redo algorithm: one replay core, one DDL/checkpoint installer.

What a WAL *means* is decided here and nowhere else: DML records buffer
per transaction id, a COMMIT releases its transaction's buffer, an ABORT
drops it, DDL takes effect at once and a CHECKPOINT is a full state
snapshot.  :class:`WalReplay` is that state machine with no database
attached; its consumers differ only in where released operations go —
crash recovery loads collapsed rows (:mod:`repro.db.recovery`), the
replication applier installs versioned rows under the commit-intent
window (:mod:`repro.repl.apply`), and changefeed catch-up turns them
back into events (:mod:`repro.feed.changefeed`).  What a released row
operation leaves behind is decided by one function all three call,
:func:`merge_image`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import RecoveryError
from . import wal as walmod
from .schema import TableSchema
from .wal import DML, WalRecord, columns_from_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database

#: DDL records carry txn id 0 and apply immediately (the engine logs
#: them after the fact, so they describe objects that really existed).
DDL = (walmod.CREATE_TABLE, walmod.DROP_TABLE, walmod.CREATE_INDEX)


class WalReplay:
    """Single-pass redo state over a WAL stream fed in LSN order."""

    def __init__(self) -> None:
        #: LSN of the newest record fed (a follower's resume point).
        self.applied_lsn = 0
        #: Highest transaction id seen (the floor for new local ids).
        self.max_txn_id = 0
        #: txn id -> buffered DML of transactions still open.
        self.open: dict[int, list[WalRecord]] = {}

    def feed(self, record: WalRecord) -> list[WalRecord] | None:
        """Advance over ``record``.

        Returns the committed transaction's DML records, in log order,
        when ``record`` is a COMMIT (an empty list for a transaction
        that wrote nothing) and ``None`` for every other record.
        """
        ops = None
        kind = record.type
        if kind in DML:
            self.open.setdefault(record.txn_id, []).append(record)
        elif kind == walmod.COMMIT:
            ops = self.open.pop(record.txn_id, [])
        elif kind == walmod.ABORT:
            self.open.pop(record.txn_id, None)
        if record.txn_id > self.max_txn_id:
            self.max_txn_id = record.txn_id
        if record.lsn > self.applied_lsn:
            self.applied_lsn = record.lsn
        return ops


def merge_image(schema: TableSchema, base: tuple | None,
                op: WalRecord) -> tuple:
    """The stored row an INSERT or UPDATE record leaves behind.

    ``base`` is the row the sink holds for ``op.rowid`` right now
    (``None`` if it holds none).  An UPDATE sets the columns it names on
    top of ``base`` and leaves the others alone — a column set to NULL
    is named, an unchanged one is not.  That is exact, not approximate:
    the writer held the row's exclusive lock from staging to COMMIT, so
    at COMMIT order in the log no other transaction's change lies
    between the image it staged on and the one redo holds.  A record
    naming every column (an INSERT; an UPDATE from a log written before
    records were deltas) needs no base.  A delta without one means the
    history that produced the row is missing: that raises instead of
    installing a row padded with defaults.
    """
    values = dict(zip(op.cols, op.vals))
    if op.type == walmod.UPDATE and base is not None:
        return schema.merge_row(base, values)
    if op.type == walmod.INSERT or len(values) == len(schema.columns):
        return schema.make_row(values)
    raise RecoveryError(
        f"UPDATE of {', '.join(op.cols)} at LSN {op.lsn} finds no row "
        f"{op.rowid} in table {schema.name!r} to merge into (its history "
        f"was cut away)")


def apply_ddl(db: "Database", record: WalRecord) -> None:
    """Re-enact one DDL record; a no-op when its object already exists
    (checkpoint overlap, redelivery)."""
    payload = record.payload
    if record.type == walmod.CREATE_TABLE:
        if not db.has_table(payload["table"]):
            columns = columns_from_payload(payload["columns"])
            db.create_table(payload["table"], columns,
                            key=payload.get("key"), log=False)
    elif record.type == walmod.DROP_TABLE:
        if db.has_table(payload["table"]):
            db.drop_table(payload["table"], log=False)
    elif record.type == walmod.CREATE_INDEX:
        table = db.table(payload["table"])
        if payload["name"] not in table.indexes():
            table.create_index(payload["name"], payload["column"],
                               kind=payload["kind"],
                               unique=payload["unique"])


def restore_checkpoint(db: "Database", record: WalRecord) -> None:
    """Install a CHECKPOINT record's snapshot into an empty engine."""
    for name, spec in record.payload.get("tables", {}).items():
        columns = columns_from_payload(spec["schema"]["columns"])
        table = db.create_table(name, columns, key=spec["schema"]["key"],
                                log=False)
        key_index = f"{name}_key"
        for idx in spec.get("indexes", ()):
            if idx["name"] == key_index:
                continue  # created automatically with the table
            table.create_index(idx["name"], idx["column"], kind=idx["kind"],
                               unique=idx["unique"])
        for rowid, values in spec.get("rows", {}).items():
            table.load_row(int(rowid), table.schema.make_row(values))
