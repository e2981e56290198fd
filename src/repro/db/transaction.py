"""Transactions: strict two-phase locking, WAL logging, commit triggers.

A transaction stages row images in the tables it touches (see
:mod:`repro.db.table`), holding exclusive row locks until commit or abort.
WAL records are appended as operations are staged; COMMIT makes them
effective.  On commit the engine publishes a ``db.commit`` event carrying
the full change list — this is the hook that drives real-time propagation
to editor clients, metadata capture and dynamic folder refresh.
"""

from __future__ import annotations

import enum
import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from ..errors import (
    CrashSignal,
    ReadOnlyTransactionError,
    RowNotFoundError,
    TransactionStateError,
)
from ..obs.metrics import COUNT_BUCKETS
from . import wal as walmod
from .locks import SHARED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database


class TxnMetrics:
    """Transaction metric handles, resolved once per database.

    Transactions are the hot path — one per keystroke — so the engine
    looks every metric up a single time at construction instead of by
    name per transaction.
    """

    __slots__ = ("begun", "committed", "aborted", "crashed", "active",
                 "duration", "commit_seconds", "ops", "batched_ops",
                 "snapshot_reads", "versions_live", "version_gc_truncated")

    def __init__(self, registry) -> None:
        self.begun = registry.counter("txn.begun")
        self.committed = registry.counter("txn.committed")
        self.aborted = registry.counter("txn.aborted")
        self.crashed = registry.counter("txn.crashed")
        self.active = registry.gauge("txn.active")
        self.duration = registry.histogram("txn.duration_seconds")
        self.commit_seconds = registry.histogram("txn.commit_seconds")
        self.ops = registry.histogram("txn.ops", buckets=COUNT_BUCKETS)
        self.batched_ops = registry.histogram("txn.batched_ops",
                                              buckets=COUNT_BUCKETS)
        self.snapshot_reads = registry.counter("txn.snapshot_reads")
        self.versions_live = registry.gauge("txn.versions_live")
        self.version_gc_truncated = registry.counter(
            "txn.version_gc_truncated")


class TxnState(enum.Enum):
    """Transaction lifecycle states."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Change(NamedTuple):
    """One committed row change: what commit subscribers receive and what
    a changefeed :class:`~repro.feed.changefeed.CommitBatch` carries.

    ``before`` is the committed image the change superseded: the full
    row a delete removed or an update overwrote (``None`` on insert).
    Delete subscribers must use it — ``row`` is ``None`` for them, and
    without the before-image a consumer cannot even tell which document
    a vanished row belonged to.  The mappings are built once per changed
    row and shared by every consumer: read them, do not write them.
    """

    table: str
    kind: str                  # "insert" | "update" | "delete"
    rowid: int
    row: dict | None           # column mapping after the change (None=delete)
    before: dict | None = None  # column mapping before (None=insert)


class Transaction:
    """Handle for one unit of work against a :class:`~repro.db.engine.Database`.

    Usually obtained via ``db.transaction()`` (a context manager that
    commits on clean exit and aborts on exception) or ``db.begin()``.
    """

    def __init__(self, db: "Database", txn_id: int, *,
                 lock_timeout: float | None = None,
                 read_only: bool = False,
                 snapshot_lsn: int | None = None,
                 locking_reads: bool = False) -> None:
        self._db = db
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.lock_timeout = lock_timeout
        #: Read-only transactions write no WAL records, stage nothing and
        #: raise :class:`~repro.errors.ReadOnlyTransactionError` on DML.
        self.read_only = read_only
        #: MVCC mode: when set, every read resolves the newest version
        #: ``<=`` this LSN from the version chains — zero LockManager
        #: calls on the whole read path (``None`` = read-committed).
        self.snapshot_lsn = snapshot_lsn
        #: 2PL-reader mode (the pre-MVCC baseline, kept for comparison
        #: benchmarks): reads take SHARED row locks held to the end, so
        #: scans block behind writers and vice versa.
        self.locking_reads = locking_reads
        #: (table_name, rowid) in staging order — commit applies in order.
        self._ops: list[tuple[str, int]] = []
        #: The same markers -> ``(staged image, its column mapping)`` for
        #: rows :meth:`update` already built a mapping of (``None`` for
        #: the rest): commit hands that very mapping to the change list.
        self._ops_seen: dict[tuple[str, int], tuple | None] = {}
        #: Resources already locked by this transaction (strict 2PL holds
        #: them until the end, so a local set is an exact fast path that
        #: spares repeat acquires the lock-manager round-trip — batched
        #: bursts touch the same document row once per keystroke).
        self._held_res: set = set()
        #: Editing operations that joined this transaction via
        #: ``Database.batch()`` (observed as ``txn.batched_ops``).
        self.batched_ops = 0
        #: LSN of this transaction's COMMIT record (set during commit;
        #: the changefeed stamps its commit batch with it).
        self.commit_lsn: int | None = None
        self._lock = threading.RLock()
        self._metrics = db.txn_metrics
        if read_only:
            # Tagged so an exported trace distinguishes a lock-free
            # snapshot scan from a write transaction at a glance.
            self._span = db.obs.tracer.start("txn", txn=txn_id,
                                             read_only=True)
        else:
            self._span = db.obs.tracer.start("txn", txn=txn_id)
        self._started = perf_counter()
        self._finished = False
        self._metrics.begun.inc()
        self._metrics.active.inc()
        if not read_only:
            # Read-only transactions leave no WAL trace at all: they can
            # never need recovery, and keeping them off the log keeps
            # crash-torture schedules byte-identical with or without
            # concurrent snapshot readers.
            try:
                db.wal.append(walmod.BEGIN, txn_id)
            except CrashSignal:
                self._finish("crash")
                raise

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    # -- state helpers ------------------------------------------------------

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def _require_writable(self) -> None:
        self._require_active()
        if self.read_only:
            raise ReadOnlyTransactionError(
                f"transaction {self.txn_id} is read-only"
            )

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def _finish(self, outcome: str) -> None:
        """Close the transaction's span and settle its lifecycle metrics.

        Idempotent, and exactly one outcome wins: a transaction killed by
        an injected crash records ``"crash"`` even though the post-mortem
        context manager still calls :meth:`abort` afterwards.
        """
        if self._finished:
            return
        self._finished = True
        if self.snapshot_lsn is not None:
            self._db.unpin_snapshot(self.snapshot_lsn)
        metrics = self._metrics
        metrics.active.dec()
        metrics.duration.observe(perf_counter() - self._started)
        if outcome == "commit":
            metrics.committed.inc()
        elif outcome == "abort":
            metrics.aborted.inc()
        else:
            metrics.crashed.inc()
        self._span.end(outcome)

    @property
    def span(self):
        """The transaction's trace span (for cross-layer parenting)."""
        return self._span

    # -- locking ------------------------------------------------------------

    def _lock_row(self, table: str, rowid: int) -> None:
        resource = ("row", table, rowid)
        if resource in self._held_res:
            return
        self._db.locks.acquire(self.txn_id, resource,
                               timeout=self.lock_timeout)
        self._held_res.add(resource)

    def lock_shared(self, table: str, rowid: int) -> None:
        """Take a SHARED row lock (2PL-reader baseline mode only)."""
        resource = ("row", table, rowid)
        if resource in self._held_res:
            return
        self._db.locks.acquire(self.txn_id, resource, SHARED,
                               timeout=self.lock_timeout)
        self._held_res.add(resource)

    def _lock_key(self, table: str, column: str, value: Any) -> None:
        """Serialise claims on a unique key value across transactions."""
        if value is None:
            return
        resource = ("key", table, column, value)
        if resource in self._held_res:
            return
        self._db.locks.acquire(self.txn_id, resource,
                               timeout=self.lock_timeout)
        self._held_res.add(resource)

    def lock_rows(self, table_name: str, rowids: Iterable[int]) -> None:
        """Pre-acquire exclusive locks on a batch of rows at once.

        Range operations (styling, deleting a selection) know every row
        they will touch up front; one
        :meth:`~repro.db.locks.LockManager.acquire_many` call amortises
        the lock-manager round-trip across the whole range instead of
        paying it per row.
        """
        self._require_writable()
        fresh = [("row", table_name, rowid) for rowid in rowids
                 if ("row", table_name, rowid) not in self._held_res]
        if not fresh:
            return
        self._db.locks.acquire_many(self.txn_id, fresh,
                                    timeout=self.lock_timeout)
        self._held_res.update(fresh)

    def _record_op(self, table: str, rowid: int,
                   mapped: tuple | None = None) -> None:
        marker = (table, rowid)
        if marker not in self._ops_seen:
            self._ops.append(marker)
        self._ops_seen[marker] = mapped

    # -- DML ----------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert a row; returns its rowid."""
        self._require_writable()
        table = self._db.table(table_name)
        try:
            with self._lock:
                for column in table.unique_columns():
                    if column in values:
                        self._lock_key(table_name, column, values[column])
                rowid, row = table.stage_insert(self.txn_id, values)
                self._lock_row(table_name, rowid)
                self._record_op(table_name, rowid)
                # The log keeps the stored tuple itself, by reference.
                self._db.wal.append(
                    walmod.INSERT, self.txn_id, table=table_name,
                    rowid=rowid, cols=table.schema.names, vals=row,
                )
                return rowid
        except CrashSignal:
            self._finish("crash")
            raise

    def update(self, table_name: str, rowid: int,
               updates: Mapping[str, Any]) -> dict:
        """Update a row; returns the new full row mapping."""
        self._require_writable()
        table = self._db.table(table_name)
        try:
            with self._lock:
                self._lock_row(table_name, rowid)
                for column in table.unique_columns():
                    if column in updates:
                        self._lock_key(table_name, column, updates[column])
                row = table.stage_update(self.txn_id, rowid, updates)
                schema = table.schema
                row_map = schema.row_dict(row)
                self._record_op(table_name, rowid, (row, row_map))
                # Only the columns this statement set are logged: redo
                # merges them into the row it holds, which under strict
                # 2PL is the very image staged on here.
                cols = tuple(updates)
                self._db.wal.append(
                    walmod.UPDATE, self.txn_id, table=table_name,
                    rowid=rowid, cols=cols, vals=schema.project(row, cols),
                )
                return row_map
        except CrashSignal:
            self._finish("crash")
            raise

    def delete(self, table_name: str, rowid: int) -> None:
        """Delete a row."""
        self._require_writable()
        table = self._db.table(table_name)
        try:
            with self._lock:
                self._lock_row(table_name, rowid)
                base = table.stage_delete(self.txn_id, rowid)
                self._record_op(table_name, rowid)
                # The before-image rides in the DELETE record so the
                # changefeed's WAL catch-up can hand delete events the
                # vanished row (recovery itself ignores it).
                self._db.wal.append(
                    walmod.DELETE, self.txn_id, table=table_name,
                    rowid=rowid, cols=table.schema.names, vals=base,
                )
        except CrashSignal:
            self._finish("crash")
            raise

    # -- reads (own-writes visible; snapshot txns read their pinned LSN) -----

    def _read_row(self, table, table_name: str, rowid: int) -> tuple | None:
        """One row under this transaction's visibility mode."""
        if self.snapshot_lsn is not None:
            self._metrics.snapshot_reads.inc()
            return table.snapshot_read(rowid, self.snapshot_lsn)
        if self.locking_reads:
            self.lock_shared(table_name, rowid)
        return table.read(rowid, self.txn_id)

    def read(self, table_name: str, rowid: int) -> dict | None:
        """Read one row as visible to this transaction, or ``None``."""
        self._require_active()
        table = self._db.table(table_name)
        row = self._read_row(table, table_name, rowid)
        return None if row is None else table.schema.row_dict(row)

    def get(self, table_name: str, rowid: int) -> dict:
        """Like :meth:`read` but raises if the row is absent."""
        row = self.read(table_name, rowid)
        if row is None:
            raise RowNotFoundError(
                f"no row {rowid} in table {table_name!r}"
            )
        return row

    def get_for_update(self, table_name: str, rowid: int) -> dict:
        """Read a row under its exclusive lock (``SELECT FOR UPDATE``).

        Acquires the row's write lock *before* reading, so a subsequent
        :meth:`update` in this transaction cannot suffer a lost update:
        no other transaction can change the row between the read and the
        write.  Use this for read-modify-write cycles.
        """
        self._require_writable()
        table = self._db.table(table_name)
        self._lock_row(table_name, rowid)
        return table.schema.row_dict(table.get(rowid, self.txn_id))

    def query(self, table_name: str):
        """Start a query that sees this transaction's uncommitted writes."""
        from .query import Query
        return Query(self._db, table_name, txn=self)

    # -- lifecycle ------------------------------------------------------------

    def commit(self) -> list[Change]:
        """Commit: log, apply staged images, release locks, fire triggers.

        Crash points: ``txn.pre_commit`` fires before the COMMIT record
        is appended (a crash here loses the transaction), and
        ``txn.post_commit`` fires right after it is durable but before
        the staged images are applied (a crash here must still surface
        the transaction after recovery — the commit point is the WAL
        append, not the in-memory apply).

        A read-only transaction has nothing to log or apply: commit just
        settles its lifecycle (and releases its snapshot pin / shared
        locks).  No crash points fire and no commit event is published,
        so snapshot readers are invisible to torture schedules and
        commit triggers alike.
        """
        self._require_active()
        if self.read_only:
            self.state = TxnState.COMMITTED
            self._db.locks.release_all(self.txn_id)
            self._finish("commit")
            return []
        started = perf_counter()
        # The txn span is detached; putting it in scope for the commit
        # parents the WAL fsync and the commit fan-out (notification
        # dispatch) under it, linking the keystroke's causal trace
        # through the durability and propagation legs.
        with self._db.obs.tracer.scope(self._span):
            try:
                with self._lock:
                    self._db.faults.fire("txn.pre_commit", txn=self.txn_id)
                    # Commit-intent window: from just before the COMMIT
                    # record gets its LSN until every staged image is
                    # applied, new snapshots must pin *below* this
                    # commit — otherwise a reader could pin an LSN that
                    # covers the COMMIT record but see pre-apply tables
                    # (a torn snapshot).  See Database.visible_lsn().
                    self._db.register_commit_intent(self.txn_id)
                    try:
                        record = self._db.wal.append(walmod.COMMIT,
                                                     self.txn_id)
                        self._db.raise_commit_floor(self.txn_id, record.lsn)
                        self._db.faults.fire("txn.post_commit",
                                             txn=self.txn_id)
                        self.commit_lsn = record.lsn
                        changes: list[Change] = []
                        for marker in self._ops:
                            table_name, rowid = marker
                            table = self._db.table(table_name)
                            kind, row, old = table.commit_row(
                                self.txn_id, rowid, record.lsn)
                            if kind == "noop":
                                continue
                            row_dict = table.schema.row_dict
                            mapped = self._ops_seen[marker]
                            if row is None:
                                row_map = None
                            elif mapped is not None and mapped[0] is row:
                                row_map = mapped[1]
                            else:
                                row_map = row_dict(row)
                            changes.append(Change(
                                table_name, kind, rowid, row_map,
                                None if old is None else row_dict(old)))
                        self.state = TxnState.COMMITTED
                    finally:
                        # Applied (or dead): snapshots may now cover this
                        # commit.  Cleared before on_commit so triggers
                        # opening snapshots see the changes firing them.
                        self._db.clear_commit_intent(self.txn_id)
            except CrashSignal:
                self._finish("crash")
                raise
            self._db.locks.release_all(self.txn_id)
            self._db.on_commit(self, changes)
        self._metrics.commit_seconds.observe(perf_counter() - started)
        self._metrics.ops.observe(len(self._ops))
        self._finish("commit")
        return changes

    def abort(self) -> None:
        """Roll back every staged change and release locks."""
        self._require_active()
        if self.read_only:
            self.state = TxnState.ABORTED
            self._db.locks.release_all(self.txn_id)
            self._finish("abort")
            return
        try:
            with self._lock:
                for table_name, rowid in reversed(self._ops):
                    self._db.table(table_name).rollback_row(self.txn_id,
                                                            rowid)
                self._db.wal.append(walmod.ABORT, self.txn_id)
                self.state = TxnState.ABORTED
        except CrashSignal:
            self._finish("crash")
            raise
        self._db.locks.release_all(self.txn_id)
        self._db.on_abort(self)
        self._finish("abort")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transaction(id={self.txn_id}, state={self.state.value})"


class BatchJoin:
    """A view of an open batch transaction handed out by ``db.begin()``.

    Editing code written as ``with db.transaction() as txn:`` joins the
    thread's active :meth:`~repro.db.engine.Database.batch` transparently:
    DML, reads and locking forward to the underlying transaction, but a
    clean context exit does **not** commit — the batch's own exit does,
    with one COMMIT record and one (grouped) fsync for the whole burst.
    An exception aborts the whole batch: partial batches never commit.
    Calling :meth:`Transaction.commit` / ``abort`` explicitly through the
    proxy also acts on the whole batch.
    """

    __slots__ = ("_txn",)

    def __init__(self, txn: Transaction) -> None:
        self._txn = txn

    @property
    def batch_txn(self) -> Transaction:
        """The underlying batch transaction."""
        return self._txn

    def __enter__(self) -> "BatchJoin":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._txn.is_active:
            self._txn.abort()

    def __getattr__(self, name: str):
        return getattr(self._txn, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchJoin({self._txn!r})"
