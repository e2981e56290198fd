"""Transactions: strict two-phase locking, WAL logging, one post-commit call.

A transaction stages row images in the tables it touches (see
:mod:`repro.db.table`), holding exclusive row locks until commit or abort,
and buffers one redo statement per operation.  COMMIT hands the buffer to
the log as one block and then makes the staged images effective; an abort
leaves the log untouched.  A commit ends in one call,
:meth:`Database.on_commit`, which publishes the full change list on the
changefeed — the stream that drives real-time propagation to editor
clients, metadata capture and dynamic folder refresh.
"""

from __future__ import annotations

import enum
import threading
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple,
                    Sequence)

from ..errors import (
    CrashSignal,
    ReadOnlyTransactionError,
    RowNotFoundError,
    TransactionStateError,
)
from ..obs.metrics import COUNT_BUCKETS
from . import wal as walmod
from .locks import EXCLUSIVE, SHARED
from .query import Query, find
from .schema import RowImage
from .table import VERSIONS_PUSHED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database


class TxnMetrics:
    """Transaction metric handles, resolved once per database.

    Transactions are the hot path — one per keystroke — so the engine
    looks every metric up a single time at construction instead of by
    name per transaction.
    """

    __slots__ = ("committed", "aborted", "crashed", "active",
                 "duration", "commit_seconds", "ops", "batched_ops",
                 "snapshot_reads", "versions_live", "version_gc_truncated")

    def __init__(self, registry) -> None:
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
    a vanished row belonged to.  Both are read-only
    :class:`~repro.db.schema.RowImage` mappings over the stored tuples
    themselves, shared by every consumer: writing one raises
    ``TypeError``, and a consumer that needs a dict calls ``dict(row)``.
    """

    table: str
    kind: str                     # "insert" | "update" | "delete"
    rowid: int
    row: RowImage | None          # the row after the change (None=delete)
    before: RowImage | None = None  # the row before it (None=insert)


class Transaction:
    """Handle for one unit of work against a :class:`~repro.db.engine.Database`.

    Usually obtained via ``db.transaction()`` (a context manager that
    commits on clean exit and aborts on exception) or ``db.begin()``.

    The one thing it keeps per staged row is that row's redo statements
    in ``_log``; the tables hold the pending images.  Commit applies the
    rows in the order of their first statement.
    """

    def __init__(self, db: "Database", txn_id: int, *,
                 lock_timeout: float | None = None,
                 read_only: bool = False,
                 snapshot_lsn: int | None = None) -> None:
        self._db = db
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.lock_timeout = lock_timeout
        #: Read-only transactions log nothing, stage nothing and
        #: raise :class:`~repro.errors.ReadOnlyTransactionError` on DML.
        self.read_only = read_only
        #: MVCC mode: when set, every read resolves the newest version
        #: ``<=`` this LSN from the version chains — zero LockManager
        #: calls on the whole read path (``None`` = read-committed).
        self.snapshot_lsn = snapshot_lsn
        #: Redo statements in execution order, one ``(type, table,
        #: rowid, cols, vals)`` each: the DML of this transaction's log
        #: block (see :meth:`~repro.db.wal.WriteAheadLog.append`), and
        #: the transaction's only record of the rows it staged — commit
        #: applies each row at its first statement here, abort rolls
        #: back every row named.
        self._log: list[tuple] = []
        #: Whether an UPDATE named a uniquely indexed column: such a
        #: transaction may move a key between its rows, so commit
        #: un-files every key it changed before filing any.
        self._rekeyed = False
        #: Editing operations that joined this transaction via
        #: ``Database.batch()`` (observed as ``txn.batched_ops``).
        self.batched_ops = 0
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
        self._metrics.active.inc()

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

    def _lock_all(self, resources: list) -> None:
        """Take the exclusive locks of one statement (group) in a single
        lock-manager call.  A resource this transaction already holds
        exclusively costs nothing (strict 2PL holds it to the end, so
        the manager's record of it is exact — batched bursts touch the
        same document row once per keystroke); one it holds SHARED is
        upgraded with the rest."""
        locks = self._db.locks
        held = locks.held_modes(self.txn_id)
        fresh = [r for r in resources if held.get(r) != EXCLUSIVE]
        if fresh:
            locks.acquire_many(self.txn_id, fresh,
                               timeout=self.lock_timeout)

    def lock_shared(self, table: str, rowid: int) -> None:
        """Take a SHARED row lock, held to the end of the transaction.

        No read in the engine takes one; a caller that wants a reader
        to block writers (and be blocked by them) — the 2PL-reader arm
        of the interference benchmark — locks each row it reads.  A
        later write of the row in the same transaction upgrades it.

        A snapshot transaction raises
        :class:`~repro.errors.ReadOnlyTransactionError`: it reads its
        pinned versions and never takes a lock, so its commit and abort
        never call the lock manager."""
        if self.snapshot_lsn is not None:
            raise ReadOnlyTransactionError(
                f"snapshot transaction {self.txn_id} takes no locks")
        resource = ("row", table, rowid)
        locks = self._db.locks
        if resource in locks.held_modes(self.txn_id):
            return
        locks.acquire(self.txn_id, resource, SHARED,
                      timeout=self.lock_timeout)

    def lock_rows(self, table_name: str, rowids: Iterable[int]) -> None:
        """Pre-acquire exclusive locks on a batch of rows at once.

        An edit knows the rows it will touch up front (a range being
        styled or deleted, the two chain neighbours of an insert); one
        :meth:`~repro.db.locks.LockManager.acquire_many` call amortises
        the lock-manager round-trip across all of them instead of
        paying it per row.
        """
        self._require_writable()
        self._lock_all([("row", table_name, rowid) for rowid in rowids])

    # -- DML ----------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert a row; returns its rowid."""
        return self.insert_many(table_name, (values,))[0]

    def insert_many(self, table_name: str,
                    rows: Sequence[Mapping[str, Any]]) -> list[int]:
        """Insert a run of rows as one statement group; returns their
        rowids in order.  The whole run is one lock set."""
        self._require_writable()
        table = self._db.table(table_name)
        with self._lock:
            # The row ids come first so that the row locks and the key
            # locks (claims on unique values, serialised across
            # transactions) are taken together.
            rowids = [table.next_rowid() for __ in rows]
            wanted = [("key", table_name, column, values[column])
                      for column in table.unique_columns()
                      for values in rows if values.get(column) is not None]
            wanted += [("row", table_name, rowid) for rowid in rowids]
            self._lock_all(wanted)
            names = table.schema.names
            for rowid, values in zip(rowids, rows):
                row = table.stage_insert(self.txn_id, values, rowid)[1]
                # The log keeps the stored tuple itself, by reference.
                self._log.append((walmod.INSERT, table_name, rowid,
                                  names, row))
            return rowids

    def update(self, table_name: str, rowid: int,
               updates: Mapping[str, Any]) -> RowImage:
        """Update a row; returns the new full row, read-only (a
        :class:`~repro.db.schema.RowImage` of the staged tuple)."""
        self._require_writable()
        table = self._db.table(table_name)
        with self._lock:
            wanted = [("row", table_name, rowid)]
            for column in table.unique_columns():
                if column in updates:
                    self._rekeyed = True
                    if updates[column] is not None:
                        wanted.append(("key", table_name, column,
                                       updates[column]))
            self._lock_all(wanted)
            row = table.stage_update(self.txn_id, rowid, updates)
            schema = table.schema
            # Only the columns this statement set are logged: redo
            # merges them into the row it holds, which under strict
            # 2PL is the very image staged on here.
            cols = tuple(updates)
            self._log.append((walmod.UPDATE, table_name, rowid, cols,
                              schema.project(row, cols)))
            return schema.image(row)

    def delete(self, table_name: str, rowid: int) -> None:
        """Delete a row."""
        self._require_writable()
        table = self._db.table(table_name)
        with self._lock:
            self._lock_all([("row", table_name, rowid)])
            table.stage_delete(self.txn_id, rowid)
            self._log.append((walmod.DELETE, table_name, rowid, (), ()))

    # -- reads (own-writes visible; snapshot txns read their pinned LSN) -----

    def _read_row(self, table, table_name: str, rowid: int) -> tuple | None:
        """One row under this transaction's visibility mode."""
        if self.snapshot_lsn is not None:
            self._metrics.snapshot_reads.inc()
            return table.snapshot_read(rowid, self.snapshot_lsn)
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
        self._lock_all([("row", table_name, rowid)])
        return table.schema.row_dict(table.get(rowid, self.txn_id))

    def query(self, table_name: str):
        """Start a query that sees this transaction's uncommitted writes."""
        return Query(self._db, table_name, txn=self)

    def find(self, table_name: str, column: str, key: Any):
        """The first row with ``column == key`` as this transaction sees
        it, or ``None`` (see :func:`repro.db.query.find`)."""
        return find(self._db, table_name, column, key, self)

    # -- lifecycle ------------------------------------------------------------

    def commit(self) -> list[Change]:
        """Commit: log, apply staged images, release locks, publish.

        The log sees the transaction here for the first time: BEGIN,
        the buffered statements and COMMIT go down as one block.  That
        is enough because nothing staged has reached a table or any
        reader of the log yet — redo never needs a record before its
        COMMIT.

        Crash points: ``txn.pre_commit`` fires before the block is
        appended (a crash here, or at any WAL point inside the block,
        loses the transaction whole), and ``txn.post_commit`` fires
        right after it is durable but before the staged images are
        applied (a crash here must still surface the transaction after
        recovery — the commit point is the WAL append, not the
        in-memory apply).

        A read-only transaction has nothing to log or apply: commit just
        settles its lifecycle and releases its snapshot pin.  A snapshot
        holds no lock (:meth:`lock_shared` refuses it one), so only a
        read-only transaction without a ``snapshot_lsn`` reaches the
        lock manager here.  No crash points fire and nothing is
        published, so snapshot readers are invisible to torture
        schedules and feed consumers alike.
        """
        self._require_active()
        db = self._db
        if self.read_only:
            self.state = TxnState.COMMITTED
            if self.snapshot_lsn is None:
                db.locks.release_all(self.txn_id)
            self._finish("commit")
            return []
        started = perf_counter()
        txn_id = self.txn_id
        # The txn span is detached; putting it in scope for the commit
        # parents the WAL fsync and the commit fan-out (notification
        # dispatch) under it, linking the keystroke's causal trace
        # through the durability and propagation legs.
        with db.obs.tracer.scope(self._span):
            try:
                with self._lock:
                    db.faults.fire("txn.pre_commit", txn=txn_id)
                    # Commit-intent window: from just before the block
                    # gets its LSNs until every staged image is
                    # applied, new snapshots must pin *below* this
                    # commit — otherwise a reader could pin an LSN that
                    # covers the COMMIT record but see pre-apply tables
                    # (a torn snapshot).  See Database.visible_lsn().
                    db.register_commit_intent(txn_id)
                    try:
                        lsn = db.wal.append(walmod.COMMIT, txn_id,
                                            dml=self._log).lsn
                        db.raise_commit_floor(txn_id, lsn)
                        db.faults.fire("txn.post_commit", txn=txn_id)
                        if self._rekeyed:
                            for __, table_name, rowid, __, __ in self._log:
                                db.table(table_name).unfile_changed_keys(
                                    txn_id, rowid)
                        changes: list[Change] = []
                        pushed = applied = 0
                        # A row is applied at its first statement; once
                        # applied it is no longer pending here, so its
                        # later statements are skipped.
                        for __, table_name, rowid, __, __ in self._log:
                            table = db.table(table_name)
                            if not table.owns(txn_id, rowid):
                                continue
                            applied += 1
                            kind, row, old = table.commit_row(
                                txn_id, rowid, lsn)
                            if kind == "noop":
                                continue
                            pushed += VERSIONS_PUSHED[kind]
                            image = table.schema.image
                            changes.append(Change(
                                table_name, kind, rowid,
                                None if row is None else image(row),
                                None if old is None else image(old)))
                        if pushed:
                            self._metrics.versions_live.inc(pushed)
                        self.state = TxnState.COMMITTED
                    finally:
                        # Applied (or dead): snapshots may now cover this
                        # commit.  Cleared before on_commit so consumers
                        # opening snapshots see the changes handed to them.
                        db.clear_commit_intent(txn_id)
            except CrashSignal:
                self._finish("crash")
                raise
            db.locks.release_all(txn_id)
            db.on_commit(txn_id, lsn, changes)
        self._metrics.commit_seconds.observe(perf_counter() - started)
        self._metrics.ops.observe(applied)
        self._finish("commit")
        return changes

    def abort(self) -> None:
        """Roll back every staged change and release locks (the log
        never heard of the transaction, so there is nothing to undo
        there).  A snapshot holds no lock: it only drops its pin."""
        self._require_active()
        if not self.read_only:
            with self._lock:
                for __, table_name, rowid, __, __ in reversed(self._log):
                    self._db.table(table_name).rollback_row(self.txn_id,
                                                            rowid)
        self.state = TxnState.ABORTED
        if self.snapshot_lsn is None:
            self._db.locks.release_all(self.txn_id)
        if not self.read_only:
            self._db.stats["aborts"] += 1
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

    def __enter__(self) -> "BatchJoin":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._txn.is_active:
            self._txn.abort()

    def __getattr__(self, name: str):
        return getattr(self._txn, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchJoin({self._txn!r})"
