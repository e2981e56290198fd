"""The database engine facade.

:class:`Database` ties the pieces together: tables, the lock manager, the
write-ahead log and the post-commit changefeed.  It is the "fully-
fledged database" substrate on which the TeNDaX text extension is built —
transactions here are the "real-time transactions" of the paper.

Typical use::

    db = Database()
    db.create_table("notes", [column("body", "str")])
    with db.transaction() as txn:
        txn.insert("notes", {"body": "hello"})
    rows = db.query("notes").run()
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from ..clock import Clock, SystemClock
from ..errors import DuplicateTableError, UnknownTableError
from ..ids import IdNamespace, Oid
from ..obs import Observability
from . import wal as walmod
from .catalog import Catalog
from .locks import LockManager
from .query import Query, RowView, find
from .schema import Column, TableSchema
from .table import Table
from .transaction import BatchJoin, Change, Transaction, TxnMetrics
from .wal import WriteAheadLog


class Database:
    """An embedded, multi-user, transactional, in-memory database.

    Parameters
    ----------
    node:
        Name of this database instance; prefixes every generated OID, which
        keeps objects from different instances (e.g. the "external" sources
        of the lineage demo) globally distinguishable.
    wal_path:
        Optional file to mirror the write-ahead log to, enabling recovery
        by a fresh process (see :mod:`repro.db.recovery`).
    clock:
        Time source used for timestamps; inject a
        :class:`~repro.clock.SimulatedClock` for deterministic runs.
    lock_timeout:
        Default seconds a transaction waits for a contended lock.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` threaded
        through the WAL, transactions, checkpoints and the lock manager
        for deterministic crash/latency torture (see ``docs/FAULTS.md``).
    obs:
        Optional :class:`~repro.obs.Observability` to report metrics and
        trace spans into; a fresh enabled one is created by default.
        Pass ``Observability(enabled=False)`` for a no-op baseline (see
        ``docs/OBSERVABILITY.md``).
    wal_group_commit / wal_group_window / wal_group_max:
        Group-commit knobs forwarded to the
        :class:`~repro.db.wal.WriteAheadLog`: concurrent committers share
        one fsync via a commit barrier (see ``docs/INTERNALS.md``,
        "Group commit & batching").  Defaults keep single-threaded
        behaviour identical to per-commit fsync.
    """

    def __init__(
        self,
        node: str = "db",
        *,
        wal_path: str | None = None,
        clock: Clock | None = None,
        lock_timeout: float = 5.0,
        faults=None,
        obs: Observability | None = None,
        wal_group_commit: bool = True,
        wal_group_window: float = 0.0,
        wal_group_max: int = 64,
    ) -> None:
        from ..faults.injector import NO_FAULTS
        self.node = node
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.ids = IdNamespace(node)
        self.faults = faults if faults is not None else NO_FAULTS
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self.locks = LockManager(default_timeout=lock_timeout,
                                 faults=self.faults, registry=registry,
                                 tracer=self.obs.tracer)
        self.wal = WriteAheadLog(wal_path, faults=self.faults,
                                 registry=registry,
                                 tracer=self.obs.tracer,
                                 group_commit=wal_group_commit,
                                 group_window=wal_group_window,
                                 group_max=wal_group_max)
        self.catalog = Catalog(self)
        self._tables: dict[str, Table] = {}
        self._txn_counter = itertools.count(1)
        self._ddl_lock = threading.RLock()
        #: Per-thread active batch transaction (see :meth:`batch`).
        self._batch_local = threading.local()
        self.stats = {"commits": 0, "aborts": 0, "transactions": 0}
        #: Metric handles resolved once; transactions are the hot path.
        self.txn_metrics = TxnMetrics(registry)
        self._m_checkpoints = registry.counter("db.checkpoints")
        self._m_checkpoint_seconds = registry.histogram(
            "db.checkpoint_seconds")
        # -- MVCC snapshot state (see docs/INTERNALS.md, "MVCC") --------
        # Ordering: ``_mvcc_lock`` may be held while taking the WAL's
        # append lock (``last_lsn``), never the other way around — the
        # WAL layer makes no engine calls.
        self._mvcc_lock = threading.Lock()
        #: txn_id -> highest LSN snapshots may pin while this commit is
        #: between its COMMIT append and its in-memory apply.
        self._applying: dict[int, int] = {}
        #: snapshot LSN -> number of live read-only txns pinned to it.
        self._live_snapshots: dict[int, int] = {}
        #: Version chains are truncated every N write commits (plus on
        #: explicit :meth:`gc_versions` calls).
        self.gc_interval = 512
        self._commits_since_gc = 0
        #: Post-commit changefeed; ``None`` until :meth:`changefeed`
        #: creates it, so feed-less engines pay nothing on the commit
        #: path (a replica's applier does not even build the changes).
        self.feed = None

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable[Column],
        *,
        key: str | None = None,
        log: bool = True,
    ) -> Table:
        """Create a table.  ``key`` names a unique, indexed logical key."""
        schema = TableSchema(name, list(columns), key=key)
        with self._ddl_lock:
            if name in self._tables:
                raise DuplicateTableError(f"table {name!r} already exists")
            table = Table(schema, metrics=self.txn_metrics)
            self._tables[name] = table
        if log:
            self.wal.append(walmod.CREATE_TABLE, 0, table=name, key=key,
                            columns=walmod.columns_payload(schema))
        return table

    def drop_table(self, name: str, *, log: bool = True) -> None:
        """Remove a table (logged for recovery)."""
        with self._ddl_lock:
            if name not in self._tables:
                raise UnknownTableError(f"no table {name!r}")
            del self._tables[name]
        if log:
            self.wal.append(walmod.DROP_TABLE, 0, table=name)

    def create_index(self, table_name: str, column: str, *,
                     name: str | None = None, kind: str = "hash",
                     unique: bool = False, log: bool = True):
        """Create a secondary index on ``table_name.column``."""
        table = self.table(table_name)
        index_name = name or f"{table_name}_{column}_{kind}"
        index = table.create_index(index_name, column, kind=kind,
                                   unique=unique)
        if log:
            self.wal.append(
                walmod.CREATE_INDEX, 0, table=table_name, name=index_name,
                column=column, kind=kind, unique=unique,
            )
        return index

    def table(self, name: str) -> Table:
        """Look up a table object by name (raises if absent)."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def tables(self) -> list[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, *, lock_timeout: float | None = None,
              read_only: bool = False,
              locking_reads: bool = False) -> Transaction:
        """Start a new transaction.

        ``read_only=True`` starts an MVCC *snapshot* transaction: it pins
        the current visible LSN and every read resolves the newest
        version at or below it from the tables' version chains — no
        LockManager calls, no WAL records, DML raises
        :class:`~repro.errors.ReadOnlyTransactionError`.  Writers are
        never blocked by it and never block it.

        ``locking_reads=True`` (with ``read_only``) is the pre-MVCC
        2PL-reader baseline instead: reads take SHARED row locks held to
        the end.  Kept for interference benchmarks, not for real use.

        Inside an active :meth:`batch` on the same thread a *write*
        begin returns a :class:`~repro.db.transaction.BatchJoin` view of
        the batch transaction instead: code written per-operation ("one
        keystroke, one transaction") transparently coalesces into the
        batch.  Read-only begins never join a batch.
        """
        if read_only:
            txn_id = next(self._txn_counter)
            self.stats["transactions"] += 1
            snapshot_lsn = None if locking_reads else self.pin_snapshot()
            return Transaction(self, txn_id, lock_timeout=lock_timeout,
                               read_only=True, snapshot_lsn=snapshot_lsn,
                               locking_reads=locking_reads)
        batch = self.current_batch()
        if batch is not None and batch.is_active:
            batch.batched_ops += 1
            return BatchJoin(batch)  # type: ignore[return-value]
        txn_id = next(self._txn_counter)
        self.stats["transactions"] += 1
        return Transaction(self, txn_id, lock_timeout=lock_timeout)

    def transaction(self, *, lock_timeout: float | None = None) -> Transaction:
        """Alias of :meth:`begin`; reads well in ``with`` statements."""
        return self.begin(lock_timeout=lock_timeout)

    @contextmanager
    def snapshot(self):
        """A read-only snapshot transaction as a context manager.

        Everything read inside the block observes one consistent commit
        point — a multi-query analytics pass (search profiling, lineage
        walks, folder evaluation) cannot see a commit land between its
        queries.  Exiting releases the snapshot pin so GC can advance.
        """
        with self.begin(read_only=True) as txn:
            yield txn

    def current_batch(self) -> Transaction | None:
        """The batch transaction open on this thread, if any."""
        txn = getattr(self._batch_local, "txn", None)
        if txn is not None and not txn.is_active:
            # A crash/abort may have killed the batch under the context
            # manager's feet; never hand out a dead transaction.
            return None
        return txn

    @contextmanager
    def batch(self, *, lock_timeout: float | None = None):
        """Coalesce a burst of editing operations into one transaction.

        Every ``db.transaction()`` / ``db.begin()`` opened on this thread
        inside the ``with`` block joins a single underlying transaction:
        the burst stages all its row ops under amortised locks and
        commits once — one COMMIT record, one (group-committed) fsync —
        instead of paying the durability cost per keystroke.  On
        exception the whole batch rolls back; partial bursts never
        commit.  Nested calls join the outer batch.  The number of
        coalesced operations is observed as ``txn.batched_ops``.
        """
        existing = self.current_batch()
        if existing is not None:
            yield existing
            return
        txn = self.begin(lock_timeout=lock_timeout)
        self._batch_local.txn = txn
        try:
            yield txn
        except BaseException:
            self._batch_local.txn = None
            if txn.is_active:
                txn.abort()
            raise
        else:
            # Clear the thread-local *before* committing so feed
            # consumers that open their own transactions don't join a
            # batch that is already sealing.
            self._batch_local.txn = None
            if txn.is_active:
                self.txn_metrics.batched_ops.observe(txn.batched_ops)
                txn.commit()

    def on_commit(self, txn_id: int, lsn: int,
                  changes: Sequence[Change]) -> None:
        """The one call made after a write transaction became visible —
        by a local :meth:`Transaction.commit` or by a replica applying a
        shipped one — once its images are applied and its locks
        released.  ``lsn`` is the COMMIT record's."""
        self.stats["commits"] += 1
        self._commits_since_gc += 1
        if self._commits_since_gc >= self.gc_interval:
            # Benign racy counter: a skipped or doubled GC pass is fine.
            self._commits_since_gc = 0
            self.gc_versions()
        if self.feed is not None:
            self.feed.publish(txn_id, lsn, changes)

    def changefeed(self, *, retention: int = 512):
        """This database's post-commit changefeed (created on first use).

        The single ordered stream every derived-data consumer now rides
        (see :mod:`repro.feed`); ``retention`` applies only on the call
        that creates the feed.
        """
        if self.feed is None:
            from ..feed.changefeed import Changefeed
            self.feed = Changefeed(self, retention=retention)
        return self.feed

    # ------------------------------------------------------------------
    # Autocommit conveniences
    # ------------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert one row in its own transaction; returns the rowid."""
        with self.transaction() as txn:
            return txn.insert(table_name, values)

    def update(self, table_name: str, rowid: int,
               updates: Mapping[str, Any]) -> dict:
        """Update one row in its own transaction."""
        with self.transaction() as txn:
            return txn.update(table_name, rowid, updates)

    def delete(self, table_name: str, rowid: int) -> None:
        """Delete one row in its own transaction."""
        with self.transaction() as txn:
            txn.delete(table_name, rowid)

    def get(self, table_name: str, rowid: int) -> dict:
        """Read one committed row (raises if absent)."""
        table = self.table(table_name)
        return table.schema.row_dict(table.get(rowid))

    def read(self, table_name: str, rowid: int) -> dict | None:
        """Read one committed row, or ``None`` if absent."""
        table = self.table(table_name)
        row = table.read(rowid)
        return None if row is None else table.schema.row_dict(row)

    def query(self, table_name: str) -> Query:
        """Start a query over committed data."""
        return Query(self, table_name)

    def find(self, table_name: str, column: str, key: Any) -> RowView | None:
        """The first committed row with ``column == key``, or ``None``
        (see :func:`repro.db.query.find`)."""
        return find(self, table_name, column, key)

    # ------------------------------------------------------------------
    # IDs / time
    # ------------------------------------------------------------------

    def new_oid(self, kind: str) -> Oid:
        """Fresh object id in this database's namespace."""
        return self.ids.next(kind)

    def advance_txn_ids(self, seen: int) -> None:
        """Keep transaction-id allocation ahead of ``seen``.

        Promotion turns a follower writable: its WAL already holds the
        leader's transaction ids, so new local transactions must start
        above the highest shipped one — two transactions sharing an id
        in one log would conflate under recovery's COMMIT matching.
        """
        current = next(self._txn_counter)
        self._txn_counter = itertools.count(max(current, seen + 1))

    def advance_object_ids(self) -> None:
        """Keep object-id allocation ahead of every id in a committed row.

        For an engine whose rows were written by another process under
        this node name and arrived all at once — a restart on its own
        log, a replica starting from a shipped checkpoint.  Linear in
        the database; rows that arrive one commit at a time go through
        :meth:`advance_object_ids_past` instead.
        """
        for name in self.tables():
            table = self.table(name)
            self.advance_object_ids_past(
                table, (row for _, row in table.committed_items()))

    def advance_object_ids_past(self, table: Table,
                                rows: Iterable[Sequence[Any]]) -> None:
        """Keep object-id allocation ahead of every id in ``rows`` (stored
        rows of ``table``): ids are never reused, so the newest ``Oid``
        per node bounds what may be minted next (ids of other namespaces
        are ignored)."""
        oid_columns = table.schema.oid_positions
        if not oid_columns:
            return
        newest: dict[str, int] = {}
        for row in rows:
            for at in oid_columns:
                value = row[at]
                if value is not None \
                        and value.seq > newest.get(value.node, 0):
                    newest[value.node] = value.seq
        for node, seq in newest.items():
            self.ids.advance_past(node, seq)

    def now(self) -> float:
        """Current time from the injected clock."""
        return self.clock.now()

    # ------------------------------------------------------------------
    # MVCC: snapshot pinning, commit intents, version GC
    # ------------------------------------------------------------------

    def visible_lsn(self) -> int:
        """The highest LSN a new snapshot may pin right now.

        Usually the last appended WAL LSN.  While any committer sits
        between its COMMIT append and its in-memory apply (a *commit
        intent*), the visible LSN is capped just below the oldest such
        commit — a pinned snapshot therefore always covers only commits
        whose table images are fully applied, never a torn one.
        """
        with self._mvcc_lock:
            return self._visible_lsn_locked()

    def _visible_lsn_locked(self) -> int:
        last = self.wal.last_lsn()
        if not self._applying:
            return last
        return min(last, min(self._applying.values()))

    def register_commit_intent(self, txn_id: int) -> None:
        """Open a commit-intent window before the COMMIT record exists.

        Until :meth:`raise_commit_floor` learns the record's LSN, cap
        snapshots at the log tail as of now: any LSN the COMMIT record
        can get is above it.
        """
        with self._mvcc_lock:
            self._applying[txn_id] = self.wal.last_lsn()

    def raise_commit_floor(self, txn_id: int, commit_lsn: int) -> None:
        """The COMMIT record has its LSN: snapshots may pin up to just
        below it while the apply is still in flight."""
        with self._mvcc_lock:
            if txn_id in self._applying:
                self._applying[txn_id] = commit_lsn - 1

    def clear_commit_intent(self, txn_id: int) -> None:
        """The commit is fully applied (or dead): stop capping."""
        with self._mvcc_lock:
            self._applying.pop(txn_id, None)

    def pin_snapshot(self) -> int:
        """Pin and return the current visible LSN (one reader ref)."""
        with self._mvcc_lock:
            lsn = self._visible_lsn_locked()
            self._live_snapshots[lsn] = self._live_snapshots.get(lsn, 0) + 1
            return lsn

    def unpin_snapshot(self, lsn: int) -> None:
        """Drop one reader ref from ``lsn`` (snapshot txn finished)."""
        with self._mvcc_lock:
            count = self._live_snapshots.get(lsn, 0) - 1
            if count > 0:
                self._live_snapshots[lsn] = count
            else:
                self._live_snapshots.pop(lsn, None)

    def gc_watermark(self) -> int:
        """Oldest LSN any live (or future) snapshot can still observe."""
        with self._mvcc_lock:
            lsn = self._visible_lsn_locked()
            if self._live_snapshots:
                lsn = min(lsn, min(self._live_snapshots))
            return lsn

    def gc_versions(self, watermark: int | None = None) -> int:
        """Truncate version chains below the oldest live snapshot.

        Runs automatically every :attr:`gc_interval` write commits;
        callers with bursty retention (e.g. after closing a long
        analytics snapshot) may invoke it directly.  Returns the number
        of versions dropped (also counted as
        ``txn.version_gc_truncated``).
        """
        if watermark is None:
            watermark = self.gc_watermark()
        dropped = 0
        for table in list(self._tables.values()):
            dropped += table.gc_versions(watermark)
        if dropped:
            self.txn_metrics.version_gc_truncated.inc(dropped)
        return dropped

    def live_versions(self) -> int:
        """Superseded row versions currently retained across all tables."""
        return sum(t.live_versions() for t in self._tables.values())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a full snapshot into the WAL; returns the checkpoint LSN.

        Recovery can start from the latest checkpoint instead of replaying
        history from the beginning.  The ``checkpoint.mid_snapshot``
        crash point fires halfway through the table sweep: a crash there
        must leave recovery falling back to the previous checkpoint (or
        full history) — never a half-snapshot.
        """
        started = perf_counter()
        snapshot = {}
        tables = list(self._tables.items())
        for position, (name, table) in enumerate(tables, start=1):
            if position == (len(tables) + 1) // 2:
                self.faults.fire("checkpoint.mid_snapshot", table=name)
            snapshot[name] = {
                "schema": {
                    "key": table.schema.key,
                    "columns": walmod.columns_payload(table.schema),
                },
                "indexes": [
                    {
                        "name": idx.name,
                        "column": idx.column,
                        "kind": idx.kind,
                        "unique": idx.unique,
                    }
                    for idx in table.indexes().values()
                ],
                "rows": {
                    str(rowid): table.schema.row_dict(row)
                    for rowid, row in table.committed_items()
                },
            }
        record = self.wal.append(walmod.CHECKPOINT, 0, tables=snapshot)
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(perf_counter() - started)
        return record.lsn

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, dict]:
        """Snapshot of every metric recorded against this database.

        Covers the engine's own subsystems (``txn.*``, ``wal.*``,
        ``lock.*``, ``db.*``) plus anything else reporting into the same
        :class:`~repro.obs.Observability` — the collaboration server and
        the search engine register their ``collab.*`` / ``search.*``
        metrics here too.  Keys are catalogued metric names; values are
        plain JSON-serialisable dicts (see ``docs/OBSERVABILITY.md``).
        """
        return self.obs.registry.snapshot()

    def close(self) -> None:
        """Flush and close the WAL file (if any)."""
        self.wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Database(node={self.node!r}, tables={len(self._tables)}, "
                f"commits={self.stats['commits']})")
