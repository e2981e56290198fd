"""The post-commit changefeed.

One ordered, LSN-stamped stream of committed row changes per database.
Every committed write transaction becomes exactly one
:class:`CommitBatch` — its events carry *before-images*, so a delete
event still shows the vanished row — and consumers subscribe with a
named :class:`FeedSubscription`:

* **sync** consumers run inside the publishing commit and are acked
  automatically when their handler returns;
* **deferred** consumers use the handler only to record work (mark a
  document dirty) and ack later, when the derived state has actually
  absorbed the batch — the gap between the feed head and their ack is
  the ``feed.lag`` gauge, the staleness signal the worker and the SLO
  pipeline watch.

Durability is split along the same line as the engine's: the feed keeps
a bounded in-memory retention window for live resume
(:meth:`Changefeed.batches_since`), checkpoints consumer cursors into
the ``tx_feed_cursors`` table, and reconstructs missed batches after a
restart directly from WAL records (:func:`batches_from_records`) — the
DELETE records' before-image payload exists precisely so this replay
can still describe what vanished.  See ``docs/CHANGEFEED.md`` for the
consumer contract and the failure matrix.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..errors import CrashSignal, FeedGapError, RecoveryError
from ..db import wal as walmod
from ..db.schema import TableSchema, column
from ..db.predicate import col
from ..db.replay import WalReplay, merge_image
from ..db.transaction import Change
from ..db.wal import WalRecord, columns_from_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.engine import Database

#: Table holding durable consumer cursors, created on first checkpoint.
CURSOR_TABLE = "tx_feed_cursors"

#: State before notice: the consumer that *announces* a commit to
#: editors (the collab fan-out, every transport's one source) is handed
#: a batch only after every consumer that *keeps state* from it —
#: order-cache replicas, index, folders, collector, whenever those
#: subscribed — so nobody is told of a change a handle on this engine
#: cannot yet read.
NOTICE_CONSUMERS = ("collab-fanout",)

#: A consumer handler: receives one batch (pre-filtered to the
#: subscription's tables) after the publishing commit applied.
ConsumerFn = Callable[["CommitBatch"], None]


@dataclass(frozen=True)
class CommitBatch:
    """All events of one committed transaction, in staging order.

    An event is the commit's own :class:`~repro.db.transaction.Change`:
    ``row`` is the column mapping after the change (``None`` for a
    delete), ``before`` the committed image it superseded (``None`` for
    an insert) — so a delete is fully described by its ``before``.

    ``seq`` is the feed's process-local sequence number (1, 2, 3 ...);
    ``lsn`` is the transaction's COMMIT record LSN — the durable
    coordinate cursors are checkpointed against.  Batches replayed from
    the WAL after a restart carry ``seq == 0``: the seq axis does not
    survive a restart, the LSN axis does.
    """

    seq: int
    lsn: int
    txn_id: int
    committed_at: float
    events: tuple[Change, ...]

    def for_tables(self, tables: frozenset[str] | None) -> "CommitBatch":
        """This batch restricted to ``tables`` (``None`` = everything)."""
        if tables is None:
            return self
        kept = tuple(e for e in self.events if e.table in tables)
        if len(kept) == len(self.events):
            return self
        return CommitBatch(self.seq, self.lsn, self.txn_id,
                           self.committed_at, kept)


class FeedSubscription:
    """One named consumer's registration on the feed.

    Tracks two cumulative sequence numbers: ``delivered_seq`` (the
    newest batch the feed has handed to — or auto-acked past — this
    consumer) and ``acked_seq`` (the newest batch the consumer's
    derived state has fully absorbed; acks are cumulative, covering
    everything at or below the acked seq).  ``lag`` is the distance
    from the feed head to the ack — the consumer's staleness in
    batches.
    """

    def __init__(self, feed: "Changefeed", name: str, fn: ConsumerFn, *,
                 tables: frozenset[str] | None, deferred: bool) -> None:
        self._feed = feed
        self.name = name
        self.fn = fn
        self.tables = tables
        self.deferred = deferred
        self.active = True
        #: One of the feed's ``NOTICE_CONSUMERS`` (dispatched last).
        self.notice = False
        self.delivered_seq = 0
        self.acked_seq = 0
        #: This consumer's ``feed.lag{consumer=…}`` series, resolved
        #: once (acks are per batch, the label set is per subscription).
        self._lag_gauge = feed._f_lag.labels(consumer=name)
        self._lag_gauge.set(0)
        self._lag_reported = 0

    @property
    def lag(self) -> int:
        """Batches between the feed head and this consumer's ack."""
        return max(0, self._feed.last_seq - self.acked_seq)

    def _report_lag(self) -> None:
        """Move the gauge when the lag moved (a sync consumer is back at
        0 after every batch: nothing to write)."""
        lag = self.lag if self.active else 0
        if lag != self._lag_reported:
            self._lag_reported = lag
            self._lag_gauge.set(lag)

    def ack(self, seq: int) -> None:
        """The consumer's state now covers every batch ``<= seq``."""
        self._feed._ack(self, seq)

    def close(self) -> None:
        """Unsubscribe; safe to call twice.  Remaining lag is dropped
        from the gauge (a closed consumer is not stale, it is gone)."""
        if self.active:
            self.active = False
            self._feed._remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FeedSubscription({self.name!r}, deferred={self.deferred}, "
                f"acked={self.acked_seq}/{self._feed.last_seq})")


class Changefeed:
    """The database's single ordered post-commit event stream.

    Created lazily by :meth:`~repro.db.engine.Database.changefeed`; the
    engine calls :meth:`publish` once per committed write transaction —
    a local commit or a follower's apply of a shipped one — after the
    commit applied and its locks were released, and calls nothing else.
    Publishing and dispatch run under one reentrant lock, so consumers
    observe batches in one global order even under concurrent
    committers — a consumer that itself commits publishes its nested
    batch inline, preserving causality.  Handlers therefore run with
    that lock held: they must not block on another committer.

    ``retention`` bounds the in-memory tail kept for
    :meth:`batches_since`; consumers that fall further behind get a
    :class:`~repro.errors.FeedGapError` and must rebuild or catch up
    from the WAL.
    """

    def __init__(self, db: "Database", *, retention: int = 512) -> None:
        self._db = db
        self._lock = threading.RLock()
        self._retention = max(1, retention)
        self._batches: deque[CommitBatch] = deque()
        self._subs: list[FeedSubscription] = []
        self._last_seq = 0
        self._last_lsn = 0
        #: Recent consumer failures as (consumer, exception) pairs: a
        #: failing consumer must not damage the already-committed
        #: transaction, so dispatch isolates exceptions here instead of
        #: propagating them.
        self.errors: list[tuple[str, Exception]] = []
        registry = db.obs.registry
        self._m_events = registry.counter("feed.events")
        self._m_dispatch = registry.histogram("feed.dispatch_seconds")
        self._m_errors = registry.counter("feed.consumer_errors")
        self._m_checkpoints = registry.counter("feed.checkpoints")
        self._m_catchup = registry.counter("feed.catchup_batches")
        self._m_missing_base = registry.counter("wal.missing_base_rows")
        self._m_evictions = registry.counter("feed.retention_evictions")
        self._m_staleness = registry.histogram("feed.staleness_seconds")
        self._f_lag = registry.family("feed.lag", "gauge")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._last_seq

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    def subscriptions(self) -> list[FeedSubscription]:
        with self._lock:
            return list(self._subs)

    def max_lag(self) -> int:
        """The worst consumer lag right now (0 with no consumers)."""
        with self._lock:
            return max((s.lag for s in self._subs), default=0)

    def status(self) -> dict:
        """JSON-friendly summary (the ``repro feed-status`` payload)."""
        with self._lock:
            return {
                "seq": self._last_seq,
                "lsn": self._last_lsn,
                "retained": len(self._batches),
                "retention": self._retention,
                "errors": len(self.errors),
                "consumers": [
                    {
                        "name": s.name,
                        "deferred": s.deferred,
                        "tables": sorted(s.tables) if s.tables else None,
                        "delivered_seq": s.delivered_seq,
                        "acked_seq": s.acked_seq,
                        "lag": s.lag,
                    }
                    for s in self._subs
                ],
            }

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def subscribe(self, name: str, fn: ConsumerFn, *,
                  tables: Iterable[str] | None = None,
                  deferred: bool = False) -> FeedSubscription:
        """Register a consumer from the current feed head.

        ``tables`` restricts delivery: batches with no event in the set
        are auto-acked past the consumer without invoking ``fn``.
        ``deferred`` consumers must call
        :meth:`FeedSubscription.ack` themselves once the batch is
        absorbed; sync consumers are acked when ``fn`` returns.
        Dispatch order is subscription order, except that the
        :data:`NOTICE_CONSUMERS` stay behind everyone else.
        """
        table_set = frozenset(tables) if tables is not None else None
        with self._lock:
            taken = {s.name for s in self._subs}
            unique = name
            suffix = 2
            while unique in taken:
                unique = f"{name}-{suffix}"
                suffix += 1
            sub = FeedSubscription(self, unique, fn, tables=table_set,
                                   deferred=deferred)
            sub.delivered_seq = sub.acked_seq = self._last_seq
            sub.notice = name in NOTICE_CONSUMERS
            at = len(self._subs)
            if not sub.notice:
                while at and self._subs[at - 1].notice:
                    at -= 1
            self._subs.insert(at, sub)
            return sub

    def _remove(self, sub: FeedSubscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)
            sub._report_lag()

    # ------------------------------------------------------------------
    # Publish / dispatch
    # ------------------------------------------------------------------

    def publish(self, txn_id: int, lsn: int,
                changes: Sequence[Change]) -> None:
        """Turn one committed transaction into a batch and dispatch it.

        Called by :meth:`Database.on_commit` with the transaction's id
        and COMMIT LSN; empty change lists publish nothing.  The
        ``feed.mid_dispatch`` crash point fires before each consumer
        invocation, so crash schedules can kill the process with a batch
        half-dispatched — the recovery contract is that checkpointed
        cursors plus WAL catch-up redeliver it.
        """
        if not changes:
            return
        events = tuple(changes)
        with self._lock:
            self._last_seq += 1
            self._last_lsn = max(self._last_lsn, lsn)
            batch = CommitBatch(self._last_seq, lsn, txn_id,
                                self._db.now(), events)
            self._batches.append(batch)
            while len(self._batches) > self._retention:
                self._batches.popleft()
                self._m_evictions.inc()
            self._m_events.inc(len(events))
            with self._m_dispatch.time():
                for sub in list(self._subs):
                    if sub.active:
                        self._deliver(sub, batch)

    def _deliver(self, sub: FeedSubscription, batch: CommitBatch) -> None:
        filtered = batch.for_tables(sub.tables)
        if not filtered.events:
            # Nothing for this consumer: advance it past the batch —
            # but an ack is cumulative, so only when it was already
            # caught up (otherwise the auto-ack would falsely cover
            # earlier unabsorbed batches).
            caught_up = sub.acked_seq == sub.delivered_seq
            sub.delivered_seq = batch.seq
            if caught_up:
                self._ack_locked(sub, batch.seq)
            return
        self._db.faults.fire("feed.mid_dispatch", consumer=sub.name,
                             seq=batch.seq)
        sub.delivered_seq = batch.seq
        try:
            sub.fn(filtered)
        except CrashSignal:
            raise
        except Exception as exc:
            self.consumer_failed(sub.name, exc)
            return
        if not sub.deferred:
            self._ack_locked(sub, batch.seq)
        else:
            sub._report_lag()

    def consumer_failed(self, name: str, exc: Exception) -> None:
        """Record that consumer ``name`` failed on a committed batch.

        Dispatch calls this for a handler that raised; a consumer that
        finishes part of its work after its handler returned (the collab
        fan-out sends an operation's notices when the operation ends)
        reports a failure there the same way, so ``feed.consumer_errors``
        and the ``feed.consumers`` health check cover both."""
        with self._lock:
            self.errors.append((name, exc))
            if len(self.errors) > 100:
                del self.errors[: len(self.errors) - 100]
            self._m_errors.inc()

    def _ack(self, sub: FeedSubscription, seq: int) -> None:
        with self._lock:
            self._ack_locked(sub, seq)

    def _ack_locked(self, sub: FeedSubscription, seq: int) -> None:
        if seq > sub.acked_seq:
            sub.acked_seq = min(seq, self._last_seq)
            if sub.deferred:
                # A sync consumer is acked inside the publishing commit:
                # its only delay is the dispatch already being timed.
                batch = self._retained(seq)
                if batch is not None and batch.committed_at > 0.0:
                    self._m_staleness.observe(
                        max(0.0, self._db.now() - batch.committed_at))
        sub._report_lag()

    def _retained(self, seq: int) -> CommitBatch | None:
        if not self._batches or seq < self._batches[0].seq \
                or seq > self._batches[-1].seq:
            return None
        return self._batches[seq - self._batches[0].seq]

    def batches_since(self, seq: int) -> list[CommitBatch]:
        """Retained batches with ``batch.seq > seq``, in order.

        Raises :class:`~repro.errors.FeedGapError` when the retention
        window no longer reaches back to ``seq`` — the caller missed
        evicted batches and must rebuild or catch up from the WAL.
        """
        with self._lock:
            if seq >= self._last_seq:
                return []
            oldest = self._batches[0].seq if self._batches \
                else self._last_seq + 1
            if seq < oldest - 1:
                raise FeedGapError(
                    f"feed retains seqs {oldest}..{self._last_seq}; "
                    f"cannot resume after {seq}")
            return [b for b in self._batches if b.seq > seq]

    # ------------------------------------------------------------------
    # Durable cursors
    # ------------------------------------------------------------------

    def _ensure_cursor_table(self) -> None:
        if not self._db.has_table(CURSOR_TABLE):
            self._db.create_table(CURSOR_TABLE, [
                column("consumer", "str"),
                column("seq", "int"),
                column("lsn", "int"),
                column("updated_at", "float"),
            ], key="consumer")

    def checkpoint(self, sub: FeedSubscription) -> dict:
        """Persist ``sub``'s acked position as a durable cursor row.

        The cursor stores both coordinates but only the LSN survives a
        restart meaningfully (seqs are process-local).  The write is an
        ordinary committed transaction, so it publishes its own batch —
        table-filtered consumers auto-ack it.  Never call this from
        inside a sync consumer handler of the cursor table itself.
        """
        self._ensure_cursor_table()
        with self._lock:
            seq = sub.acked_seq
            batch = self._retained(seq)
            lsn = batch.lsn if batch is not None else self._last_lsn
            if seq == 0:
                lsn = 0
        payload = {"consumer": sub.name, "seq": seq, "lsn": lsn,
                   "updated_at": self._db.now()}
        with self._db.transaction() as txn:
            existing = txn.query(CURSOR_TABLE) \
                .where(col("consumer") == sub.name).first()
            if existing is None:
                txn.insert(CURSOR_TABLE, payload)
            else:
                txn.update(CURSOR_TABLE, existing.rowid, payload)
        self._m_checkpoints.inc()
        return payload

    def cursor(self, name: str) -> dict | None:
        """The checkpointed cursor for ``name``, or ``None``."""
        if not self._db.has_table(CURSOR_TABLE):
            return None
        row = self._db.query(CURSOR_TABLE) \
            .where(col("consumer") == name).first()
        if row is None:
            return None
        return {"consumer": row["consumer"], "seq": row["seq"],
                "lsn": row["lsn"], "updated_at": row["updated_at"]}

    # ------------------------------------------------------------------
    # WAL catch-up (restart path)
    # ------------------------------------------------------------------

    def catch_up(self, name: str, fn: ConsumerFn,
                 records: Iterable[WalRecord], *,
                 tables: Iterable[str] | None = None) -> int:
        """Redeliver batches a consumer missed across a restart.

        ``records`` is the pre-crash WAL history (typically
        ``WriteAheadLog.load_file(path)`` — a recovered engine's own
        log starts empty, it does *not* retain the replayed records).
        Batches are reconstructed for every committed transaction whose
        COMMIT LSN lies above the checkpointed cursor and handed to
        ``fn`` in order, with ``seq == 0`` (replayed batches are off
        the live seq axis).  Returns the number of batches delivered.

        Recovery already left the engine's LSN allocator past the
        replayed history, so post-restart commits keep the LSN axis —
        and therefore future cursor checkpoints — monotonic.
        """
        cursor = self.cursor(name)
        after_lsn = cursor["lsn"] if cursor is not None else 0
        table_set = frozenset(tables) if tables is not None else None
        delivered = 0
        try:
            batches = batches_from_records(records, after_lsn=after_lsn)
        except RecoveryError:
            self._m_missing_base.inc()
            raise
        for batch in batches:
            filtered = batch.for_tables(table_set)
            if not filtered.events:
                continue
            fn(filtered)
            delivered += 1
            with self._lock:
                self._last_lsn = max(self._last_lsn, batch.lsn)
        if delivered:
            self._m_catchup.inc(delivered)
        return delivered


def batches_from_records(records: Iterable[WalRecord], *,
                         after_lsn: int = 0) -> list[CommitBatch]:
    """Reconstruct commit batches from raw WAL records.

    Feeds the log through the same replay core recovery uses — DML
    buffered per transaction, released at COMMIT, dropped at ABORT —
    while keeping a running map of last-committed row images (stored
    tuples, merged by the same :func:`~repro.db.replay.merge_image` as
    recovery and replication) so update and delete events regain their
    before-images.  DELETE records additionally carry the before-image
    themselves (written by the engine for precisely this replay), which
    covers rows whose insert predates the walked history.  Only batches
    with ``COMMIT lsn > after_lsn`` are returned; all carry ``seq == 0``
    and ``committed_at == 0.0`` (neither survives in the log).

    An UPDATE whose base row lies outside the walked history cannot be
    described: for a batch that would be returned this raises
    :class:`~repro.errors.RecoveryError` (the consumer missed a commit
    nobody can reconstruct); at or below ``after_lsn`` the row is just
    left unknown until a CHECKPOINT or a full image supplies it.
    """
    schemas: dict[str, TableSchema] = {}
    images: dict[tuple[str, int], tuple] = {}
    core = WalReplay()
    out: list[CommitBatch] = []
    for rec in records:
        ops = core.feed(rec)
        if rec.type == walmod.CREATE_TABLE:
            name = rec.payload["table"]
            schemas.setdefault(name, TableSchema(
                name, columns_from_payload(rec.payload["columns"])))
        elif rec.type == walmod.DROP_TABLE:
            gone = rec.payload["table"]
            schemas.pop(gone, None)
            for key in [k for k in images if k[0] == gone]:
                del images[key]
        elif rec.type == walmod.CHECKPOINT:
            # A checkpoint is a full snapshot: it resets the image map
            # (pre-checkpoint history may have been truncated away).
            images = {}
            for name, spec in rec.payload["tables"].items():
                schema = schemas[name] = TableSchema(
                    name, columns_from_payload(spec["schema"]["columns"]))
                for rowid, row in spec["rows"].items():
                    images[name, int(rowid)] = schema.make_row(row)
        elif ops:
            wanted = rec.lsn > after_lsn
            events = []
            for op in ops:
                schema = schemas.get(op.table)
                if schema is None:
                    continue  # table dropped before this commit
                key = (op.table, op.rowid)
                before = images.pop(key, None)
                if op.type == walmod.DELETE:
                    if before is None and op.vals:
                        before = schema.make_row(dict(zip(op.cols, op.vals)))
                    kind, image = "delete", None
                else:
                    try:
                        image = images[key] = merge_image(schema, before, op)
                    except RecoveryError:
                        if wanted:
                            raise
                        continue
                    kind = "update" if op.type == walmod.UPDATE \
                        or before is not None else "insert"
                events.append(Change(
                    op.table, kind, op.rowid,
                    None if image is None else schema.row_dict(image),
                    None if before is None else schema.row_dict(before)))
            if wanted:
                out.append(CommitBatch(0, rec.lsn, rec.txn_id, 0.0,
                                       tuple(events)))
    return out
