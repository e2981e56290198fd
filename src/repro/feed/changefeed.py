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

The feed is live only: a consumer gets every batch committed after it
subscribed, and no batch is kept once it is dispatched.  The tables and
their WAL are the only durable truth; a consumer's state after a
restart is what it rebuilds from the recovered tables when it is built
(the index, the folders, a handle's order cache all do).  See
``docs/CHANGEFEED.md`` for the consumer contract and the failure
matrix.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..errors import CrashSignal
from ..db.transaction import Change

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.engine import Database

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
    ``lsn`` is the transaction's COMMIT record LSN.
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
    batches.  A deferred consumer also keeps ``(seq, committed_at)`` of
    each batch handed to it and not yet acked: an ack observes the
    commit time of the newest batch it covers in
    ``feed.staleness_seconds``.
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
        self._unacked: deque[tuple[int, float]] = deque()
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
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._lock = threading.RLock()
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
        self._m_staleness = registry.histogram("feed.staleness_seconds")
        self._f_lag = registry.family("feed.lag", "gauge")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def subscriptions(self) -> list[FeedSubscription]:
        with self._lock:
            return list(self._subs)

    def max_lag(self) -> int:
        """The worst consumer lag right now (0 with no consumers)."""
        with self._lock:
            return max((s.lag for s in self._subs), default=0)

    def status(self) -> dict:
        """JSON-friendly summary of the feed head and every consumer's
        cursors (a running node publishes the lags as ``feed.lag``
        gauges, which ``repro top`` lists)."""
        with self._lock:
            return {
                "seq": self._last_seq,
                "lsn": self._last_lsn,
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
        half-dispatched — the commit is durable, and every consumer
        rebuilt over the recovered tables includes it.
        """
        if not changes:
            return
        events = tuple(changes)
        with self._lock:
            self._last_seq += 1
            self._last_lsn = max(self._last_lsn, lsn)
            batch = CommitBatch(self._last_seq, lsn, txn_id,
                                self._db.now(), events)
            self._m_events.inc(len(events))
            with self._m_dispatch.time():
                for sub in list(self._subs):
                    if sub.active:
                        self._deliver(sub, batch)

    def _deliver(self, sub: FeedSubscription, batch: CommitBatch) -> None:
        if sub.deferred:
            sub._unacked.append((batch.seq, batch.committed_at))
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
            # Only a deferred consumer keeps stamps: a sync one is acked
            # inside the publishing commit, whose dispatch is timed.
            unacked, committed_at = sub._unacked, None
            while unacked and unacked[0][0] <= sub.acked_seq:
                committed_at = unacked.popleft()[1]
            if committed_at is not None:
                self._m_staleness.observe(
                    max(0.0, self._db.now() - committed_at))
        sub._report_lag()
