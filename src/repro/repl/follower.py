"""The follower engine: a read replica that can become the leader.

A :class:`FollowerEngine` owns a full :class:`~repro.db.engine.Database`
fed exclusively by a replication stream (see
:class:`~repro.repl.apply.ReplicationApplier`).  While following it
serves lock-free MVCC snapshot reads — search, mining, lineage, folders,
diff all run against ``follower.db`` exactly as against a leader — and
exposes its apply progress as ``repl.*`` metrics.  On leader loss,
:meth:`promote` finalizes the applied prefix (drops buffered uncommitted
transactions, fsyncs the local log, bumps id allocators past everything
shipped) and hands back a writable leader database.

Restart resumption: constructed over an existing ``wal_path``, the
engine reopens it through the one restart path
(:func:`~repro.db.recovery.restart` — the same call a restarting leader
makes): the torn trailing record of a crash mid-shipped-append is cut
off, committed state is recovered, and the replay core that did it hands
the applier its cursor and uncommitted-transaction buffers, so the stream
resumes from ``applied_lsn + 1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..clock import Clock
from ..db.recovery import restart
from ..db.wal import WalRecord
from ..errors import ReplicationError
from ..obs import Observability
from .apply import ReplicationApplier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.engine import Database


class FollowerEngine:
    """A replica database applying a leader's WAL stream.

    Parameters
    ----------
    wal_path:
        The follower's *own* mirror file.  When it already holds
        records, the engine resumes from them (see module docstring);
        ``None`` keeps the replica purely in memory.
    node / clock / faults / obs:
        Forwarded to the underlying :class:`~repro.db.engine.Database`.
        The fault injector powers the replication crash points
        (``repl.mid_apply``, ``wal.mid_record`` on the local mirror).
    """

    def __init__(self, wal_path: str | None = None, *,
                 node: str = "replica", clock: Clock | None = None,
                 faults=None, obs: Observability | None = None) -> None:
        #: ``_replay`` is the replay core the restart ran and the applier
        #: keeps feeding: cursor, txn-id high-water mark, open buffers.
        self._db, self._replay = restart(wal_path, node=node, clock=clock,
                                         faults=faults, obs=obs)
        self._applier = ReplicationApplier(self._db, self._replay)
        registry = self._db.obs.registry
        self._m_lag_lsn = registry.gauge("repl.apply_lag_lsn")
        self._m_lag_seconds = registry.histogram("repl.apply_lag_seconds")
        self._m_records = registry.counter("repl.records_applied")
        self._m_promotions = registry.counter("repl.promotions")
        self._leader_lsn = self._replay.applied_lsn
        self._promoted = False
        self._m_lag_lsn.set(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def db(self) -> "Database":
        """The replica database (snapshot reads while following;
        fully writable after :meth:`promote`)."""
        return self._db

    @property
    def applied_lsn(self) -> int:
        return self._replay.applied_lsn

    @property
    def leader_lsn(self) -> int:
        """Highest leader LSN this follower has heard of."""
        return self._leader_lsn

    @property
    def lag_lsn(self) -> int:
        return max(0, self._leader_lsn - self._replay.applied_lsn)

    @property
    def promoted(self) -> bool:
        return self._promoted

    def status(self) -> dict:
        """JSON-serialisable replication status (the scrape payload)."""
        return {
            "node": self._db.node,
            "applied_lsn": self.applied_lsn,
            "leader_lsn": self._leader_lsn,
            "lag_lsn": self.lag_lsn,
            "pending_txns": len(self._replay.open),
            "records_applied": self._m_records.value,
            "promoted": self._promoted,
        }

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def note_leader_lsn(self, lsn: int) -> None:
        """Record the leader's log tail (drives the lag gauge)."""
        self._leader_lsn = max(self._leader_lsn, lsn)
        self._m_lag_lsn.set(self.lag_lsn)

    def apply_records(self, records: Iterable[WalRecord], *,
                      leader_lsn: int | None = None,
                      shipped_at: float | None = None) -> int:
        """Apply one shipped segment; returns the records newly applied.

        Duplicates (redelivered segments, restart overlap) are dropped
        by the applier's LSN cursor with no side effects.  A non-empty
        apply ends with one local fsync (the segment's durability
        boundary) and, when ``shipped_at`` carries the leader's send
        stamp, one ``repl.apply_lag_seconds`` observation.
        """
        if self._promoted:
            raise ReplicationError(
                f"follower {self._db.node!r} was promoted; it no longer "
                f"applies shipped records")
        applied = 0
        for record in records:
            if self._applier.apply(record):
                applied += 1
        if applied:
            self._db.wal.sync_shipped()
            self._m_records.inc(applied)
            if shipped_at is not None:
                self._m_lag_seconds.observe(
                    max(0.0, self._db.now() - shipped_at))
        if leader_lsn is not None:
            self._leader_lsn = max(self._leader_lsn, leader_lsn)
        self._leader_lsn = max(self._leader_lsn, self._replay.applied_lsn)
        self._m_lag_lsn.set(self.lag_lsn)
        return applied

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------

    def promote(self) -> "Database":
        """Finalize the applied prefix and become a writable leader.

        Buffered transactions that never shipped a COMMIT are dropped —
        their records stay in the local log where recovery ignores them,
        exactly as a recovered leader would discard them.  The applied
        prefix is fsynced, and the transaction-id allocator jumps past
        everything shipped since the last restart (the restart covered
        the rest; shipped appends already carry the LSN allocator along)
        so new local writes extend the same log.  The object-id
        allocators need nothing here: the restart and every applied row
        since kept them ahead of all shipped ids, so a follower promoted
        under its leader's node name never mints ``node.char:N`` a
        second time.  Idempotent; returns the (now writable) database.
        """
        if self._promoted:
            return self._db
        self._replay.open.clear()
        self._db.wal.sync_shipped()
        self._db.advance_txn_ids(self._replay.max_txn_id)
        self._promoted = True
        self._m_promotions.inc()
        self._m_lag_lsn.set(0)
        return self._db

    def close(self) -> None:
        self._db.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FollowerEngine(node={self._db.node!r}, "
                f"applied={self.applied_lsn}, lag={self.lag_lsn}, "
                f"promoted={self._promoted})")
