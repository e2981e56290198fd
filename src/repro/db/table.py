"""Heap tables with versioned rows (committed chain + one pending image).

Writers run read-committed isolation.  Each row has:

* a *committed* image — what every transaction except the writer sees,
* at most one *pending* image owned by the transaction currently holding the
  row's exclusive lock (a new row, an updated row, or a delete tombstone),
* and a small *version chain*: superseded committed images stamped with the
  commit LSN that replaced them, kept so snapshot (read-only) transactions
  can read the newest version ``<=`` their pinned LSN without any locks
  (see ``docs/INTERNALS.md``, "MVCC & snapshots").

The chain is lazy: a row that was only ever inserted carries no history at
all — only rows that have actually been updated or deleted while older
snapshots may still need them pay any memory.  The engine's GC watermark
(:meth:`gc_versions`) truncates chains below the oldest live snapshot.

Indexes cover committed data only; the query executor overlays the owning
transaction's pending changes (:mod:`repro.db.query`).  Lock acquisition is
the transaction layer's job — the table itself is mechanical and trusts its
callers to hold the right locks.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterator, Mapping

from ..errors import (
    DatabaseError,
    RowNotFoundError,
    SchemaError,
    UniqueViolation,
    UnknownTableError,
)
from .index import HashIndex, Index, OrderedIndex
from .schema import TableSchema


class _Tombstone:
    """Sentinel pending image meaning "this row is deleted"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


#: Superseded versions a committed change of each kind leaves on its
#: row's chain (an update its old image; a delete that and a tombstone):
#: what whoever applies a transaction adds to ``txn.versions_live``,
#: once per transaction.
VERSIONS_PUSHED = {"insert": 0, "update": 1, "delete": 2, "noop": 0}


class Table:
    """One table: schema, rows, and secondary indexes.

    A staged row is two entries here: its owner in ``_pending`` (rowid
    -> txn id) and its image in ``_pending_images[owner]``, plus one
    entry in ``_pending_keys[column]`` per unique key it claims.  The
    staging transaction keeps nothing else per row but its redo
    statement (see :class:`~repro.db.transaction.Transaction`).
    """

    def __init__(self, schema: TableSchema, metrics=None) -> None:
        self.schema = schema
        self._committed: dict[int, tuple] = {}
        #: rowid -> id of the transaction holding its pending image.
        self._pending: dict[int, int] = {}
        #: txn id -> {rowid: image-or-TOMBSTONE}: the pending images
        #: themselves, one per staged row, grouped by owner so a query's
        #: overlay costs its own writes, however many other writers have
        #: rows staged.
        self._pending_images: dict[int, dict[int, Any]] = {}
        #: rowid -> commit LSN of the *current* committed image.  Absent
        #: means "since before version tracking" and compares as 0, so
        #: loaded/recovered rows are visible to every snapshot.
        self._version_lsn: dict[int, int] = {}
        #: rowid -> older versions only, ``[(commit_lsn, image), ...]``
        #: ascending by LSN.  A deleted row keeps its chain here with a
        #: trailing ``(delete_lsn, TOMBSTONE)`` entry until GC.
        self._history: dict[int, list[tuple[int, Any]]] = {}
        #: Bumped whenever ``_history`` changes (chain push, GC, drop);
        #: keys the :meth:`snapshot_history_rows` memo.
        self._history_gen = 0
        #: ``(snapshot_lsn, history generation, overlay, {position:
        #: grouping})`` of the last :meth:`snapshot_history_rows` call.
        self._overlay_memo: tuple[int, int, dict, dict] | None = None
        #: Duck-typed metric bundle (``TxnMetrics``); only
        #: ``versions_live`` is used here, to take away what GC and
        #: reloads drop (appliers add, see :data:`VERSIONS_PUSHED`).
        #: None when unobserved.
        self._metrics = metrics
        #: unique column -> {value: rowid of the pending row claiming
        #: it}, one map per column of ``_unique``.  Keeps uniqueness
        #: checks O(1) instead of scanning all pending rows (which made
        #: bulk loads quadratic).
        self._pending_keys: dict[str, dict[Any, int]] = {}
        #: Replaced, never mutated, on DDL: readers take the reference
        #: without copying or locking (see :meth:`indexes`).
        self._indexes: dict[str, Index] = {}
        #: ``(index, storage position of its column)`` per index, and the
        #: unique ones among them by column — derived from ``_indexes``.
        self._index_positions: tuple[tuple[Index, int], ...] = ()
        self._unique: dict[str, tuple[Index, int]] = {}
        self._rowid_counter = itertools.count(1)
        self._lock = threading.RLock()
        #: Set by :meth:`drop`; nothing may be staged here afterwards.
        self._dropped = False
        if schema.key is not None:
            self.create_index(f"{schema.name}_key", schema.key,
                              kind="hash", unique=True)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_index(self, name: str, column: str, *, kind: str = "hash",
                     unique: bool = False) -> Index:
        """Create a secondary index over committed rows.

        ``kind`` is ``"hash"`` or ``"ordered"``.
        """
        with self._lock:
            if name in self._indexes:
                raise SchemaError(f"index {name!r} already exists")
            self.schema.column_index(column)  # validates the column
            if kind == "hash":
                index: Index = HashIndex(name, column, unique=unique)
            elif kind == "ordered":
                index = OrderedIndex(name, column, unique=unique)
            else:
                raise SchemaError(f"unknown index kind {kind!r}")
            pos = self.schema.column_index(column)
            for rowid, row in self._committed.items():
                index.add(row[pos], rowid)
            self._set_indexes({**self._indexes, name: index})
            return index

    def drop(self) -> None:
        """Retire the table for DROP TABLE.

        Refused while any transaction has a change staged here, so no
        COMMIT block that names the table can follow its DROP_TABLE in
        the log; afterwards staging raises, which covers a transaction
        that looked the table up before the drop.
        """
        with self._lock:
            if self._pending_images:
                raise SchemaError(
                    f"table {self.schema.name!r} has uncommitted changes "
                    f"of transaction(s) {sorted(self._pending_images)}")
            self._dropped = True

    def _set_indexes(self, indexes: dict[str, Index]) -> None:
        self._indexes = indexes
        self._index_positions = tuple(
            (index, self.schema.column_index(index.column))
            for index in indexes.values())
        self._unique = {index.column: (index, pos)
                        for index, pos in self._index_positions
                        if index.unique}
        self._pending_keys = {column: self._pending_keys.get(column, {})
                              for column in self._unique}

    def indexes(self) -> dict[str, Index]:
        """The table's indexes by name (a snapshot: DDL replaces the
        mapping instead of mutating it, so callers must not either)."""
        return self._indexes

    def unique_columns(self) -> Iterator[str]:
        """Columns under a unique index (their values need key locks)."""
        return iter(self._unique)

    def index_on(self, column: str, *, need_range: bool = False) -> Index | None:
        """Return some index over ``column`` (preferring ordered if asked)."""
        with self._lock:
            best: Index | None = None
            for index in self._indexes.values():
                if index.column != column:
                    continue
                if need_range and not index.supports_range():
                    continue
                if best is None or (index.supports_range() and
                                    not best.supports_range()):
                    best = index
            return best

    # ------------------------------------------------------------------
    # Staging (called by Transaction with locks held)
    # ------------------------------------------------------------------

    def next_rowid(self) -> int:
        """Allocate a fresh row id."""
        return next(self._rowid_counter)

    def stage_insert(self, txn_id: int, values: Mapping[str, Any],
                     rowid: int | None = None) -> tuple[int, tuple]:
        """Stage a new row; returns ``(rowid, stored_row)``."""
        row = self.schema.make_row(values)
        with self._lock:
            if rowid is None:
                rowid = self.next_rowid()
            elif rowid in self._committed or rowid in self._pending:
                raise DatabaseError(f"rowid {rowid} already in use")
            self._check_unique(txn_id, row, exclude_rowid=rowid)
            self._stage(txn_id, rowid, row)
            self._register_pending_keys(rowid, row)
        return rowid, row

    def stage_update(self, txn_id: int, rowid: int,
                     updates: Mapping[str, Any]) -> tuple:
        """Stage an update; returns the full new row image."""
        with self._lock:
            base = self._visible_for_write(txn_id, rowid)
            row = self.schema.merge_row(base, updates)
            self._check_unique(txn_id, row, exclude_rowid=rowid)
            if rowid in self._pending:   # then ``base`` is its image
                self._unregister_pending_keys(rowid, base)
            self._stage(txn_id, rowid, row)
            self._register_pending_keys(rowid, row)
        return row

    def stage_delete(self, txn_id: int, rowid: int) -> None:
        """Stage a delete of a row ``txn_id`` can see."""
        with self._lock:
            base = self._visible_for_write(txn_id, rowid)
            if rowid in self._pending:   # then ``base`` is its image
                self._unregister_pending_keys(rowid, base)
            self._stage(txn_id, rowid, TOMBSTONE)

    def _stage(self, txn_id: int, rowid: int, image: Any) -> None:
        """Record ``txn_id``'s pending image of ``rowid`` (caller holds
        ``_lock``)."""
        if self._dropped:
            raise UnknownTableError(f"no table {self.schema.name!r}")
        self._pending[rowid] = txn_id
        # Not setdefault: that would build a throwaway dict per row.
        images = self._pending_images.get(txn_id)
        if images is None:
            images = self._pending_images[txn_id] = {}
        images[rowid] = image

    def _unstage(self, rowid: int, owner: int) -> Any:
        """Forget ``owner``'s pending image of ``rowid`` and return it
        (caller holds ``_lock``)."""
        del self._pending[rowid]
        images = self._pending_images[owner]
        image = images.pop(rowid)
        if not images:
            del self._pending_images[owner]
        return image

    def owns(self, txn_id: int, rowid: int) -> bool:
        """Whether transaction ``txn_id`` holds a pending image of
        ``rowid`` (what its commit still has to apply)."""
        return self._pending.get(rowid) == txn_id

    def _visible_for_write(self, txn_id: int, rowid: int) -> tuple:
        owner = self._pending.get(rowid)
        if owner is not None:
            if owner != txn_id:
                # The transaction layer should have blocked on the lock.
                raise DatabaseError(
                    f"row {rowid} has a pending change from txn "
                    f"{owner}; lock protocol violated"
                )
            image = self._pending_images[owner][rowid]
            if image is TOMBSTONE:
                raise RowNotFoundError(
                    f"row {rowid} deleted in this transaction"
                )
            return image
        try:
            return self._committed[rowid]
        except KeyError:
            raise RowNotFoundError(
                f"no row {rowid} in table {self.schema.name!r}"
            ) from None

    def _check_unique(self, txn_id: int, row: tuple, *,
                      exclude_rowid: int) -> None:
        """Pre-commit uniqueness check against committed + pending rows.

        Cross-transaction races on the same key are prevented by the key
        lock the transaction layer takes before staging; pending claims
        are tracked in ``_pending_keys`` so this check is O(1) per index.
        """
        with self._lock:
            for column, (index, pos) in self._unique.items():
                key = row[pos]
                if key is None:
                    continue
                claimer = self._pending_keys[column].get(key)
                if claimer is not None and claimer != exclude_rowid:
                    raise UniqueViolation(
                        f"table {self.schema.name!r}: duplicate value "
                        f"{key!r} for unique column {column!r}"
                    )
                for rowid in index.probe_eq(key):
                    if rowid == exclude_rowid:
                        continue
                    if self._pending.get(rowid) == txn_id:
                        image = self._pending_images[txn_id][rowid]
                        if image is TOMBSTONE or image[pos] != key:
                            # Deleted / moved away by this transaction:
                            # the key is free to it.  Another writer's
                            # pending delete frees nothing — it may yet
                            # abort.
                            continue
                    raise UniqueViolation(
                        f"table {self.schema.name!r}: duplicate value "
                        f"{key!r} for unique column {column!r}"
                    )

    def _register_pending_keys(self, rowid: int, row: tuple) -> None:
        for column, (__, pos) in self._unique.items():
            key = row[pos]
            if key is not None:
                self._pending_keys[column][key] = rowid

    def _unregister_pending_keys(self, rowid: int, row: tuple) -> None:
        for column, (__, pos) in self._unique.items():
            key = row[pos]
            if key is not None:
                claims = self._pending_keys[column]
                if claims.get(key) == rowid:
                    del claims[key]

    # ------------------------------------------------------------------
    # Commit / rollback (called by Transaction)
    # ------------------------------------------------------------------

    def unfile_changed_keys(self, txn_id: int, rowid: int) -> None:
        """Take the committed unique keys that ``txn_id``'s pending
        change of ``rowid`` gives up out of their indexes.

        Commit runs this over every row of a transaction that moved
        keys before it promotes any of them: two rows swapping a key
        would otherwise file the first one's new key while the second
        still sits on it.  :meth:`commit_row` then finds those entries
        already gone (index removal skips an absent entry).
        """
        with self._lock:
            old = self._committed.get(rowid)
            if old is None or self._pending.get(rowid) != txn_id:
                return
            image = self._pending_images[txn_id][rowid]
            for index, pos in self._unique.values():
                if image is TOMBSTONE or image[pos] != old[pos]:
                    index.remove(old[pos], rowid)

    def commit_row(self, txn_id: int, rowid: int,
                   commit_lsn: int = 0
                   ) -> tuple[str, tuple | None, tuple | None]:
        """Promote the pending image of ``rowid`` to committed.

        ``commit_lsn`` stamps the new version (the committing
        transaction's COMMIT record LSN); the superseded image, if any,
        is pushed onto the row's version chain so open snapshots keep
        reading it.  Returns ``(change_kind, new_row, old_row)`` where
        kind is ``"insert"``, ``"update"`` or ``"delete"`` for the
        commit notification; ``old_row`` is the superseded committed
        image (the *before-image* carried by changefeed delete/update
        events), ``None`` on insert.
        """
        with self._lock:
            if self._pending.get(rowid) != txn_id:
                raise DatabaseError(
                    f"txn {txn_id} has no pending change on row {rowid}"
                )
            image = self._unstage(rowid, txn_id)
            old = self._committed.get(rowid)
            if image is TOMBSTONE:
                if old is not None:
                    self._unindex_row(rowid, old)
                    del self._committed[rowid]
                    self._push_version(rowid, self._version_lsn.pop(rowid, 0),
                                       old)
                    self._push_version(rowid, commit_lsn, TOMBSTONE)
                    return "delete", None, old
                return "noop", None, None  # insert+delete inside one txn
            self._unregister_pending_keys(rowid, image)
            self._install(rowid, image, old, commit_lsn)
            return "insert" if old is None else "update", image, old

    def _install(self, rowid: int, row: tuple, old: tuple | None,
                 commit_lsn: int) -> None:
        """Make ``row`` the committed image over ``old`` (caller holds
        ``_lock``): the superseded image goes onto the version chain and
        only the indexes whose key actually changed are re-filed — a
        chain relink moves neither ``char`` nor ``doc``."""
        if old is None:
            self._index_row(rowid, row)
        else:
            self._push_version(rowid, self._version_lsn.get(rowid, 0), old)
            for index, pos in self._index_positions:
                if old[pos] != row[pos]:
                    index.remove(old[pos], rowid)
                    index.add(row[pos], rowid)
        self._committed[rowid] = row
        self._version_lsn[rowid] = commit_lsn

    def _push_version(self, rowid: int, lsn: int, image: Any) -> None:
        """Append one superseded version (caller holds ``_lock``)."""
        self._history.setdefault(rowid, []).append((lsn, image))
        self._history_gen += 1

    def apply_replica_row(self, rowid: int, row: tuple,
                          commit_lsn: int) -> tuple[str, tuple, tuple | None]:
        """Install a committed row shipped from a leader (replication).

        Like :meth:`commit_row` without the pending stage — the follower
        never staged anything, it applies the leader's committed image
        (a stored tuple, already merged by
        :func:`~repro.db.replay.merge_image`) directly.  The superseded
        image (if any) is pushed onto the version chain stamped with its
        old commit LSN, so replica snapshot readers pinned below
        ``commit_lsn`` keep their consistent view while the apply races
        past them.  Returns ``(kind, row, old_row)`` for the change
        notification.
        """
        with self._lock:
            old = self._committed.get(rowid)
            self._install(rowid, row, old, commit_lsn)
            # Promotion makes this table writable: keep rowid allocation
            # ahead of everything the leader ever assigned.
            self._bump_rowid(rowid)
            return "insert" if old is None else "update", row, old

    def apply_replica_delete(self, rowid: int, commit_lsn: int
                             ) -> tuple[str, tuple | None, tuple | None]:
        """Remove a committed row shipped from a leader (replication).

        The deleted image stays on the version chain under its old LSN
        with a ``commit_lsn``-stamped tombstone after it, exactly as
        :meth:`commit_row` leaves a local delete.
        """
        with self._lock:
            old = self._committed.pop(rowid, None)
            if old is None:
                # insert+delete within one shipped txn
                return "noop", None, None
            self._unindex_row(rowid, old)
            self._push_version(rowid, self._version_lsn.pop(rowid, 0), old)
            self._push_version(rowid, commit_lsn, TOMBSTONE)
            return "delete", None, old

    def rollback_row(self, txn_id: int, rowid: int) -> None:
        """Discard the pending image of ``rowid`` (abort path)."""
        with self._lock:
            if self._pending.get(rowid) == txn_id:
                image = self._unstage(rowid, txn_id)
                if image is not TOMBSTONE:
                    self._unregister_pending_keys(rowid, image)

    def _index_row(self, rowid: int, row: tuple) -> None:
        for index, pos in self._index_positions:
            index.add(row[pos], rowid)

    def _unindex_row(self, rowid: int, row: tuple) -> None:
        for index, pos in self._index_positions:
            index.remove(row[pos], rowid)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, rowid: int, txn_id: int | None = None) -> tuple | None:
        """Return the row visible to ``txn_id`` (or committed state)."""
        with self._lock:
            if txn_id is not None and self._pending.get(rowid) == txn_id:
                image = self._pending_images[txn_id][rowid]
                return None if image is TOMBSTONE else image
            return self._committed.get(rowid)

    def get(self, rowid: int, txn_id: int | None = None) -> tuple:
        """Like :meth:`read` but raises when the row is absent."""
        row = self.read(rowid, txn_id)
        if row is None:
            raise RowNotFoundError(
                f"no row {rowid} in table {self.schema.name!r}"
            )
        return row

    def read_key(self, column: str, key: Any, txn_id: int | None = None,
                 snapshot_lsn: int | None = None
                 ) -> list[tuple[int, tuple]] | None:
        """``(rowid, row)`` pairs whose unique ``column`` equals ``key``,
        as visible to writer ``txn_id``, to a snapshot pinned at
        ``snapshot_lsn``, or in committed state — or ``None`` when no
        unique index covers the column (the caller plans the query).

        The committed holder comes straight from the index; the
        transaction's own staged claim on the key (a pending insert, or
        an update that moved a row onto it) from ``_pending_keys``.  A
        committed holder the transaction itself has restaged is hidden:
        if its new image still carries the key it *is* the claim.  A
        snapshot sees the holder if it has no version chain and is no
        newer than the pin, and rows with a chain through
        :meth:`snapshot_history_by`.  Candidates come in the order a
        planned probe yields them.
        """
        unique = self._unique.get(column)
        if unique is None:
            return None
        out = []
        with self._lock:
            rowid = unique[0].find(key)
            if snapshot_lsn is not None:
                if rowid is not None and rowid not in self._history \
                        and self._version_lsn.get(rowid, 0) <= snapshot_lsn:
                    out.append((rowid, self._committed[rowid]))
                out.extend(self.snapshot_history_by(
                    snapshot_lsn, unique[1]).get(key, ()))
                return out
            if rowid is not None and (
                    txn_id is None or self._pending.get(rowid) != txn_id):
                out.append((rowid, self._committed[rowid]))
            if txn_id is not None:
                claimer = self._pending_keys[column].get(key)
                if claimer is not None and self._pending[claimer] == txn_id:
                    out.append((claimer,
                                self._pending_images[txn_id][claimer]))
        return out

    def committed_items(self) -> Iterator[tuple[int, tuple]]:
        """Iterate ``(rowid, row)`` over committed rows (snapshot)."""
        with self._lock:
            return iter(list(self._committed.items()))

    # ------------------------------------------------------------------
    # Snapshot (MVCC) reads — no LockManager involvement, ever
    # ------------------------------------------------------------------

    def snapshot_read(self, rowid: int, snapshot_lsn: int) -> tuple | None:
        """The newest version of ``rowid`` committed at or before
        ``snapshot_lsn`` (``None`` if the row did not exist then)."""
        with self._lock:
            return self._snapshot_read_locked(rowid, snapshot_lsn)

    def _snapshot_read_locked(self, rowid: int,
                              snapshot_lsn: int) -> tuple | None:
        row = self._committed.get(rowid)
        if row is not None and self._version_lsn.get(rowid, 0) <= snapshot_lsn:
            return row
        for lsn, image in reversed(self._history.get(rowid, ())):
            if lsn <= snapshot_lsn:
                return None if image is TOMBSTONE else image
        return None

    def snapshot_items(self, snapshot_lsn: int) -> Iterator[tuple[int, tuple]]:
        """Iterate ``(rowid, row)`` as of ``snapshot_lsn`` (full scan)."""
        with self._lock:
            out = []
            for rowid in self._committed.keys() | self._history.keys():
                row = self._snapshot_read_locked(rowid, snapshot_lsn)
                if row is not None:
                    out.append((rowid, row))
            return iter(out)

    def snapshot_history_rows(self, snapshot_lsn: int) -> dict[int, tuple]:
        """Visible-at-``snapshot_lsn`` images of every row *with history*,
        in rowid order.

        The index-probe overlay: committed indexes only know the current
        image, so any row whose visible version may differ from its
        committed one (exactly the rows carrying a version chain) is
        resolved here — mirroring how pending overlays work for writers.
        A range probe re-checks its predicate on all of it; equality
        probes and key reads take :meth:`snapshot_history_by`'s groups.

        The result is memoised per ``(snapshot_lsn, history
        generation)`` and shared between callers, who must not mutate
        it: a snapshot only pins fully applied commits, so a later
        commit can change what it sees of a historied row only by
        touching ``_history``, which bumps the generation.
        """
        with self._lock:
            memo = self._overlay_memo
            if memo is not None and memo[0] == snapshot_lsn \
                    and memo[1] == self._history_gen:
                return memo[2]
            out: dict[int, tuple] = {}
            for rowid in sorted(self._history):
                row = self._snapshot_read_locked(rowid, snapshot_lsn)
                if row is not None:
                    out[rowid] = row
            self._overlay_memo = (snapshot_lsn, self._history_gen, out, {})
            return out

    def snapshot_history_by(self, snapshot_lsn: int, position: int
                            ) -> dict[Any, list[tuple[int, tuple]]]:
        """The overlay grouped by its value at storage ``position`` (NULLs
        left out), each group in rowid order; built on first use per
        column, memoised with the overlay and just as shared."""
        with self._lock:
            overlay = self.snapshot_history_rows(snapshot_lsn)
            groupings = self._overlay_memo[3]
            grouped = groupings.get(position)
            if grouped is None:
                grouped = groupings[position] = {}
                for rowid, row in overlay.items():
                    value = row[position]
                    if value is not None:
                        grouped.setdefault(value, []).append((rowid, row))
            return grouped

    def gc_versions(self, watermark: int) -> int:
        """Drop chain entries no snapshot at or above ``watermark`` needs.

        Keeps, per row, every version newer than the watermark plus the
        newest one at or below it (the image a watermark-pinned snapshot
        reads).  A chain whose current committed image (or tombstone) is
        already visible at the watermark vanishes entirely.  Returns the
        number of versions dropped.
        """
        dropped = 0
        with self._lock:
            for rowid in list(self._history):
                chain = self._history[rowid]
                if rowid in self._committed:
                    if self._version_lsn.get(rowid, 0) <= watermark:
                        dropped += len(chain)
                        del self._history[rowid]
                        continue
                elif chain[-1][0] <= watermark:
                    # Row is deleted and the delete is visible to every
                    # live snapshot: nobody can see it anymore.
                    dropped += len(chain)
                    del self._history[rowid]
                    continue
                newest_le = -1
                for i, (lsn, __) in enumerate(chain):
                    if lsn > watermark:
                        break
                    newest_le = i
                if newest_le > 0:
                    dropped += newest_le
                    self._history[rowid] = chain[newest_le:]
            if dropped:
                self._history_gen += 1
        if dropped and self._metrics is not None:
            self._metrics.versions_live.dec(dropped)
        return dropped

    def live_versions(self) -> int:
        """Number of superseded versions currently retained."""
        with self._lock:
            return sum(len(chain) for chain in self._history.values())

    def pending_of(self, txn_id: int) -> dict[int, Any]:
        """Snapshot of ``rowid -> image-or-TOMBSTONE`` for one transaction."""
        with self._lock:
            return dict(self._pending_images.get(txn_id, ()))

    def row_count(self) -> int:
        """Number of committed rows."""
        with self._lock:
            return len(self._committed)

    # ------------------------------------------------------------------
    # Bulk load (recovery; bypasses transactions)
    # ------------------------------------------------------------------

    def load_row(self, rowid: int, row: tuple) -> None:
        """Directly install a committed row (recovery only).

        ``row`` is a stored tuple (validated by the caller:
        :func:`~repro.db.replay.merge_image` or ``schema.load_row``).
        Version chains collapse on load: a freshly recovered engine has
        no live snapshots, so every row starts over as a single committed
        version visible to all future snapshots (LSN 0).
        """
        with self._lock:
            old = self._committed.get(rowid)
            if old is not None:
                self._unindex_row(rowid, old)
            self._committed[rowid] = row
            self._index_row(rowid, row)
            self._version_lsn.pop(rowid, None)
            self._drop_history(rowid)
            # Keep rowid allocation ahead of everything loaded.
            self._bump_rowid(rowid)

    def load_delete(self, rowid: int) -> None:
        """Directly remove a committed row (recovery only)."""
        with self._lock:
            old = self._committed.pop(rowid, None)
            if old is not None:
                self._unindex_row(rowid, old)
            self._version_lsn.pop(rowid, None)
            self._drop_history(rowid)

    def _drop_history(self, rowid: int) -> None:
        chain = self._history.pop(rowid, None)
        if chain:
            self._history_gen += 1
            if self._metrics is not None:
                self._metrics.versions_live.dec(len(chain))

    def _bump_rowid(self, seen: int) -> None:
        current = next(self._rowid_counter)
        target = max(current, seen + 1)
        self._rowid_counter = itertools.count(target)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Table({self.schema.name!r}, rows={len(self._committed)}, "
                f"pending={len(self._pending)})")
