"""The client-side document replica: character rows over the wire.

:class:`DocMirror` is the replica read model of
:mod:`repro.text.replica` — the reads, order cache and chain check a
:class:`~repro.text.document.DocumentHandle` has — fed by ``Delta``s.
What it keeps of its own is the replication state:

* the **rows** — every ``tx_chars`` row of the document, sentinels and
  logically deleted rows included (anchors resolve through them, undo
  resurrects them), each the merge of everything the server sent about
  it (:func:`~repro.net.protocol.merge_row`); they answer ``prev_of``
  and are what ``check_integrity`` walks.  A row is a read-only
  :class:`~repro.db.schema.RowImage` — one tuple in ``CHAR_COLUMNS``
  order, as the server's table stores it — never mutated, only
  replaced by its merged successor, and never padded with defaults: a
  patch with no row to land on leaves its delta unapplied, counted in
  ``missing_base``, for the transport to resync.  Each oid is held
  once: a row's ``prev``/``next`` is the very key object of the row it
  names;
* the **pending** deltas: applied strictly in ``rep_seq`` order, an
  early one buffered until its gap fills, a gap that never fills (a
  dropped frame) healed by a ``resync`` snapshot that replaces the
  mirror wholesale;
* the **cursors** of everyone in the document, this connection's
  included.  An edit's cursor rides its delta and is placed in the same
  step as its rows; a standalone cursor whose anchor has not arrived
  yet is held back until the row does, not resolved to position 0; and
  a cursor older (by presence ``seq``) than the one already here or
  waiting is ignored, however late its frame arrives.
"""

from __future__ import annotations

from typing import Iterable

from ..db.schema import RowImage
from ..errors import ProtocolError
from ..ids import Oid
from ..obs.metrics import NULL_REGISTRY
from ..text.chars import walk_chain
from ..text.ordercache import ChunkedOrderCache, splice_rows
from ..text.replica import ReplicaReads
from .protocol import ROW_POSITIONS, Delta, merge_row

__all__ = ["DocMirror"]

_CHAR = ROW_POSITIONS["char"]
_PREV = ROW_POSITIONS["prev"]
_NEXT = ROW_POSITIONS["next"]


class DocMirror(ReplicaReads):
    """Replica of one document's character rows, delta-maintained."""

    #: A wire client keeps no metrics registry: lookups are not timed.
    _m_lookup = NULL_REGISTRY.histogram("doc.cache_lookup_seconds")

    def __init__(self, doc: Oid, begin: Oid, end: Oid, *,
                 rep_seq: int = 0) -> None:
        self.doc = doc
        self.begin_char = begin
        self.end_char = end
        #: char oid -> full tx_chars row (deleted rows and sentinels too).
        self.rows: dict[Oid, RowImage] = {}
        #: Visible characters in document order (derived from ``rows``).
        self._cache = ChunkedOrderCache()
        #: Highest rep_seq applied, contiguously, to ``rows``.
        self.last_seq = rep_seq
        #: Deltas not applied yet, by ``rep_seq``: out of order and
        #: waiting for their gap to fill, or in order and missing a base.
        self.pending: dict[int, Delta] = {}
        #: session id -> cursor (``{session, user, anchor, selection}``)
        #: of everyone in the document, this connection included.
        self.cursors: dict[int, dict] = {}
        #: Cursors whose anchor has not arrived yet, by session id.
        self._held_cursors: dict[int, dict] = {}
        #: Resyncs this mirror has performed (observability for tests).
        self.resyncs = 0
        #: Deltas refused because a patch found no row to land on.
        self.missing_base = 0
        #: Cursors held back because their anchor was not here yet.
        self.cursors_held = 0

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "DocMirror":
        """Build a mirror from a server ``resync``/``open`` snapshot."""
        mirror = cls(snapshot["doc"], snapshot["begin"], snapshot["end"],
                     rep_seq=snapshot["rep_seq"])
        mirror._adopt(snapshot)
        return mirror

    def load(self, snapshot: dict) -> None:
        """Replace the replica's state from a fresh snapshot."""
        self.begin_char = snapshot["begin"]
        self.end_char = snapshot["end"]
        self._adopt(snapshot)
        seq = snapshot["rep_seq"]
        self.last_seq = seq
        self.resyncs += 1
        # Buffered deltas the snapshot already covers are obsolete; any
        # newer ones replay on top if they are contiguous.
        self.pending = {s: delta for s, delta in self.pending.items()
                        if s > seq}
        self._drain_pending()

    def _adopt(self, snapshot: dict) -> None:
        """Take a snapshot's rows — whole images, there is no base to
        patch — and cursors, and index the rows (one chain walk).

        A snapshot is one frame, whose oids the decoder already shares:
        its links are the key objects of the rows they name.  The
        snapshot's row list is consumed: each row's dict is let go as
        soon as its image is built, so the two never all coexist."""
        doc = self.doc
        received = snapshot["rows"]
        rows = {}
        for at, row in enumerate(received):
            image = merge_row(row, None, doc)
            if image is None:
                raise ProtocolError("snapshot holds a row patch, not an image")
            received[at] = None
            rows[image._row[_CHAR]] = image
        received.clear()
        self.rows = rows
        self._cache.rebuild(
            walk_chain(self.rows, self.begin_char, self.end_char)[1])
        self.cursors = {}
        self._held_cursors = {}
        for cursor in snapshot.get("cursors", ()):
            self.place_cursor(cursor)

    def apply(self, delta: Delta) -> str:
        """Apply one delta; returns ``applied``/``buffered``/``stale``/
        ``gap``.

        ``stale`` deltas (already covered by the replica, e.g. replayed
        after a resync) are dropped.  ``buffered`` means a gap precedes
        this delta — the caller should consider a resync once the
        buffer grows past its reorder tolerance.  ``gap`` means this
        delta, or a buffered one behind it, patches a row the replica
        does not hold: it stays pending and only a resync gets past it.
        """
        rep_seq = delta.rep_seq
        if rep_seq <= self.last_seq:
            return "stale"
        self.pending[rep_seq] = delta
        if rep_seq != self.last_seq + 1:
            return "buffered"
        return "applied" if self._drain_pending() else "gap"

    def _drain_pending(self) -> bool:
        """Apply pending deltas while they are contiguous; ``False`` if
        one could not be merged (it stays pending: ``gap`` holds)."""
        while (delta := self.pending.get(self.last_seq + 1)) is not None:
            if not self._merge(delta):
                self.missing_base += 1
                return False
            del self.pending[delta.rep_seq]
            self.last_seq = delta.rep_seq
        return True

    def _merge(self, delta: Delta) -> bool:
        """One commit: rows into the chain, then the cache splices, then
        the author's cursor — or nothing at all if a patch has no base.

        A delta lists its rows in commit order, not document order, so
        every row lands in the chain before any splice asks it for a
        predecessor; the splices then read each row's final state.
        """
        chain = self.rows
        doc = self.doc
        merged = [merge_row(row, chain.get(row["char"]), doc)
                  for row in delta.rows]
        if None in merged:
            return False
        for row in merged:
            chain[row._row[_CHAR]] = row
        self._share_links(merged)
        splice_rows(self._cache, merged, self.begin_char, self.prev_of)
        if self._held_cursors:
            for cursor in list(self._held_cursors.values()):
                self.place_cursor(cursor)
        if delta.cursor is not None:
            self.place_cursor(delta.cursor)
        return True

    def _share_links(self, rows: Iterable[RowImage]) -> None:
        """Re-point each landed row's ``prev``/``next`` at the key
        object of the row it names, so the chain holds each oid once.

        A frame already shares its oids (one object per text); this
        joins a delta's oids to those of rows that earlier frames
        brought.
        """
        chain = self.rows
        for row in rows:
            values = chain[row._row[_CHAR]]._row    # the last row landed
            prev = values[_PREV]
            after = values[_NEXT]
            named = chain.get(prev)
            held_prev = prev if named is None else named._row[_CHAR]
            named = chain.get(after)
            held_next = after if named is None else named._row[_CHAR]
            if held_prev is not prev or held_next is not after:
                shared = list(values)
                shared[_PREV] = held_prev
                shared[_NEXT] = held_next
                chain[values[_CHAR]] = RowImage(ROW_POSITIONS, tuple(shared))

    def place_cursor(self, cursor: dict) -> None:
        """Record a participant's cursor unless a newer one (higher
        ``seq``) is here or waiting.  One whose anchor is not in the
        chain yet waits for the delta (or snapshot) that brings the row,
        leaving the participant's last cursor showing."""
        session = cursor["session"]
        newest = self._held_cursors.get(session) or self.cursors.get(session)
        if newest is not None and cursor["seq"] < newest["seq"]:
            return
        if cursor["anchor"] in self.rows:
            self.cursors[session] = cursor
            self._held_cursors.pop(session, None)
        else:
            if session not in self._held_cursors:
                self.cursors_held += 1
            self._held_cursors[session] = cursor

    def prev_of(self, oid: Oid) -> Oid | None:
        row = self.rows.get(oid)
        return None if row is None else row["prev"]

    def _chain_rows(self) -> dict[Oid, RowImage]:
        return self.rows

    @property
    def gap(self) -> bool:
        """True when deltas are waiting behind a sequence gap or for a
        base row."""
        return bool(self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self.doc}, rows={len(self.rows)}, "
                f"seq={self.last_seq}, pending={len(self.pending)})")
