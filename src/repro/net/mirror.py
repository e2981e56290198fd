"""The client-side document replica: character rows over the wire.

TeNDaX editors keep a cached view of the document that the database
maintains for them; across a network, that cache becomes a *replica*.
:class:`DocMirror` holds two structures over one document:

* the **chain** — ``rows``, the full ``tx_chars`` row set (sentinels
  and logically deleted rows included: anchors resolve through them and
  undo resurrects them), each row the merge of everything the server
  sent about it;
* the **index** — a :class:`~repro.text.ordercache.ChunkedOrderCache`
  of the *visible* characters in document order, built by one chain
  walk per snapshot and spliced per delta, the same structure (and the
  same splice rule, :func:`~repro.text.ordercache.splice_rows`) a
  :class:`~repro.text.document.DocumentHandle` keeps over the database.

Every read API is answered from the index, so its cost does not grow
with the document; nothing re-walks the chain per call.
:meth:`check_integrity` walks it once more and proves the two agree.

Rows arrive as deltas (:func:`~repro.net.protocol.wire_row`): a whole
image for a row the mirror cannot have, a patch of the changed columns
for one it holds, merged by :func:`~repro.net.protocol.merge_row` before
the index splices.  A patch that finds no row to land on means history
is missing; the delta is not applied, ``missing_base`` counts it and the
transport resyncs — a row is never padded with defaults.

The mirror also holds the **cursors** of everyone in the document (its
own connection's included: that entry is what the server holds for it).
The cursor an edit leaves behind travels inside the edit's delta and is
placed in the same step as its rows, so no reader ever sees a cursor
ahead of, or behind, the text it belongs to.  A standalone cursor whose
anchor the mirror does not hold yet (it overtook the NOTIFY carrying
the row) is held back until the row arrives, not resolved to position 0.

Ordering and loss are handled with a per-document replication sequence:

* deltas apply strictly in ``rep_seq`` order;
* an out-of-order delta (reordered frames) is buffered until the gap
  fills;
* a gap that never fills (a dropped frame) is healed by *anti-entropy*:
  the transport notices the buffer growing — or an echo delta landing
  out of order — and requests a full ``resync`` snapshot, which
  replaces the mirror wholesale.

The mirror never mutates a row it holds — it only replaces one by its
merged successor.

All read APIs mirror :class:`~repro.text.document.DocumentHandle`'s
(text, positions, anchors, styled runs, integrity) so the editor client
cannot tell a replica from a live handle.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import ProtocolError
from ..ids import Oid
from ..text.ordercache import ChunkedOrderCache, position_after, splice_rows
from .protocol import Delta, merge_row

__all__ = ["DocMirror"]


class DocMirror:
    """Replica of one document's character rows, delta-maintained."""

    def __init__(self, doc: Oid, begin: Oid, end: Oid, *,
                 rep_seq: int = 0) -> None:
        self.doc = doc
        self.begin = begin
        self.end = end
        #: char oid -> full tx_chars row (deleted rows and sentinels too).
        self.rows: dict[Oid, dict] = {}
        #: Visible characters in document order (derived from ``rows``).
        self._index = ChunkedOrderCache()
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
        self.begin = snapshot["begin"]
        self.end = snapshot["end"]
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
        patch — and cursors, and index the rows (one chain walk)."""
        doc = self.doc
        rows = [merge_row(row, None, doc) for row in snapshot["rows"]]
        if None in rows:
            raise ProtocolError("snapshot holds a row patch, not an image")
        self.rows = {row["char"]: row for row in rows}
        self._index.rebuild(row for row in self._chain()
                            if row["ch"] and not row["deleted"])
        self.cursors = {}
        self._held_cursors = {}
        for cursor in snapshot.get("cursors", ()):
            self.place_cursor(cursor)

    def _chain(self) -> Iterator[dict]:
        """Walk every row begin→end in chain order (cycle-guarded)."""
        seen = 0
        current: Any = self.begin
        while current is not None:
            row = self.rows.get(current)
            if row is None:
                return
            yield row
            seen += 1
            if seen > len(self.rows):
                return  # cycle: integrity check reports it
            current = row["next"]

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
        """One commit: rows into the chain, then the index splices, then
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
            chain[row["char"]] = row
        splice_rows(self._index, merged, self.begin, self._prev_of)
        if self._held_cursors:
            for cursor in list(self._held_cursors.values()):
                self.place_cursor(cursor)
        if delta.cursor is not None:
            self.place_cursor(delta.cursor)
        return True

    def place_cursor(self, cursor: dict) -> None:
        """Record a participant's cursor, newest wins.  One whose anchor
        is not in the chain yet waits for the delta (or snapshot) that
        brings the row, leaving the participant's last cursor showing."""
        session = cursor["session"]
        if cursor["anchor"] in self.rows:
            self.cursors[session] = cursor
            self._held_cursors.pop(session, None)
        else:
            if session not in self._held_cursors:
                self.cursors_held += 1
            self._held_cursors[session] = cursor

    def _prev_of(self, oid: Oid) -> Oid | None:
        row = self.rows.get(oid)
        return None if row is None else row["prev"]

    @property
    def gap(self) -> bool:
        """True when deltas are waiting behind a sequence gap or for a
        base row."""
        return bool(self.pending)

    # ------------------------------------------------------------------
    # DocumentHandle-compatible reads (all from the index)
    # ------------------------------------------------------------------

    def text(self) -> str:
        return self._index.text()

    def length(self) -> int:
        return len(self._index)

    def char_oids(self) -> list[Oid]:
        return self._index.oids()

    def oid_slice(self, start: int, stop: int) -> list[Oid]:
        return self._index.oid_slice(start, stop)

    def oid_at(self, pos: int) -> Oid:
        return self._index.oid_at(pos)

    def position_of(self, oid: Oid) -> int | None:
        if oid not in self._index:
            return None
        return self._index.index_of(oid)

    def visible_position_after(self, anchor: Oid) -> int:
        """Position after ``anchor``, sliding left over deleted rows —
        the same cursor-anchor rule as
        :meth:`~repro.text.document.DocumentHandle.visible_position_after`.
        """
        if anchor == self.begin:
            return 0
        return position_after(self._index, anchor, self.begin,
                              self._prev_of)

    def text_of(self, oids) -> str:
        return self._index.text_of(oids)

    def contains(self, oid: Oid) -> bool:
        return oid in self._index

    def styled_runs(self) -> list[tuple[str, Oid | None]]:
        return self._index.styled_runs()

    def authors(self) -> dict[str, int]:
        return self._index.authors()

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_integrity(self) -> list[str]:
        """Chain invariants, and index ≡ chain (empty list = healthy)."""
        problems: list[str] = []
        reached = 0
        previous: Oid | None = None
        current: Any = self.begin
        seen: set[Oid] = set()
        visible: list[dict] = []
        while current is not None:
            if current in seen:
                problems.append(f"cycle at {current}")
                break
            seen.add(current)
            row = self.rows.get(current)
            if row is None:
                problems.append(f"chain reaches unknown char {current}")
                break
            if row["prev"] != previous:
                problems.append(
                    f"{current}: prev={row['prev']} expected {previous}")
            if row["ch"] and not row["deleted"]:
                visible.append(row)
            reached += 1
            previous = current
            current = row["next"]
        if previous != self.end:
            problems.append(f"chain ends at {previous}, not END sentinel")
        if reached != len(self.rows):
            problems.append(
                f"{len(self.rows) - reached} row(s) unreachable from BEGIN")
        problems.extend(self._check_index(visible))
        return problems

    def _check_index(self, visible: list[dict]) -> list[str]:
        """The index against the visible rows of a fresh chain walk."""
        index = self._index
        problems = [f"index: {problem}" for problem in index.check()]
        if index.oids() != [row["char"] for row in visible]:
            problems.append(
                f"index order differs from the chain ({len(index)} indexed, "
                f"{len(visible)} visible)")
            return problems
        if index.text() != "".join(row["ch"] for row in visible):
            problems.append("index text differs from the chain")
        for row in visible:
            oid = row["char"]
            if index.style_of(oid) != row["style"] \
                    or index.author_of(oid) != row["author"]:
                problems.append(f"index payload of {oid} is stale")
                break
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DocMirror({self.doc}, rows={len(self.rows)}, "
                f"seq={self.last_seq}, pending={len(self.pending)})")
