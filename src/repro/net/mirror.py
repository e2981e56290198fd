"""The client-side document replica: character rows over the wire.

TeNDaX editors keep a cached view of the document that the database
maintains for them; across a network, that cache becomes a *replica*.
:class:`DocMirror` holds two structures over one document:

* the **chain** — ``rows``, the full ``tx_chars`` row set (sentinels
  and logically deleted rows included: anchors resolve through them and
  undo resurrects them), exactly as the server sent it;
* the **index** — a :class:`~repro.text.ordercache.ChunkedOrderCache`
  of the *visible* characters in document order, built by one chain
  walk per snapshot and spliced per delta, the same structure (and the
  same splice rule, :func:`~repro.text.ordercache.splice_rows`) a
  :class:`~repro.text.document.DocumentHandle` keeps over the database.

Every read API is answered from the index, so its cost does not grow
with the document; nothing re-walks the chain per call.
:meth:`check_integrity` walks it once more and proves the two agree.

Ordering and loss are handled with a per-document replication sequence:

* deltas apply strictly in ``rep_seq`` order;
* an out-of-order delta (reordered frames) is buffered until the gap
  fills;
* a gap that never fills (a dropped frame) is healed by *anti-entropy*:
  the transport notices the buffer growing — or an echo delta landing
  out of order — and requests a full ``resync`` snapshot, which
  replaces the mirror wholesale.

Row dicts are adopted, not copied: a snapshot or delta handed to the
mirror belongs to it (the frame decoder allocated them for exactly this
purpose), and the mirror itself never mutates a row — it only replaces
one by its successor.

All read APIs mirror :class:`~repro.text.document.DocumentHandle`'s
(text, positions, anchors, styled runs, integrity) so the editor client
cannot tell a replica from a live handle.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..ids import Oid
from ..text.ordercache import ChunkedOrderCache, position_after, splice_rows

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
        #: Out-of-order deltas waiting for their gap to fill.
        self.pending: dict[int, tuple[dict, ...]] = {}
        #: Resyncs this mirror has performed (observability for tests).
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "DocMirror":
        """Build a mirror from a server ``resync``/``open`` snapshot."""
        mirror = cls(snapshot["doc"], snapshot["begin"], snapshot["end"],
                     rep_seq=snapshot["rep_seq"])
        mirror._adopt(snapshot["rows"])
        return mirror

    def load(self, snapshot: dict) -> None:
        """Replace the replica's state from a fresh snapshot."""
        self.begin = snapshot["begin"]
        self.end = snapshot["end"]
        self._adopt(snapshot["rows"])
        seq = snapshot["rep_seq"]
        self.last_seq = seq
        self.resyncs += 1
        # Buffered deltas the snapshot already covers are obsolete; any
        # newer ones replay on top if they are contiguous.
        self.pending = {s: rows for s, rows in self.pending.items()
                        if s > seq}
        self._drain_pending()

    def _adopt(self, rows) -> None:
        """Take over a snapshot's rows and index them (one chain walk)."""
        self.rows = {row["char"]: row for row in rows}
        self._index.rebuild(row for row in self._chain()
                            if row["ch"] and not row["deleted"])

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

    def apply(self, rep_seq: int, rows: tuple) -> str:
        """Apply one delta; returns ``applied``/``buffered``/``stale``.

        ``stale`` deltas (already covered by the replica, e.g. replayed
        after a resync) are dropped.  ``buffered`` means a gap precedes
        this delta — the caller should consider a resync once the
        buffer grows past its reorder tolerance.
        """
        if rep_seq <= self.last_seq:
            return "stale"
        if rep_seq == self.last_seq + 1:
            self._upsert(rows)
            self.last_seq = rep_seq
            self._drain_pending()
            return "applied"
        self.pending[rep_seq] = tuple(rows)
        return "buffered"

    def _drain_pending(self) -> None:
        while self.last_seq + 1 in self.pending:
            self.last_seq += 1
            self._upsert(self.pending.pop(self.last_seq))

    def _upsert(self, rows: tuple) -> None:
        """One commit's rows: chain first, then the index splices.

        A delta lists its rows in commit order, not document order, so
        every row lands in the chain before any splice asks it for a
        predecessor; the splices then read each row's final state.
        """
        chain = self.rows
        for row in rows:
            chain[row["char"]] = row
        splice_rows(self._index, [chain[row["char"]] for row in rows],
                    self.begin, self._prev_of)

    def _prev_of(self, oid: Oid) -> Oid | None:
        row = self.rows.get(oid)
        return None if row is None else row["prev"]

    @property
    def gap(self) -> bool:
        """True when buffered deltas are waiting behind a sequence gap."""
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
