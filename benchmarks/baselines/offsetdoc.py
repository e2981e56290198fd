"""Baseline 2: offset-addressed text-in-a-database.

The naive way to put text into a database — one row per character keyed by
``(doc, position)`` — is the ablation target for TeNDaX's central design
choice.  A mid-document insert must shift the position of every subsequent
character (O(n) row updates in one transaction); TeNDaX's neighbour links
make the same keystroke O(1).  The C1 benchmark measures exactly this
crossover.

The baseline runs on the *same* database engine, so the comparison
isolates the storage layout, not the substrate.
"""

from __future__ import annotations

from repro.db import Database, col, column
from repro.errors import InvalidPositionError, UnknownDocumentError
from repro.ids import Oid

OFFSET_DOCS = "ob_documents"
OFFSET_CHARS = "ob_chars"


def install_offset_schema(db: Database) -> None:
    """Create the offset-baseline tables (idempotent)."""
    if not db.has_table(OFFSET_DOCS):
        db.create_table(OFFSET_DOCS, [
            column("doc", "oid"),
            column("name", "str"),
            column("creator", "str"),
            column("size", "int", default=0),
        ], key="doc")
    if not db.has_table(OFFSET_CHARS):
        db.create_table(OFFSET_CHARS, [
            column("doc", "oid"),
            column("pos", "int"),
            column("ch", "str"),
            column("author", "str"),
        ])
        db.create_index(OFFSET_CHARS, "doc")


class OffsetDocumentStore:
    """Offset-addressed character storage (the ablation baseline)."""

    def __init__(self, db: Database) -> None:
        self.db = db
        install_offset_schema(db)
        #: doc -> pos -> rowid cache, so the benchmark measures the row
        #: *updates*, not repeated position lookups.
        self._rowid_cache: dict[Oid, dict[int, int]] = {}

    def create(self, name: str, creator: str, text: str = "") -> Oid:
        """Create a document, one row per character."""
        doc = self.db.new_oid("obdoc")
        with self.db.transaction() as txn:
            txn.insert(OFFSET_DOCS, {
                "doc": doc, "name": name, "creator": creator,
                "size": len(text),
            })
            cache: dict[int, int] = {}
            for i, ch in enumerate(text):
                rowid = txn.insert(OFFSET_CHARS, {
                    "doc": doc, "pos": i, "ch": ch, "author": creator,
                })
                cache[i] = rowid
        self._rowid_cache[doc] = cache
        return doc

    def _doc_view(self, doc: Oid):
        row = self.db.query(OFFSET_DOCS).where(col("doc") == doc).first()
        if row is None:
            raise UnknownDocumentError(f"no offset document {doc}")
        return row

    def length(self, doc: Oid) -> int:
        """Current character count of the document."""
        return self._doc_view(doc)["size"]

    def insert(self, doc: Oid, pos: int, text: str, user: str) -> None:
        """Insert at ``pos``: shifts every later character's position.

        This is the O(n)-row-updates transaction the linked representation
        avoids.
        """
        view = self._doc_view(doc)
        size = view["size"]
        if not 0 <= pos <= size:
            raise InvalidPositionError(f"position {pos} outside document")
        cache = self._rowid_cache[doc]
        with self.db.transaction() as txn:
            # Shift the tail out of the way (descending to keep positions
            # unique while updating).
            for old_pos in range(size - 1, pos - 1, -1):
                rowid = cache[old_pos]
                txn.update(OFFSET_CHARS, rowid,
                           {"pos": old_pos + len(text)})
                cache[old_pos + len(text)] = rowid
            for i, ch in enumerate(text):
                rowid = txn.insert(OFFSET_CHARS, {
                    "doc": doc, "pos": pos + i, "ch": ch, "author": user,
                })
                cache[pos + i] = rowid
            txn.update(OFFSET_DOCS, view.rowid,
                       {"size": size + len(text)})

    def delete(self, doc: Oid, pos: int, count: int, user: str) -> None:
        """Delete ``count`` characters: shifts the tail left (O(n))."""
        view = self._doc_view(doc)
        size = view["size"]
        if pos < 0 or count < 0 or pos + count > size:
            raise InvalidPositionError("range outside document")
        cache = self._rowid_cache[doc]
        with self.db.transaction() as txn:
            for i in range(pos, pos + count):
                txn.delete(OFFSET_CHARS, cache.pop(i))
            for old_pos in range(pos + count, size):
                rowid = cache.pop(old_pos)
                txn.update(OFFSET_CHARS, rowid, {"pos": old_pos - count})
                cache[old_pos - count] = rowid
            txn.update(OFFSET_DOCS, view.rowid, {"size": size - count})

    def text(self, doc: Oid) -> str:
        """Reconstruct the document text (a position-ordered scan)."""
        rows = self.db.query(OFFSET_CHARS).where(col("doc") == doc).run()
        return "".join(r["ch"] for r in sorted(rows,
                                               key=lambda r: r["pos"]))
