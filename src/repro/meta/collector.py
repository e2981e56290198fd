"""Automatic metadata capture and aggregation.

§2 of the paper: "Since the document data is stored in the database, we
automatically gather meta data during the whole document creation process."
Most raw metadata already lands in the tables as a side effect of editing
(per-character author/time/copy refs, the access log, the copy log).  This
module adds:

* live in-memory *edit counters* per document, fed by the changefeed —
  cheap observability without extra writes on the keystroke path, and
* :meth:`MetadataCollector.document_profile` — the consolidated
  document-level metadata record the paper enumerates (creator, dates,
  authors, readers, state, size, copy in/out, notes, versions, places in
  folders, user-defined properties), assembled by querying the tables.

The profile is what dynamic folders, search ranking and visual mining
consume.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..db import Database, col
from ..ids import Oid
from ..text import dbschema as S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..feed.changefeed import CommitBatch


class MetadataCollector:
    """Aggregates creation-process metadata for all documents in a DB."""

    #: Feed consumer name (also the durable cursor key).
    CONSUMER = "meta-collector"

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)
        #: doc -> counters maintained live from commits.
        self._counters: dict[Oid, dict[str, int]] = defaultdict(
            lambda: {"inserts": 0, "deletes": 0, "style_changes": 0,
                     "purged_chars": 0, "commits": 0}
        )
        self._sub = db.changefeed().subscribe(
            self.CONSUMER, self._on_batch, tables=(S.CHARS,))

    def close(self) -> None:
        """Stop maintaining the live counters."""
        self._sub.close()

    # ------------------------------------------------------------------
    # Live counters
    # ------------------------------------------------------------------

    def _on_batch(self, batch: "CommitBatch") -> None:
        docs_touched = set()
        for event in batch.events:
            row = event.row if event.row is not None else event.before
            if row is None or not row.get("ch"):
                continue
            counters = self._counters[row["doc"]]
            docs_touched.add(row["doc"])
            if event.kind == "insert":
                counters["inserts"] += 1
            elif event.kind == "update":
                if row["deleted"]:
                    counters["deletes"] += 1
                elif row["style"] is not None:
                    counters["style_changes"] += 1
            else:
                # Physical removal (document purge / archival): the
                # before-image is the only witness the row existed.
                counters["purged_chars"] += 1
        for doc in docs_touched:
            self._counters[doc]["commits"] += 1

    def edit_counters(self, doc: Oid) -> dict[str, int]:
        """Live counters for one document (zeros if never edited here)."""
        return dict(self._counters[doc])

    # ------------------------------------------------------------------
    # Character-level metadata
    # ------------------------------------------------------------------

    def author_contributions(self, doc: Oid,
                             txn=None) -> dict[str, dict[str, int]]:
        """Per author: characters written, still visible, and deleted.

        ``txn`` (here and below) optionally binds the reads to an open
        transaction — callers assembling multi-query records pass a
        snapshot so every query observes one commit point.
        """
        reader = txn if txn is not None else self.db
        rows = reader.query(S.CHARS).where(col("doc") == doc).run()
        out: dict[str, dict[str, int]] = {}
        for row in rows:
            if not row["ch"]:
                continue
            entry = out.setdefault(row["author"],
                                   {"written": 0, "visible": 0, "deleted": 0})
            entry["written"] += 1
            if row["deleted"]:
                entry["deleted"] += 1
            else:
                entry["visible"] += 1
        return out

    def char_provenance(self, doc: Oid, txn=None) -> dict[str, int]:
        """How the document's visible characters came to be.

        Returns counts: ``typed``, ``pasted_internal``, ``pasted_external``.
        """
        reader = txn if txn is not None else self.db
        rows = reader.query(S.CHARS).where(col("doc") == doc).run()
        ops = {r["op"]: r for r in
               reader.query(S.COPYLOG).where(col("dst_doc") == doc).run()}
        counts = {"typed": 0, "pasted_internal": 0, "pasted_external": 0}
        for row in rows:
            if not row["ch"] or row["deleted"]:
                continue
            if row["copy_op"] is None:
                counts["typed"] += 1
            else:
                op = ops.get(row["copy_op"])
                if op is not None and op["external_source"] is not None:
                    counts["pasted_external"] += 1
                else:
                    counts["pasted_internal"] += 1
        return counts

    # ------------------------------------------------------------------
    # Access metadata
    # ------------------------------------------------------------------
    # ``write`` entries are logged once per ACCESS_LOG_RESOLUTION, so a
    # ``since`` cut reaches that much further back for them: a writer
    # whose burst straddles the cut is never missed (one who stopped up
    # to a resolution before it may be included).

    def readers_of(self, doc: Oid, *, since: float | None = None,
                   txn=None) -> set[str]:
        """Users who opened the document (optionally only since a time)."""
        reader = txn if txn is not None else self.db
        query = reader.query(S.ACCESS_LOG).where(
            (col("doc") == doc) & (col("action") == "read"))
        if since is not None:
            query = query.where(col("at") >= since)
        return {r["user"] for r in query.run()}

    def writers_of(self, doc: Oid, *, since: float | None = None,
                   txn=None) -> set[str]:
        """Users who edited the document (optionally since a time)."""
        reader = txn if txn is not None else self.db
        query = reader.query(S.ACCESS_LOG).where(
            (col("doc") == doc) & (col("action") == "write"))
        if since is not None:
            query = query.where(
                col("at") >= since - S.ACCESS_LOG_RESOLUTION)
        return {r["user"] for r in query.run()}

    def documents_touched_by(self, user: str, *, action: str | None = None,
                             since: float | None = None) -> set[Oid]:
        """Documents a user created/read/wrote, optionally since a time."""
        query = self.db.query(S.ACCESS_LOG).where(col("user") == user)
        if action is not None:
            query = query.where(col("action") == action)
        if since is None:
            return {r["doc"] for r in query.run()}
        rows = query.where(
            col("at") >= since - S.ACCESS_LOG_RESOLUTION).run()
        return {r["doc"] for r in rows
                if r["action"] == "write" or r["at"] >= since}

    def user_activity(self, user: str) -> dict:
        """Summary of one user's footprint across the document space."""
        rows = self.db.query(S.ACCESS_LOG).where(col("user") == user).run()
        by_action: dict[str, set] = defaultdict(set)
        last_seen = 0.0
        for row in rows:
            by_action[row["action"]].add(row["doc"])
            last_seen = max(last_seen, row["at"])
        return {
            "user": user,
            "created": len(by_action["create"]),
            "read": len(by_action["read"]),
            "edited": len(by_action["write"]),
            "last_seen": last_seen,
        }

    # ------------------------------------------------------------------
    # Copy/citation metadata
    # ------------------------------------------------------------------

    def citation_counts(self) -> dict[Oid, int]:
        """doc -> number of copy operations taking content *from* it.

        This is the "most cited" signal the search demo ranks by.
        """
        counts: dict[Oid, int] = defaultdict(int)
        for row in self.db.query(S.COPYLOG).run():
            src = row["src_doc"]
            if src is not None and src != row["dst_doc"]:
                counts[src] += 1
        return dict(counts)

    # ------------------------------------------------------------------
    # The consolidated profile
    # ------------------------------------------------------------------

    def document_profile(self, doc: Oid, txn=None) -> dict:
        """The full document-level metadata record of §2.

        Without an explicit ``txn`` the whole profile is assembled inside
        one snapshot transaction: around ten queries feed it, and a
        commit landing between any two of them must not produce a record
        no actual database state ever matched (size from one state,
        contributions from another).
        """
        if txn is None:
            with self.db.snapshot() as snap:
                return self.document_profile(doc, txn=snap)
        meta_row = txn.query(S.DOCUMENTS).where(col("doc") == doc).first()
        if meta_row is None:
            from ..errors import UnknownDocumentError
            raise UnknownDocumentError(f"no document {doc}")
        contributions = self.author_contributions(doc, txn=txn)
        copies_in = txn.query(S.COPYLOG).where(
            col("dst_doc") == doc).count()
        copies_out = txn.query(S.COPYLOG).where(
            col("src_doc") == doc).count()
        notes = txn.query(S.NOTES).where(col("doc") == doc).count()
        versions = txn.query(S.VERSIONS).where(col("doc") == doc).count()
        return {
            "doc": doc,
            "name": meta_row["name"],
            "creator": meta_row["creator"],
            "created_at": meta_row["created_at"],
            "last_modified": meta_row["last_modified"],
            "last_modified_by": meta_row["last_modified_by"],
            "state": meta_row["state"],
            "size": meta_row["size"],
            "template": meta_row["template"],
            "props": dict(meta_row["props"] or {}),
            "authors": sorted(contributions),
            "contributions": contributions,
            "readers": sorted(self.readers_of(doc, txn=txn)),
            "copies_in": copies_in,
            "copies_out": copies_out,
            "notes": notes,
            "versions": versions,
            "provenance": self.char_provenance(doc, txn=txn),
            "edit_counters": self.edit_counters(doc),
        }
