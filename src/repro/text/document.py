"""Documents: creation, opening, and position-addressed editing.

:class:`DocumentStore` is the library's entry point for document management
(create/open/list), and :class:`DocumentHandle` is an open document — the
thing an editor client holds.  An open document has an in-memory *order
cache* (the live character OIDs in document order plus their render
payload), maintained incrementally from commit notifications, which is how
the real TeNDaX editors mirror the database state: the database stores
neighbour-linked characters; the editor materialises the sequence.  The
store keeps one such replica per open document and every handle of that
document reads it, so a commit is spliced once however many editors have
the document open.  The cache itself is a chunked order-statistic structure
(:mod:`repro.text.ordercache`) so splices and positional lookups stay
cheap on large documents (one chunk, found through a bisected
directory), and ``text()`` is served from per-chunk segments instead of
a table scan.

Editing through a handle is transactional: one call = one committed
"real-time transaction" (insert rows + neighbour pointer updates + document
metadata update, and an access-log entry when the user's last one for the
document is older than ``ACCESS_LOG_RESOLUTION``), exactly the granularity
the paper describes for collaborative keystroke-level editing.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from ..db import Database, Transaction, col
from ..errors import (InvalidPositionError, RowNotFoundError,
                      UnknownDocumentError)
from ..ids import Oid
from . import chars as C
from . import dbschema as S
from .ordercache import ChunkedOrderCache, position_after, splice_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.query import RowView
    from ..feed.changefeed import CommitBatch


class DocumentStore:
    """Create, open and enumerate documents in one database.

    Parameters
    ----------
    db:
        The engine to store documents in.  The TeNDaX schema is installed
        on first use.
    log_reads / log_writes:
        Whether to append ``tx_access_log`` rows on opens and edits.  The
        log feeds dynamic folders and search ranking.  Edits are logged
        at ``ACCESS_LOG_RESOLUTION``: one ``write`` entry per user and
        document per that much time, however many keystrokes fall in it.
    """

    def __init__(self, db: Database, *, log_reads: bool = True,
                 log_writes: bool = True) -> None:
        self.db = db
        self.log_reads = log_reads
        self.log_writes = log_writes
        #: doc -> the replica its open handles share.
        self._replicas: dict[Oid, _DocReplica] = {}
        self._replicas_lock = threading.Lock()
        S.install_text_schema(db)

    # ------------------------------------------------------------------
    # Document lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        creator: str,
        *,
        text: str = "",
        template: Oid | None = None,
        props: dict | None = None,
    ) -> "DocumentHandle":
        """Create a document (optionally with initial text) and open it."""
        doc = self.db.new_oid("doc")
        now = self.db.now()
        with self.db.transaction() as txn:
            rowid = txn.insert(S.DOCUMENTS, {
                "doc": doc, "name": name, "creator": creator,
                "created_at": now, "last_modified": now,
                "last_modified_by": creator, "template": template,
                "props": props,
            })
            begin, end = C.create_anchors(txn, self.db, doc, creator, now)
            txn.update(S.DOCUMENTS, rowid, {
                "begin_char": begin, "end_char": end,
            })
            txn.insert(S.ACCESS_LOG, {
                "entry": self.db.new_oid("log"), "doc": doc,
                "user": creator, "action": "create", "at": now,
            })
        handle = DocumentHandle(self, doc)
        if text:
            handle.insert_text(0, text, creator)
        return handle

    def open(self, doc: Oid, user: str) -> "DocumentHandle":
        """Open an existing document for ``user`` (logged as a read)."""
        self.meta(doc)  # raises if unknown
        if self.log_reads:
            self.db.insert(S.ACCESS_LOG, {
                "entry": self.db.new_oid("log"), "doc": doc,
                "user": user, "action": "read", "at": self.db.now(),
            })
        return DocumentHandle(self, doc)

    def handle(self, doc: Oid) -> "DocumentHandle":
        """Open without logging (internal tooling, tests, benchmarks)."""
        self.meta(doc)
        return DocumentHandle(self, doc)

    def meta(self, doc: Oid) -> dict:
        """The document-level metadata row."""
        return dict(self._doc_row(doc))

    def _doc_row(self, doc: Oid) -> "RowView":
        row = self.db.find(S.DOCUMENTS, "doc", doc)
        if row is None:
            raise UnknownDocumentError(f"no document {doc}")
        return row

    def find_by_name(self, name: str) -> list[dict]:
        """Documents with exactly this name (names may repeat)."""
        return [dict(r) for r in
                self.db.query(S.DOCUMENTS).where(col("name") == name).run()]

    def list_documents(self) -> list[dict]:
        """Metadata rows of every document."""
        return [dict(r) for r in self.db.query(S.DOCUMENTS).run()]

    def set_state(self, doc: Oid, state: str, user: str) -> None:
        """Move a document through its lifecycle (draft/review/final...)."""
        now = self.db.now()
        with self.db.transaction() as txn:
            rowid = self._rowid_for(txn, doc)
            txn.get_for_update(S.DOCUMENTS, rowid)
            txn.update(S.DOCUMENTS, rowid, {
                "state": state, "last_modified": now,
                "last_modified_by": user,
            })

    def set_property(self, doc: Oid, key: str, value: Any,
                     user: str) -> None:
        """Set a user-defined document property (paper §2 metadata).

        The ``props`` dict is a read-modify-write: it must be re-read
        *inside* the transaction under the row's write lock, or two
        concurrent ``set_property`` calls each merge into the same stale
        snapshot and one key is silently lost.
        """
        with self.db.transaction() as txn:
            rowid = self._rowid_for(txn, doc)
            current = txn.get_for_update(S.DOCUMENTS, rowid)
            props = dict(current["props"] or {})
            props[key] = value
            txn.update(S.DOCUMENTS, rowid, {"props": props})

    def _rowid_for(self, txn: Transaction, doc: Oid) -> int:
        """Locate a document's rowid inside ``txn`` (raises if unknown)."""
        row = txn.find(S.DOCUMENTS, "doc", doc)
        if row is None:
            raise UnknownDocumentError(f"no document {doc}")
        return row.rowid

    def import_archived(self, name: str, creator: str, *, text: str = "",
                        props: dict | None = None) -> Oid:
        """Create an *archived* document: whole text, no character chain.

        The archival-portal ingest path.  The row carries
        ``begin_char = None`` and the full text in
        ``props["archived_text"]``; readers that reconstruct text
        (feature extraction, search indexing) fall back to the stored
        blob.  The document is searchable and folder-eligible but not
        editable until rehydrated into a chain.
        """
        doc = self.db.new_oid("doc")
        now = self.db.now()
        full_props = dict(props or {})
        full_props["archived_text"] = text
        with self.db.transaction() as txn:
            txn.insert(S.DOCUMENTS, {
                "doc": doc, "name": name, "creator": creator,
                "created_at": now, "last_modified": now,
                "last_modified_by": creator, "size": len(text),
                "props": full_props,
            })
            txn.insert(S.ACCESS_LOG, {
                "entry": self.db.new_oid("log"), "doc": doc,
                "user": creator, "action": "create", "at": now,
            })
        return doc

    #: Per-document tables purged alongside the metadata row.
    _PURGE_TABLES = (S.CHARS, S.ACCESS_LOG, S.VERSIONS, S.STRUCTURE,
                     S.OBJECTS, S.NOTES)

    def delete_document(self, doc: Oid, user: str) -> int:
        """Physically purge a document and its per-document rows.

        One transaction deletes the character chain, access log,
        versions, structure, objects and notes of ``doc`` plus its
        metadata row; returns the number of rows removed.  Every delete
        reaches the changefeed with a before-image, which is how derived
        data (search postings, folder membership, open handles) learns
        the document is gone instead of serving it stale forever.  The
        copy log is deliberately kept: it records provenance of *other*
        documents' characters.
        """
        removed = 0
        with self.db.transaction() as txn:
            rowid = self._rowid_for(txn, doc)
            txn.get_for_update(S.DOCUMENTS, rowid)
            for table in self._PURGE_TABLES:
                for row in txn.query(table).where(col("doc") == doc).run():
                    txn.delete(table, row.rowid)
                    removed += 1
            txn.delete(S.DOCUMENTS, rowid)
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # Shared order-cache replicas (one per open document)
    # ------------------------------------------------------------------

    def _attach(self, doc: Oid, begin_char: Oid | None) -> "_DocReplica":
        """The replica of ``doc`` for one more handle (built on first use)."""
        with self._replicas_lock:
            replica = self._replicas.get(doc)
            if replica is None:
                replica = self._replicas[doc] = _DocReplica(
                    self.db, doc, begin_char)
            replica.handles += 1
            return replica

    def _detach(self, replica: "_DocReplica") -> None:
        """One handle fewer; the last one out unsubscribes the replica."""
        with self._replicas_lock:
            replica.handles -= 1
            if not replica.handles:
                del self._replicas[replica.doc]
                replica.close()


class _DocReplica:
    """One open document's order cache and the subscription feeding it.

    Owned by the :class:`DocumentStore`, shared by every open
    :class:`DocumentHandle` of the same document: built by one chain
    walk when the first handle opens, spliced once per commit, dropped
    (and unsubscribed) when the last handle closes.
    """

    def __init__(self, db: Database, doc: Oid,
                 begin_char: Oid | None) -> None:
        self.db = db
        self.doc = doc
        self.begin_char = begin_char
        self.cache = ChunkedOrderCache()
        #: Open handles reading this replica.
        self.handles = 0
        #: user -> ``at`` of their newest *committed* ``write`` entry in
        #: the access log (any store's), as the feed reported it: what
        #: :meth:`DocumentStore._log_write` needs to log an editing
        #: burst once.  An aborted entry never gets here.
        self.write_logged: dict[str, float] = {}
        registry = db.obs.registry
        self._m_splice = registry.histogram("doc.cache_splice_seconds")
        self._m_full_scans = registry.counter("doc.full_scans")
        self.refresh()
        self._sub = db.changefeed().subscribe(
            f"doc-cache:{doc}", self._on_batch,
            tables=(S.CHARS, S.ACCESS_LOG))

    def refresh(self) -> None:
        """Rebuild the order cache from the database chain (full scan).

        The traversal issues one read per character, so the whole walk
        runs inside a snapshot transaction: a writer committing
        mid-rebuild can neither stall the scan (no locks) nor tear the
        chain out from under it (every hop sees the same commit point).
        """
        self._m_full_scans.inc()
        if self.begin_char is None:
            # Archived document: no chain to walk, nothing to render.
            self.cache.rebuild(iter(()))
            return
        with self.db.snapshot() as snap:
            self.cache.rebuild(
                C.traverse(self.db, self.doc, self.begin_char, txn=snap))

    def close(self) -> None:
        self._sub.close()

    def _on_batch(self, batch: "CommitBatch") -> None:
        rows = []
        for event in batch.events:
            row = event.row
            if event.table == S.ACCESS_LOG:
                if event.kind == "insert" and row["action"] == "write" \
                        and row["doc"] == self.doc:
                    self.write_logged[row["user"]] = row["at"]
                continue
            if event.kind == "delete" and event.before is not None:
                # Physical char removal (document purge / archival): the
                # before-image names the vanished character, which
                # leaves the cache as a logically deleted one does.
                row = dict(event.before, deleted=True)
            if row is not None and row["doc"] == self.doc:
                rows.append(row)
        if not rows:
            return  # another document's commit
        started = perf_counter()
        if splice_rows(self.cache, rows, self.begin_char, self.prev_of):
            self._m_splice.observe(perf_counter() - started)

    def prev_of(self, oid: Oid) -> Oid | None:
        """Chain predecessor of a character the cache does not hold (a
        deleted or not-yet-spliced one): one indexed database read."""
        return C.char_row(self.db, oid)[1]["prev"]


class DocumentHandle:
    """An open document: position-addressed edits over the character chain.

    The handle reads the document's *order cache* — live character OIDs
    in document order — from the replica the store keeps per open
    document.  That replica is updated incrementally by a changefeed
    subscription, so it reflects both this handle's edits and edits
    committed by any other handle/session on the same engine — the
    mechanism behind "everything which is typed appears within the
    editor as soon as [it is] stored persistently".
    """

    def __init__(self, store: DocumentStore, doc: Oid) -> None:
        self.store = store
        self.db = store.db
        self.doc = doc
        meta = store._doc_row(doc)
        #: Row id of the document's ``tx_documents`` row (ids are never
        #: reused, so it finds this document or nothing).
        self._rowid = meta.rowid
        self.begin_char: Oid = meta["begin_char"]
        self.end_char: Oid = meta["end_char"]
        self._m_lookup = self.db.obs.registry.histogram(
            "doc.cache_lookup_seconds")
        self._replica = store._attach(doc, self.begin_char)
        self._cache = self._replica.cache
        self._closed = False

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild the document's order cache from the database chain
        (a full scan; every handle of the document sees the result)."""
        self._replica.refresh()

    def close(self) -> None:
        """Stop reading the document's replica; the last handle to close
        detaches it from commit notifications."""
        if not self._closed:
            self._closed = True
            self.store._detach(self._replica)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def text(self) -> str:
        """The document's visible text (cache only — no table scan)."""
        return self._cache.text()

    def length(self) -> int:
        """Number of visible characters."""
        return len(self._cache)

    def char_oids(self) -> list[Oid]:
        """Live character OIDs in document order (copy)."""
        return self._cache.oids()

    def char_oids_range(self, pos: int, count: int) -> list[Oid]:
        """OIDs of positions ``[pos, pos + count)`` without materialising
        the whole order (what range operations should use).  The range is
        clamped at the document end; a negative start is invalid."""
        if pos < 0 or count < 0:
            raise InvalidPositionError(
                f"range [{pos}, {pos + count}) has a negative bound"
            )
        started = perf_counter()
        oids = self._cache.oid_slice(pos, pos + count)
        self._m_lookup.observe(perf_counter() - started)
        return oids

    def char_oid_at(self, pos: int) -> Oid:
        """OID of the character at position ``pos``."""
        started = perf_counter()
        try:
            return self._cache.oid_at(pos)
        except IndexError:
            raise InvalidPositionError(
                f"position {pos} outside document of "
                f"length {len(self._cache)}"
            ) from None
        finally:
            self._m_lookup.observe(perf_counter() - started)

    def contains(self, oid: Oid) -> bool:
        """Whether a character is currently visible (one dict probe —
        the membership test; :meth:`position_of` is for positions)."""
        return oid in self._cache

    def position_of(self, oid: Oid) -> int | None:
        """Current position of a character, or ``None`` if not visible."""
        if oid not in self._cache:
            return None
        started = perf_counter()
        index = self._cache.index_of(oid)
        self._m_lookup.observe(perf_counter() - started)
        return index

    def visible_position_after(self, anchor: Oid) -> int:
        """Position just after ``anchor``, sliding left over deleted
        predecessors — the cursor-anchor resolution rule (a cursor sits
        *after* its anchor; deleting the anchor slides the cursor left)."""
        if anchor == self.begin_char:
            return 0
        return position_after(self._cache, anchor, self.begin_char,
                              self._replica.prev_of)

    def text_of(self, oids: Sequence[Oid]) -> str:
        """The text of still-visible characters among ``oids``."""
        return self._cache.text_of(oids)

    def anchor_for(self, pos: int) -> Oid:
        """The character OID an insert *at* ``pos`` goes after."""
        if pos < 0 or pos > len(self._cache):
            raise InvalidPositionError(
                f"position {pos} outside document of length {len(self._cache)}"
            )
        return self.begin_char if pos == 0 else self._cache.oid_at(pos - 1)

    def char_meta(self, pos: int) -> dict:
        """Full character-level metadata row at ``pos``."""
        __, row = C.char_row(self.db, self.char_oid_at(pos))
        return row

    def meta(self) -> dict:
        """The document's metadata row."""
        return self.store.meta(self.doc)

    # ------------------------------------------------------------------
    # Editing (position addressed)
    # ------------------------------------------------------------------

    def insert_text(self, pos: int, text: str, user: str, *,
                    style: Oid | None = None) -> list[Oid]:
        """Insert ``text`` at ``pos`` in one transaction; returns OIDs."""
        anchor = self.anchor_for(pos)
        return self.insert_after(anchor, text, user, style=style)

    def insert_after(
        self,
        anchor: Oid,
        text: str,
        user: str,
        *,
        style: Oid | None = None,
        copy_srcs: Sequence[Oid | None] | None = None,
        copy_op: Oid | None = None,
    ) -> list[Oid]:
        """OID-anchored insert (what collaborative operations use)."""
        if not text:
            return []
        now = self.db.now()
        with self.db.transaction() as txn:
            oids = C.insert_chars(
                txn, self.db, self.doc, anchor, text, user, now,
                style=style, copy_srcs=copy_srcs, copy_op=copy_op,
            )
            self._touch(txn, user, now, size_delta=len(text))
        return oids

    def delete_range(self, pos: int, count: int, user: str) -> list[Oid]:
        """Logically delete ``count`` characters starting at ``pos``."""
        if count < 0:
            raise InvalidPositionError("count must be >= 0")
        if pos < 0 or pos + count > len(self._cache):
            raise InvalidPositionError(
                f"range [{pos}, {pos + count}) outside document of "
                f"length {len(self._cache)}"
            )
        oids = self.char_oids_range(pos, count)
        self.delete_chars(oids, user)
        return oids

    def delete_chars(self, oids: Sequence[Oid], user: str) -> None:
        """OID-addressed logical delete (collaborative operations)."""
        if not oids:
            return
        now = self.db.now()
        with self.db.transaction() as txn:
            flipped = C.logical_delete(txn, self.db, oids, user, now)
            self._touch(txn, user, now, size_delta=-flipped)

    def undelete_chars(self, oids: Sequence[Oid], user: str) -> None:
        """Resurrect logically deleted characters (undo of a delete)."""
        if not oids:
            return
        now = self.db.now()
        with self.db.transaction() as txn:
            flipped = C.undelete(txn, self.db, oids, user)
            self._touch(txn, user, now, size_delta=flipped)

    def apply_style(self, pos: int, count: int, style: Oid | None,
                    user: str) -> list[Oid]:
        """Apply a style to a range (collaborative layouting)."""
        if pos < 0 or count < 0 or pos + count > len(self._cache):
            raise InvalidPositionError("style range outside document")
        oids = self.char_oids_range(pos, count)
        self.style_chars(oids, style, user)
        return oids

    def style_chars(self, oids: Sequence[Oid], style: Oid | None,
                    user: str) -> None:
        """OID-addressed style application."""
        if not oids:
            return
        now = self.db.now()
        with self.db.transaction() as txn:
            C.set_style(txn, self.db, oids, style)
            self._touch(txn, user, now, size_delta=0)

    def _touch(self, txn: Transaction, user: str, now: float,
               *, size_delta: int) -> None:
        """Book-keep one edit inside its transaction.

        The document row is exact and per edit (folders, search
        doc-values and :meth:`meta` read ``size``/``last_modified`` in
        the same instant).  The access log gets ``user``'s ``write``
        entry unless a committed one already covers ``now``.
        """
        try:
            row = txn.get_for_update(S.DOCUMENTS, self._rowid)
        except RowNotFoundError:  # handle outlived document
            raise UnknownDocumentError(f"no document {self.doc}") from None
        txn.update(S.DOCUMENTS, self._rowid, {
            "last_modified": now, "last_modified_by": user,
            "size": max(0, row["size"] + size_delta),
        })
        if not self.store.log_writes:
            return
        last = self._replica.write_logged.get(user)
        if last is None or not 0 <= now - last < S.ACCESS_LOG_RESOLUTION:
            txn.insert(S.ACCESS_LOG, {
                "entry": self.db.new_oid("log"), "doc": self.doc,
                "user": user, "action": "write", "at": now,
            })

    # ------------------------------------------------------------------
    # Rendering helpers
    # ------------------------------------------------------------------

    def styled_runs(self) -> list[tuple[str, Oid | None]]:
        """The text as maximal runs of identically-styled characters."""
        return self._cache.styled_runs()

    def authors(self) -> dict[str, int]:
        """Visible character counts per author (who wrote what)."""
        return self._cache.authors()

    def check_integrity(self) -> list[str]:
        """Verify the chain invariants (empty list = healthy)."""
        return C.check_chain_integrity(
            self.db, self.doc, self.begin_char, self.end_char
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DocumentHandle({self.doc}, length={len(self._cache)})"
