"""Document versioning.

Because deletion is logical and every character row is immutable in
identity, a *version* is simply the list of character OIDs that were live
at a moment in time.  Tagging a version is cheap (no copying of character
rows); restoring one is an ordinary edit transaction that deletes/undeletes
characters to recreate the tagged state — fully undoable itself.

Character-level diffs between versions come for free from OID set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db import Database, col
from ..errors import TextError
from ..ids import Oid
from . import dbschema as S
from .document import DocumentHandle


@dataclass(frozen=True)
class VersionDiff:
    """Character-level difference between two versions."""

    added: tuple[Oid, ...]      # live in `b` but not `a`
    removed: tuple[Oid, ...]    # live in `a` but not `b`

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed


class VersionManager:
    """Tag, inspect, diff and restore document versions."""

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)

    def tag(self, handle: DocumentHandle, name: str, user: str) -> Oid:
        """Tag the current state of a document as a named version."""
        version = self.db.new_oid("ver")
        oids = handle.char_oids()
        self.db.insert(S.VERSIONS, {
            "version": version, "doc": handle.doc, "name": name,
            "author": user, "created_at": self.db.now(),
            "char_oids": [str(oid) for oid in oids],
            "text": handle.text(),
        })
        return version

    def get(self, version: Oid, txn=None) -> dict:
        """Fetch a version row by OID (raises if absent)."""
        reader = txn if txn is not None else self.db
        row = (reader.query(S.VERSIONS)
               .where(col("version") == version).first())
        if row is None:
            raise TextError(f"no version {version}")
        return dict(row)

    def versions_of(self, doc: Oid) -> list[dict]:
        """Versions of a document, oldest first."""
        rows = self.db.query(S.VERSIONS).where(col("doc") == doc).run()
        return sorted((dict(r) for r in rows),
                      key=lambda r: r["created_at"])

    def find(self, doc: Oid, name: str) -> dict | None:
        """Look a version up by name, or ``None``."""
        for row in self.versions_of(doc):
            if row["name"] == name:
                return row
        return None

    def text_at(self, version: Oid) -> str:
        """The document text as of the tagged version."""
        return self.get(version)["text"]

    def live_oids(self, version: Oid, txn=None) -> list[Oid]:
        """The character OIDs that were live at the version."""
        return [Oid.parse(s) for s in self.get(version, txn)["char_oids"]]

    def diff(self, a: Oid, b: Oid) -> VersionDiff:
        """Character-OID diff: what ``b`` added/removed relative to ``a``.

        Both version rows are read under one snapshot, so a concurrent
        re-tag cannot make the diff compare a stale ``a`` against a
        fresher ``b``.
        """
        with self.db.snapshot() as snap:
            oids_a = self.live_oids(a, txn=snap)
            oids_b = self.live_oids(b, txn=snap)
        set_a, set_b = set(oids_a), set(oids_b)
        added = tuple(oid for oid in oids_b if oid not in set_a)
        removed = tuple(oid for oid in oids_a if oid not in set_b)
        return VersionDiff(added=added, removed=removed)

    def restore(self, handle: DocumentHandle, version: Oid,
                user: str) -> dict:
        """Restore a document to a tagged version — in one transaction.

        Characters typed since the version are logically deleted; deleted
        characters that were live in the version are resurrected, both
        atomically (a crash mid-restore never leaves a half-restored
        document).  Returns ``{"deleted": n, "restored": m}``.
        """
        from . import chars as C
        spec = self.get(version)
        if spec["doc"] != handle.doc:
            raise TextError("version belongs to a different document")
        target = set(self.live_oids(version))
        current = set(handle.char_oids())
        to_delete = [oid for oid in handle.char_oids() if oid not in target]
        to_restore = [oid for oid in self.live_oids(version)
                      if oid not in current]
        if not to_delete and not to_restore:
            return {"deleted": 0, "restored": 0}
        now = self.db.now()
        with self.db.transaction() as txn:
            deleted = C.logical_delete(txn, self.db, to_delete, user, now)
            restored = C.undelete(txn, self.db, to_restore, user)
            handle._touch(txn, user, now, size_delta=restored - deleted)
        return {"deleted": deleted, "restored": restored}
