"""Baseline 1: the file-server word processor the paper argues against.

§1: "Documents are mostly stored in a hierarchical folder structure on
file servers ... documents can be manipulated by only one user at a time."

This baseline models exactly that: documents are whole files; editing
requires an exclusive whole-document lock; every save rewrites the entire
document; there is no character metadata, no lineage, no fine-grained
security, and search is a full-text scan over every file.  Benchmarks pit
it against TeNDaX for concurrency (one writer at a time vs many),
keystroke durability (save-the-world vs one row) and search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TendaxError


class FileLockedError(TendaxError):
    """The document is locked by another user."""


@dataclass
class FileDocument:
    """A whole-file document with optional naive version copies."""

    name: str
    text: str = ""
    locked_by: str | None = None
    revision: int = 0
    history: list = field(default_factory=list)


class FileWordProcessor:
    """An in-memory model of file-based, single-writer word processing."""

    def __init__(self, *, keep_history: bool = False) -> None:
        self._files: dict[str, FileDocument] = {}
        self.keep_history = keep_history
        self.stats = {"saves": 0, "bytes_written": 0, "lock_conflicts": 0}

    # -- document management ------------------------------------------------

    def create(self, name: str, text: str = "") -> FileDocument:
        """Create a new file document."""
        if name in self._files:
            raise TendaxError(f"file {name!r} already exists")
        doc = FileDocument(name, text)
        self._files[name] = doc
        return doc

    def get(self, name: str) -> FileDocument:
        """Fetch a file document by name (raises if absent)."""
        try:
            return self._files[name]
        except KeyError:
            raise TendaxError(f"no file {name!r}") from None

    def list_files(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._files)

    # -- the single-writer editing model -----------------------------------------

    def open_for_edit(self, name: str, user: str) -> str:
        """Take the whole-document lock; returns the current text."""
        doc = self.get(name)
        if doc.locked_by is not None and doc.locked_by != user:
            self.stats["lock_conflicts"] += 1
            raise FileLockedError(
                f"{name!r} is locked by {doc.locked_by!r}"
            )
        doc.locked_by = user
        return doc.text

    def save(self, name: str, user: str, text: str) -> int:
        """Write the full document back (the per-keystroke unit of
        durability in a file-based editor is the whole file)."""
        doc = self.get(name)
        if doc.locked_by != user:
            self.stats["lock_conflicts"] += 1
            raise FileLockedError(
                f"{name!r} is not locked by {user!r}"
            )
        if self.keep_history:
            doc.history.append(doc.text)
        doc.text = text
        doc.revision += 1
        self.stats["saves"] += 1
        self.stats["bytes_written"] += len(text)
        return doc.revision

    def close(self, name: str, user: str) -> None:
        """Release the editing lock if ``user`` holds it."""
        doc = self.get(name)
        if doc.locked_by == user:
            doc.locked_by = None

    # -- editing helpers (what a client would do in memory) -------------------------

    def insert(self, name: str, user: str, pos: int, text: str) -> None:
        """Insert + save: the full-file rewrite a file editor performs."""
        current = self.get(name).text
        if not 0 <= pos <= len(current):
            raise TendaxError(f"position {pos} outside file")
        self.save(name, user, current[:pos] + text + current[pos:])

    def delete(self, name: str, user: str, pos: int, count: int) -> None:
        """Delete a range + save (another whole-file rewrite)."""
        current = self.get(name).text
        if pos < 0 or pos + count > len(current):
            raise TendaxError("range outside file")
        self.save(name, user, current[:pos] + current[pos + count:])

    # -- search (the grep of the file server) -------------------------------------

    def scan_search(self, needle: str) -> list[str]:
        """Full scan over every file (no index on a file server)."""
        lowered = needle.lower()
        return sorted(
            name for name, doc in self._files.items()
            if lowered in doc.text.lower()
        )
