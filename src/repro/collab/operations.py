"""Editing operations and their undo records.

Every action a TeNDaX editor performs — typing, deleting, pasting, layout,
structure changes — is expressed as an :class:`Operation`.  Applying an
operation through a session (a) enforces security, (b) runs the underlying
database transaction(s), and (c) yields an :class:`UndoRecord` that knows
how to invert itself — the raw material for the paper's local *and* global
undo/redo.

Operations are anchored at character OIDs, never at offsets, so an
operation prepared by one editor stays valid no matter what other editors
commit in the meantime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..ids import Oid
from ..text.document import DocumentHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


@dataclass
class UndoRecord:
    """How to invert one applied operation.

    ``kind`` is the operation type; ``oids`` the characters involved;
    ``prior_styles`` (style ops only) maps char OID -> previous style OID;
    ``anchor`` (deletes only) is where the delete leaves its author's
    cursor, read before the characters went (see :meth:`cursor_anchor`).
    """

    #: "insert" | "delete" | "style" | "object_insert" | "object_delete"
    kind: str
    doc: Oid
    user: str
    oids: tuple[Oid, ...]
    prior_styles: dict = field(default_factory=dict)
    new_style: Oid | None = None
    undone: bool = False
    anchor: Oid | None = None

    def invert(self, handle: DocumentHandle, user: str) -> None:
        """Apply the inverse of the recorded operation."""
        if self.kind == "insert":
            handle.delete_chars(list(self.oids), user)
        elif self.kind == "delete":
            handle.undelete_chars(list(self.oids), user)
        elif self.kind == "style":
            for oid, style in self.prior_styles.items():
                handle.style_chars([oid], style, user)
        elif self.kind == "object_insert":
            self._objects(handle).delete_object(self.oids[0], user)
        elif self.kind == "object_delete":
            self._objects(handle).restore_object(self.oids[0], user)
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot invert {self.kind!r}")

    def reapply(self, handle: DocumentHandle, user: str) -> None:
        """Redo the recorded operation after an undo."""
        if self.kind == "insert":
            handle.undelete_chars(list(self.oids), user)
        elif self.kind == "delete":
            self.anchor = anchor_before(handle, self.oids)
            handle.delete_chars(list(self.oids), user)
        elif self.kind == "style":
            handle.style_chars(list(self.oids), self.new_style, user)
        elif self.kind == "object_insert":
            self._objects(handle).restore_object(self.oids[0], user)
        elif self.kind == "object_delete":
            self._objects(handle).delete_object(self.oids[0], user)
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot reapply {self.kind!r}")

    @staticmethod
    def _objects(handle: DocumentHandle):
        from ..text.objects import ObjectManager
        return ObjectManager(handle.db)

    def cursor_anchor(self, handle: DocumentHandle) -> Oid | None:
        """Where the operation leaves its author's cursor — *the* rule,
        for every editor on every transport: after the last character
        typed or pasted; before the first one deleted, which as an
        anchor is the visible character in front of it (what an editor
        moving there itself would name).  Anything else (layout,
        objects) moves no cursor: ``None``.

        A delete read that anchor while its first character was still
        visible (:func:`anchor_before`); only one whose first character
        was already gone slides left from it now, over every tombstone
        in between.
        """
        if self.kind == "insert":
            return self.oids[-1]
        if self.kind == "delete":
            if self.anchor is not None:
                return self.anchor
            return handle.anchor_for(
                handle.visible_position_after(self.oids[0]))
        return None


def anchor_before(handle: DocumentHandle, oids: Sequence[Oid]) -> Oid | None:
    """Where deleting ``oids`` will leave its author's cursor, read
    before the delete: the nearest visible character in front of
    ``oids[0]`` that is not deleted with it (BEGIN at the front).  One
    position lookup, not a walk over the tombstones at that spot;
    ``None`` if ``oids[0]`` is not visible."""
    pos = handle.position_of(oids[0])
    if pos is None:
        return None
    if len(oids) > 1:
        going = set(oids)
        while pos and handle.char_oid_at(pos - 1) in going:
            pos -= 1
    return handle.anchor_for(pos)


class Operation:
    """Base class for editing operations."""

    #: Permission the acting user needs on the target document.
    required_perm = "write"

    def apply(self, handle: DocumentHandle, user: str) -> UndoRecord | None:
        """Execute against ``handle``; returns the undo record (or None)."""
        raise NotImplementedError

    def char_oids_touched(self, handle: DocumentHandle) -> Sequence[Oid]:
        """Existing characters the op modifies (for range protections)."""
        return ()


@dataclass
class InsertText(Operation):
    """Insert ``text`` after the character ``anchor``."""

    anchor: Oid
    text: str
    style: Oid | None = None
    copy_srcs: tuple = ()
    copy_op: Oid | None = None

    required_perm = "write"

    def apply(self, handle: DocumentHandle, user: str) -> UndoRecord | None:
        """Insert the text after the anchor character."""
        if not self.text:
            return None
        oids = handle.insert_after(
            self.anchor, self.text, user, style=self.style,
            copy_srcs=self.copy_srcs or None, copy_op=self.copy_op,
        )
        return UndoRecord("insert", handle.doc, user, tuple(oids))

    def char_oids_touched(self, handle: DocumentHandle) -> Sequence[Oid]:
        # Inserting *between* protected characters is allowed; only the
        # characters themselves are guarded.
        """Inserts touch no existing characters."""
        return ()


@dataclass
class DeleteChars(Operation):
    """Logically delete the given characters."""

    oids: tuple

    required_perm = "write"

    def apply(self, handle: DocumentHandle, user: str) -> UndoRecord | None:
        """Logically delete the targeted characters."""
        if not self.oids:
            return None
        anchor = anchor_before(handle, self.oids)
        handle.delete_chars(list(self.oids), user)
        return UndoRecord("delete", handle.doc, user, tuple(self.oids),
                          anchor=anchor)

    def char_oids_touched(self, handle: DocumentHandle) -> Sequence[Oid]:
        """The characters being deleted (range-guard input)."""
        return self.oids


@dataclass
class ApplyStyle(Operation):
    """Point the given characters at a style (collaborative layout)."""

    oids: tuple
    style: Oid | None

    required_perm = "layout"

    def apply(self, handle: DocumentHandle, user: str) -> UndoRecord | None:
        """Restyle the characters, remembering their prior styles."""
        if not self.oids:
            return None
        prior: dict[Oid, Oid | None] = {}
        from ..text import chars as C
        for oid in self.oids:
            __, row = C.char_row(handle.db, oid)
            prior[oid] = row["style"]
        handle.style_chars(list(self.oids), self.style, user)
        return UndoRecord("style", handle.doc, user, tuple(self.oids),
                          prior_styles=prior, new_style=self.style)

    def char_oids_touched(self, handle: DocumentHandle) -> Sequence[Oid]:
        """The characters being restyled (range-guard input)."""
        return self.oids
