"""The headless editor client.

This replaces the paper's GUI editors (Windows XP / Linux / Mac OS X in the
demo) with a scriptable client exercising the *same* server-side paths:
every keypress below turns into the same database transactions the real
editors issued.  The client keeps a cursor and a selection — both anchored
at character OIDs, so they stay meaningful under concurrent remote edits —
and can render the document (plain or ANSI-styled, with participant
cursors) for demo output.
"""

from __future__ import annotations

from ..errors import ClipboardError, InvalidPositionError
from ..ids import Oid
from ..text.document import DocumentHandle
from .awareness import resolve_anchor_position
from .session import EditingSession


class EditorClient:
    """A scriptable editor bound to one session and one open document."""

    def __init__(self, session: EditingSession, doc: Oid) -> None:
        self.session = session
        self.doc = doc
        self.handle: DocumentHandle = session.open(doc)
        #: Cursor sits *after* this character (BEGIN sentinel = position 0).
        self._cursor_anchor: Oid = self.handle.begin_char
        #: Selected character OIDs, in document order.
        self._selection: tuple[Oid, ...] = ()

    # ------------------------------------------------------------------
    # Cursor and selection
    # ------------------------------------------------------------------

    @property
    def user(self) -> str:
        return self.session.user

    @property
    def os_name(self) -> str:
        return self.session.os_name

    def cursor(self) -> int:
        """Current cursor position (resolved against live state)."""
        return resolve_anchor_position(self.handle, self._cursor_anchor)

    def move_to(self, pos: int, *, keep_selection: bool = False) -> int:
        """Place the cursor at ``pos``; returns the position.

        Moving the cursor drops the selection (as editors do) unless
        ``keep_selection`` is set.
        """
        if pos < 0 or pos > self.handle.length():
            raise InvalidPositionError(
                f"cursor position {pos} outside document"
            )
        self._cursor_anchor = self.handle.anchor_for(pos)
        if not keep_selection:
            self._selection = ()
        self._publish_cursor()
        return pos

    def move_home(self) -> int:
        """Cursor to the start of the document."""
        return self.move_to(0)

    def move_end(self) -> int:
        """Cursor past the last character."""
        return self.move_to(self.handle.length())

    def move_left(self, n: int = 1) -> int:
        """Cursor ``n`` positions left (clamped at 0)."""
        return self.move_to(max(0, self.cursor() - n))

    def move_right(self, n: int = 1) -> int:
        """Cursor ``n`` positions right (clamped at the end)."""
        return self.move_to(min(self.handle.length(), self.cursor() + n))

    def select(self, pos: int, count: int) -> str:
        """Select ``count`` characters at ``pos``; returns the text."""
        oids = self.handle.char_oids_range(pos, count)
        if len(oids) != count:
            raise InvalidPositionError("selection outside document")
        self._selection = tuple(oids)
        self.move_to(pos + count, keep_selection=True)
        return self.selected_text()

    def clear_selection(self) -> None:
        """Drop the selection, keeping the cursor."""
        self._selection = ()
        self._publish_cursor()

    def selection(self) -> tuple[Oid, ...]:
        """Selected characters that still exist (remote deletes shrink it)."""
        return tuple(filter(self.handle.contains, self._selection))

    def selected_text(self) -> str:
        """The text of the (still-visible) selection."""
        return self.handle.text_of(self._selection)

    def _publish_cursor(self) -> None:
        self.session.server.awareness.update_cursor(
            self.doc, self.session.id, self._cursor_anchor,
            self.selection(), self.session.server.db.now(),
        )

    # ------------------------------------------------------------------
    # Typing
    # ------------------------------------------------------------------

    def batch(self):
        """Typing-burst batching: coalesce the edits made inside into
        one transaction (see :meth:`EditingSession.batch`).  A burst of
        ``type()`` calls — or a replace (selection delete + insert) —
        then costs one commit record and one grouped fsync instead of
        one per keystroke.
        """
        return self.session.batch()

    def type(self, text: str, *, style: Oid | None = None) -> list[Oid]:
        """Type ``text`` at the cursor (replacing any selection)."""
        if self._selection:
            self.delete_selection()
        oids = self.session.insert_after(
            self.doc, self._cursor_anchor, text, style=style,
        )
        if oids:
            self._cursor_anchor = oids[-1]
        self._publish_cursor()
        return oids

    def backspace(self, n: int = 1) -> int:
        """Delete ``n`` characters before the cursor; returns how many."""
        pos = self.cursor()
        n = min(n, pos)
        if n == 0:
            return 0
        self.session.delete(self.doc, pos - n, n)
        self.move_to(pos - n)
        return n

    def delete_forward(self, n: int = 1) -> int:
        """Delete ``n`` characters after the cursor."""
        pos = self.cursor()
        n = min(n, self.handle.length() - pos)
        if n == 0:
            return 0
        self.session.delete(self.doc, pos, n)
        self._publish_cursor()
        return n

    def delete_selection(self) -> int:
        """Delete the selected characters."""
        oids = self.selection()
        if not oids:
            return 0
        self.session.delete_chars(self.doc, list(oids))
        self._selection = ()
        self._publish_cursor()
        return len(oids)

    # ------------------------------------------------------------------
    # Clipboard
    # ------------------------------------------------------------------

    def copy(self) -> str:
        """Copy the selection to the session clipboard."""
        oids = self.selection()
        if not oids:
            raise ClipboardError("nothing selected")
        pos = self.handle.position_of(oids[0])
        return self.session.copy(self.doc, pos, len(oids))

    def cut(self) -> str:
        """Copy the selection, then delete it."""
        text = self.copy()
        self.delete_selection()
        return text

    def paste(self) -> list[Oid]:
        """Paste at the cursor (with lineage capture)."""
        if self._selection:
            self.delete_selection()
        pos = self.cursor()
        oids = self.session.paste(self.doc, pos)
        if oids:
            self._cursor_anchor = oids[-1]
        self._publish_cursor()
        return oids

    # ------------------------------------------------------------------
    # Layout, undo
    # ------------------------------------------------------------------

    def style_selection(self, style: Oid | None) -> None:
        """Apply a style to the selection (kept selected)."""
        oids = self.selection()
        if oids:
            self.session.style_chars(self.doc, list(oids), style)

    def undo(self) -> None:
        """Local undo: revert this user's last operation."""
        self.session.undo(self.doc)

    def redo(self) -> None:
        """Local redo of this user's last undone operation."""
        self.session.redo(self.doc)

    def undo_global(self) -> None:
        """Global undo: revert the last operation by anyone."""
        self.session.undo_global(self.doc)

    def redo_global(self) -> None:
        """Global redo of the last globally undone operation."""
        self.session.redo_global(self.doc)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def text(self) -> str:
        """The document's current visible text."""
        return self.handle.text()

    def render(self, *, show_cursors: bool = False, ansi: bool = False) -> str:
        """Render the document, optionally with everyone's cursors.

        Cursors render as ``|user|`` markers at their current positions
        (the awareness view the demo shows).
        """
        if ansi:
            from ..text.layout import render_ansi
            base = render_ansi(self.handle, self.session.server.styles)
            if not show_cursors:
                return base
        text = self.text()
        if not show_cursors:
            return text
        positions = self.session.server.awareness.cursor_positions(
            self.handle
        )
        markers = sorted(positions.items(), key=lambda kv: kv[1],
                         reverse=True)
        for user, pos in markers:
            text = text[:pos] + f"|{user}|" + text[pos:]
        return text

    def close(self) -> None:
        """Close the underlying document handle and leave awareness."""
        self.session.close(self.doc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EditorClient(user={self.user!r}, os={self.os_name!r}, "
                f"doc={self.doc})")
