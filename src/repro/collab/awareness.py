"""Awareness: who is editing where.

TeNDaX lists "awareness" among its collaboration features: editors show
the presence, cursors and selections of everyone working on the document.
Cursors are anchored at character OIDs (a cursor sits *after* its anchor),
so remote edits never displace them incorrectly.  Every placement is
stamped with the registry's next *presence sequence*, which only grows:
a replica handed two cursors of one session in either order keeps the
one with the higher ``seq``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ids import Oid
from ..text.document import DocumentHandle


@dataclass
class CursorState:
    """One participant's cursor/selection in one document."""

    user: str
    session_id: int
    anchor: Oid                      # cursor sits after this character
    selection: tuple = ()            # selected char OIDs (may be empty)
    updated_at: float = 0.0
    seq: int = 0                     # presence sequence of this placement

    def position(self, handle: DocumentHandle) -> int:
        """Resolve the cursor to a current document position (if its
        anchor was deleted, it slides left to the nearest surviving
        predecessor — what users expect when someone else deletes the
        text under their cursor)."""
        return handle.visible_position_after(self.anchor)


class AwarenessRegistry:
    """Presence and cursor registry for all open documents."""

    def __init__(self) -> None:
        #: doc -> session_id -> CursorState
        self._cursors: dict[Oid, dict[int, CursorState]] = {}
        #: activity feed entries (bounded).
        self._activity: list[dict] = []
        self.activity_limit = 1000
        self._presence = itertools.count(1)

    # -- presence -----------------------------------------------------------

    def joined(self, doc: Oid, session_id: int, user: str,
               begin_char: Oid, now: float) -> None:
        """Register a participant with a cursor at document start."""
        self._cursors.setdefault(doc, {})[session_id] = CursorState(
            user, session_id, begin_char, (), now, next(self._presence),
        )
        self._log(now, user, doc, "joined")

    def left(self, doc: Oid, session_id: int, user: str, now: float) -> None:
        """Drop a participant's presence from a document."""
        doc_cursors = self._cursors.get(doc)
        if doc_cursors is not None:
            doc_cursors.pop(session_id, None)
            if not doc_cursors:
                del self._cursors[doc]
        self._log(now, user, doc, "left")

    def participants(self, doc: Oid) -> list[str]:
        """Users currently present in a document (sorted, unique)."""
        return sorted({
            c.user for c in self._cursors.get(doc, {}).values()
        })

    # -- cursors ---------------------------------------------------------------

    def update_cursor(self, doc: Oid, session_id: int, anchor: Oid,
                      selection: tuple, now: float) -> CursorState | None:
        """Move a session's cursor/selection anchors; returns the new
        state (``None`` if the session is not in the document)."""
        state = self._cursors.get(doc, {}).get(session_id)
        if state is not None:
            state.anchor = anchor
            state.selection = selection
            state.updated_at = now
            state.seq = next(self._presence)
        return state

    def cursors(self, doc: Oid) -> list[CursorState]:
        """All cursor states currently in a document."""
        return list(self._cursors.get(doc, {}).values())

    def cursor_of(self, doc: Oid, session_id: int) -> CursorState | None:
        """One session's cursor in a document (``None`` if not there)."""
        return self._cursors.get(doc, {}).get(session_id)

    def cursor_positions(self, handle: DocumentHandle) -> dict[str, int]:
        """user -> resolved cursor position, for display."""
        return {
            state.user: state.position(handle)
            for state in self.cursors(handle.doc)
        }

    # -- activity feed ------------------------------------------------------------

    def note_activity(self, now: float, user: str, doc: Oid,
                      what: str) -> None:
        """Append an entry to the activity feed."""
        self._log(now, user, doc, what)

    def _log(self, now: float, user: str, doc: Oid, what: str) -> None:
        self._activity.append(
            {"at": now, "user": user, "doc": doc, "what": what}
        )
        if len(self._activity) > self.activity_limit:
            del self._activity[: len(self._activity) - self.activity_limit]

    def recent_activity(self, limit: int = 20) -> list[dict]:
        """The most recent activity entries, oldest first."""
        return list(self._activity[-limit:])
