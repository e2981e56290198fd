"""Editing sessions: the server-side representation of one connected editor.

A session belongs to one user, holds open document handles, a clipboard,
and an inbox of change notifications.  All editing verbs go through
:meth:`EditingSession._apply`, which enforces document permissions and
character-range protections, records undo information, and updates the
awareness registry — i.e. the full per-operation pipeline the paper's
editor clients drive against the database.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..errors import ClipboardError, SessionError
from ..ids import Oid
from ..text.document import DocumentHandle
from .clipboard import Clipboard
from .operations import ApplyStyle, DeleteChars, InsertText, Operation, UndoRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import CollaborationServer


class Notification(NamedTuple):
    """A change delivered to a session's inbox.

    ``seq`` is the server's global send order; an inbox whose sequence
    numbers are not ascending observed out-of-order delivery (possible
    only under injected delivery faults — see
    :class:`~repro.collab.bus.DeliveryBus`).

    The last three fields are the *causal envelope*: ``trace_id`` /
    ``parent_span`` carry the originating keystroke's dispatch-span
    context across the session boundary (so delivery and remote apply
    link into the same trace, even when the bus holds or reorders the
    notification), and ``origin_started`` is the ``perf_counter`` stamp
    of the editor operation that caused the change — the zero point of
    the ``collab.replication_seconds`` histogram.  All three default to
    ``None``: with tracing off the trace fields are never populated
    (the null fast path), and non-session commits carry no origin stamp.
    """

    doc: Oid
    origin_session: int | None
    origin_user: str | None
    tables: tuple[str, ...]
    n_changes: int
    at: float
    seq: int = 0
    trace_id: int | None = None
    parent_span: int | None = None
    origin_started: float | None = None

    @property
    def trace_ctx(self) -> tuple[int, int] | None:
        """The envelope's span context, or ``None`` when tracing was off."""
        if self.trace_id is None or self.parent_span is None:
            return None
        return (self.trace_id, self.parent_span)


class EditingSession:
    """One connected editor for one user."""

    def __init__(self, server: "CollaborationServer", session_id: int,
                 user: str, *, editor: str = "headless",
                 os_name: str = "linux") -> None:
        self.server = server
        self.id = session_id
        self.user = user
        self.editor = editor
        self.os_name = os_name
        self.clipboard = Clipboard(server.db)
        self.inbox: list[Notification] = []
        self._handles: dict[Oid, DocumentHandle] = {}
        self.connected = True

    # ------------------------------------------------------------------
    # Document lifecycle
    # ------------------------------------------------------------------

    def create_document(self, name: str, *, text: str = "",
                        template: Oid | None = None,
                        props: dict | None = None) -> DocumentHandle:
        """Create a document owned by this session's user and open it."""
        self._require_connected()
        handle = self.server.documents.create(
            name, self.user, text=text, template=template, props=props,
        )
        if template is not None:
            self.server.apply_template(handle, template, self.user)
        self._handles[handle.doc] = handle
        self.server.awareness.joined(
            handle.doc, self.id, self.user, handle.begin_char,
            self.server.db.now(),
        )
        return handle

    def open(self, doc: Oid) -> DocumentHandle:
        """Open a document (requires read permission)."""
        self._require_connected()
        if doc in self._handles:
            return self._handles[doc]
        self.server.acl.require(doc, self.user, "read")
        handle = self.server.documents.open(doc, self.user)
        self._handles[doc] = handle
        self.server.awareness.joined(
            doc, self.id, self.user, handle.begin_char,
            self.server.db.now(),
        )
        return handle

    def close(self, doc: Oid) -> None:
        """Close one open document (leaves awareness)."""
        handle = self._handles.pop(doc, None)
        if handle is not None:
            handle.close()
            self.server.awareness.left(doc, self.id, self.user,
                                       self.server.db.now())

    def handle(self, doc: Oid) -> DocumentHandle:
        """The open handle for ``doc`` (raises if not open)."""
        try:
            return self._handles[doc]
        except KeyError:
            raise SessionError(
                f"session {self.id} has no open document {doc}"
            ) from None

    def open_documents(self) -> list[Oid]:
        """OIDs of the documents this session has open."""
        return list(self._handles)

    def has_open(self, doc: Oid) -> bool:
        """Whether this session has ``doc`` open."""
        return doc in self._handles

    def disconnect(self) -> None:
        """Close every document and detach from the server."""
        for doc in list(self._handles):
            self.close(doc)
        self.connected = False
        self.server._forget(self)

    def _require_connected(self) -> None:
        if not self.connected:
            raise SessionError(f"session {self.id} is disconnected")

    def batch(self):
        """Coalesce a burst of this session's edits into one transaction.

        Delegates to :meth:`~repro.db.engine.Database.batch`: every
        editing verb issued inside the ``with`` block joins a single
        transaction that commits once (one COMMIT record, one grouped
        fsync) when the block exits, and rolls back atomically on error.
        Opt-in — outside a batch the engine keeps the paper's
        one-operation-one-transaction behaviour.
        """
        self._require_connected()
        return self.server.db.batch()

    # ------------------------------------------------------------------
    # Editing verbs (position addressed)
    # ------------------------------------------------------------------

    def insert(self, doc: Oid, pos: int, text: str,
               *, style: Oid | None = None) -> list[Oid]:
        """Type ``text`` at ``pos``."""
        handle = self.handle(doc)
        anchor = handle.anchor_for(pos)
        record = self._apply(doc, InsertText(anchor, text, style=style))
        return list(record.oids) if record else []

    def insert_after(self, doc: Oid, anchor: Oid, text: str,
                     *, style: Oid | None = None) -> list[Oid]:
        """OID-anchored insert (used by editor clients)."""
        record = self._apply(doc, InsertText(anchor, text, style=style))
        return list(record.oids) if record else []

    def delete(self, doc: Oid, pos: int, count: int) -> list[Oid]:
        """Delete ``count`` characters at ``pos``."""
        handle = self.handle(doc)
        oids = tuple(handle.char_oids_range(pos, count))
        if len(oids) != count:
            from ..errors import InvalidPositionError
            raise InvalidPositionError(
                f"delete range [{pos}, {pos + count}) outside document"
            )
        record = self._apply(doc, DeleteChars(oids))
        return list(record.oids) if record else []

    def delete_chars(self, doc: Oid, oids: Sequence[Oid]) -> None:
        """OID-addressed delete (editor clients use this)."""
        self._apply(doc, DeleteChars(tuple(oids)))

    def apply_style(self, doc: Oid, pos: int, count: int,
                    style: Oid | None) -> None:
        """Apply layout to a range."""
        handle = self.handle(doc)
        oids = tuple(handle.char_oids_range(pos, count))
        self._apply(doc, ApplyStyle(oids, style))

    def style_chars(self, doc: Oid, oids: Sequence[Oid],
                    style: Oid | None) -> None:
        """OID-addressed style application."""
        self._apply(doc, ApplyStyle(tuple(oids), style))

    def _apply(self, doc: Oid, op: Operation) -> UndoRecord | None:
        """Security -> execute -> undo-record -> awareness pipeline."""
        self._require_connected()
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, op.required_perm)
        touched = op.char_oids_touched(handle)
        if touched:
            self.server.acl.check_chars_editable(doc, self.user, touched)
        with self.server._operating(self, verb=type(op).__name__):
            record = op.apply(handle, self.user)
        now = self.server.db.now()
        if record is not None:
            self.server.undo.record(record)
            anchor = record.cursor_anchor(handle)
            if anchor is not None:
                # An edit drops the selection, like a cursor move does.
                self.server.awareness.update_cursor(
                    doc, self.id, anchor, (), now)
        self.server.awareness.note_activity(
            now, self.user, doc, type(op).__name__)
        return record

    # ------------------------------------------------------------------
    # Structure (guarded by the dedicated "structure" permission)
    # ------------------------------------------------------------------

    def add_structure_node(self, doc: Oid, kind: str, *,
                           parent: Oid | None = None, label: str = "",
                           start_pos: int | None = None,
                           end_pos: int | None = None) -> Oid:
        """Add a structure node, optionally spanning a character range."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "structure")
        start_char = (handle.char_oid_at(start_pos)
                      if start_pos is not None else None)
        end_char = (handle.char_oid_at(end_pos)
                    if end_pos is not None else None)
        with self.server._operating(self):
            return self.server.structure.add_node(
                doc, kind, self.user, parent=parent, label=label,
                start_char=start_char, end_char=end_char,
            )

    def move_structure_node(self, doc: Oid, node: Oid,
                            new_parent: Oid | None, pos: int) -> None:
        """Re-parent/re-order a structure node."""
        self.handle(doc)
        self.server.acl.require(doc, self.user, "structure")
        with self.server._operating(self):
            self.server.structure.move_node(node, new_parent, pos)

    def remove_structure_node(self, doc: Oid, node: Oid, *,
                              recursive: bool = False) -> int:
        """Delete a structure node (optionally its subtree)."""
        self.handle(doc)
        self.server.acl.require(doc, self.user, "structure")
        with self.server._operating(self):
            return self.server.structure.remove_node(
                node, recursive=recursive)

    # ------------------------------------------------------------------
    # Embedded objects (undoable, like every §2 editing action)
    # ------------------------------------------------------------------

    def insert_image(self, doc: Oid, pos: int, *, name: str, width: int,
                     height: int, content_ref: str = "") -> Oid:
        """Insert an image at ``pos`` (recorded for undo)."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            obj = self.server.objects.insert_image(
                handle, pos, self.user, name=name, width=width,
                height=height, content_ref=content_ref,
            )
        self.server.undo.record(UndoRecord(
            "object_insert", doc, self.user, (obj,)))
        return obj

    def insert_table(self, doc: Oid, pos: int, *, rows: int,
                     cols: int) -> Oid:
        """Insert a table at ``pos`` (recorded for undo)."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            obj = self.server.objects.insert_table(
                handle, pos, self.user, rows=rows, cols=cols,
            )
        self.server.undo.record(UndoRecord(
            "object_insert", doc, self.user, (obj,)))
        return obj

    def set_cell(self, doc: Oid, obj: Oid, row: int, col: int,
                 value: str) -> None:
        """Edit one table cell (collaborative, not undo-tracked)."""
        self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            self.server.objects.set_cell(obj, row, col, value, self.user)

    def delete_object(self, doc: Oid, obj: Oid) -> None:
        """Delete an embedded object (recorded for undo)."""
        self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            self.server.objects.delete_object(obj, self.user)
        self.server.undo.record(UndoRecord(
            "object_delete", doc, self.user, (obj,)))

    # ------------------------------------------------------------------
    # Clipboard
    # ------------------------------------------------------------------

    def copy(self, doc: Oid, pos: int, count: int) -> str:
        """Copy a range onto this session's clipboard; returns the text."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "read")
        return self.clipboard.copy_range(handle, pos, count).text

    def copy_external(self, text: str, source: str) -> None:
        """Put external (non-TeNDaX) content on the clipboard."""
        self.clipboard.set_external(text, source)

    def paste(self, doc: Oid, pos: int) -> list[Oid]:
        """Paste the clipboard at ``pos``, recording lineage."""
        handle = self.handle(doc)
        if self.clipboard.is_empty():
            raise ClipboardError("clipboard is empty")
        # Validate the target and the permission *before* logging the
        # copy operation — a rejected paste must not leave a phantom
        # lineage edge in the copy log.
        anchor = handle.anchor_for(pos)
        self.server.acl.require(doc, self.user, "write")
        copy_op, content = self.clipboard.paste_spec(doc, self.user)
        record = self._apply(doc, InsertText(
            anchor, content.text,
            copy_srcs=content.src_chars or tuple([None] * len(content.text)),
            copy_op=copy_op,
        ))
        return list(record.oids) if record else []

    # ------------------------------------------------------------------
    # Notes
    # ------------------------------------------------------------------

    def add_note(self, doc: Oid, pos: int, body: str) -> Oid:
        """Attach a margin note at ``pos`` (requires write access)."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            return self.server.notes.add_note(handle, pos, body, self.user)

    def resolve_note(self, doc: Oid, note: Oid) -> None:
        """Mark a margin note handled."""
        self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            self.server.notes.resolve(note, self.user)

    # ------------------------------------------------------------------
    # Undo / redo
    # ------------------------------------------------------------------

    def undo(self, doc: Oid) -> UndoRecord:
        """Local undo: revert this user's last operation."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            return self.server.undo.undo_local(handle, self.user)

    def redo(self, doc: Oid) -> UndoRecord:
        """Local redo of this user's last undone operation."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            return self.server.undo.redo_local(handle, self.user)

    def undo_global(self, doc: Oid) -> UndoRecord:
        """Global undo: revert the last operation by anyone."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            return self.server.undo.undo_global(handle, self.user)

    def redo_global(self, doc: Oid) -> UndoRecord:
        """Global redo of the last globally undone operation."""
        handle = self.handle(doc)
        self.server.acl.require(doc, self.user, "write")
        with self.server._operating(self):
            return self.server.undo.redo_global(handle, self.user)

    # ------------------------------------------------------------------
    # Awareness
    # ------------------------------------------------------------------

    def set_cursor(self, doc: Oid, pos: int,
                   selection: Sequence[Oid] = ()) -> None:
        """Publish this session's cursor position to awareness."""
        handle = self.handle(doc)
        anchor = handle.anchor_for(pos)
        self.server.awareness.update_cursor(
            doc, self.id, anchor, tuple(selection), self.server.db.now(),
        )

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def notifications(self) -> list[Notification]:
        """Drain and return pending change notifications."""
        out, self.inbox = self.inbox, []
        return out

    def _notify(self, notification: Notification) -> None:
        """Land a delivered notification in the inbox (the remote-apply
        moment: the document's order cache was already spliced — the
        feed hands a batch to the fan-out only after every state-keeping
        consumer — so inbox arrival is when the change becomes
        *visible* to this session).  Traced as ``collab.apply``, child
        of the delivery span via the thread context stack."""
        with self.server.db.obs.tracer.span("collab.apply",
                                            session=self.id,
                                            seq=notification.seq):
            self.inbox.append(notification)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EditingSession(id={self.id}, user={self.user!r}, "
                f"os={self.os_name!r}, docs={len(self._handles)})")
