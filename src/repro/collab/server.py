"""The collaboration server: sessions, real-time propagation, awareness.

:class:`CollaborationServer` is the top-level object of the reproduction —
the piece the LAN-party demo runs against.  It owns the database, the
document store, security, layout/structure/object/note/version managers,
the undo manager and the awareness registry, and it fans committed changes
out to every connected session with the affected document open.

The fan-out is the one delivery model.  Each commit becomes one notice
per changed document, stamped with that document's next ``rep_seq``; a
notice leaves when the outermost :meth:`CollaborationServer.operation`
that committed it exits (at once for a commit made outside any), and
goes to every other session with the document open through the
:class:`DeliveryBus`, which hands it to the session's transport: its
inbox for an in-process session, its connection for a wire one.  The
database commit is the serialisation point either way.  A cursor move
that no edit carries takes the same road:
:meth:`CollaborationServer.move_cursor` hands the awareness state to
the bus for every other reader.  The bus is also where a delivery
fault plan drops, holds and reorders, for both transports alike.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

from ..clock import Clock
from ..db import Database
from ..db.recovery import restart
from ..obs.labels import SeriesCache
from ..security import AccessController, PrincipalRegistry
from ..text import (
    DocumentStore,
    NoteManager,
    ObjectManager,
    StructureManager,
    StyleManager,
    VersionManager,
)
from ..text import dbschema as S
from .awareness import AwarenessRegistry, CursorState
from .bus import DeliveryBus
from .session import EditingSession, Notification
from .undo import UndoManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..feed.changefeed import CommitBatch

#: Tables whose commits are announced to editors (on the wire only the
#: CHARS rows travel; the rest is NOTIFY metadata).
WATCHED_TABLES = frozenset(
    (S.CHARS, S.OBJECTS, S.NOTES, S.STRUCTURE, S.DOCUMENTS))


@dataclass(slots=True)
class Notice:
    """One commit's change to one document, as the fan-out hands it to
    every reader's transport.

    ``notification`` is what an inbox receives; ``changes`` the
    commit's events (:class:`~repro.db.transaction.Change`, every
    document's), for a transport that ships rows; ``origin`` the
    session whose operation made the commit (``None`` outside any);
    ``wire`` a transport's own rendering, made once for all its
    readers.
    """

    notification: Notification
    changes: tuple
    origin: EditingSession | None
    wire: Any = None


@dataclass(slots=True)
class _Operation:
    """A block whose commits, on the thread that enters it, have
    ``origin`` as their author; their notices are held until the
    outermost operation on the thread exits — raising or not: the rows
    are committed and their ``rep_seq`` is taken.  Entering one inside
    another joins the outer one.  ``started`` is the zero point of
    ``collab.replication_seconds``, carried on every notice."""

    server: "CollaborationServer"
    origin: EditingSession
    started: float = field(default_factory=perf_counter)
    notices: list[Notice] = field(default_factory=list)

    def __enter__(self) -> "_Operation":
        local = self.server._local
        current = getattr(local, "op", None)
        if current is not None:
            return current
        local.op = self
        return self

    def __exit__(self, *exc) -> None:
        local = self.server._local
        if local.op is self:
            local.op = None
            self.server._send(self.notices)


class CollaborationServer:
    """The multi-user editing server ("the database side of the party")."""

    def __init__(self, db: Database | None = None, *, node: str = "tendax",
                 clock: Clock | None = None,
                 wal_path: str | None = None,
                 faults=None) -> None:
        # An existing ``wal_path`` is this server's own history: resume
        # it (recover, then extend the same log), never start a second
        # history at LSN 1 behind it.
        self.db = db if db is not None else restart(
            wal_path, node=node, clock=clock, faults=faults)[0]
        self.faults = faults if faults is not None else self.db.faults
        #: Collab metrics live in the database's registry, so one
        #: ``Database.metrics_snapshot()`` covers the whole server.
        registry = self.db.obs.registry
        self._tracer = self.db.obs.tracer
        self._m_op_seconds = registry.histogram("collab.op_seconds")
        self._m_notifications = registry.counter("collab.notifications")
        self._m_sessions = registry.gauge("collab.sessions")
        # Dimensioned families: op latency by verb, fan-out by document.
        self._verb_seconds = SeriesCache(
            registry.family("collab.op_seconds", "histogram"), "verb")
        self._doc_notifications = SeriesCache(
            registry.family("collab.notifications", "counter"), "doc")
        #: The "network" between commits and every reader.
        self.delivery = DeliveryBus(self.faults, registry=registry,
                                    tracer=self._tracer)
        self.documents = DocumentStore(self.db)
        self.principals = PrincipalRegistry(self.db)
        self.acl = AccessController(self.db, self.principals)
        self.styles = StyleManager(self.db)
        self.structure = StructureManager(self.db)
        self.objects = ObjectManager(self.db)
        self.notes = NoteManager(self.db)
        self.versions = VersionManager(self.db)
        self.undo = UndoManager()
        self.awareness = AwarenessRegistry()
        self._sessions: dict[int, EditingSession] = {}
        self._session_counter = itertools.count(1)
        self._notification_seq = itertools.count(1)
        #: doc oid -> ``rep_seq`` of its newest commit.
        self.rep_seqs: dict = {}
        #: ``op``: this thread's open :class:`_Operation`, if any.
        self._local = threading.local()
        # A notice consumer of the changefeed (dispatched after every
        # state-keeping one: see ``NOTICE_CONSUMERS``), so a session is
        # never told of a change its handle cannot read yet.
        self._subscription = self.db.changefeed().subscribe(
            "collab-fanout", self._on_commit, tables=WATCHED_TABLES)

    def statistics(self) -> dict:
        """A live snapshot of the whole server's state (monitoring)."""
        return {
            "sessions": len(self._sessions),
            "documents": self.db.table(S.DOCUMENTS).row_count()
            if self.db.has_table(S.DOCUMENTS) else 0,
            "characters": self.db.table(S.CHARS).row_count()
            if self.db.has_table(S.CHARS) else 0,
            "operations": self._m_op_seconds.count,
            "notifications": self._m_notifications.value,
            "db_commits": self.db.stats["commits"],
            "db_aborts": self.db.stats["aborts"],
            "wal_records": self.db.wal.last_lsn(),
            "lock_stats": dict(self.db.locks.stats),
            "delivery": dict(self.delivery.stats,
                             pending=self.delivery.pending),
        }

    # ------------------------------------------------------------------
    # Users and sessions
    # ------------------------------------------------------------------

    def register_user(self, name: str, *, display: str = "",
                      roles: tuple = ()) -> str:
        """Register a user (creating any missing roles)."""
        if not self.principals.has_user(name):
            self.principals.add_user(name, display)
        for role in roles:
            if not self.principals.has_role(role):
                self.principals.add_role(role)
            self.principals.assign_role(name, role)
        return name

    def connect(self, user: str, *, editor: str = "headless",
                os_name: str = "linux") -> EditingSession:
        """Connect a user; returns their editing session."""
        self.principals.require_user(user)
        session = EditingSession(self, next(self._session_counter), user,
                                 editor=editor, os_name=os_name)
        self._sessions[session.id] = session
        self._m_sessions.inc()
        return session

    def _forget(self, session: EditingSession) -> None:
        if self._sessions.pop(session.id, None) is not None:
            self._m_sessions.dec()

    def sessions(self) -> list[EditingSession]:
        """All currently connected sessions."""
        return list(self._sessions.values())

    def sessions_on(self, doc) -> list[EditingSession]:
        """Sessions that have ``doc`` open."""
        # Snapshot: connect()/disconnect() may run on another thread.
        return [s for s in list(self._sessions.values()) if s.has_open(doc)]

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------

    def apply_template(self, handle, template, user: str) -> dict:
        """Instantiate a template on a document.

        Creates the template's styles as document-local styles and its
        structure outline as the document's structure tree.  Returns
        ``{"styles": {name: oid}, "nodes": [oids]}``.
        """
        spec = self.styles.get_template(template)
        created_styles = self.styles.instantiate_template(
            template, handle.doc, user)
        nodes = self.structure.instantiate_outline(
            handle.doc, spec["structure"], user)
        return {"styles": created_styles, "nodes": nodes}

    # ------------------------------------------------------------------
    # Change propagation
    # ------------------------------------------------------------------

    def operation(self, origin: EditingSession) -> _Operation:
        """An operation of ``origin``, for a ``with`` block: see
        :class:`_Operation`."""
        return _Operation(self, origin)

    @contextlib.contextmanager
    def _operating(self, session: EditingSession, *,
                   verb: str = "") -> Iterator[None]:
        """An editor operation of ``session``: an :meth:`operation`,
        timed and traced.

        Opens the keystroke's *root* trace span (``collab.op``): the
        transaction started inside parents under it, and through the
        notification envelope so do dispatch, delivery and every remote
        session's apply — one causally linked trace per editor
        operation.

        Inside a :meth:`~repro.db.engine.Database.batch` the op's span
        parents under the batch *transaction* span instead of rooting a
        fresh trace: every coalesced keystroke then links to the batch's
        single commit and its group's fsync.
        """
        started = perf_counter()
        batch = self.db.current_batch()
        parent = batch.span.ctx if batch is not None else None
        with _Operation(self, session), \
                self._tracer.span("collab.op", parent_ctx=parent,
                                  session=session.id, user=session.user,
                                  verb=verb):
            try:
                yield
            finally:
                elapsed = perf_counter() - started
                self._m_op_seconds.observe(elapsed)
                if verb:
                    self._verb_seconds[verb].observe(elapsed)

    def _on_commit(self, batch: "CommitBatch") -> None:
        """Feed consumer: one notice per changed document, stamped with
        the document's next ``rep_seq``, held by the operation that made
        the commit or sent at once.  Runs under the feed's dispatch lock,
        which serialises the stamping across threads."""
        #: doc -> [tables touched, number of changes]
        by_doc: dict = {}
        for change in batch.events:
            row = change.row
            if row is None:
                continue
            doc = row.get("doc")
            if doc is None:
                continue
            entry = by_doc.get(doc)
            if entry is None:
                by_doc[doc] = [{change.table}, 1]
            else:
                entry[0].add(change.table)
                entry[1] += 1
        if not by_doc:
            return
        op = getattr(self._local, "op", None)
        origin = op.origin if op is not None else None
        origin_id = origin.id if origin else None
        origin_user = origin.user if origin else None
        started = op.started if op is not None else None
        now = self.db.now()
        notices = []
        for doc, (tables, count) in by_doc.items():
            rep_seq = self.rep_seqs[doc] = self.rep_seqs.get(doc, 0) + 1
            # One dispatch span per document; its (trace, span) context
            # rides on the notice so delivery and apply spans resume the
            # trace whenever and wherever the notice lands.  With no
            # trace sink the span is NULL_SPAN and ``ctx`` is None.
            with self._tracer.span("collab.dispatch", doc=str(doc),
                                   changes=count) as dispatch:
                ctx = dispatch.ctx
            notices.append(Notice(Notification(
                doc, rep_seq, origin_id, origin_user, tuple(sorted(tables)),
                count, now, next(self._notification_seq),
                ctx[0] if ctx else None, ctx[1] if ctx else None,
                started), batch.events, origin))
        if op is None:
            self._send(notices)
        else:
            op.notices.extend(notices)

    def _send(self, notices: list[Notice]) -> None:
        """Hand each notice to every session with its document open but
        the origin, through the delivery bus."""
        for notice in notices:
            notification = notice.notification
            readers = 0
            for session in self.sessions_on(notification.doc):
                if session is notice.origin:
                    continue
                readers += 1
                try:
                    self.delivery.send(session, notification.doc, notice)
                except Exception as exc:
                    # One broken reader must not cost the others their
                    # notice, nor the origin its reply.
                    self.db.changefeed().consumer_failed(
                        "collab-fanout", exc)
            if readers:
                self._m_notifications.inc(readers)
                self._doc_notifications[notification.doc].inc(readers)

    def move_cursor(self, session: EditingSession, doc, anchor,
                    selection: tuple = ()) -> CursorState | None:
        """A cursor move of ``session`` that no edit carries, from either
        origin (an in-process call or a wire AWARENESS frame).

        The move is placed in the awareness registry and its state, with
        the new presence ``seq``, handed through the delivery bus to
        every other session with ``doc`` open (an in-process reader
        reads the registry itself, and the bus hands it nothing).  A
        move to where the cursor
        already is changes nothing.  Returns the cursor's state
        (``None`` if ``session`` does not have ``doc`` open).
        """
        held = self.awareness.cursor_of(doc, session.id)
        if held is None or (held.anchor == anchor
                            and held.selection == selection):
            return held
        state = self.awareness.update_cursor(doc, session.id, anchor,
                                             selection, self.db.now())
        for reader in self.sessions_on(doc):
            if reader is not session:
                try:
                    self.delivery.send(reader, doc, state)
                except Exception as exc:
                    self.db.changefeed().consumer_failed(
                        "collab-fanout", exc)
        return state

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Disconnect all sessions and stop listening to commits."""
        self.delivery.drain()
        for session in list(self._sessions.values()):
            session.disconnect()
        self._subscription.close()
        self.db.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CollaborationServer(sessions={len(self._sessions)}, "
                f"docs={len(self.documents.list_documents())})")
