"""The collaboration server: sessions, real-time propagation, awareness.

:class:`CollaborationServer` is the top-level object of the reproduction —
the piece the LAN-party demo runs against.  It owns the database, the
document store, security, layout/structure/object/note/version managers,
the undo manager and the awareness registry, and it fans committed changes
out to every connected session with the affected document open.

The paper's editors run on different machines; here sessions live in one
process and "network delivery" is the per-session inbox (instantaneous by
default; benchmarks can interleave arbitrarily).  The database commit is
the serialisation point either way.
"""

from __future__ import annotations

import contextlib
import itertools
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

from ..clock import Clock
from ..db import Database
from ..db.recovery import restart
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
from .awareness import AwarenessRegistry
from .bus import DeliveryBus
from .session import EditingSession, Notification
from .undo import UndoManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..feed.changefeed import CommitBatch

#: Tables whose commits are announced to editors: as change notifications
#: to sessions here, as NOTIFY metadata on the wire (where only CHARS
#: rows travel).
WATCHED_TABLES = frozenset(
    (S.CHARS, S.OBJECTS, S.NOTES, S.STRUCTURE, S.DOCUMENTS))


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
        self._f_op_seconds = registry.family("collab.op_seconds",
                                             "histogram")
        self._f_notifications = registry.family("collab.notifications",
                                                "counter")
        #: The "network" between commits and session inboxes.
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
        self._operating_session: EditingSession | None = None
        #: ``perf_counter`` at the start of the in-flight operation —
        #: the keystroke zero point stamped onto notification envelopes.
        self._operating_started: float | None = None
        # A notice consumer of the changefeed (dispatched after every
        # state-keeping one: see ``NOTICE_CONSUMERS``), so a session is
        # never told of a change its handle cannot read yet.
        self._subscription = self.db.changefeed().subscribe(
            "collab-fanout", self._on_commit, tables=WATCHED_TABLES)

    @property
    def stats(self) -> dict:
        """Operation/notification counts, read from the obs registry.

        Historically a plain dict mutated with ``+=`` — which silently
        lost updates when sessions operated from multiple threads.  The
        counters now live in the (thread-safe) metrics registry; this
        property keeps the old read shape.
        """
        return {
            "notifications": self._m_notifications.value,
            "operations": self._m_op_seconds.count,
        }

    def statistics(self) -> dict:
        """A live snapshot of the whole server's state (monitoring)."""
        return {
            "sessions": len(self._sessions),
            "documents": self.db.table(S.DOCUMENTS).row_count()
            if self.db.has_table(S.DOCUMENTS) else 0,
            "characters": self.db.table(S.CHARS).row_count()
            if self.db.has_table(S.CHARS) else 0,
            "operations": self.stats["operations"],
            "notifications": self.stats["notifications"],
            "db_commits": self.db.stats["commits"],
            "db_aborts": self.db.stats["aborts"],
            "wal_records": len(self.db.wal),
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

    @contextlib.contextmanager
    def _operating(self, session: EditingSession, *,
                   verb: str = "") -> Iterator[None]:
        """Mark ``session`` as the origin of commits made inside.

        Opens the keystroke's *root* trace span (``collab.op``): the
        transaction started inside parents under it, and through the
        notification envelope so do dispatch, delivery and every remote
        session's apply — one causally linked trace per editor
        operation.  ``_operating_started`` is the replication-latency
        zero point the envelope carries.

        Inside a :meth:`~repro.db.engine.Database.batch` the op's span
        parents under the batch *transaction* span instead of rooting a
        fresh trace: every coalesced keystroke then links to the batch's
        single commit and its group's fsync.
        """
        previous = self._operating_session
        previous_started = self._operating_started
        self._operating_session = session
        self._operating_started = started = perf_counter()
        batch = self.db.current_batch()
        parent = batch.span.ctx if batch is not None else None
        with self._tracer.span("collab.op", parent_ctx=parent,
                               session=session.id,
                               user=session.user, verb=verb):
            try:
                yield
            finally:
                elapsed = perf_counter() - started
                self._m_op_seconds.observe(elapsed)
                if verb:
                    self._f_op_seconds.labels(verb=verb).observe(elapsed)
                self._operating_session = previous
                self._operating_started = previous_started

    def _on_commit(self, batch: "CommitBatch") -> None:
        """Feed consumer: one notification per changed document to every
        other session that has it open.  Runs under the feed's dispatch
        lock, so it only appends to inboxes (or the delivery backlog)."""
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
        origin = self._operating_session
        origin_id = origin.id if origin else None
        origin_user = origin.user if origin else None
        origin_started = self._operating_started if origin else None
        now = self.db.now()
        failed = None
        for doc, (tables, count) in by_doc.items():
            readers = [session for session in self.sessions_on(doc)
                       if session.id != origin_id]
            # One dispatch span per notified document; its (trace, span)
            # context rides on the envelope so delivery/apply spans can
            # resume the trace after a hold or reorder.  With no trace
            # sink the scoped span is NULL_SPAN and ``ctx`` is None.
            with self._tracer.span("collab.dispatch", doc=str(doc),
                                   changes=count) as dispatch:
                ctx = dispatch.ctx
                notification = Notification(
                    doc, origin_id, origin_user, tuple(sorted(tables)),
                    count, now, next(self._notification_seq),
                    ctx[0] if ctx else None, ctx[1] if ctx else None,
                    origin_started)
                for session in readers:
                    try:
                        self.delivery.send(session, notification)
                    except Exception as exc:
                        # One broken inbox must not cost the others
                        # their notice; the feed records the failure.
                        failed = exc
                if readers:
                    self._m_notifications.inc(len(readers))
                    self._f_notifications.labels(doc=doc).inc(len(readers))
        if failed is not None:
            raise failed

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
