"""The client transport: a TeNDaX editor on the far side of a socket.

:class:`NetworkClient` opens one blocking TCP connection to a
:class:`~repro.net.server.CollabNetServer`, performs the HELLO/WELCOME
handshake, and exposes the connection as:

* :class:`RemoteSession` — the editing-verb surface of
  :class:`~repro.collab.session.EditingSession`, every verb an OP/ACK
  round trip, its stubs generated from the protocol's verb table
  (:data:`~repro.net.protocol.VERBS`);
* :class:`RemoteHandle` — the client's replica of an open document: a
  :class:`~repro.net.mirror.DocMirror`, so it reads through the same
  read model as a :class:`~repro.text.document.DocumentHandle`
  (:mod:`repro.text.replica`) and reads never touch the network;
* a server facade (awareness + clock) just wide enough that the
  unmodified :class:`~repro.collab.editor.EditorClient` rides on top.

Change propagation: the originator's own deltas arrive on the ACK
(``echo``) before the verb returns, so a keystroke is visible in the
local mirror synchronously — remote edits arrive as NOTIFY frames and
are applied during :meth:`NetworkClient.poll` (or opportunistically
while waiting for an ACK).  Sequence gaps — dropped or reordered frames
under a fault plan — are healed by anti-entropy ``resync`` snapshots.

Presence rides the same frames: a delta names the cursor its edit left
behind, the mirror places it with the rows, and the awareness facade
sends an AWARENESS frame of its own only when the editor's cursor is
not where the server already holds it (a plain cursor move).  A typed
character is three frames: OP, ACK, NOTIFY.

The client is synchronous and single-threaded by design: the tests and
the load harness drive many clients from many *processes* (the paper's
actual topology), not many threads in one.
"""

from __future__ import annotations

import itertools
import select
import socket
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic, time
from types import SimpleNamespace
from typing import Any, Sequence

from ..errors import NetError, UnknownDocumentError
from ..ids import Oid
from ..obs.tracing import NULL_TRACER, Tracer
from ..text.replica import ReplicaReads
from .mirror import DocMirror
from .protocol import (
    Ack,
    Awareness,
    Bye,
    Error,
    FrameDecoder,
    Health,
    HealthReply,
    Hello,
    Notify,
    Op,
    Ping,
    Pong,
    Stats,
    StatsReply,
    VERBS,
    Verb,
    Welcome,
    encode_frame,
    error_class,
    open_connection,
    wire_cursor,
)

__all__ = ["NetNotification", "NetworkClient", "RemoteHandle",
           "RemoteSession", "scrape"]


def scrape(host: str, port: int, *, kind: str = "stats",
           fmt: str = "json", series: bool = True,
           token: str | None = None, timeout: float = 5.0):
    """One-shot STATS/HEALTH scrape — no HELLO, no editor session.

    The monitoring path ``repro top HOST:PORT`` rides on: opens a TCP
    connection, sends a single :class:`Stats` (``kind="stats"``,
    honouring ``fmt``/``series``) or :class:`Health` request as the
    first frame, and returns the reply payload — the structured stats
    dict, the Prometheus text, or the health-verdict dict.
    """
    if kind == "stats":
        request = Stats(format=fmt, series=series, token=token)
    elif kind == "health":
        request = Health(token=token)
    else:
        raise ValueError(f"scrape kind must be stats|health, not {kind!r}")
    decoder = FrameDecoder()
    with open_connection(host, port, timeout) as sock:
        sock.sendall(encode_frame(request))
        while True:
            data = sock.recv(65536)
            if not data:
                raise NetError("scrape connection closed without a reply")
            for envelope in decoder.feed(data):
                if isinstance(envelope, StatsReply):
                    return envelope.payload
                if isinstance(envelope, HealthReply):
                    return {"status": envelope.status,
                            "checks": list(envelope.checks),
                            "at": envelope.at}
                if isinstance(envelope, Error):
                    raise error_class(envelope.code)(envelope.message)
                raise NetError(
                    f"unexpected {envelope.TYPE!r} scrape reply")

#: Buffered out-of-order deltas beyond which the client stops waiting
#: for the gap to fill and schedules an anti-entropy resync.
_RESYNC_PENDING_THRESHOLD = 2


@dataclass(frozen=True)
class NetNotification:
    """One applied remote change, as surfaced by :meth:`poll`.

    ``latency`` is receive time minus the server's send stamp —
    the wire half of the propagation the smoke/load tools measure.
    ``status`` is the mirror's verdict (``applied``/``buffered``/
    ``stale``/``gap``).
    """

    doc: Any
    rep_seq: int
    tables: tuple
    n_changes: int
    origin_session: int | None
    origin_user: str | None
    sent_at: float
    received_at: float
    status: str
    trace_id: int | None = None

    @property
    def latency(self) -> float:
        return self.received_at - self.sent_at


class NetworkClient:
    """One TCP connection, one remote editing session."""

    def __init__(self, host: str, port: int, user: str, *,
                 token: str | None = None, editor: str = "net",
                 os_name: str = "linux", register: bool = False,
                 timeout: float = 10.0, tracer: Tracer | None = None) -> None:
        self.host = host
        self.port = port
        self.user = user
        self.token = token
        self.editor = editor
        self.os_name = os_name
        self.register = register
        self.timeout = timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.session_id = 0
        self.node = ""
        #: doc oid -> the open document's replica (rows, order cache and
        #: everyone's cursors).
        self.mirrors: dict[Any, RemoteHandle] = {}
        #: Applied remote changes not yet collected by the caller.
        self.pending_notifications: list[NetNotification] = []
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self._inbound: deque = deque()
        self._op_seq = itertools.count(1)
        self._in_rpc = False
        #: doc -> whether the resync was caused by a patch without a base.
        self._resync_due: dict[Any, bool] = {}
        self._connect()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        self._sock = open_connection(self.host, self.port, self.timeout)
        self._decoder = FrameDecoder()
        self._inbound.clear()
        self._send(Hello(user=self.user, token=self.token,
                         editor=self.editor, os_name=self.os_name,
                         register=self.register))
        reply = self._recv_blocking()
        if isinstance(reply, Error):
            raise error_class(reply.code)(reply.message)
        if not isinstance(reply, Welcome):
            raise NetError(f"expected WELCOME, got {reply.TYPE!r}")
        self.session_id = reply.session_id
        self.node = reply.node

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def reconnect(self) -> None:
        """Re-establish a severed connection and resync every open doc.

        Character OIDs are stable across connections, so cursors and
        selections survive; the server-side session id changes.
        """
        self.close(send_bye=False)
        self._connect()
        self.reconnects += 1
        for doc, mirror in list(self.mirrors.items()):
            mirror.load(self.call("open", doc))

    def close(self, *, send_bye: bool = True) -> None:
        """Say goodbye (best effort) and drop the socket."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if send_bye:
            try:
                sock.sendall(encode_frame(Bye(reason="client close")))
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire I/O
    # ------------------------------------------------------------------

    def _send(self, envelope) -> None:
        if self._sock is None:
            raise NetError("client is closed")
        try:
            self._sock.sendall(encode_frame(envelope))
        except OSError as exc:
            self._sock = None
            raise NetError(f"send failed: {exc}") from None

    def _recv_blocking(self):
        """The next envelope, blocking up to the socket timeout."""
        while not self._inbound:
            if self._sock is None:
                raise NetError("connection lost")
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                raise NetError(
                    f"no reply within {self.timeout}s") from None
            except OSError as exc:
                self._sock = None
                raise NetError(f"recv failed: {exc}") from None
            if not data:
                self._sock = None
                raise NetError("server closed the connection")
            for envelope in self._decoder.feed(data):
                self._inbound.append(envelope)
        return self._inbound.popleft()

    def call(self, verb: str, *args, **kwargs) -> Any:
        """Run verb ``verb`` of :data:`~repro.net.protocol.VERBS` on the
        server with arguments bound like a Python call."""
        return self._rpc(verb, VERBS[verb].pack(args, kwargs))

    def _rpc(self, verb: str, args: dict) -> Any:
        """One OP/ACK round trip; async frames are applied in passing."""
        was_nested = self._in_rpc
        self._in_rpc = True
        try:
            with self.tracer.span("net.rpc", verb=verb,
                                  user=self.user) as span:
                ctx = span.ctx
                seq = next(self._op_seq)
                self._send(Op(op_seq=seq, verb=verb, args=args,
                              trace_id=ctx[0] if ctx else None,
                              parent_span=ctx[1] if ctx else None))
                while True:
                    envelope = self._recv_blocking()
                    if isinstance(envelope, Ack):
                        if envelope.op_seq != seq:
                            continue  # stale ack of an abandoned rpc
                        self._apply_echo(envelope.echo)
                        return envelope.result
                    if isinstance(envelope, Error):
                        if envelope.fatal:
                            self.close(send_bye=False)
                            raise error_class(envelope.code)(
                                envelope.message)
                        if envelope.op_seq == seq:
                            raise error_class(envelope.code)(
                                envelope.message)
                        continue
                    self._handle_async(envelope)
        finally:
            self._in_rpc = was_nested
            if not was_nested:
                self._run_due_resyncs()

    def _apply_echo(self, echo: tuple) -> None:
        """Apply the ACK's own-commit deltas to the local mirrors."""
        for delta in echo:
            mirror = self.mirrors.get(delta.doc)
            if mirror is None:
                continue
            status = mirror.apply(delta)
            if status in ("buffered", "gap"):
                # Our own commit outran a NOTIFY we never got: a frame
                # was dropped ahead of us.  Heal after this RPC returns.
                self._schedule_resync(delta.doc, status)

    def _handle_async(self, envelope) -> None:
        if isinstance(envelope, Notify):
            self._apply_notify(envelope)
        elif isinstance(envelope, Awareness):
            mirror = self.mirrors.get(envelope.doc)
            if mirror is not None:
                mirror.place_cursor(wire_cursor(
                    envelope.session_id, envelope.user, envelope.anchor,
                    envelope.selection, envelope.seq))
        elif isinstance(envelope, (Pong, Ping)):
            pass
        else:
            raise NetError(
                f"unexpected {envelope.TYPE!r} envelope from server")

    def _apply_notify(self, notify: Notify) -> None:
        delta = notify.delta
        mirror = self.mirrors.get(delta.doc)
        if mirror is None:
            return
        # Resume the originating keystroke's trace: this span shares its
        # trace_id with the remote editor's net.rpc and the server's
        # net.op/net.fanout spans — one causal chain across three
        # processes.
        with self.tracer.span("net.apply", parent_ctx=notify.trace_ctx,
                              doc=str(delta.doc), rep_seq=delta.rep_seq,
                              user=self.user):
            status = mirror.apply(delta)
        if status == "gap" or (
                status == "buffered"
                and len(mirror.pending) > _RESYNC_PENDING_THRESHOLD):
            self._schedule_resync(delta.doc, status)
        self.pending_notifications.append(NetNotification(
            doc=delta.doc,
            rep_seq=delta.rep_seq,
            tables=tuple(notify.tables),
            n_changes=notify.n_changes,
            origin_session=notify.origin_session,
            origin_user=notify.origin_user,
            sent_at=notify.sent_at,
            received_at=time(),
            status=status,
            trace_id=notify.trace_id,
        ))

    def _schedule_resync(self, doc, status: str) -> None:
        self._resync_due[doc] = \
            self._resync_due.get(doc, False) or status == "gap"

    def _run_due_resyncs(self) -> None:
        while self._resync_due:
            doc, missing_base = self._resync_due.popitem()
            if doc in self.mirrors:
                self._resync(doc, missing_base)

    def _resync(self, doc, missing_base: bool = False) -> None:
        """One anti-entropy round trip: fetch a snapshot and load it if
        it is news.  ``missing_base`` tells the server the cause was a
        patch without a base (it counts those)."""
        mirror = self.mirrors[doc]
        snapshot = self.call("resync", doc, missing_base)
        if snapshot["rep_seq"] > mirror.last_seq or mirror.gap:
            mirror.load(snapshot)
        else:
            # No news in the rows; a cursor move whose AWARENESS frame
            # was lost is news all the same.
            for cursor in snapshot["cursors"]:
                mirror.place_cursor(cursor)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> list[NetNotification]:
        """Drain arrived frames; returns the remote changes applied.

        ``timeout`` > 0 waits up to that long for the *first* frame,
        then keeps draining whatever is immediately available.
        """
        deadline = monotonic() + timeout
        while self._sock is not None:
            wait = max(0.0, deadline - monotonic())
            ready, _, _ = select.select([self._sock], [], [], wait)
            if not ready:
                break
            try:
                data = self._sock.recv(65536)
            except OSError:
                self._sock = None
                break
            if not data:
                self._sock = None
                break
            for envelope in self._decoder.feed(data):
                self._inbound.append(envelope)
            # Got something; subsequent rounds only sweep what's queued.
            deadline = monotonic()
        while self._inbound:
            self._handle_async(self._inbound.popleft())
        self._run_due_resyncs()
        out, self.pending_notifications = self.pending_notifications, []
        return out

    def sync(self, doc) -> None:
        """Force an anti-entropy round trip for one document."""
        self.poll()
        self._resync(doc)

    def ping(self) -> float:
        """Round-trip the control lane; returns elapsed seconds."""
        started = monotonic()
        nonce = next(self._op_seq)
        self._send(Ping(nonce=nonce, at=time()))
        while True:
            envelope = self._recv_blocking()
            if isinstance(envelope, Pong) and envelope.nonce == nonce:
                return monotonic() - started
            self._handle_async(envelope)

    def publish_cursor(self, doc, anchor, selection: tuple = ()) -> None:
        """Fire-and-forget cursor/selection presence."""
        self._send(Awareness(doc=doc, anchor=anchor,
                             selection=tuple(selection)))
        mirror = self.mirrors.get(doc)
        if mirror is not None:
            # What the server now holds for this connection.  Its
            # presence seq is the server's to give; keeping the held one
            # lets it in, and the next echo brings the real one.
            own = mirror.cursors.get(self.session_id)
            mirror.place_cursor(wire_cursor(
                self.session_id, self.user, anchor, selection,
                own["seq"] if own else 0))

    def server_stats(self) -> dict:
        return self.call("stats")

    def server_health(self) -> dict:
        """The server's windowed health verdict (authenticated lane)."""
        return self.call("health")

    def session(self) -> "RemoteSession":
        """The session facade an :class:`EditorClient` binds to."""
        return RemoteSession(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"NetworkClient(user={self.user!r}, "
                f"session={self.session_id}, docs={len(self.mirrors)})")


class RemoteHandle(DocMirror):
    """The client's replica of one open document: a
    :class:`~repro.net.mirror.DocMirror` fed by this connection's ACK
    echoes and NOTIFYs, plus :meth:`refresh` over the connection."""

    def __init__(self, client: NetworkClient, snapshot: dict) -> None:
        super().__init__(snapshot["doc"], snapshot["begin"], snapshot["end"],
                         rep_seq=snapshot["rep_seq"])
        # The client owns its replicas (``mirrors``); a strong reference
        # back would make every closed client a cycle that holds its
        # documents' rows until the next full collection.
        self._client = weakref.ref(client)
        self._adopt(snapshot)

    # The lookups ``bench/trace.py`` times per class: it wraps what it
    # finds in this class's own ``__dict__``, so they are bound here.
    length = ReplicaReads.length
    char_oid_at = ReplicaReads.char_oid_at
    anchor_for = ReplicaReads.anchor_for
    position_of = ReplicaReads.position_of
    char_oids_range = ReplicaReads.char_oids_range
    visible_position_after = ReplicaReads.visible_position_after

    def refresh(self) -> None:
        """Fetch a fresh snapshot if the server has news (a resync)."""
        self._client().sync(self.doc)


class _RemoteAwareness:
    """Awareness facade: resolves the mirrors' cursors locally."""

    def __init__(self, client: NetworkClient) -> None:
        self._client = client

    def cursor_positions(self, handle) -> dict[str, int]:
        """user -> resolved position, from the mirror's cursors; this
        connection's own wins over another session of the same user."""
        cursors = handle.cursors
        positions = {
            cursor["user"]: handle.visible_position_after(cursor["anchor"])
            for cursor in cursors.values()}
        own = cursors.get(self._client.session_id)
        if own is not None:
            positions[own["user"]] = handle.visible_position_after(
                own["anchor"])
        return positions

    def participants(self, doc) -> list[str]:
        mirror = self._client.mirrors.get(doc)
        users = {self._client.user}
        if mirror is not None:
            users.update(c["user"] for c in mirror.cursors.values())
        return sorted(users)


class RemoteSession:
    """Editing-verb facade matching :class:`EditingSession`.

    Every session verb of :data:`~repro.net.protocol.VERBS` the class
    does not define itself is a generated OP/ACK stub (below the class);
    the ones defined here also keep the client's replicas.
    """

    def __init__(self, client: NetworkClient) -> None:
        self.client = client
        #: Just enough server surface for :class:`EditorClient`: cursor
        #: awareness.
        self.server = SimpleNamespace(awareness=_RemoteAwareness(client))

    @property
    def id(self) -> int:
        return self.client.session_id

    @property
    def user(self) -> str:
        return self.client.user

    @property
    def editor(self) -> str:
        return self.client.editor

    @property
    def os_name(self) -> str:
        return self.client.os_name

    @property
    def connected(self) -> bool:
        return self.client.connected

    # -- document lifecycle --------------------------------------------------

    def create_document(self, name: str, *, text: str = "",
                        props: dict | None = None) -> RemoteHandle:
        return self._adopt(self.client.call(
            "create_document", name, text=text, props=props))

    def open(self, doc) -> RemoteHandle:
        handle = self.client.mirrors.get(doc)
        if handle is None:
            handle = self._adopt(self.client.call("open", doc))
        return handle

    def find_document(self, name: str) -> list[Oid]:
        """Oids of the server's documents named exactly ``name``."""
        return list(self.client.call("resolve_document", name)["docs"])

    def open_named(self, name: str) -> RemoteHandle:
        """Open a document by name — the out-of-process rendezvous.

        Separate client processes share no Oids; they agree on a
        document *name* out of band and meet on the first match.
        """
        docs = self.find_document(name)
        if not docs:
            raise UnknownDocumentError(f"no document named {name!r}")
        return self.open(docs[0])

    def _adopt(self, snapshot: dict) -> RemoteHandle:
        handle = RemoteHandle(self.client, snapshot)
        self.client.mirrors[handle.doc] = handle
        return handle

    def close(self, doc) -> None:
        self.client.mirrors.pop(doc, None)
        self.client.call("close", doc)

    def handle(self, doc) -> RemoteHandle:
        return self.client.mirrors[doc]

    def open_documents(self) -> list:
        return list(self.client.mirrors)

    def disconnect(self) -> None:
        self.client.close()

    def set_cursor(self, doc, pos: int, selection: Sequence[Oid] = ()) -> None:
        """Publish the cursor as presence (see :meth:`move_cursor`)."""
        self.move_cursor(doc, self.handle(doc).anchor_for(pos), selection)

    def move_cursor(self, doc, anchor, selection: Sequence[Oid] = ()) -> None:
        """Publish the cursor as one AWARENESS frame, unless the server
        already holds it there — it placed the cursor itself when it ran
        the edit and said so on the ACK, so typing sends nothing.  If
        the two sides disagree (or the mirror is gone) the frame is
        sent."""
        client = self.client
        mirror = client.mirrors.get(doc)
        held = None if mirror is None else \
            mirror.cursors.get(client.session_id)
        if held is None or held["anchor"] != anchor \
                or held["selection"] != list(selection):
            client.publish_cursor(doc, anchor, selection)

    @contextmanager
    def batch(self):
        """Server-side batch: every verb inside is one transaction."""
        self.client.call("batch_begin")
        try:
            yield
        except BaseException:
            self.client.call("batch_abort")
            raise
        else:
            self.client.call("batch_end")

    def notifications(self) -> list[NetNotification]:
        """Poll the wire and drain applied remote changes."""
        return self.client.poll()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RemoteSession(id={self.id}, user={self.user!r}, "
                f"docs={len(self.client.mirrors)})")


def _stub(verb: Verb):
    """``RemoteSession.<verb>``: one OP/ACK round trip."""
    name = verb.name

    def stub(self, *args, **kwargs):
        return self.client.call(name, *args, **kwargs)

    stub.__name__ = name
    stub.__qualname__ = f"RemoteSession.{name}"
    stub.__doc__ = (f"``{name}({', '.join(a.name for a in verb.args)})`` "
                    f"on the server: one OP/ACK round trip.")
    return stub


# Set on the class itself, not left to ``__getattr__``: ``bench/trace.py``
# times the editing verbs by wrapping what it finds in ``__dict__``.
for _verb in VERBS.values():
    if _verb.owner == "session" and _verb.name not in vars(RemoteSession):
        setattr(RemoteSession, _verb.name, _stub(_verb))
