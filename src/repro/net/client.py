"""The client transport: a TeNDaX editor on the far side of a socket.

:class:`NetworkClient` opens one blocking TCP connection to a
:class:`~repro.net.server.CollabNetServer`, performs the HELLO/WELCOME
handshake, and exposes the connection as:

* :class:`RemoteSession` — the editing-verb surface of
  :class:`~repro.collab.session.EditingSession`, every verb an OP/ACK
  round trip;
* :class:`RemoteHandle` — the read surface of
  :class:`~repro.text.document.DocumentHandle`, answered entirely from
  the local :class:`~repro.net.mirror.DocMirror` replica (reads never
  touch the network);
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
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic, time
from typing import Any, Sequence

from ..errors import InvalidPositionError, NetError, UnknownDocumentError
from ..ids import Oid
from ..obs.tracing import NULL_TRACER, Tracer
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

    The monitoring path ``repro stats --remote`` and ``repro dash`` ride
    on: opens a TCP connection, sends a single :class:`Stats` (``kind=
    "stats"``, honouring ``fmt``/``series``) or :class:`Health` request
    as the first frame, and returns the reply payload — the structured
    stats dict, the Prometheus text, or the health-verdict dict.
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
        #: doc oid -> local replica (rows, index and everyone's cursors).
        self.mirrors: dict[Any, DocMirror] = {}
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
        for doc in list(self.mirrors):
            snapshot = self._rpc("open", {"doc": doc})
            self.mirrors[doc].load(snapshot)

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
                    envelope.selection))
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
        snapshot = self._rpc("resync", {"doc": doc,
                                        "missing_base": missing_base})
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
            # What the server now holds for this connection.
            mirror.place_cursor(wire_cursor(
                self.session_id, self.user, anchor, selection))

    def server_stats(self) -> dict:
        return self._rpc("stats", {})

    def server_health(self) -> dict:
        """The server's windowed health verdict (authenticated lane)."""
        return self._rpc("health", {})

    def session(self) -> "RemoteSession":
        """The session facade an :class:`EditorClient` binds to."""
        return RemoteSession(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"NetworkClient(user={self.user!r}, "
                f"session={self.session_id}, docs={len(self.mirrors)})")


class RemoteHandle:
    """Mirror-backed stand-in for a :class:`DocumentHandle`."""

    def __init__(self, client: NetworkClient, mirror: DocMirror) -> None:
        self._client = client
        self.mirror = mirror
        self.doc = mirror.doc

    @property
    def begin_char(self) -> Oid:
        return self.mirror.begin

    @property
    def end_char(self) -> Oid:
        return self.mirror.end

    def text(self) -> str:
        return self.mirror.text()

    def length(self) -> int:
        return self.mirror.length()

    def char_oids(self) -> list[Oid]:
        return self.mirror.char_oids()

    def char_oids_range(self, pos: int, count: int) -> list[Oid]:
        if pos < 0 or count < 0:
            raise InvalidPositionError(
                f"range [{pos}, {pos + count}) has a negative bound")
        return self.mirror.oid_slice(pos, pos + count)

    def char_oid_at(self, pos: int) -> Oid:
        try:
            return self.mirror.oid_at(pos)
        except IndexError:
            raise InvalidPositionError(
                f"position {pos} outside document of "
                f"length {self.mirror.length()}") from None

    def contains(self, oid: Oid) -> bool:
        return self.mirror.contains(oid)

    def position_of(self, oid: Oid) -> int | None:
        return self.mirror.position_of(oid)

    def visible_position_after(self, anchor: Oid) -> int:
        return self.mirror.visible_position_after(anchor)

    def text_of(self, oids: Sequence[Oid]) -> str:
        return self.mirror.text_of(oids)

    def anchor_for(self, pos: int) -> Oid:
        if pos < 0 or pos > self.mirror.length():
            raise InvalidPositionError(
                f"position {pos} outside document of "
                f"length {self.mirror.length()}")
        return self.mirror.begin if pos == 0 else self.mirror.oid_at(pos - 1)

    def styled_runs(self) -> list[tuple[str, Oid | None]]:
        return self.mirror.styled_runs()

    def authors(self) -> dict[str, int]:
        return self.mirror.authors()

    def check_integrity(self) -> list[str]:
        return self.mirror.check_integrity()

    def refresh(self) -> None:
        self._client.sync(self.doc)

    def close(self) -> None:
        pass  # lifecycle owned by RemoteSession.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteHandle({self.mirror!r})"


class _RemoteAwareness:
    """Awareness facade: publishes over the wire, resolves locally."""

    def __init__(self, client: NetworkClient) -> None:
        self._client = client

    def update_cursor(self, doc, session_id: int, anchor,
                      selection: tuple, now: float) -> None:
        """Publish the editor's cursor unless the server already holds
        it there — it placed the cursor itself when it ran the edit and
        said so on the ACK, so typing sends nothing.  If the two sides
        disagree (or the mirror is gone) the frame is sent."""
        client = self._client
        mirror = client.mirrors.get(doc)
        held = None if mirror is None else \
            mirror.cursors.get(client.session_id)
        if held is None or held["anchor"] != anchor \
                or held["selection"] != list(selection):
            client.publish_cursor(doc, anchor, selection)

    def cursor_positions(self, handle) -> dict[str, int]:
        """user -> resolved position, from the mirror's cursors; this
        connection's own wins over another session of the same user."""
        cursors = handle.mirror.cursors
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


class _RemoteClock:
    def __init__(self) -> None:
        pass

    def now(self) -> float:
        return time()


class _RemoteServer:
    """Just enough server surface for :class:`EditorClient`."""

    def __init__(self, client: NetworkClient) -> None:
        self.awareness = _RemoteAwareness(client)
        self.db = _RemoteClock()


class RemoteSession:
    """Editing-verb facade matching :class:`EditingSession`."""

    def __init__(self, client: NetworkClient) -> None:
        self.client = client
        self.server = _RemoteServer(client)
        self._handles: dict[Any, RemoteHandle] = {}

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
        snapshot = self.client._rpc("create_document", {
            "name": name, "text": text, "props": props})
        return self._adopt(snapshot)

    def open(self, doc) -> RemoteHandle:
        if doc in self._handles:
            return self._handles[doc]
        snapshot = self.client._rpc("open", {"doc": doc})
        return self._adopt(snapshot)

    def find_document(self, name: str) -> list[Oid]:
        """Oids of the server's documents named exactly ``name``."""
        result = self.client._rpc("resolve_document", {"name": name})
        return list(result["docs"])

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
        mirror = DocMirror.from_snapshot(snapshot)
        self.client.mirrors[mirror.doc] = mirror
        handle = RemoteHandle(self.client, mirror)
        self._handles[mirror.doc] = handle
        return handle

    def close(self, doc) -> None:
        self._handles.pop(doc, None)
        self.client.mirrors.pop(doc, None)
        self.client._rpc("close", {"doc": doc})

    def handle(self, doc) -> RemoteHandle:
        return self._handles[doc]

    def open_documents(self) -> list:
        return list(self._handles)

    def disconnect(self) -> None:
        self.client.close()

    # -- editing verbs -------------------------------------------------------

    def insert(self, doc, pos: int, text: str, *, style=None) -> list[Oid]:
        return self.client._rpc("insert", {
            "doc": doc, "pos": pos, "text": text, "style": style})

    def insert_after(self, doc, anchor, text: str, *,
                     style=None) -> list[Oid]:
        return self.client._rpc("insert_after", {
            "doc": doc, "anchor": anchor, "text": text, "style": style})

    def delete(self, doc, pos: int, count: int) -> list[Oid]:
        return self.client._rpc("delete", {
            "doc": doc, "pos": pos, "count": count})

    def delete_chars(self, doc, oids: Sequence[Oid]) -> None:
        return self.client._rpc("delete_chars", {
            "doc": doc, "oids": list(oids)})

    def apply_style(self, doc, pos: int, count: int, style) -> None:
        return self.client._rpc("apply_style", {
            "doc": doc, "pos": pos, "count": count, "style": style})

    def style_chars(self, doc, oids: Sequence[Oid], style) -> None:
        return self.client._rpc("style_chars", {
            "doc": doc, "oids": list(oids), "style": style})

    def set_cursor(self, doc, pos: int, selection: Sequence[Oid] = ()) -> None:
        handle = self.handle(doc)
        anchor = handle.anchor_for(pos)
        self.server.awareness.update_cursor(
            doc, self.id, anchor, tuple(selection), time())

    # -- clipboard -----------------------------------------------------------

    def copy(self, doc, pos: int, count: int) -> str:
        return self.client._rpc("copy", {
            "doc": doc, "pos": pos, "count": count})

    def copy_external(self, text: str, source: str) -> None:
        return self.client._rpc("copy_external", {
            "text": text, "source": source})

    def paste(self, doc, pos: int) -> list[Oid]:
        return self.client._rpc("paste", {"doc": doc, "pos": pos})

    # -- notes ---------------------------------------------------------------

    def add_note(self, doc, pos: int, body: str):
        return self.client._rpc("add_note", {
            "doc": doc, "pos": pos, "body": body})

    def resolve_note(self, doc, note) -> None:
        return self.client._rpc("resolve_note", {"doc": doc, "note": note})

    # -- undo / redo ---------------------------------------------------------

    def undo(self, doc) -> dict:
        return self.client._rpc("undo", {"doc": doc})

    def redo(self, doc) -> dict:
        return self.client._rpc("redo", {"doc": doc})

    def undo_global(self, doc) -> dict:
        return self.client._rpc("undo_global", {"doc": doc})

    def redo_global(self, doc) -> dict:
        return self.client._rpc("redo_global", {"doc": doc})

    # -- batching ------------------------------------------------------------

    @contextmanager
    def batch(self):
        """Server-side batch: every verb inside is one transaction."""
        self.client._rpc("batch_begin", {})
        try:
            yield
        except BaseException:
            self.client._rpc("batch_abort", {})
            raise
        else:
            self.client._rpc("batch_end", {})

    # -- notifications -------------------------------------------------------

    def notifications(self) -> list[NetNotification]:
        """Poll the wire and drain applied remote changes."""
        return self.client.poll()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RemoteSession(id={self.id}, user={self.user!r}, "
                f"docs={len(self._handles)})")
