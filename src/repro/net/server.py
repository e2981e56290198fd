"""The asyncio TCP server fronting a :class:`CollaborationServer`.

:class:`CollabNetServer` is the piece that makes the reproduction's LAN
party real: editor clients on other machines (or just other processes)
connect over TCP, speak the envelope protocol of :mod:`repro.net.protocol`,
and drive the *same* :class:`~repro.collab.server.CollaborationServer`
verbs the in-process sessions use.  Design points:

* **One event loop, one op at a time.**  Editing verbs run synchronously
  in the loop under an :class:`asyncio.Lock` — the database commit stays
  the single serialisation point, exactly as in the paper.  A client
  batch (``batch_begin`` … ``batch_end``) holds the lock for its whole
  extent because :meth:`~repro.db.engine.Database.batch` is thread-local
  and every connection shares the loop thread; a client that dies
  mid-batch has its batch rolled back and the lock released by the
  connection reaper (no partial transactions, tested in
  ``tests/test_collab_server.py``).
* **One verb table.**  An OP is checked against, and dispatched from,
  :data:`~repro.net.protocol.VERBS`; one the table refuses costs a
  non-fatal ERROR for its ``op_seq`` before the op lock is touched.
* **Bounded send queues.**  Every connection owns an
  :class:`asyncio.Queue` drained by a sender task; a full queue means a
  consumer slower than the fan-out, and the server sheds it by aborting
  the connection (``net.backpressure_closes``).
* **A connection is a session's transport.**  There is one fan-out, the
  collab server's: it hands each commit's notice, stamped with the
  document's ``rep_seq``, and each cursor move no edit carries, with
  its presence ``seq``, to every reader's transport, and a wire
  session's is :meth:`CollabNetServer._hand_off` — one NOTIFY or one
  AWARENESS on its connection.  Remote mirrors apply deltas in order,
  buffer reordered ones, and heal gaps with a ``resync`` snapshot RPC.
  The originator's own deltas ride its ACK (``echo``), never as a
  NOTIFY.
* **One delta, rendered once.**  A commit's rows travel as the columns
  it changed, with the cursor it left its author
  (:class:`~repro.net.protocol.Delta`); the one object is the ACK's echo
  and every reader's NOTIFY, so its JSON is produced once.  Every OP
  runs as one collab operation, whose notices leave when the verb has
  returned — the session has placed the cursor by then — which makes a
  typed character three frames: OP, ACK, NOTIFY.
* **One fault model.**  NOTIFY and AWARENESS frames pass the collab
  :class:`~repro.collab.bus.DeliveryBus` on their way to a connection,
  so the server's one :class:`~repro.faults.plan.DeliveryFault` drops,
  holds and reorders them as it does inbox deliveries.  The sender is a
  plain writer.
* **Cross-process traces.**  OP envelopes carry the client's span
  context; the server's ``net.op`` span resumes that trace, and the
  ``net.fanout`` context rides outbound NOTIFYs so the remote apply
  joins the same ``trace_id``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from collections import deque
from functools import partial
from time import perf_counter, time
from typing import TYPE_CHECKING, Any

from ..collab.awareness import CursorState
from ..errors import NetError, ProtocolError, TendaxError
from ..obs.labels import SeriesCache
from ..repl.tailer import WalTailer
from ..text import chars as C
from ..text import dbschema as S
from .monitor import ScrapeLane
from .protocol import (
    PROTOCOL_VERSION,
    Ack,
    Awareness,
    Bye,
    Delta,
    Envelope,
    Error,
    FrameDecoder,
    Health,
    Hello,
    Notify,
    Op,
    Ping,
    Pong,
    ReplAck,
    Snapshot,
    Stats,
    Subscribe,
    VERBS,
    Verb,
    WalSegment,
    Welcome,
    encode_frame,
    wire_cursor,
    wire_row,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collab.server import CollaborationServer, Notice
    from ..collab.session import EditingSession

__all__ = ["CollabNetServer"]

#: Queue sentinel that tells a sender task to exit.  A queue holds
#: ``(envelope, started)`` pairs: ``started`` is a NOTIFY's replication
#: zero point (see ``collab.replication_seconds``).
_CLOSE = object()


class _Connection:
    """Server-side state of one authenticated TCP connection."""

    def __init__(self, conn_id: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, queue_size: int) -> None:
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.inbound: deque[Envelope] = deque()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.session: "EditingSession | None" = None
        #: Open ``db.batch()`` context manager while a client batch runs
        #: (the connection holds the server op lock for its extent).
        self.batch = None
        self.sender_task: asyncio.Task | None = None
        #: No more traffic in either direction (shed, or being reaped).
        self.closing = False
        #: ``_close_connection`` has run (it must run once per
        #: connection, and a shed only *requests* it).
        self.reaped = False


class CollabNetServer:
    """TCP front end for one :class:`CollaborationServer`."""

    def __init__(self, collab: "CollaborationServer", *,
                 host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None, send_queue: int = 256,
                 handshake_timeout: float = 10.0,
                 telemetry_interval: float = 1.0) -> None:
        self.collab = collab
        self.host = host
        self.port = port
        self.token = token
        self.send_queue = send_queue
        self.handshake_timeout = handshake_timeout
        registry = collab.db.obs.registry
        self._tracer = collab.db.obs.tracer
        self.scrape = ScrapeLane(
            collab.db, token=token, interval=telemetry_interval,
            extras=self._payload_extras,
            context={"send_queue_limit": send_queue})
        self.telemetry = self.scrape.telemetry
        self.health_payload = self.scrape.health_payload
        self._m_connections = registry.gauge("net.connections")
        self._m_connects = registry.counter("net.connects")
        self._m_frames_in = registry.counter("net.frames_in")
        self._m_frames_out = registry.counter("net.frames_out")
        self._m_bytes_in = registry.counter("net.bytes_in")
        self._m_bytes_out = registry.counter("net.bytes_out")
        self._m_ops = registry.counter("net.ops")
        self._m_op_seconds = registry.histogram("net.op_seconds")
        self._m_notifies = registry.counter("net.notifies")
        self._m_protocol_errors = registry.counter("net.protocol_errors")
        self._m_backpressure = registry.counter("net.backpressure_closes")
        self._m_resyncs = registry.counter("net.resyncs")
        self._m_missing_base = registry.counter("net.missing_base_rows")
        self._m_segments = registry.counter("repl.segments_shipped")
        self._m_replication = registry.histogram(
            "collab.replication_seconds")
        # Dimensioned families: a series is resolved on first use and
        # kept, not looked up per frame.
        self._verb_seconds = SeriesCache(
            registry.family("net.op_seconds", "histogram"), "verb")
        self._doc_notifies = SeriesCache(
            registry.family("net.notifies", "counter"), "doc")
        self._conn_depths = SeriesCache(
            registry.family("net.send_queue_depth", "gauge"), "conn")
        self._connections: dict[int, _Connection] = {}
        self._conn_ids = itertools.count(1)
        self._op_lock: asyncio.Lock | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None
        self._handler_tasks: set[asyncio.Task] = set()
        self._repl_conns: set[_Connection] = set()
        self._caught_up_at = perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "CollabNetServer":
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._op_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.scrape.start()
        return self

    async def stop(self) -> None:
        """Close every connection and stop listening."""
        await self.scrape.stop()
        for conn in list(self._connections.values()):
            await self._close_connection(conn, reason="server shutdown")
        for conn in list(self._repl_conns):
            await self._close_connection(conn, reason="server shutdown")
        handlers = [t for t in self._handler_tasks if not t.done()]
        if handlers:
            await asyncio.wait(handlers, timeout=2.0)
            stragglers = [t for t in handlers if not t.done()]
            for task in stragglers:
                task.cancel()
            if stragglers:
                # Let the cancelled handlers run their ``finally`` so
                # their sockets actually close before the loop dies.
                await asyncio.wait(stragglers, timeout=2.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    def _payload_extras(self) -> dict:
        """What a leader's STATS payload adds to the scrape lane's:
        collab, WAL and collector stats (wire-level counts are the
        ``net.*`` entries of its ``metrics``)."""
        db = self.collab.db
        extras = {"server": self.collab.statistics(),
                  "wal": {"durable_lsn": db.wal.durable_lsn,
                          "last_lsn": db.wal.last_lsn()}}
        if db.obs.gc is not None:
            extras["gc"] = db.obs.gc.summary()
        return extras

    # ------------------------------------------------------------------
    # Replication shipping (SUBSCRIBE / WAL_SEGMENT / REPL_ACK)
    # ------------------------------------------------------------------

    async def _collect_segment(self, tailer: WalTailer,
                               from_lsn: int) -> WalSegment:
        """One WAL_SEGMENT of the durable prefix starting at ``from_lsn``:
        the lines as the leader's file holds them, read off the event
        loop (a fresh subscription scans the file once)."""
        records, lines, durable = await asyncio.to_thread(
            tailer.segment, from_lsn)
        if records:
            self._m_segments.inc()
        return WalSegment(records=tuple(line.decode() for line in lines),
                          end_lsn=durable, at=time())

    async def _serve_subscription(self, conn: _Connection,
                                  sub: Subscribe) -> None:
        """A follower connection: SUBSCRIBE, then segment/ack ping-pong.

        Pull-based like the scrape lane: each SUBSCRIBE or REPL_ACK
        draws exactly one WAL_SEGMENT, so the follower's apply speed is
        the shipping speed and backpressure needs no queueing.  An empty
        segment is a heartbeat carrying the leader's durable
        ``end_lsn`` (the follower's lag reference); the follower paces
        its own re-polling.
        """
        if self.token is not None and sub.token != self.token:
            await self._send_now(conn, Error(
                code="AccessDenied", message="bad shared token",
                fatal=True))
            return
        # Tracked separately from editor sessions (no HELLO, no sender
        # task, no connections gauge) so shutdown can sever the stream:
        # a follower blocked on ``recv`` relies on this close for its
        # leader-death signal.
        self._repl_conns.add(conn)
        tailer = WalTailer(self.collab.db.wal)
        try:
            cursor = sub.from_lsn
            while True:
                await self._send_now(
                    conn, await self._collect_segment(tailer, cursor))
                envelope = await self._next_envelope(conn)
                if envelope is None or isinstance(envelope, Bye):
                    return
                if not isinstance(envelope, ReplAck):
                    raise ProtocolError(
                        f"replication connection got {envelope.TYPE!r} "
                        f"envelope")
                cursor = envelope.applied_lsn + 1
        finally:
            self._repl_conns.discard(conn)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(next(self._conn_ids), reader, writer,
                           self.send_queue)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        try:
            try:
                hello = await asyncio.wait_for(
                    self._next_envelope(conn), self.handshake_timeout)
            except asyncio.TimeoutError:
                return
            if hello is None:
                return
            if isinstance(hello, (Stats, Health)):
                await self.scrape.serve(
                    hello, partial(self._next_envelope, conn),
                    partial(self._send_now, conn))
                return
            if isinstance(hello, Subscribe):
                await self._serve_subscription(conn, hello)
                return
            if not await self._handshake(conn, hello):
                return
            conn.sender_task = asyncio.ensure_future(self._sender(conn))
            self._connections[conn.id] = conn
            self._m_connections.inc()
            self._m_connects.inc()
            await self._serve(conn)
        except ProtocolError as exc:
            self._m_protocol_errors.inc()
            await self._send_now(conn, Error(code="ProtocolError",
                                             message=str(exc), fatal=True))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._close_connection(conn)

    async def _handshake(self, conn: _Connection, hello: Envelope) -> bool:
        if not isinstance(hello, Hello):
            raise ProtocolError(
                f"first frame must be HELLO, got {hello.TYPE!r}")
        if hello.protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {hello.protocol} unsupported "
                f"(server speaks {PROTOCOL_VERSION})")
        if self.token is not None and hello.token != self.token:
            await self._send_now(conn, Error(
                code="AccessDenied", message="bad shared token",
                fatal=True))
            return False
        try:
            if hello.register:
                self.collab.register_user(hello.user)
            conn.session = self.collab.connect(
                hello.user, editor=hello.editor, os_name=hello.os_name)
            conn.session.transport = partial(self._hand_off, conn)
        except TendaxError as exc:
            await self._send_now(conn, Error(
                code=type(exc).__name__, message=str(exc), fatal=True))
            return False
        await self._send_now(conn, Welcome(session_id=conn.session.id,
                                           node=self.collab.db.node))
        return True

    async def _serve(self, conn: _Connection) -> None:
        while not conn.closing:
            envelope = await self._next_envelope(conn)
            if envelope is None:
                return
            if isinstance(envelope, Op):
                await self._handle_op(conn, envelope)
            elif isinstance(envelope, Awareness):
                # The collab server decides who hears the move; no
                # reply goes out, so the connection may be idle.
                self.collab.move_cursor(conn.session, envelope.doc,
                                        envelope.anchor,
                                        tuple(envelope.selection))
                self._caught_up(conn)
            elif isinstance(envelope, Ping):
                self._enqueue(conn, Pong(nonce=envelope.nonce,
                                         at=envelope.at))
            elif isinstance(envelope, (Stats, Health)):
                # Mid-session scrape: the HELLO already authenticated.
                self._enqueue(conn, self.scrape.reply(envelope))
            elif isinstance(envelope, Bye):
                return
            else:
                raise ProtocolError(
                    f"unexpected {envelope.TYPE!r} envelope from client")

    async def _next_envelope(self, conn: _Connection) -> Envelope | None:
        """The next decoded envelope, or ``None`` on EOF."""
        while not conn.inbound:
            data = await conn.reader.read(65536)
            if not data:
                return None
            self._m_bytes_in.inc(len(data))
            for envelope in conn.decoder.feed(data):
                conn.inbound.append(envelope)
                self._m_frames_in.inc()
        return conn.inbound.popleft()

    async def _close_connection(self, conn: _Connection,
                                *, reason: str = "") -> None:
        if conn.reaped:
            return
        conn.reaped = conn.closing = True
        self._release_batch(conn)
        if self._connections.pop(conn.id, None) is not None:
            self._m_connections.dec()
            self._conn_depths[conn.id].set(0)
        if conn.sender_task is not None:
            with contextlib.suppress(asyncio.QueueFull):
                conn.queue.put_nowait((_CLOSE, None))
            with contextlib.suppress(Exception):
                await asyncio.wait_for(conn.sender_task, 1.0)
            if not conn.sender_task.done():
                conn.sender_task.cancel()
        if conn.session is not None and conn.session.connected:
            conn.session.disconnect()
        with contextlib.suppress(Exception):
            conn.writer.close()

    def _release_batch(self, conn: _Connection) -> None:
        """Roll back a batch left open by a dead client; free the lock.

        The reaper half of the disconnect-mid-batch guarantee: a client
        killed between ``batch_begin`` and ``batch_end`` leaves no
        partial transaction and cannot wedge the server op lock.
        """
        if conn.batch is None:
            return
        batch, conn.batch = conn.batch, None
        exc = NetError("client disconnected mid-batch")
        with contextlib.suppress(BaseException):
            batch.__exit__(type(exc), exc, None)
        self._unlock()

    def _unlock(self) -> None:
        if self._op_lock is not None and self._op_lock.locked():
            self._op_lock.release()

    # ------------------------------------------------------------------
    # Outbound path (sender task, backpressure)
    # ------------------------------------------------------------------

    def _enqueue(self, conn: _Connection, envelope: Envelope,
                 started: float | None = None) -> None:
        """Queue a frame for the sender; shed the consumer if full."""
        if conn.closing:
            return
        try:
            conn.queue.put_nowait((envelope, started))
        except asyncio.QueueFull:
            self._m_backpressure.inc()
            self._shed(conn)
        else:
            self._conn_depths[conn.id].set(conn.queue.qsize())

    def _shed(self, conn: _Connection) -> None:
        """Abort a connection from synchronous context; the reader's EOF
        then drives the full cleanup path."""
        conn.closing = True
        transport = conn.writer.transport
        if transport is not None:
            with contextlib.suppress(Exception):
                transport.abort()

    async def _send_now(self, conn: _Connection, envelope: Envelope) -> None:
        """Write one frame directly (handshake/fatal paths only)."""
        with contextlib.suppress(ConnectionError, RuntimeError):
            self._write(conn, envelope)
            await conn.writer.drain()

    def _write(self, conn: _Connection, envelope: Envelope) -> None:
        try:
            frame = encode_frame(envelope)
        except ProtocolError as exc:
            if not isinstance(envelope, Ack):
                raise
            # A snapshot or echo over MAX_FRAME_BYTES.  The verb ran;
            # fail the caller's RPC at once with a non-fatal ERROR for
            # the same op_seq and let the connection live on.
            self._m_protocol_errors.inc()
            frame = encode_frame(Error(
                code="ProtocolError", op_seq=envelope.op_seq,
                message=f"the operation ran, but its reply cannot be "
                        f"sent: {exc}"))
        conn.writer.write(frame)
        self._m_frames_out.inc()
        self._m_bytes_out.inc(len(frame))

    async def _sender(self, conn: _Connection) -> None:
        """Write the send queue to the socket, in order.

        However this task ends, the connection ends with it: a live
        connection without a sender would leave its client waiting for
        replies that are never written.
        """
        try:
            while True:
                envelope, started = await conn.queue.get()
                if envelope is _CLOSE:
                    return
                self._write(conn, envelope)
                if started is not None:
                    # The notice reached this reader's socket: the end
                    # of the replication leg this server can see.
                    self._m_replication.observe(perf_counter() - started)
                await conn.writer.drain()
                self._caught_up(conn)
        except ProtocolError:
            # A frame other than an ACK over MAX_FRAME_BYTES (a huge
            # paste's NOTIFY) has no reply slot to fail: drop the
            # connection, the client resyncs when it reconnects.
            self._m_protocol_errors.inc()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            if not conn.closing:
                self._shed(conn)

    def _caught_up(self, conn: _Connection) -> None:
        """The bus's clock under a fault plan (no timer): when ``conn``
        has nothing left to send, the backlog goes out if its oldest item
        was held before the last time a connection got here — so a hold
        outlives the reply to its op and ends at the next such point."""
        delivery = self.collab.delivery
        if delivery.fault is None or not conn.queue.empty():
            return
        delivery.drain(held_before=self._caught_up_at)
        self._caught_up_at = perf_counter()

    # ------------------------------------------------------------------
    # RPC handling
    # ------------------------------------------------------------------

    async def _handle_op(self, conn: _Connection, op: Op) -> None:
        started = perf_counter()
        self._m_ops.inc()
        # Resume the client's trace across the process boundary: the
        # OP envelope carries the originating span context, so this
        # server-side span (and the collab.op/txn spans under it) share
        # the keystroke's trace_id.
        with self._tracer.span("net.op", parent_ctx=op.trace_ctx,
                               verb=op.verb, session=conn.session.id,
                               conn=conn.id):
            try:
                verb = VERBS.get(op.verb)
                if verb is None:
                    raise ProtocolError(f"unknown verb {op.verb!r}")
                args = verb.check(op.args)
            except ProtocolError as exc:
                # Refused before the op lock is touched: the OP fails
                # alone, and the connection, its open batch and every
                # other client carry on.
                self._m_protocol_errors.inc()
                self._enqueue(conn, Error(code="ProtocolError",
                                          message=str(exc),
                                          op_seq=op.op_seq))
            else:
                in_batch = conn.batch is not None
                if not in_batch:
                    await self._op_lock.acquire()
                keep_lock = False
                try:
                    result, echo = self._execute(conn, verb, args)
                except TendaxError as exc:
                    self._enqueue(conn, Error(code=type(exc).__name__,
                                              message=str(exc),
                                              op_seq=op.op_seq))
                else:
                    keep_lock = conn.batch is not None
                    self._enqueue(conn, Ack(
                        op_seq=op.op_seq, result=result,
                        lsn=self.collab.db.wal.durable_lsn,
                        echo=tuple(echo)))
                finally:
                    if not keep_lock and (not in_batch
                                          or conn.batch is None):
                        self._unlock()
        elapsed = perf_counter() - started
        self._m_op_seconds.observe(elapsed)
        self._verb_seconds[op.verb].observe(elapsed)

    def _execute(self, conn: _Connection, verb: Verb,
                 args: dict) -> tuple[Any, list]:
        """Run one verb as one collab operation of the connection's
        session; returns ``(result, echo_deltas)``.

        The operation holds the notices of the verb's commits until the
        verb has returned — by then the session has placed its author's
        cursor, which travels with the rows — and then sends them to the
        other readers, whether or not the verb raised.  This
        connection's own become the ACK's echo.
        """
        with self.collab.operation(conn.session) as op:
            if verb.owner == "session":
                result = getattr(conn.session, verb.name)(**args)
            else:
                result = getattr(self, f"_verb_{verb.name}")(conn, **args)
        echo = [self._notify_of(notice).delta for notice in op.notices]
        if verb.result == "record":
            result = {"kind": result.kind, "oids": list(result.oids)}
        elif verb.result == "snapshot":
            result = self._doc_snapshot(result)
        return result, echo

    # -- the verbs the server runs itself (``owner="server"``) -------------

    def _verb_resolve_document(self, conn: _Connection, name: str) -> dict:
        rows = self.collab.documents.find_by_name(name)
        return {"docs": [row["doc"] for row in rows]}

    def _verb_resync(self, conn: _Connection, doc, missing_base: bool):
        self._m_resyncs.inc()
        if missing_base:
            self._m_missing_base.inc()
        return conn.session.handle(doc)

    def _verb_register_user(self, conn: _Connection, user: str,
                            display: str, roles: list) -> str:
        return self.collab.register_user(user, display=display,
                                         roles=tuple(roles))

    def _verb_batch_begin(self, conn: _Connection) -> None:
        if conn.batch is not None:
            raise NetError("batch already open on this connection")
        batch = self.collab.db.batch()
        batch.__enter__()
        conn.batch = batch

    def _verb_batch_end(self, conn: _Connection) -> None:
        if conn.batch is None:
            raise NetError("no batch open on this connection")
        batch, conn.batch = conn.batch, None
        batch.__exit__(None, None, None)

    def _verb_batch_abort(self, conn: _Connection) -> None:
        if conn.batch is None:
            raise NetError("no batch open on this connection")
        batch, conn.batch = conn.batch, None
        exc = NetError("batch aborted by client")
        with contextlib.suppress(BaseException):
            batch.__exit__(type(exc), exc, None)

    def _verb_stats(self, conn: _Connection) -> dict:
        return self.scrape.stats_payload(series=False)

    def _verb_health(self, conn: _Connection) -> dict:
        return self.scrape.health_payload()

    def _doc_snapshot(self, handle) -> Snapshot:
        """Every character row of ``handle``'s document as a whole image,
        everyone's cursor and the current rep_seq (open/resync): a delta
        with no base.  The rows are the stored tuples, taken in one scan;
        the ACK's frame renders them (:meth:`Snapshot.to_json`).

        The op lock keeps other wire OPs out, but a commit by an
        in-process session on another thread can land at any point.  So
        the sequence is read *before* the rows: a commit's rows are
        applied before its notice takes a ``rep_seq``, hence the rows
        are never behind the sequence they are stamped with.  Rows
        ahead of it are harmless — the notice that follows re-merges
        its whole images and patches idempotently.
        """
        doc = handle.doc
        rep_seq = self.collab.rep_seqs.get(doc, 0)
        rows = C.doc_char_tuples(self.collab.db, doc)
        return Snapshot(doc, handle.begin_char, handle.end_char, rep_seq,
                        rows, [_wire_cursor(state) for state
                               in self.collab.awareness.cursors(doc)])

    # ------------------------------------------------------------------
    # The wire transport
    # ------------------------------------------------------------------

    def _hand_off(self, conn: _Connection, doc,
                  item: "Notice | CursorState") -> None:
        """A wire session's ``transport``: what the collab server hands
        its readers, as one frame on the connection's queue — a commit's
        notice as a NOTIFY, a cursor move as an AWARENESS — through the
        loop when it was made on another thread.  Never blocks: a full
        queue sheds the connection."""
        if conn.closing:
            return
        if isinstance(item, CursorState):
            envelope = Awareness(doc=doc, anchor=item.anchor,
                                 selection=item.selection, user=item.user,
                                 session_id=item.session_id, seq=item.seq)
            started = None
        else:
            envelope = self._notify_of(item)
            self._m_notifies.inc()
            self._doc_notifies[doc].inc()
            started = item.notification.origin_started
        if threading.get_ident() == self._loop_thread:
            self._enqueue(conn, envelope, started)
        else:
            self._loop.call_soon_threadsafe(
                self._enqueue, conn, envelope, started)

    def _notify_of(self, notice: "Notice") -> Notify:
        """The notice as the wire carries it, built on first use and
        kept: one :class:`Delta` — the rows, and the origin's cursor
        where its operation left it — that is the ACK's echo and, in one
        NOTIFY, every reader's."""
        if notice.wire is None:
            n = notice.notification
            state = None if notice.origin is None else \
                self.collab.awareness.cursor_of(n.doc, notice.origin.id)
            # Under the notice's dispatch span: the context every NOTIFY
            # carries extends the keystroke's trace to the remote appliers.
            with self._tracer.span("net.fanout", parent_ctx=n.trace_ctx,
                                   doc=str(n.doc)) as span:
                ctx = span.ctx
            delta = Delta(n.doc, n.rep_seq,
                          tuple(wire_row(c.row, c.before)
                                for c in notice.changes
                                if c.table == S.CHARS and c.row is not None
                                and c.row["doc"] == n.doc),
                          None if state is None else _wire_cursor(state))
            notice.wire = Notify(
                delta=delta, tables=n.tables, n_changes=n.n_changes,
                origin_session=n.origin_session, origin_user=n.origin_user,
                at=n.at, sent_at=time(),
                trace_id=ctx[0] if ctx else None,
                parent_span=ctx[1] if ctx else None)
        return notice.wire


def _wire_cursor(state) -> dict:
    """A :class:`~repro.collab.awareness.CursorState` on the wire."""
    return wire_cursor(state.session_id, state.user, state.anchor,
                       state.selection, state.seq)
