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
* **Bounded send queues.**  Every connection owns an
  :class:`asyncio.Queue` drained by a sender task; a full queue means a
  consumer slower than the fan-out, and the server sheds it by aborting
  the connection (``net.backpressure_closes``).
* **Replication by sequence.**  Each commit's character-row delta is
  stamped with a per-document ``rep_seq``.  Remote mirrors apply deltas
  in order, buffer reordered ones, and heal gaps with a ``resync``
  snapshot RPC.  The originator's own deltas ride its ACK (``echo``) on
  the unfaultable control lane, never as a NOTIFY.
* **One delta, rendered once.**  A commit's rows travel as the columns
  it changed, with the cursor it left its author
  (:class:`~repro.net.protocol.Delta`); the one object is the ACK's echo
  and every reader's NOTIFY, so its JSON is produced once.  The commits
  of an OP are fanned out when the verb has returned — the session has
  placed the cursor by then — which makes a typed character three
  frames: OP, ACK, NOTIFY.
* **Socket-level faults.**  The sender consults the fault injector for
  every *faultable* frame (NOTIFY/AWARENESS): seeded drop, in-band
  delay, windowed reorder and forced disconnect — the DeliveryBus fault
  machinery re-targeted at the wire (see
  :class:`~repro.faults.plan.NetFault`).
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
from time import perf_counter, time
from typing import TYPE_CHECKING, Any

from ..collab.server import WATCHED_TABLES
from ..db.wal import render_record
from ..errors import NetError, ProtocolError, TendaxError
from ..faults.injector import NO_FAULTS
from ..obs.export import prometheus_text
from ..obs.health import evaluate_health
from ..obs.slo import SLOEvaluator
from ..obs.timeseries import TelemetryStore
from ..text import chars as C
from ..text import dbschema as S
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
    HealthReply,
    Hello,
    Notify,
    Op,
    Ping,
    Pong,
    ReplAck,
    Stats,
    StatsReply,
    Subscribe,
    WalSegment,
    Welcome,
    encode_frame,
    wire_cursor,
    wire_row,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collab.server import CollaborationServer
    from ..collab.session import EditingSession

__all__ = ["CollabNetServer", "ServerThread"]

#: Queue sentinel that tells a sender task to flush and exit.
_CLOSE = object()

#: How long a reorder window may sit before it is force-flushed.
_REORDER_FLUSH_SECONDS = 0.02


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
        self.window: list[Envelope] = []
        self.faultable_sent = 0
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
                 handshake_timeout: float = 10.0, faults=None,
                 telemetry_interval: float = 1.0) -> None:
        self.collab = collab
        self.host = host
        self.port = port
        self.token = token
        self.send_queue = send_queue
        self.handshake_timeout = handshake_timeout
        self.faults = faults if faults is not None else NO_FAULTS
        self.telemetry_interval = telemetry_interval
        registry = collab.db.obs.registry
        self._tracer = collab.db.obs.tracer
        #: The live telemetry rings behind STATS/HEALTH and repro dash,
        #: sampled on the database clock by the sampler task.
        self.telemetry = TelemetryStore(
            registry, collab.db.clock,
            interval=max(telemetry_interval, 0.05))
        self.slo = SLOEvaluator(self.telemetry)
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
        self._m_dropped = registry.counter("net.frames_dropped")
        self._m_delayed = registry.counter("net.frames_delayed")
        self._m_resyncs = registry.counter("net.resyncs")
        self._m_missing_base = registry.counter("net.missing_base_rows")
        self._m_scrapes = registry.counter("net.scrapes")
        self._m_segments = registry.counter("repl.segments_shipped")
        # Dimensioned families; a series is resolved on first use and
        # kept (``_series``), not looked up per frame.
        self._f_op_seconds = registry.family("net.op_seconds", "histogram")
        self._f_notifies = registry.family("net.notifies", "counter")
        self._f_queue_depth = registry.family("net.send_queue_depth",
                                              "gauge")
        self._verb_seconds: dict[str, Any] = {}
        self._doc_notifies: dict[Any, Any] = {}
        self._conn_depths: dict[int, Any] = {}
        self._connections: dict[int, _Connection] = {}
        self._conn_ids = itertools.count(1)
        #: doc oid -> replication sequence of the last fanned-out commit.
        self._rep_seq: dict[Any, int] = {}
        self._op_lock: asyncio.Lock | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None
        #: Commits of the OP executing right now, collected until its
        #: verb returns (``None`` outside an OP).
        self._op_commits: list[dict] | None = None
        self._commit_sub = None
        self._handler_tasks: set[asyncio.Task] = set()
        self._repl_conns: set[_Connection] = set()
        self._sampler_task: asyncio.Task | None = None

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
        # A notice consumer of the changefeed: dispatched after every
        # state-keeping consumer, so in-process handles have already
        # spliced their caches when the wire fan-out reads state.
        self._commit_sub = self.collab.db.changefeed().subscribe(
            "net-fanout", self._on_commit, tables=WATCHED_TABLES)
        if self.telemetry_interval > 0:
            self._sampler_task = asyncio.ensure_future(self._sample_loop())
        return self

    async def _sample_loop(self) -> None:
        """Feed the telemetry rings and SLO gauges on a fixed cadence."""
        while True:
            await asyncio.sleep(self.telemetry_interval)
            self.telemetry.sample()
            self.slo.evaluate()

    async def stop(self) -> None:
        """Close every connection and stop listening."""
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sampler_task
            self._sampler_task = None
        if self._commit_sub is not None:
            self._commit_sub.close()
            self._commit_sub = None
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

    def stats(self) -> dict:
        """Wire-level counters (names match the metric catalogue)."""
        return {
            "connections": self._m_connections.value,
            "connects": self._m_connects.value,
            "frames_in": self._m_frames_in.value,
            "frames_out": self._m_frames_out.value,
            "ops": self._m_ops.value,
            "notifies": self._m_notifies.value,
            "protocol_errors": self._m_protocol_errors.value,
            "backpressure_closes": self._m_backpressure.value,
            "frames_dropped": self._m_dropped.value,
            "frames_delayed": self._m_delayed.value,
            "resyncs": self._m_resyncs.value,
            "missing_base_rows": self._m_missing_base.value,
            "scrapes": self._m_scrapes.value,
        }

    # ------------------------------------------------------------------
    # Telemetry scrape payloads (STATS / HEALTH)
    # ------------------------------------------------------------------

    def stats_payload(self, *, series: bool = True) -> dict:
        """The structured STATS payload (metrics + telemetry windows)."""
        payload = {
            "node": self.collab.db.node,
            "at": self.collab.db.now(),
            "server": self.collab.statistics(),
            "net": self.stats(),
            "wal": {"durable_lsn": self.collab.db.wal.durable_lsn,
                    "last_lsn": self.collab.db.wal.last_lsn()},
            "metrics": self.collab.db.obs.registry.snapshot(),
        }
        if self.collab.db.obs.gc is not None:
            payload["gc"] = self.collab.db.obs.gc.summary()
        if series:
            payload["telemetry"] = self.telemetry.snapshot()
        return payload

    def health_payload(self) -> dict:
        """The HEALTH verdict over the current telemetry windows."""
        verdict = evaluate_health(
            self.collab.db.obs.registry.snapshot(), self.telemetry,
            context={"send_queue_limit": self.send_queue})
        verdict["at"] = self.collab.db.now()
        verdict["node"] = self.collab.db.node
        return verdict

    def _scrape_reply(self, envelope: Envelope) -> Envelope:
        self._m_scrapes.inc()
        now = self.collab.db.now()
        if isinstance(envelope, Stats):
            if envelope.format == "prom":
                text = prometheus_text(
                    self.collab.db.obs.registry.snapshot())
                return StatsReply(format="prom", payload=text, at=now)
            return StatsReply(
                format="json",
                payload=self.stats_payload(series=envelope.series), at=now)
        verdict = self.health_payload()
        return HealthReply(status=verdict["status"],
                           checks=tuple(verdict["checks"]),
                           at=verdict["at"])

    async def _serve_scrape(self, conn: _Connection,
                            envelope: Envelope) -> None:
        """A monitoring connection: consecutive STATS/HEALTH, no HELLO.

        The shared token (when the server has one) is still checked on
        every request; an editor session is never created.
        """
        while True:
            if not isinstance(envelope, (Stats, Health)):
                raise ProtocolError(
                    f"scrape connection got {envelope.TYPE!r} envelope")
            if self.token is not None and envelope.token != self.token:
                await self._send_now(conn, Error(
                    code="AccessDenied", message="bad shared token",
                    fatal=True))
                return
            await self._send_now(conn, self._scrape_reply(envelope))
            envelope = await self._next_envelope(conn)
            if envelope is None or isinstance(envelope, Bye):
                return

    # ------------------------------------------------------------------
    # Replication shipping (SUBSCRIBE / WAL_SEGMENT / REPL_ACK)
    # ------------------------------------------------------------------

    def _collect_segment(self, from_lsn: int) -> WalSegment:
        """One WAL_SEGMENT of the durable prefix starting at ``from_lsn``
        (see :meth:`~repro.db.wal.WriteAheadLog.durable_segment`)."""
        records, durable = self.collab.db.wal.durable_segment(from_lsn)
        if records:
            self._m_segments.inc()
        return WalSegment(records=tuple(map(render_record, records)),
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
        try:
            cursor = sub.from_lsn
            while True:
                await self._send_now(conn, self._collect_segment(cursor))
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
                await self._serve_scrape(conn, hello)
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
                self._handle_awareness(conn, envelope)
            elif isinstance(envelope, Ping):
                self._enqueue(conn, Pong(nonce=envelope.nonce,
                                         at=envelope.at))
            elif isinstance(envelope, (Stats, Health)):
                # Mid-session scrape: the HELLO already authenticated.
                self._enqueue(conn, self._scrape_reply(envelope))
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
            _series(self._conn_depths, self._f_queue_depth,
                    conn=conn.id).set(0)
        if conn.sender_task is not None:
            with contextlib.suppress(asyncio.QueueFull):
                conn.queue.put_nowait(_CLOSE)
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
    # Outbound path (sender task, faults, backpressure)
    # ------------------------------------------------------------------

    def _enqueue(self, conn: _Connection, envelope: Envelope) -> None:
        """Queue a frame for the sender; shed the consumer if full."""
        if conn.closing:
            return
        try:
            conn.queue.put_nowait(envelope)
        except asyncio.QueueFull:
            self._m_backpressure.inc()
            self._shed(conn)
        else:
            _series(self._conn_depths, self._f_queue_depth,
                    conn=conn.id).set(conn.queue.qsize())

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
        """Drain the send queue, applying socket faults to change frames.

        However this task ends, the connection ends with it: a live
        connection without a sender would leave its client waiting for
        replies that are never written.
        """
        try:
            while True:
                if conn.window:
                    try:
                        envelope = await asyncio.wait_for(
                            conn.queue.get(), _REORDER_FLUSH_SECONDS)
                    except asyncio.TimeoutError:
                        await self._flush_window(conn)
                        continue
                else:
                    envelope = await conn.queue.get()
                if envelope is _CLOSE:
                    await self._flush_window(conn)
                    return
                if isinstance(envelope, (Notify, Awareness)):
                    await self._send_faultable(conn, envelope)
                else:
                    self._write(conn, envelope)
                    await conn.writer.drain()
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

    async def _send_faultable(self, conn: _Connection,
                              envelope: Envelope) -> None:
        action, delay = self.faults.net_frame_action()
        if action == "drop":
            self._m_dropped.inc()
            return
        if action == "delay":
            self._m_delayed.inc()
            # In-band: later frames on this connection queue behind the
            # delay, like packets behind link latency.
            await asyncio.sleep(delay)
        window = self.faults.net_reorder_window()
        if window > 1:
            conn.window.append(envelope)
            if len(conn.window) >= window:
                await self._flush_window(conn)
            return
        await self._deliver_faultable(conn, envelope)

    async def _flush_window(self, conn: _Connection) -> None:
        pending, conn.window = conn.window, []
        for index in self.faults.net_reorder_order(len(pending)):
            await self._deliver_faultable(conn, pending[index])

    async def _deliver_faultable(self, conn: _Connection,
                                 envelope: Envelope) -> None:
        self._write(conn, envelope)
        await conn.writer.drain()
        conn.faultable_sent += 1
        limit = self.faults.net_disconnect_after()
        if limit is not None and conn.faultable_sent >= limit:
            self._shed(conn)

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
            in_batch = conn.batch is not None
            if not in_batch:
                await self._op_lock.acquire()
            keep_lock = False
            try:
                result, echo = self._execute(conn, op)
            except TendaxError as exc:
                self._enqueue(conn, Error(code=type(exc).__name__,
                                          message=str(exc),
                                          op_seq=op.op_seq))
                return
            else:
                keep_lock = conn.batch is not None
                self._enqueue(conn, Ack(
                    op_seq=op.op_seq, result=result,
                    lsn=self.collab.db.wal.durable_lsn, echo=tuple(echo)))
            finally:
                if not keep_lock and (not in_batch or conn.batch is None):
                    self._unlock()
                elapsed = perf_counter() - started
                self._m_op_seconds.observe(elapsed)
                _series(self._verb_seconds, self._f_op_seconds,
                        verb=op.verb).observe(elapsed)

    def _execute(self, conn: _Connection, op: Op) -> tuple[Any, list]:
        """Run one verb; returns ``(result, echo_deltas)``.

        Commits made by the verb are collected, not fanned out, while it
        runs: only once it has returned has the session placed its
        author's cursor, and that cursor travels with the rows.  They go
        out whether or not the verb raised — the rows are committed and
        their ``rep_seq`` is taken.
        """
        self._op_commits = commits = []
        try:
            result = self._dispatch(conn, op.verb, op.args)
        finally:
            self._op_commits = None
            echo = self._fanout(commits, conn)
        return result, echo

    def _dispatch(self, conn: _Connection, verb: str, args: dict) -> Any:
        session = conn.session
        if verb == "insert":
            return session.insert(args["doc"], args["pos"], args["text"],
                                  style=args.get("style"))
        if verb == "insert_after":
            return session.insert_after(args["doc"], args["anchor"],
                                        args["text"],
                                        style=args.get("style"))
        if verb == "delete":
            return session.delete(args["doc"], args["pos"], args["count"])
        if verb == "delete_chars":
            return session.delete_chars(args["doc"], list(args["oids"]))
        if verb == "apply_style":
            return session.apply_style(args["doc"], args["pos"],
                                       args["count"], args.get("style"))
        if verb == "style_chars":
            return session.style_chars(args["doc"], list(args["oids"]),
                                       args.get("style"))
        if verb == "create_document":
            handle = session.create_document(
                args["name"], text=args.get("text", ""),
                props=args.get("props"))
            return self._doc_snapshot(conn, handle.doc)
        if verb == "open":
            session.open(args["doc"])
            return self._doc_snapshot(conn, args["doc"])
        if verb == "resolve_document":
            rows = self.collab.documents.find_by_name(args["name"])
            return {"docs": [row["doc"] for row in rows]}
        if verb == "close":
            return session.close(args["doc"])
        if verb == "resync":
            self._m_resyncs.inc()
            if args.get("missing_base"):
                self._m_missing_base.inc()
            return self._doc_snapshot(conn, args["doc"])
        if verb == "set_cursor":
            return session.set_cursor(args["doc"], args["pos"],
                                      tuple(args.get("selection", ())))
        if verb == "copy":
            return session.copy(args["doc"], args["pos"], args["count"])
        if verb == "copy_external":
            return session.copy_external(args["text"], args["source"])
        if verb == "paste":
            return session.paste(args["doc"], args["pos"])
        if verb == "add_note":
            return session.add_note(args["doc"], args["pos"], args["body"])
        if verb == "resolve_note":
            return session.resolve_note(args["doc"], args["note"])
        if verb in ("undo", "redo", "undo_global", "redo_global"):
            record = getattr(session, verb)(args["doc"])
            return {"kind": record.kind, "oids": list(record.oids)}
        if verb == "register_user":
            return self.collab.register_user(
                args["user"], display=args.get("display", ""),
                roles=tuple(args.get("roles", ())))
        if verb == "batch_begin":
            if conn.batch is not None:
                raise NetError("batch already open on this connection")
            batch = self.collab.db.batch()
            batch.__enter__()
            conn.batch = batch
            return None
        if verb == "batch_end":
            if conn.batch is None:
                raise NetError("no batch open on this connection")
            batch, conn.batch = conn.batch, None
            batch.__exit__(None, None, None)
            return None
        if verb == "batch_abort":
            if conn.batch is None:
                raise NetError("no batch open on this connection")
            batch, conn.batch = conn.batch, None
            exc = NetError("batch aborted by client")
            with contextlib.suppress(BaseException):
                batch.__exit__(type(exc), exc, None)
            return None
        if verb == "stats":
            return {"server": self.collab.statistics(),
                    "net": self.stats()}
        if verb == "health":
            return self.health_payload()
        raise NetError(f"unknown verb {verb!r}")

    def _doc_snapshot(self, conn: _Connection, doc) -> dict:
        """Every character row as a whole image, everyone's cursor and
        the current rep_seq (open/resync): a delta with no base.

        Consistent by construction: snapshots are built inside an OP
        (under the op lock, on the loop thread), so no commit can land
        between the row scan and the sequence read.
        """
        handle = conn.session.handle(doc)
        rows = C.doc_char_rows(self.collab.db, doc)
        return {
            "doc": doc,
            "begin": handle.begin_char,
            "end": handle.end_char,
            "rep_seq": self._rep_seq.get(doc, 0),
            "rows": [wire_row(row) for row in rows.values()],
            "cursors": [_wire_cursor(state) for state
                        in self.collab.awareness.cursors(doc)],
        }

    # ------------------------------------------------------------------
    # Awareness
    # ------------------------------------------------------------------

    def _handle_awareness(self, conn: _Connection,
                          envelope: Awareness) -> None:
        session = conn.session
        doc = envelope.doc
        if not session.has_open(doc):
            return
        self.collab.awareness.update_cursor(
            doc, session.id, envelope.anchor, tuple(envelope.selection),
            self.collab.db.now())
        broadcast = Awareness(doc=doc, anchor=envelope.anchor,
                              selection=tuple(envelope.selection),
                              user=session.user, session_id=session.id)
        for other in self._connections.values():
            if other.id == conn.id or other.session is None:
                continue
            if other.session.has_open(doc):
                self._enqueue(other, broadcast)

    # ------------------------------------------------------------------
    # Commit fan-out
    # ------------------------------------------------------------------

    def _on_commit(self, batch) -> None:
        """Feed consumer, run under the feed's dispatch lock: cut the
        commit into wire rows and take its ``rep_seq``; the fan-out
        itself happens when the OP that committed has returned, or on
        the loop for a commit from another thread.  Nothing here blocks
        (``put_nowait``, a transport abort for a full queue,
        ``call_soon_threadsafe``)."""
        commits = self._collect(batch.events)
        if not commits:
            return
        if threading.get_ident() != self._loop_thread:
            # A commit from outside the event loop (an in-process
            # session sharing the collab server): hand the prepared
            # rows to the loop; no originating connection to suppress.
            self._loop.call_soon_threadsafe(self._fanout, commits, None)
        elif self._op_commits is not None:
            self._op_commits.extend(commits)  # _execute fans them out
        else:
            self._fanout(commits, None)

    def _collect(self, changes) -> list[dict]:
        """One commit's changes per document (rep_seq already bumped)."""
        by_doc: dict[Any, dict] = {}
        for change in changes:
            if change.row is None:
                continue
            doc = change.row.get("doc")
            if doc is None:
                continue
            entry = by_doc.setdefault(
                doc, {"tables": set(), "count": 0, "rows": []})
            entry["tables"].add(change.table)
            entry["count"] += 1
            if change.table == S.CHARS:
                entry["rows"].append(wire_row(change.row, change.before))
        commits = []
        for doc, entry in by_doc.items():
            seq = self._rep_seq.get(doc, 0) + 1
            self._rep_seq[doc] = seq
            commits.append({
                "doc": doc,
                "rep_seq": seq,
                "rows": tuple(entry["rows"]),
                "tables": tuple(sorted(entry["tables"])),
                "n_changes": entry["count"],
            })
        return commits

    def _fanout(self, commits: list[dict],
                origin: _Connection | None) -> list[Delta]:
        """Send what ``_collect`` gathered to every reader but
        ``origin``; returns the deltas (``origin``'s echo).

        Each delta is built here, with the cursor ``origin``'s session
        holds in the document now, and that one object reaches the echo
        and, inside one NOTIFY stamped once, every reader's queue.
        """
        if not commits:
            return []
        # The fan-out span parents under whatever is open on this thread
        # (net.op during an RPC), so its context — carried on every
        # NOTIFY — extends the keystroke's trace to the remote appliers.
        with self._tracer.span("net.fanout", docs=len(commits)) as span:
            ctx = span.ctx
            now = self.collab.db.now()
            origin_session = origin.session if origin is not None else None
            awareness = self.collab.awareness
            echo = []
            # The wire replaces the inbox for net sessions: drop whatever
            # the in-process DeliveryBus parked there so long-lived
            # connections don't leak undrained Notifications.
            for conn in self._connections.values():
                if conn.session is not None:
                    conn.session.inbox.clear()
            for commit in commits:
                doc = commit["doc"]
                doc_notifies = _series(self._doc_notifies,
                                       self._f_notifies, doc=doc)
                state = None if origin_session is None else \
                    awareness.cursor_of(doc, origin_session.id)
                delta = Delta(doc, commit["rep_seq"], commit["rows"],
                              None if state is None else _wire_cursor(state))
                echo.append(delta)
                notify = Notify(
                    delta=delta,
                    tables=commit["tables"],
                    n_changes=commit["n_changes"],
                    origin_session=origin_session.id
                    if origin_session else None,
                    origin_user=origin_session.user
                    if origin_session else None,
                    at=now,
                    sent_at=time(),
                    trace_id=ctx[0] if ctx else None,
                    parent_span=ctx[1] if ctx else None,
                )
                for conn in list(self._connections.values()):
                    if conn.session is None or conn.closing:
                        continue
                    if origin is not None and conn.id == origin.id:
                        continue  # the originator gets the echo instead
                    if conn.session.has_open(doc):
                        self._m_notifies.inc()
                        doc_notifies.inc()
                        try:
                            self._enqueue(conn, notify)
                        except Exception as exc:
                            # One broken connection must not cost the
                            # others their NOTIFY, nor the author its
                            # ACK: the feed records the failure.
                            self.collab.db.changefeed().consumer_failed(
                                "net-fanout", exc)
            return echo


def _series(cache: dict, family, **label):
    """``family.labels(**label)``, remembered in ``cache`` by the label's
    value.  The cache is dropped whole when it reaches the size past
    which the family evicts: every cached series was resolved since the
    last drop, and a family evicts one only after that many newer ones,
    so a cached series is always a registered one."""
    (value,) = label.values()
    series = cache.get(value)
    if series is None:
        if len(cache) >= family.max_series:
            cache.clear()
        series = cache[value] = family.labels(**label)
    return series


def _wire_cursor(state) -> dict:
    """A :class:`~repro.collab.awareness.CursorState` on the wire."""
    return wire_cursor(state.session_id, state.user, state.anchor,
                       state.selection)


class ServerThread:
    """Run a :class:`CollabNetServer` on a background event loop.

    The in-process twin of ``repro serve`` for tests and benchmarks:
    the calling thread gets a live TCP endpoint (:attr:`port`) while the
    server spins in its own thread.  Use as a context manager.
    """

    def __init__(self, collab: "CollaborationServer", **kwargs) -> None:
        self.server = CollabNetServer(collab, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="collab-net-server",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise NetError("network server failed to start in time")
        if self._startup_error is not None:
            raise NetError(
                f"network server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # startup failed: surface it
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
