"""The wire protocol: length-prefixed JSON envelopes.

Every frame on the socket is a 4-byte big-endian length header followed
by one UTF-8 JSON object.  The object's ``"t"`` key names the envelope
type; the remaining keys are that envelope's fields.  Values are encoded
with the WAL's tagging scheme (:func:`~repro.db.wal.encode_value`), so
OIDs and bytes survive the JSON round trip.

Envelope types
--------------
``HELLO`` / ``WELCOME``
    The auth handshake.  A connection's first frame must be HELLO
    (user, optional shared token, editor/OS identification, protocol
    version); anything else — or a failed check — draws a fatal ERROR
    and a close.  WELCOME carries the server-side session id.
``OP`` / ``ACK`` / ``ERROR``
    The RPC lane.  OP names a verb plus arguments and carries the
    client's trace context (``trace_id``/``parent_span``) so the
    server-side spans join the keystroke's causal trace.  ACK echoes
    the ``op_seq``, the verb's result, the WAL's **durable LSN** at
    completion, and the originator's own change deltas (``echo``) so a
    client's mirror reflects its own keystroke before the verb returns.
    ERROR with an ``op_seq`` is an application error (the connection
    lives on); ERROR without one is fatal.
``NOTIFY``
    Change fan-out: the changed character rows of one committed
    transaction for one document, stamped with a per-document
    replication sequence number (``rep_seq``).  Clients apply deltas in
    sequence order; a gap (dropped or reordered frame) is detected by
    the mirror and healed by an anti-entropy ``resync`` OP.
``AWARENESS``
    Cursor/selection presence, both directions (client publish, server
    broadcast).  Fire-and-forget: never acked, faultable like NOTIFY.
``PING`` / ``PONG`` / ``BYE``
    Liveness and orderly goodbye.
``SUBSCRIBE`` / ``WAL_SEGMENT`` / ``REPL_ACK``
    The replication lane.  SUBSCRIBE — accepted **as a connection's
    first frame**, like STATS/HEALTH, honouring the same shared token —
    asks the leader to ship WAL records starting at ``from_lsn``.  The
    leader answers each SUBSCRIBE / REPL_ACK with exactly one
    WAL_SEGMENT (records of the durable prefix, capped per segment,
    plus the leader's durable ``end_lsn``); the follower applies it and
    acks with its new ``applied_lsn``, which doubles as the request for
    the next segment.  Pull-based, so a slow follower is never overrun
    and restart resumption is just a re-subscribe from
    ``applied_lsn + 1`` (see ``docs/REPLICATION.md``).
``STATS`` / ``STATS_REPLY`` and ``HEALTH`` / ``HEALTH_REPLY``
    The telemetry scrape lane.  STATS asks for the server's labelled
    metrics snapshot — ``format="json"`` returns the structured payload
    (metrics + time-series windows), ``format="prom"`` returns
    Prometheus text exposition in ``StatsReply.payload``.  HEALTH
    returns the windowed health verdict (``ok``/``degraded``/
    ``unhealthy`` plus per-check detail).  Both are accepted **as a
    connection's first frame** — a monitoring agent scrapes without
    authenticating as an editor (the shared token, when configured, is
    still required) — and also mid-session after HELLO.

The protocol is deliberately strict: unknown envelope types, missing or
mistyped required fields, oversized or malformed frames all raise
:class:`~repro.errors.ProtocolError`, which the server answers with a
fatal ERROR envelope and a connection close — never a crash or a hang
(property-tested in ``tests/test_net_protocol.py``).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterator

from ..db.wal import WalRecord, decode_value, encode_value, parse_records
from ..errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "Ack",
    "Awareness",
    "Bye",
    "ENVELOPE_TYPES",
    "Envelope",
    "Error",
    "FrameDecoder",
    "Health",
    "HealthReply",
    "Hello",
    "Notify",
    "Op",
    "Ping",
    "Pong",
    "ProtocolError",
    "ReplAck",
    "Stats",
    "StatsReply",
    "Subscribe",
    "WalSegment",
    "Welcome",
    "decode_envelope",
    "encode_frame",
    "error_class",
    "open_connection",
]

#: Bumped on incompatible envelope changes; HELLO carries the client's.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON payload.  Large enough for a full
#: document snapshot in a resync ACK, small enough that a hostile
#: length header cannot balloon memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")


@dataclass(frozen=True)
class Envelope:
    """Base class: one wire message.  Subclasses set ``TYPE``."""

    TYPE: ClassVar[str] = ""

    def to_wire(self) -> dict:
        """The JSON-ready dict (``"t"`` + the dataclass fields)."""
        out: dict[str, Any] = {"t": self.TYPE}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_wire(cls, obj: dict) -> "Envelope":
        """Build the envelope from a decoded wire dict (strict)."""
        kwargs = {}
        for f in fields(cls):
            if f.name in obj:
                kwargs[f.name] = obj[f.name]
            elif f.default is not _MISSING or f.default_factory is not _MISSING:  # type: ignore[misc]
                continue
            else:
                raise ProtocolError(
                    f"{cls.TYPE} envelope missing required field {f.name!r}")
        try:
            env = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {cls.TYPE} envelope: {exc}") from None
        env._validate()
        return env

    def _validate(self) -> None:
        """Subclass hook: raise :class:`ProtocolError` on bad fields."""


_MISSING = field().default  # dataclasses.MISSING, without importing it


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


@dataclass(frozen=True)
class Hello(Envelope):
    """Client's opening frame: who is connecting, with what."""

    TYPE: ClassVar[str] = "hello"

    user: str
    token: str | None = None
    editor: str = "net"
    os_name: str = "linux"
    register: bool = False
    protocol: int = PROTOCOL_VERSION

    def _validate(self) -> None:
        _require(isinstance(self.user, str) and bool(self.user),
                 "hello.user must be a non-empty string")
        _require(isinstance(self.protocol, int),
                 "hello.protocol must be an int")


@dataclass(frozen=True)
class Welcome(Envelope):
    """Server's handshake acceptance."""

    TYPE: ClassVar[str] = "welcome"

    session_id: int
    node: str = ""
    protocol: int = PROTOCOL_VERSION

    def _validate(self) -> None:
        _require(isinstance(self.session_id, int),
                 "welcome.session_id must be an int")


@dataclass(frozen=True)
class Op(Envelope):
    """One RPC request: a verb plus keyword arguments."""

    TYPE: ClassVar[str] = "op"

    op_seq: int
    verb: str
    args: dict = field(default_factory=dict)
    trace_id: int | None = None
    parent_span: int | None = None

    def _validate(self) -> None:
        _require(isinstance(self.op_seq, int), "op.op_seq must be an int")
        _require(isinstance(self.verb, str) and bool(self.verb),
                 "op.verb must be a non-empty string")
        _require(isinstance(self.args, dict), "op.args must be an object")

    @property
    def trace_ctx(self) -> tuple[int, int] | None:
        if self.trace_id is None or self.parent_span is None:
            return None
        return (self.trace_id, self.parent_span)


@dataclass(frozen=True)
class Ack(Envelope):
    """RPC success: result, durable LSN, and the originator's deltas.

    ``echo`` carries the change deltas the op's own commits produced
    (``[{"doc", "rep_seq", "rows"}, ...]``): the originator never gets a
    NOTIFY for its own keystroke (no echo over the faultable lane), so
    its mirror is updated synchronously from the ACK instead.
    """

    TYPE: ClassVar[str] = "ack"

    op_seq: int
    result: Any = None
    lsn: int = 0
    echo: tuple = ()

    def _validate(self) -> None:
        _require(isinstance(self.op_seq, int), "ack.op_seq must be an int")
        _require(isinstance(self.lsn, int), "ack.lsn must be an int")

    @classmethod
    def from_wire(cls, obj: dict) -> "Ack":
        env = super().from_wire(obj)
        echo = []
        for delta in env.echo:
            if isinstance(delta, dict) and isinstance(delta.get("rows"),
                                                      list):
                delta = {**delta, "rows": tuple(delta["rows"])}
            echo.append(delta)
        object.__setattr__(env, "echo", tuple(echo))
        return env  # type: ignore[return-value]


@dataclass(frozen=True)
class Error(Envelope):
    """An application error (``op_seq`` set) or a fatal protocol error."""

    TYPE: ClassVar[str] = "error"

    code: str
    message: str = ""
    op_seq: int | None = None
    fatal: bool = False

    def _validate(self) -> None:
        _require(isinstance(self.code, str) and bool(self.code),
                 "error.code must be a non-empty string")


@dataclass(frozen=True)
class Notify(Envelope):
    """Change fan-out: one commit's character-row delta for one doc.

    ``rows`` are full ``tx_chars`` rows (upsert semantics — logical
    deletes arrive as rows with ``deleted=True``); ``rep_seq`` is the
    per-document replication sequence the mirror orders deltas by.
    ``trace_id``/``parent_span`` resume the originating keystroke's
    trace on the receiving side; ``sent_at`` is the server's wall-clock
    send stamp (propagation-latency measurement in the smoke/load
    tools).
    """

    TYPE: ClassVar[str] = "notify"

    doc: Any
    rep_seq: int
    rows: tuple = ()
    tables: tuple = ()
    n_changes: int = 0
    origin_session: int | None = None
    origin_user: str | None = None
    at: float = 0.0
    sent_at: float = 0.0
    trace_id: int | None = None
    parent_span: int | None = None

    def _validate(self) -> None:
        _require(isinstance(self.rep_seq, int),
                 "notify.rep_seq must be an int")

    @classmethod
    def from_wire(cls, obj: dict) -> "Notify":
        env = super().from_wire(obj)
        if isinstance(env.rows, list):
            object.__setattr__(env, "rows", tuple(env.rows))
        if isinstance(env.tables, list):
            object.__setattr__(env, "tables", tuple(env.tables))
        return env  # type: ignore[return-value]

    @property
    def trace_ctx(self) -> tuple[int, int] | None:
        if self.trace_id is None or self.parent_span is None:
            return None
        return (self.trace_id, self.parent_span)


@dataclass(frozen=True)
class Awareness(Envelope):
    """Cursor/selection presence (client publish or server broadcast)."""

    TYPE: ClassVar[str] = "awareness"

    doc: Any
    anchor: Any = None
    selection: tuple = ()
    user: str = ""
    session_id: int = 0

    @classmethod
    def from_wire(cls, obj: dict) -> "Awareness":
        env = super().from_wire(obj)
        if isinstance(env.selection, list):
            object.__setattr__(env, "selection", tuple(env.selection))
        return env  # type: ignore[return-value]


@dataclass(frozen=True)
class Ping(Envelope):
    TYPE: ClassVar[str] = "ping"

    nonce: int = 0
    at: float = 0.0

    def _validate(self) -> None:
        _require(isinstance(self.nonce, int), "ping.nonce must be an int")


@dataclass(frozen=True)
class Pong(Envelope):
    TYPE: ClassVar[str] = "pong"

    nonce: int = 0
    at: float = 0.0

    def _validate(self) -> None:
        _require(isinstance(self.nonce, int), "pong.nonce must be an int")


@dataclass(frozen=True)
class Bye(Envelope):
    TYPE: ClassVar[str] = "bye"

    reason: str = ""


#: Exposition formats a STATS request may ask for.
STATS_FORMATS = ("json", "prom")


@dataclass(frozen=True)
class Stats(Envelope):
    """Telemetry scrape request (allowed pre-auth as a first frame)."""

    TYPE: ClassVar[str] = "stats"

    format: str = "json"
    series: bool = True
    token: str | None = None

    def _validate(self) -> None:
        _require(self.format in STATS_FORMATS,
                 f"stats.format must be one of {STATS_FORMATS}")


@dataclass(frozen=True)
class StatsReply(Envelope):
    """Scrape response: a JSON stats payload or Prometheus text."""

    TYPE: ClassVar[str] = "stats_reply"

    format: str = "json"
    payload: Any = None
    at: float = 0.0

    def _validate(self) -> None:
        _require(self.format in STATS_FORMATS,
                 f"stats_reply.format must be one of {STATS_FORMATS}")
        if self.format == "prom":
            _require(isinstance(self.payload, str),
                     "stats_reply.payload must be text for format=prom")


@dataclass(frozen=True)
class Health(Envelope):
    """Health-verdict request (allowed pre-auth as a first frame)."""

    TYPE: ClassVar[str] = "health"

    token: str | None = None


@dataclass(frozen=True)
class HealthReply(Envelope):
    """The windowed health verdict with per-check detail."""

    TYPE: ClassVar[str] = "health_reply"

    status: str = "ok"
    checks: tuple = ()
    at: float = 0.0

    def _validate(self) -> None:
        _require(self.status in ("ok", "degraded", "unhealthy"),
                 "health_reply.status must be ok|degraded|unhealthy")

    @classmethod
    def from_wire(cls, obj: dict) -> "HealthReply":
        env = super().from_wire(obj)
        if isinstance(env.checks, list):
            object.__setattr__(env, "checks", tuple(env.checks))
        return env  # type: ignore[return-value]


@dataclass(frozen=True)
class Subscribe(Envelope):
    """Replication subscription (allowed pre-auth as a first frame).

    A follower's opening frame: stream WAL records starting at
    ``from_lsn`` (its ``applied_lsn + 1`` — restart resumption is just
    a re-subscribe with a higher ``from_lsn``).  The lane is pull-based:
    the server answers each SUBSCRIBE / REPL_ACK with one WAL_SEGMENT,
    so a slow follower can never be overrun and the leader tracks
    exactly what each follower acknowledged.
    """

    TYPE: ClassVar[str] = "subscribe"

    from_lsn: int = 1
    node: str = ""
    token: str | None = None

    def _validate(self) -> None:
        _require(isinstance(self.from_lsn, int) and self.from_lsn >= 1,
                 "subscribe.from_lsn must be an int >= 1")


@dataclass(frozen=True)
class WalSegment(Envelope):
    """One shipped chunk of the leader's durable WAL prefix.

    ``records`` are the WAL lines themselves, exactly as the leader's
    mirror file holds them (:func:`~repro.db.wal.render_record`), so
    envelope value tagging never touches record payloads and the
    follower reads a segment with the file parser (:meth:`parse`).
    ``end_lsn`` is the leader's durable LSN at send time, so the
    follower's lag is ``end_lsn - applied_lsn`` even when the segment is
    empty (a heartbeat).  ``at`` is the leader's send stamp, the zero
    point of ``repl.apply_lag_seconds``.
    """

    TYPE: ClassVar[str] = "wal_segment"

    records: tuple = ()
    end_lsn: int = 0
    at: float = 0.0

    def _validate(self) -> None:
        _require(isinstance(self.end_lsn, int),
                 "wal_segment.end_lsn must be an int")
        _require(all(isinstance(r, str) for r in self.records),
                 "wal_segment.records must be WAL lines (strings)")

    @classmethod
    def from_wire(cls, obj: dict) -> "WalSegment":
        env = super().from_wire(obj)
        if isinstance(env.records, list):
            object.__setattr__(env, "records", tuple(env.records))
        return env  # type: ignore[return-value]

    def parse(self) -> list[WalRecord]:
        """The shipped records.  A frame arrives whole or not at all, so
        what would be a torn tail in a file is a protocol error here."""
        data = "".join(line + "\n" for line in self.records).encode()
        records, valid = parse_records(data, "WAL_SEGMENT")
        _require(valid == len(data), "wal_segment ends in a malformed record")
        return records


@dataclass(frozen=True)
class ReplAck(Envelope):
    """Follower progress: everything through ``applied_lsn`` is applied
    and locally durable.  Doubles as the request for the next segment
    (from ``applied_lsn + 1``)."""

    TYPE: ClassVar[str] = "repl_ack"

    applied_lsn: int = 0
    node: str = ""
    at: float = 0.0

    def _validate(self) -> None:
        _require(isinstance(self.applied_lsn, int) and self.applied_lsn >= 0,
                 "repl_ack.applied_lsn must be an int >= 0")


#: type string -> envelope class (the decode dispatch table).
ENVELOPE_TYPES: dict[str, type[Envelope]] = {
    cls.TYPE: cls
    for cls in (Hello, Welcome, Op, Ack, Error, Notify, Awareness,
                Ping, Pong, Bye, Stats, StatsReply, Health, HealthReply,
                Subscribe, WalSegment, ReplAck)
}


def encode_frame(envelope: Envelope) -> bytes:
    """Serialise one envelope as a length-prefixed wire frame."""
    payload = json.dumps(
        encode_value(envelope.to_wire()), separators=(",", ":"),
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def open_connection(host: str, port: int,
                    timeout: float) -> socket.socket:
    """A blocking client-side TCP connection for this protocol.

    ``TCP_NODELAY`` is part of the protocol's latency contract, not a
    tunable: frames are small and a conversation writes several before
    it reads (OP, then after the ACK a fire-and-forget AWARENESS, then
    the next OP).  Under Nagle the second small write waits for the ACK
    of the first, which the peer's delayed-ACK timer holds back ~40 ms —
    a stall per keystroke that no amount of server speed removes.
    asyncio sets the option on the server's transports already.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def decode_envelope(obj: Any) -> Envelope:
    """Turn a decoded JSON object into a typed envelope (strict)."""
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload is not a JSON object")
    type_name = obj.get("t")
    cls = ENVELOPE_TYPES.get(type_name) if isinstance(type_name, str) \
        else None
    if cls is None:
        raise ProtocolError(f"unknown envelope type {type_name!r}")
    return cls.from_wire(decode_value({k: v for k, v in obj.items()
                                       if k != "t"}))


class FrameDecoder:
    """Incremental frame parser: feed bytes, iterate envelopes.

    Tolerates arbitrary fragmentation (a frame may arrive one byte at a
    time) but nothing else: a length header of zero or beyond
    ``max_frame``, undecodable UTF-8/JSON, or an out-of-contract
    envelope raises :class:`~repro.errors.ProtocolError` immediately.
    A buffer holding a partial frame at EOF simply never yields — the
    connection died mid-frame.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed as a whole frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[Envelope]:
        """Buffer ``data`` and yield every complete envelope."""
        self._buffer.extend(data)
        while True:
            envelope = self._next()
            if envelope is None:
                return
            yield envelope

    def _next(self) -> Envelope | None:
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length == 0:
            raise ProtocolError("zero-length frame")
        if length > self.max_frame:
            raise ProtocolError(
                f"declared frame length {length} exceeds the "
                f"{self.max_frame}-byte limit")
        if len(self._buffer) < _HEADER.size + length:
            return None
        payload = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
        del self._buffer[:_HEADER.size + length]
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable frame payload: {exc}") from None
        return decode_envelope(obj)


def error_class(code: str) -> type[Exception]:
    """Map a wire error ``code`` back to the repro exception class.

    Unknown codes fall back to :class:`~repro.errors.NetError`, so a
    newer server never crashes an older client with an unmappable name.
    """
    from .. import errors as _errors
    cls = getattr(_errors, code, None)
    if isinstance(cls, type) and issubclass(cls, _errors.TendaxError):
        return cls
    return _errors.NetError
