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
    The verbs and their arguments are declared once, in :data:`VERBS`.
    ERROR with an ``op_seq`` fails that op alone (an application error,
    or an OP whose verb or arguments the table does not allow); ERROR
    without one is fatal.
``NOTIFY``
    Change fan-out: one :class:`Delta` — what one committed transaction
    did to one document, stamped with a per-document replication
    sequence number (``rep_seq``).  Clients apply deltas in sequence
    order; a gap (dropped or reordered frame) is detected by the mirror
    and healed by an anti-entropy ``resync`` OP.
``AWARENESS``
    Cursor/selection presence that no edit implies (a plain cursor
    move), both directions (client publish, server broadcast, the latter
    with the cursor's presence ``seq``).  Fire-and-forget: never acked,
    faultable like NOTIFY.  The cursor an edit leaves behind rides the
    edit's own delta instead.
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

Deltas and rows
---------------
A :class:`Delta` is ``{doc, rep_seq, rows, cursor}``: the character
rows a commit changed and where it left its author's cursor.  It is the
unit both lanes carry — the ACK's ``echo`` to the author, a NOTIFY to
every other reader — and is rendered to JSON once, whoever receives it.
Rows travel as deltas under one merge rule (:func:`wire_row` /
:func:`merge_row`): a row the receiver cannot have is a *whole image* —
its columns that differ from a blank row, always including ``ch`` — and
a changed row is a *patch* — ``char`` plus the columns the commit
changed, never ``ch``.  An ``open``/``resync`` snapshot is whole images
only: a :class:`Snapshot` holds the stored row tuples and renders each
one's whole image straight to text (:func:`image_json`, the bytes
:func:`wire_row` would give) when its ACK is written.  A patch whose
base the receiver does not hold is a gap, healed by resync; it is never
padded with defaults.

The protocol is deliberately strict: unknown envelope types, missing or
mistyped required fields, oversized or malformed frames all raise
:class:`~repro.errors.ProtocolError`, which the server answers with a
fatal ERROR envelope and a connection close — never a crash or a hang
(property-tested in ``tests/test_net_protocol.py``).  A well-formed OP
naming an unknown verb, or arguments :meth:`Verb.check` refuses, costs
a non-fatal ERROR for its ``op_seq`` instead.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, ClassVar, Iterator, Mapping, NamedTuple

from ..db.schema import RowImage
from ..db.wal import WalRecord, encode_value, parse_records, untag
from ..errors import ProtocolError
from ..ids import Oid
from ..text.dbschema import CHAR_COLUMNS

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ROW_POSITIONS",
    "Ack",
    "Awareness",
    "BLANK_ROW",
    "Bye",
    "Delta",
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
    "Snapshot",
    "Stats",
    "StatsReply",
    "Subscribe",
    "VERBS",
    "Verb",
    "WalSegment",
    "Welcome",
    "decode_envelope",
    "encode_frame",
    "error_class",
    "image_json",
    "merge_row",
    "open_connection",
    "wire_cursor",
    "wire_row",
]

#: Bumped on incompatible envelope changes; HELLO carries the client's
#: and the server refuses any other.  2: rows travel as deltas, an
#: edit's cursor rides its ACK and NOTIFY.  3: every cursor the server
#: sends carries its presence ``seq``.
PROTOCOL_VERSION = 3

#: Upper bound on one frame's JSON payload.  Large enough for a full
#: document snapshot in a resync ACK, small enough that a hostile
#: length header cannot balloon memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")

_dumps = json.JSONEncoder(separators=(",", ":")).encode
#: A string as :data:`_dumps` writes it (quoted, non-ASCII escaped).
_json_str = json.encoder.encode_basestring_ascii


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


# ----------------------------------------------------------------------
# Character rows on the wire
# ----------------------------------------------------------------------

#: What a character row holds before anything is known about it: the
#: schema's defaults.  A whole image is sent as its difference from this
#: (and from the document it travels for), and merged back onto it.
BLANK_ROW: dict[str, Any] = {c.name: c.default for c in CHAR_COLUMNS}

#: Column -> position in a received row's tuple (``CHAR_COLUMNS``
#: order): the shared half of every :class:`RowImage` :func:`merge_row`
#: returns.
ROW_POSITIONS: dict[str, int] = {name: i for i, name in enumerate(BLANK_ROW)}

_BLANK_VALUES = tuple(BLANK_ROW.values())
_CHAR_AT = ROW_POSITIONS["char"]
_DOC_AT = ROW_POSITIONS["doc"]


def wire_row(row: Mapping[str, Any],
             before: Mapping[str, Any] | None = None) -> dict:
    """One committed character row as it travels.

    Without ``before`` (an insert, a snapshot) the whole image: every
    column that differs from :data:`BLANK_ROW` except ``doc``, which the
    delta or snapshot around it names once.  With ``before`` (the image
    the commit superseded) a patch: ``char`` plus the columns that
    changed.  ``ch`` is in every whole image — a sentinel's is ``""``,
    the blank row's is ``None`` — and in no patch, since a character
    never becomes another one: its presence is how :func:`merge_row`
    tells the two apart.
    """
    if before is None:
        out = {k: v for k, v in row.items() if v != BLANK_ROW[k]}
        del out["doc"]
        return out
    out = {k: v for k, v in row.items() if before[k] != v}
    out["char"] = row["char"]
    return out


def merge_row(row: Mapping[str, Any], base: RowImage | None,
              doc: Any) -> RowImage | None:
    """The full row a :func:`wire_row` leaves behind at the receiver —
    the wire twin of :func:`repro.db.replay.merge_image`.

    A whole image lands on a blank row of ``doc``; a patch lands on
    ``base``, the row the receiver holds for that character (an earlier
    result of this function).  A patch without a base returns ``None``:
    the history that produced the row is missing, and the caller must
    fetch it rather than invent it.

    The result is a read-only :class:`RowImage` over
    :data:`ROW_POSITIONS`, a tuple like the one the server's table
    stores.  A row that lands on ``base`` keeps ``base``'s ``char``
    object (the caller found ``base`` by an equal oid), so a replica
    keyed by its rows' oids holds each oid once.
    """
    if "ch" in row:
        values = list(_BLANK_VALUES)
        values[_DOC_AT] = doc
    elif base is None:
        return None
    else:
        values = list(base._row)
    for name, value in row.items():
        values[ROW_POSITIONS[name]] = value
    if base is not None:
        values[_CHAR_AT] = base._row[_CHAR_AT]
    return RowImage(ROW_POSITIONS, tuple(values))


def _json_oid(oid: Oid) -> str:
    return '{"__oid__":%s}' % _json_str("%s:%d" % oid)


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else _dumps(value)


def _json_any(value: Any) -> str:
    return _dumps(encode_value(value))


#: Value class -> its JSON text exactly as ``_dumps(encode_value(v))``
#: writes it, for the classes a stored character row holds; anything
#: else (a ``props`` object) goes through :func:`_json_any`.
_JSON_OF: dict[type, Callable[[Any], str]] = {
    str: _json_str,
    Oid: _json_oid,
    float: _json_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

#: ``(position, '"name":', blank value)`` of every column a whole image
#: may name, in ``CHAR_COLUMNS`` order: all but ``doc``.
_IMAGE_COLUMNS = tuple((at, f'"{name}":', BLANK_ROW[name])
                       for name, at in ROW_POSITIONS.items() if at != _DOC_AT)


def image_json(row: tuple) -> str:
    """A stored character row (its tuple, ``CHAR_COLUMNS`` order) as
    the JSON text of its whole image — the bytes ``wire_row(row)``
    renders to, written straight from the tuple: no mapping, no tagged
    copy."""
    return "{%s}" % ",".join([
        name + _JSON_OF.get(value.__class__, _json_any)(value)
        for at, name, blank in _IMAGE_COLUMNS
        if (value := row[at]) != blank])


def _check_rows(rows: Any, where: str) -> None:
    _require(isinstance(rows, list), f"{where} must be a list")
    columns = BLANK_ROW.keys()
    for row in rows:
        _require(isinstance(row, dict), f"{where} holds a non-object row")
        _require("char" in row, f"{where} holds a row without 'char'")
        if not row.keys() <= columns:
            raise ProtocolError(
                f"{where} holds unknown column(s) "
                f"{sorted(row.keys() - columns)}")


def wire_cursor(session: int, user: str, anchor: Oid, selection,
                seq: int) -> dict:
    """A participant's cursor as deltas, snapshots and mirrors hold it:
    whose it is, the character it sits after, and its presence sequence
    (higher is newer: see :class:`~repro.collab.awareness.CursorState`)."""
    return {"session": session, "user": user, "anchor": anchor,
            "selection": list(selection), "seq": seq}


_CURSOR_KEYS = frozenset(("session", "user", "anchor", "selection", "seq"))


def _check_cursor(cursor: Any, where: str) -> None:
    _require(isinstance(cursor, dict) and cursor.keys() == _CURSOR_KEYS,
             f"{where} must be an object with exactly "
             f"{sorted(_CURSOR_KEYS)}")
    for key in ("session", "seq"):
        _require(isinstance(cursor[key], int), f"{where}.{key} must be an int")
    _require(isinstance(cursor["user"], str),
             f"{where}.user must be a string")
    _require(isinstance(cursor["anchor"], Oid),
             f"{where}.anchor must be a character oid")
    _require(isinstance(cursor["selection"], list)
             and all(isinstance(oid, Oid) for oid in cursor["selection"]),
             f"{where}.selection must be a list of character oids")


_DELTA_KEYS = frozenset(("doc", "rep_seq", "rows", "cursor"))


@dataclass(frozen=True)
class Delta:
    """What one commit did to one document, as every recipient gets it.

    ``rows`` are :func:`wire_row` forms in commit order; ``cursor`` is
    where the commit left its author's cursor (``None`` when the author
    has none: a commit from outside any editor connection).  The author
    reads it off the ACK's ``echo``, everyone else off a NOTIFY, and the
    receiving mirror applies rows and cursor together.

    The JSON text is rendered on first use and kept: one ``Delta``
    object is shared by the ACK and every reader's NOTIFY, so a
    keystroke's rows are encoded once however many editors have the
    document open.
    """

    doc: Any
    rep_seq: int
    rows: tuple = ()
    cursor: dict | None = None
    _json: str | None = field(default=None, init=False, compare=False,
                              repr=False)

    def to_wire(self) -> dict:
        return {"doc": self.doc, "rep_seq": self.rep_seq,
                "rows": self.rows, "cursor": self.cursor}

    def to_json(self) -> str:
        if self._json is None:
            object.__setattr__(self, "_json", self._render())
        return self._json  # type: ignore[return-value]

    def _render(self) -> str:
        return _dumps(encode_value(self.to_wire()))

    @classmethod
    def from_wire(cls, obj: Any, where: str) -> "Delta":
        """Build a delta from a decoded wire object (strict)."""
        _require(isinstance(obj, dict) and obj.keys() == _DELTA_KEYS,
                 f"{where} must be an object with exactly "
                 f"{sorted(_DELTA_KEYS)}")
        _require(isinstance(obj["rep_seq"], int),
                 f"{where}.rep_seq must be an int")
        _check_rows(obj["rows"], f"{where}.rows")
        if obj["cursor"] is not None:
            _check_cursor(obj["cursor"], f"{where}.cursor")
        return cls(obj["doc"], obj["rep_seq"], tuple(obj["rows"]),
                   obj["cursor"])


@dataclass(frozen=True)
class Snapshot:
    """A document as an ``open``/``resync`` ACK carries it: every
    character row as a whole image, everyone's cursor and the
    ``rep_seq`` its rows are not behind — a delta with no base.

    ``rows`` are the stored tuples themselves (``CHAR_COLUMNS`` order),
    shared with the table, so holding a snapshot until its frame is
    written costs a list of references.  :meth:`to_json` renders each
    row with :func:`image_json`; the receiver decodes a plain object
    ``{doc, begin, end, rep_seq, rows, cursors}``.
    """

    doc: Any
    begin: Any
    end: Any
    rep_seq: int
    rows: list
    cursors: list

    def to_json(self) -> str:
        head = _dumps(encode_value({"doc": self.doc, "begin": self.begin,
                                    "end": self.end,
                                    "rep_seq": self.rep_seq}))
        return '%s,"rows":[%s],"cursors":%s}' % (
            head[:-1], ",".join(map(image_json, self.rows)),
            _json_any(self.cursors))


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """Base class: one wire message.  Subclasses set ``TYPE``."""

    TYPE: ClassVar[str] = ""
    #: Field names, those without a default and those declared ``int``;
    #: filled in per class once every envelope is defined (below
    #: ``ENVELOPE_TYPES``).
    _FIELDS: ClassVar[tuple] = ()
    _REQUIRED: ClassVar[frozenset] = frozenset()
    _INTS: ClassVar[tuple] = ()

    def to_wire(self) -> dict:
        """The JSON-ready dict (``"t"`` + the dataclass fields)."""
        out: dict[str, Any] = {"t": self.TYPE}
        for name in self._FIELDS:
            out[name] = getattr(self, name)
        return out

    def to_json(self) -> str:
        """The JSON text of this envelope's frame."""
        return _dumps(encode_value(self.to_wire()))

    def _json_with(self, key: str, fragment: str) -> str:
        """:meth:`to_json` with field ``key`` given as ``fragment``,
        JSON text rendered elsewhere (a :class:`Delta`'s, kept)."""
        head = Envelope.to_wire(self)
        del head[key]
        return f'{_dumps(encode_value(head))[:-1]},"{key}":{fragment}}}'

    @classmethod
    def from_wire(cls, obj: dict) -> "Envelope":
        """Build the envelope from a decoded wire dict (strict)."""
        kwargs = {name: obj[name] for name in cls._FIELDS if name in obj}
        if not kwargs.keys() >= cls._REQUIRED:
            raise ProtocolError(
                f"{cls.TYPE} envelope missing required field(s) "
                f"{sorted(cls._REQUIRED - kwargs.keys())}")
        try:
            env = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {cls.TYPE} envelope: {exc}") from None
        for name in cls._INTS:
            _require(isinstance(getattr(env, name), int),
                     f"{cls.TYPE}.{name} must be an int")
        env._validate()
        return env

    def _validate(self) -> None:
        """Subclass hook: raise :class:`ProtocolError` on bad fields
        (``int`` fields are already checked)."""


class _Traced:
    """An envelope that carries a span context."""

    @property
    def trace_ctx(self) -> tuple[int, int] | None:
        if self.trace_id is None or self.parent_span is None:
            return None
        return (self.trace_id, self.parent_span)


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


@dataclass(frozen=True)
class Welcome(Envelope):
    """Server's handshake acceptance."""

    TYPE: ClassVar[str] = "welcome"

    session_id: int
    node: str = ""
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Op(_Traced, Envelope):
    """One RPC request: a verb plus keyword arguments."""

    TYPE: ClassVar[str] = "op"

    op_seq: int
    verb: str
    args: dict = field(default_factory=dict)
    trace_id: int | None = None
    parent_span: int | None = None

    def _validate(self) -> None:
        _require(isinstance(self.verb, str) and bool(self.verb),
                 "op.verb must be a non-empty string")
        _require(isinstance(self.args, dict), "op.args must be an object")


@dataclass(frozen=True)
class Ack(Envelope):
    """RPC success: result, durable LSN, and the originator's deltas.

    ``echo`` carries the :class:`Delta` of every commit the op made: the
    originator never gets a NOTIFY for its own keystroke (no echo over
    the faultable lane), so its mirror is updated synchronously from the
    ACK instead — rows and the cursor the server placed for it.  A
    ``result`` that is a :class:`Snapshot` is rendered by the snapshot
    itself, when the frame is written.
    """

    TYPE: ClassVar[str] = "ack"

    op_seq: int
    result: Any = None
    lsn: int = 0
    echo: tuple = ()

    def to_wire(self) -> dict:
        out = super().to_wire()
        out["echo"] = [delta.to_wire() for delta in self.echo]
        return out

    def to_json(self) -> str:
        echo = "[%s]" % ",".join(d.to_json() for d in self.echo)
        if not isinstance(self.result, Snapshot):
            return self._json_with("echo", echo)
        # The fields in declaration order, as ``_json_with`` writes them.
        return '{"t":"%s","op_seq":%d,"result":%s,"lsn":%d,"echo":%s}' % (
            self.TYPE, self.op_seq, self.result.to_json(), self.lsn, echo)

    @classmethod
    def from_wire(cls, obj: dict) -> "Ack":
        env = super().from_wire(obj)
        _require(isinstance(env.echo, (list, tuple)),
                 "ack.echo must be a list")
        object.__setattr__(env, "echo", tuple(
            Delta.from_wire(delta, "ack.echo[]") for delta in env.echo))
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
class Notify(_Traced, Envelope):
    """Change fan-out: one commit's :class:`Delta` for one document.

    ``trace_id``/``parent_span`` resume the originating keystroke's
    trace on the receiving side; ``sent_at`` is the server's wall-clock
    stamp of the fan-out (propagation-latency measurement in the
    smoke/load tools) — one NOTIFY object serves every reader.
    """

    TYPE: ClassVar[str] = "notify"

    delta: Delta
    tables: tuple = ()
    n_changes: int = 0
    origin_session: int | None = None
    origin_user: str | None = None
    at: float = 0.0
    sent_at: float = 0.0
    trace_id: int | None = None
    parent_span: int | None = None

    def to_wire(self) -> dict:
        out = super().to_wire()
        out["delta"] = self.delta.to_wire()
        return out

    def to_json(self) -> str:
        return self._json_with("delta", self.delta.to_json())

    @classmethod
    def from_wire(cls, obj: dict) -> "Notify":
        env = super().from_wire(obj)
        object.__setattr__(env, "delta",
                           Delta.from_wire(env.delta, "notify.delta"))
        if isinstance(env.tables, list):
            object.__setattr__(env, "tables", tuple(env.tables))
        return env  # type: ignore[return-value]


@dataclass(frozen=True)
class Awareness(Envelope):
    """Cursor/selection presence no edit implies (client publish or
    server broadcast); an edit's own cursor rides its :class:`Delta`.
    ``seq`` is the presence sequence the server stamped (a client's
    publish leaves it 0)."""

    TYPE: ClassVar[str] = "awareness"

    doc: Any
    anchor: Any = None
    selection: tuple = ()
    user: str = ""
    session_id: int = 0
    seq: int = 0

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


@dataclass(frozen=True)
class Pong(Envelope):
    TYPE: ClassVar[str] = "pong"

    nonce: int = 0
    at: float = 0.0


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
        _require(self.from_lsn >= 1, "subscribe.from_lsn must be >= 1")


@dataclass(frozen=True)
class WalSegment(Envelope):
    """One shipped chunk of the leader's durable WAL prefix.

    ``records`` are the WAL lines themselves, exactly as the leader's
    log file holds them (read by :func:`~repro.db.wal.read_segment`,
    never rendered again), so envelope value tagging never touches
    record payloads and the follower reads a segment with the file
    parser (:meth:`parse`).
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
        _require(self.applied_lsn >= 0, "repl_ack.applied_lsn must be >= 0")


#: type string -> envelope class (the decode dispatch table).
ENVELOPE_TYPES: dict[str, type[Envelope]] = {
    cls.TYPE: cls
    for cls in (Hello, Welcome, Op, Ack, Error, Notify, Awareness,
                Ping, Pong, Bye, Stats, StatsReply, Health, HealthReply,
                Subscribe, WalSegment, ReplAck)
}

_MISSING = field().default  # dataclasses.MISSING, without importing it

for _cls in ENVELOPE_TYPES.values():
    _cls._FIELDS = tuple(f.name for f in fields(_cls))
    _cls._REQUIRED = frozenset(
        f.name for f in fields(_cls)
        if f.default is _MISSING and f.default_factory is _MISSING)
    _cls._INTS = tuple(f.name for f in fields(_cls) if f.type == "int")


# ----------------------------------------------------------------------
# Verbs: what an OP may ask for
# ----------------------------------------------------------------------

def _list_of(kind: type) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (list, tuple)) \
        and all(isinstance(item, kind) for item in v)


#: What a value of each argument kind must be.  An argument whose
#: default is ``None`` takes ``None`` as well; a list kind takes a tuple
#: (what a client call may pass — it travels as a list).
ARG_KINDS: dict[str, Callable[[Any], bool]] = {
    "oid": lambda v: isinstance(v, Oid),
    "oids": _list_of(Oid),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "strs": _list_of(str),
    "bool": lambda v: isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
}


class Arg(NamedTuple):
    """One argument of a verb: name, kind (a key of :data:`ARG_KINDS`)
    and default (none: the argument is required)."""

    name: str
    kind: str
    default: Any = _MISSING


class Verb(NamedTuple):
    """One wire verb, declared once in :data:`VERBS`.

    ``owner`` names what runs it: ``"session"`` is the connection's
    :class:`~repro.collab.session.EditingSession` method of the same
    name, ``"server"`` is ``CollabNetServer._verb_<name>(conn, ...)``.
    ``result`` is how the ACK carries the return value: ``"value"`` as
    it is, ``"record"`` an undo record as ``{kind, oids}``,
    ``"snapshot"`` a document handle as its document's snapshot.
    """

    name: str
    args: tuple = ()
    owner: str = "session"
    result: str = "value"

    def check(self, args: dict) -> dict:
        """An OP's ``args`` checked strictly — no unknown name, every
        required one present, every value of its kind — and completed
        with the defaults.  Raises :class:`ProtocolError`."""
        out = {}
        for arg in self.args:
            if arg.name not in args:
                if arg.default is _MISSING:
                    raise ProtocolError(
                        f"{self.name}: missing argument {arg.name!r}")
                out[arg.name] = arg.default
                continue
            value = args[arg.name]
            if not (ARG_KINDS[arg.kind](value)
                    or value is None and arg.default is None):
                raise ProtocolError(
                    f"{self.name}: argument {arg.name!r} must be "
                    f"{arg.kind}, not {type(value).__name__}")
            out[arg.name] = value
        if not args.keys() <= out.keys():
            raise ProtocolError(f"{self.name}: unknown argument(s) "
                                f"{sorted(args.keys() - out.keys())}")
        return out

    def pack(self, positional: tuple, named: dict) -> dict:
        """A client call's arguments as its OP carries them: passed by
        position or name, then :meth:`check`ed — so every argument is
        present, in declaration order."""
        if len(positional) > len(self.args):
            raise ProtocolError(
                f"{self.name}: takes {len(self.args)} argument(s)")
        return self.check({**dict(zip((arg.name for arg in self.args),
                                      positional)), **named})


_DOC = Arg("doc", "oid")
_POS = Arg("pos", "int")
_COUNT = Arg("count", "int")
_OIDS = Arg("oids", "oids")
_STYLE = Arg("style", "oid", None)

#: Every verb an OP may name.  The server's dispatch and argument check
#: and the client's :class:`~repro.net.client.RemoteSession` stubs are
#: generated from this table; ``docs/NETWORK.md`` lists it.
VERBS: dict[str, Verb] = {verb.name: verb for verb in (
    Verb("insert", (_DOC, _POS, Arg("text", "str"), _STYLE)),
    Verb("insert_after",
         (_DOC, Arg("anchor", "oid"), Arg("text", "str"), _STYLE)),
    Verb("delete", (_DOC, _POS, _COUNT)),
    Verb("delete_chars", (_DOC, _OIDS)),
    Verb("apply_style", (_DOC, _POS, _COUNT, _STYLE)),
    Verb("style_chars", (_DOC, _OIDS, _STYLE)),
    Verb("create_document", (Arg("name", "str"), Arg("text", "str", ""),
                             Arg("props", "dict", None)),
         result="snapshot"),
    Verb("open", (_DOC,), result="snapshot"),
    Verb("resolve_document", (Arg("name", "str"),), owner="server"),
    Verb("close", (_DOC,)),
    Verb("resync", (_DOC, Arg("missing_base", "bool", False)),
         owner="server", result="snapshot"),
    Verb("set_cursor", (_DOC, _POS, Arg("selection", "oids", ()))),
    Verb("copy", (_DOC, _POS, _COUNT)),
    Verb("copy_external", (Arg("text", "str"), Arg("source", "str"))),
    Verb("paste", (_DOC, _POS)),
    Verb("add_note", (_DOC, _POS, Arg("body", "str"))),
    Verb("resolve_note", (_DOC, Arg("note", "oid"))),
    Verb("undo", (_DOC,), result="record"),
    Verb("redo", (_DOC,), result="record"),
    Verb("undo_global", (_DOC,), result="record"),
    Verb("redo_global", (_DOC,), result="record"),
    Verb("register_user", (Arg("user", "str"), Arg("display", "str", ""),
                           Arg("roles", "strs", ())), owner="server"),
    Verb("batch_begin", owner="server"),
    Verb("batch_end", owner="server"),
    Verb("batch_abort", owner="server"),
    Verb("stats", owner="server"),
    Verb("health", owner="server"),
)}


def encode_frame(envelope: Envelope) -> bytes:
    """Serialise one envelope as a length-prefixed wire frame."""
    payload = envelope.to_json().encode("utf-8")
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
    a stall no amount of server speed removes.  (Typing no longer
    writes that AWARENESS — the cursor rides the ACK — but a cursor move
    followed by a keystroke still writes two frames before it reads.)
    asyncio sets the option on the server's transports already.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def decode_envelope(obj: Any) -> Envelope:
    """Turn a parsed frame payload (tags already resolved) into a typed
    envelope (strict)."""
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload is not a JSON object")
    type_name = obj.get("t")
    cls = ENVELOPE_TYPES.get(type_name) if isinstance(type_name, str) \
        else None
    if cls is None:
        raise ProtocolError(f"unknown envelope type {type_name!r}")
    return cls.from_wire(obj)


class FrameDecoder:
    """Incremental frame parser: feed bytes, iterate envelopes.

    Tolerates arbitrary fragmentation (a frame may arrive one byte at a
    time) but nothing else: a length header of zero or beyond
    ``max_frame``, undecodable UTF-8/JSON, or an out-of-contract
    envelope raises :class:`~repro.errors.ProtocolError` immediately.
    A buffer holding a partial frame at EOF simply never yields — the
    connection died mid-frame.

    Within one frame an oid's text decodes to one ``Oid`` object: a
    snapshot names each character up to three times (``char``, its
    neighbours' ``prev``/``next``) and the receiver keeps one.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        #: oid text -> Oid for the frame being parsed (emptied after it).
        self._oids: dict[str, Oid] = {}
        self._parse = json.JSONDecoder(
            object_hook=partial(untag, oids=self._oids)).decode

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
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        try:
            obj = self._parse(self._take(end))
        except (ValueError, TypeError, AttributeError) as exc:
            # Bad UTF-8 or JSON, or a malformed oid/bytes tag.
            raise ProtocolError(f"undecodable frame payload: {exc}") from None
        finally:
            self._oids.clear()
        return decode_envelope(obj)

    def _take(self, end: int) -> str:
        """The text of the frame that ends at ``end``, decoded from the
        buffer in place; its bytes leave the buffer before it is parsed,
        whether or not they decode."""
        view = memoryview(self._buffer)[_HEADER.size:end]
        try:
            return str(view, "utf-8")
        finally:
            view.release()
            del self._buffer[:end]


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
