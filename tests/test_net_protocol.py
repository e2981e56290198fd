"""Property tests for the wire protocol + a frame fuzzer vs a live server.

Two layers:

* **pure** — hypothesis round-trips every envelope type through
  ``encode_frame`` → ``FrameDecoder`` under arbitrary fragmentation,
  and checks the strict-decode contract (missing fields, unknown
  types, hostile length headers all raise ProtocolError);
* **live** — malformed, truncated and randomly fuzzed byte streams
  against a real :class:`~repro.net.ServerThread` socket: every attack
  must end in a clean fatal ERROR and/or a close — never a crash, a
  hang, or a wedged server (a well-behaved client must still get
  service afterwards).
"""

from __future__ import annotations

import json
import os
import random
import socket
import struct
from dataclasses import MISSING

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collab import CollaborationServer
from repro.errors import ProtocolError
from repro.ids import Oid
from repro.net import (
    Ack,
    Awareness,
    Bye,
    Error,
    FrameDecoder,
    Health,
    HealthReply,
    Hello,
    NetworkClient,
    Notify,
    Op,
    Ping,
    Pong,
    ReplAck,
    ServerThread,
    Stats,
    StatsReply,
    Subscribe,
    WalSegment,
    Welcome,
    decode_envelope,
    encode_frame,
)
from repro.db.wal import WalRecord, render_record
from repro.net.protocol import (
    BLANK_ROW,
    ENVELOPE_TYPES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    VERBS,
    Delta,
    merge_row,
    wire_row,
)

# ---------------------------------------------------------------------------
# Strategies: values that survive the JSON + tagging round trip
# ---------------------------------------------------------------------------

oids = st.builds(
    Oid,
    st.text(st.characters(codec="ascii", min_codepoint=97,
                          max_codepoint=122), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10 ** 9),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    oids,
    st.binary(max_size=16),
)

#: Keys that must not make a dict look like an Oid/bytes tag.
keys = st.text(st.characters(codec="ascii", min_codepoint=97,
                             max_codepoint=122), min_size=1, max_size=8)

jsonish = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)

row_dicts = st.dictionaries(keys, scalars, max_size=6)

#: Character rows as they travel: ``char`` plus any of the other columns.
wire_rows = st.builds(
    lambda char, columns: {"char": char, **columns}, oids,
    st.dictionaries(st.sampled_from(sorted(set(BLANK_ROW) - {"char"})),
                    scalars, max_size=5))

cursors = st.fixed_dictionaries({
    "session": st.integers(0, 10 ** 6), "user": st.text(max_size=10),
    "anchor": oids, "selection": st.lists(oids, max_size=3),
    "seq": st.integers(0, 10 ** 9)})

deltas = st.builds(
    Delta, oids, st.integers(min_value=0, max_value=10 ** 6),
    st.lists(wire_rows, max_size=3).map(tuple), st.none() | cursors)

def _wal_line(lsn: int, type_: str, txn: int, values: dict) -> str:
    if type_ in ("INSERT", "UPDATE", "DELETE"):
        return render_record(WalRecord(
            lsn, type_, txn, table="t", rowid=lsn, cols=tuple(values),
            vals=tuple(values.values())))
    return render_record(WalRecord(lsn, type_, txn, values))


#: WAL lines as a leader ships them: rendered records, OIDs/bytes tagged
#: the WAL's own way (the line is the JSON-safe form).
wal_lines = st.builds(
    _wal_line,
    st.integers(1, 10 ** 9),
    st.sampled_from(("BEGIN", "INSERT", "UPDATE", "DELETE", "COMMIT")),
    st.integers(0, 10 ** 6), row_dicts)

envelopes = st.one_of(
    st.builds(Subscribe, from_lsn=st.integers(1, 10 ** 9),
              node=st.text(max_size=8),
              token=st.none() | st.text(max_size=8)),
    st.builds(WalSegment, records=st.lists(wal_lines, max_size=4).map(tuple),
              end_lsn=st.integers(0, 10 ** 9), at=st.floats(0, 2e9)),
    st.builds(ReplAck, applied_lsn=st.integers(0, 10 ** 9),
              node=st.text(max_size=8), at=st.floats(0, 2e9)),
    st.builds(Hello, user=st.text(min_size=1, max_size=12),
              token=st.none() | st.text(max_size=8),
              editor=st.text(max_size=8), os_name=st.text(max_size=8),
              register=st.booleans()),
    st.builds(Welcome, session_id=st.integers(0, 10 ** 6),
              node=st.text(max_size=8)),
    st.builds(Op, op_seq=st.integers(0, 10 ** 9),
              verb=st.text(min_size=1, max_size=16),
              args=st.dictionaries(keys, jsonish, max_size=4),
              trace_id=st.none() | st.integers(0, 10 ** 9),
              parent_span=st.none() | st.integers(0, 10 ** 9)),
    st.builds(Ack, op_seq=st.integers(0, 10 ** 9), result=jsonish,
              lsn=st.integers(0, 10 ** 9),
              echo=st.lists(deltas, max_size=3).map(tuple)),
    st.builds(Error, code=st.text(min_size=1, max_size=20),
              message=st.text(max_size=40),
              op_seq=st.none() | st.integers(0, 10 ** 9),
              fatal=st.booleans()),
    st.builds(Notify, delta=deltas,
              tables=st.lists(st.text(min_size=1, max_size=10),
                              max_size=3).map(tuple),
              n_changes=st.integers(0, 10 ** 4),
              origin_session=st.none() | st.integers(0, 10 ** 6),
              origin_user=st.none() | st.text(max_size=10),
              at=st.floats(0, 2e9), sent_at=st.floats(0, 2e9),
              trace_id=st.none() | st.integers(0, 10 ** 9),
              parent_span=st.none() | st.integers(0, 10 ** 9)),
    st.builds(Awareness, doc=oids, anchor=st.none() | oids,
              selection=st.lists(oids, max_size=4).map(tuple),
              user=st.text(max_size=10),
              session_id=st.integers(0, 10 ** 6),
              seq=st.integers(0, 10 ** 9)),
    st.builds(Ping, nonce=st.integers(0, 10 ** 9), at=st.floats(0, 2e9)),
    st.builds(Pong, nonce=st.integers(0, 10 ** 9), at=st.floats(0, 2e9)),
    st.builds(Bye, reason=st.text(max_size=20)),
    st.builds(Stats, format=st.sampled_from(("json", "prom")),
              series=st.booleans(),
              token=st.none() | st.text(max_size=8)),
    st.one_of(
        st.builds(StatsReply, format=st.just("json"), payload=jsonish,
                  at=st.floats(0, 2e9)),
        st.builds(StatsReply, format=st.just("prom"),
                  payload=st.text(max_size=40), at=st.floats(0, 2e9)),
    ),
    st.builds(Health, token=st.none() | st.text(max_size=8)),
    st.builds(HealthReply,
              status=st.sampled_from(("ok", "degraded", "unhealthy")),
              checks=st.lists(
                  st.dictionaries(keys, scalars, max_size=4),
                  max_size=3).map(tuple),
              at=st.floats(0, 2e9)),
)


class TestRoundTrip:
    @settings(max_examples=300)
    @given(envelopes)
    def test_every_envelope_round_trips(self, envelope):
        decoder = FrameDecoder()
        out = list(decoder.feed(encode_frame(envelope)))
        assert out == [envelope]
        assert decoder.pending_bytes == 0

    @settings(max_examples=100)
    @given(st.lists(envelopes, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=7))
    def test_fragmentation_is_invisible(self, batch, chunk):
        """Frames survive arriving a few bytes at a time, coalesced."""
        stream = b"".join(encode_frame(e) for e in batch)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i:i + chunk]))
        assert out == batch
        assert decoder.pending_bytes == 0

    @settings(max_examples=100)
    @given(st.lists(wal_lines, max_size=6))
    def test_wal_segment_lines_survive_the_frame_untouched(self, lines):
        """Envelope value tagging must not reach inside shipped records:
        the follower's mirror stays byte-equivalent to the leader's."""
        segment = WalSegment(records=tuple(lines), end_lsn=1)
        (received,) = FrameDecoder().feed(encode_frame(segment))
        assert list(received.records) == lines
        assert [render_record(r) for r in received.parse()] == lines

    @settings(max_examples=50)
    @given(st.lists(envelopes, min_size=1, max_size=3))
    def test_one_byte_at_a_time(self, batch):
        decoder = FrameDecoder()
        out = []
        for byte in b"".join(encode_frame(e) for e in batch):
            out.extend(decoder.feed(bytes((byte,))))
        assert out == batch
        assert decoder.pending_bytes == 0

    def test_envelope_registry_is_total(self):
        """Every concrete envelope class decodes via the registry."""
        assert set(ENVELOPE_TYPES) == {
            "hello", "welcome", "op", "ack", "error", "notify",
            "awareness", "ping", "pong", "bye",
            "stats", "stats_reply", "health", "health_reply",
            "subscribe", "wal_segment", "repl_ack"}


class TestStrictDecode:
    @pytest.mark.parametrize("payload", [
        b"not json at all",
        b"[1,2,3]",
        b'"just a string"',
        b"{}",
        b'{"t": "no-such-type"}',
        b'{"t": 42}',
        b'{"t": "op"}',                       # missing op_seq + verb
        b'{"t": "op", "op_seq": 1}',          # missing verb
        b'{"t": "op", "op_seq": 1, "verb": ""}',
        b'{"t": "op", "op_seq": "x", "verb": "insert"}',
        b'{"t": "hello", "user": ""}',
        b'{"t": "hello", "user": 7}',
        b'{"t": "ack", "op_seq": 1, "lsn": "x"}',
        b'{"t": "ack", "op_seq": 1, "echo": 7}',
        b'{"t": "ack", "op_seq": 1, "echo": [7]}',
        b'{"t": "notify"}',                   # missing delta
        b'{"t": "notify", "delta": null}',
        b'{"t": "notify", "doc": null, "rep_seq": 1, "rows": []}',  # v1
        b'{"t": "op", "op_seq": 1, "verb": "x", "args": {"__oid__": 7}}',
        b'{"t": "op", "op_seq": 1, "verb": "x", "args": {"__oid__": "7"}}',
        b'{"t": "op", "op_seq": 1, "verb": "x", "args": {"__bytes__": "z"}}',
        b'{"t": "error", "code": ""}',
        b'{"t": "awareness", "doc": null, "seq": "7"}',
        b'\xff\xfe garbage bytes',
    ])
    def test_bad_payload_raises(self, payload):
        decoder = FrameDecoder()
        frame = struct.pack("!I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            list(decoder.feed(frame))

    CHAR = {"__oid__": "c:1"}
    CURSOR = {"session": 1, "user": "ana", "anchor": CHAR, "selection": [],
              "seq": 1}

    @pytest.mark.parametrize("delta", [
        {"doc": None, "rep_seq": "x", "rows": [], "cursor": None},
        {"doc": None, "rep_seq": 1, "rows": []},            # no cursor key
        {"doc": None, "rep_seq": 1, "rows": [], "cursor": None, "x": 1},
        {"doc": None, "rep_seq": 1, "rows": {}, "cursor": None},
        {"doc": None, "rep_seq": 1, "rows": [7], "cursor": None},
        {"doc": None, "rep_seq": 1, "rows": [[CHAR]], "cursor": None},
        {"doc": None, "rep_seq": 1, "rows": [{"next": CHAR}],  # no char
         "cursor": None},
        {"doc": None, "rep_seq": 1, "cursor": None,
         "rows": [{"char": CHAR, "colour": "red"}]},        # unknown column
        {"doc": None, "rep_seq": 1, "rows": [], "cursor": 7},
        {"doc": None, "rep_seq": 1, "rows": [], "cursor": {}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "extra": 1}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "session": "1"}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "user": None}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "anchor": "c:1"}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "selection": None}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "selection": ["c:1"]}},
        {"doc": None, "rep_seq": 1, "rows": [],
         "cursor": {**CURSOR, "seq": "1"}},
        {"doc": None, "rep_seq": 1, "rows": [],           # no seq: v2
         "cursor": {k: v for k, v in CURSOR.items() if k != "seq"}},
    ])
    def test_bad_delta_raises_on_both_lanes(self, delta):
        for envelope in ({"t": "notify", "delta": delta},
                         {"t": "ack", "op_seq": 1, "echo": [delta]}):
            payload = json.dumps(envelope).encode()
            frame = struct.pack("!I", len(payload)) + payload
            with pytest.raises(ProtocolError):
                list(FrameDecoder().feed(frame))

    def test_zero_length_frame(self):
        with pytest.raises(ProtocolError, match="zero-length"):
            list(FrameDecoder().feed(struct.pack("!I", 0)))

    def test_hostile_length_header(self):
        """A 4 GiB declared length must fail before buffering anything."""
        with pytest.raises(ProtocolError, match="exceeds"):
            list(FrameDecoder().feed(struct.pack("!I", 0xFFFFFFFF)))

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(Op(op_seq=1, verb="insert",
                            args={"text": "x" * (MAX_FRAME_BYTES + 1)}))

    def test_partial_frame_never_yields(self):
        frame = encode_frame(Ping(nonce=7))
        decoder = FrameDecoder()
        assert list(decoder.feed(frame[:-1])) == []
        assert decoder.pending_bytes == len(frame) - 1

    def test_unknown_error_code_falls_back(self):
        from repro.errors import AccessDenied, NetError
        from repro.net import error_class
        assert error_class("AccessDenied") is AccessDenied
        assert error_class("NoSuchErrorClass") is NetError
        assert error_class("Oid") is NetError  # not a TendaxError

    def test_decode_envelope_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            decode_envelope([1, 2, 3])


class TestRowForms:
    """``wire_row`` / ``merge_row``: whole images and patches."""

    ROW = {**BLANK_ROW, "char": Oid("c", 5), "doc": Oid("d", 1), "ch": "x",
           "prev": Oid("c", 4), "next": Oid("c", 6), "author": "ana",
           "created_at": 12.5}

    @staticmethod
    def held(row: dict):
        """``row`` as a receiver holds it: the image a whole row merges
        to, the only base a patch lands on."""
        return merge_row(wire_row(row), None, row["doc"])

    def test_whole_image_is_the_difference_from_a_blank_row(self):
        image = wire_row(self.ROW)
        assert image == {"char": Oid("c", 5), "ch": "x", "prev": Oid("c", 4),
                         "next": Oid("c", 6), "author": "ana",
                         "created_at": 12.5}
        assert merge_row(image, None, Oid("d", 1)) == self.ROW

    def test_a_sentinel_is_still_a_whole_image(self):
        sentinel = {**self.ROW, "ch": "", "prev": None}
        image = wire_row(sentinel)
        assert image["ch"] == ""
        assert merge_row(image, None, Oid("d", 1)) == sentinel

    def test_patch_names_what_changed_and_needs_its_base(self):
        after = {**self.ROW, "deleted": True, "deleted_by": "ben",
                 "deleted_at": 13.0, "version": 1}
        patch = wire_row(after, self.ROW)
        assert patch == {"char": Oid("c", 5), "deleted": True,
                         "deleted_by": "ben", "deleted_at": 13.0,
                         "version": 1}
        assert merge_row(patch, self.held(self.ROW), Oid("d", 1)) == after
        assert merge_row(patch, None, Oid("d", 1)) is None

    def test_a_column_set_back_to_its_default_is_named(self):
        styled = {**self.ROW, "style": Oid("s", 1)}
        patch = wire_row(self.ROW, styled)
        assert patch == {"char": Oid("c", 5), "style": None}
        assert merge_row(patch, self.held(styled), Oid("d", 1)) == self.ROW

    def test_delta_json_is_rendered_once(self, monkeypatch):
        calls = []
        render = Delta._render
        monkeypatch.setattr(
            Delta, "_render",
            lambda self: calls.append(self.rep_seq) or render(self))
        delta = Delta(Oid("d", 1), 7, (wire_row(self.ROW),))
        frames = [encode_frame(Ack(op_seq=1, echo=(delta,)))]
        frames += [encode_frame(Notify(delta=delta)) for _ in range(4)]
        assert calls == [7]
        for frame in frames:
            (envelope,) = FrameDecoder().feed(frame)
            received = envelope.echo[0] if isinstance(envelope, Ack) \
                else envelope.delta
            assert received == delta


class TestVerbTable:
    """``VERBS``: one declaration per verb, checked and packed by it."""

    DOCS = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "docs", "NETWORK.md")

    def test_pack_sends_every_argument_in_order(self):
        doc = Oid("d", 1)
        assert list(VERBS["insert"].pack((doc, 3), {"text": "x"}).items()) \
            == [("doc", doc), ("pos", 3), ("text", "x"), ("style", None)]
        for positional, named in (((doc,), {}), ((doc, 1, "x", None, 5), {}),
                                  ((doc, "1", "x"), {}),
                                  ((doc, 1, "x"), {"colour": 1})):
            with pytest.raises(ProtocolError):
                VERBS["insert"].pack(positional, named)

    def test_check_is_strict_and_fills_defaults(self):
        verb = VERBS["insert"]
        doc = Oid("d", 1)
        assert verb.check({"doc": doc, "pos": 0, "text": "x"}) \
            == {"doc": doc, "pos": 0, "text": "x", "style": None}
        assert verb.check({"doc": doc, "pos": 0, "text": "x",
                           "style": None})["style"] is None
        for bad in ({"doc": doc, "text": "x"},                  # missing
                    {"doc": doc, "pos": 0, "text": "x", "x": 1},  # unknown
                    {"doc": doc, "pos": "0", "text": "x"},      # str for int
                    {"doc": doc, "pos": True, "text": "x"},     # bool for int
                    {"doc": "d:1", "pos": 0, "text": "x"}):     # str for oid
            with pytest.raises(ProtocolError):
                verb.check(bad)
        with pytest.raises(ProtocolError):
            VERBS["delete_chars"].check({"doc": doc, "oids": 5})

    def test_docs_list_exactly_the_table(self):
        with open(self.DOCS, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("### Verbs", 1)[1].split("\n#", 1)[0]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                documented[cells[0].strip("`")] = tuple(cells[1:])
        expected = {}
        for verb in VERBS.values():
            args = ", ".join(
                f"`{arg.name}`: {arg.kind}"
                + ("" if arg.default is MISSING else f" = {arg.default!r}")
                for arg in verb.args) or "—"
            expected[verb.name] = (args, verb.owner, verb.result)
        assert documented == expected
        matrix = text.split("## Failure matrix", 1)[1].split("\n## ", 1)[0]
        row = next(line for line in matrix.splitlines()
                   if line.startswith("| malformed arguments"))
        assert "`net.protocol_errors`" in row


# ---------------------------------------------------------------------------
# Live-socket fuzzing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def net_server():
    collab = CollaborationServer()
    collab.register_user("ana")
    with ServerThread(collab) as server:
        yield server


def _attack(server, blob: bytes, timeout: float = 5.0):
    """Send ``blob`` raw; return the envelopes the server answered with.

    The contract under attack: the server may answer (typically one
    fatal ERROR) but must always close the connection — a hang here
    fails the test via the socket timeout.
    """
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=timeout)
    decoder = FrameDecoder()
    received = []
    try:
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received.extend(decoder.feed(data))
    finally:
        sock.close()


def _frame(payload: bytes) -> bytes:
    return struct.pack("!I", len(payload)) + payload


class TestLiveFuzz:
    @pytest.mark.parametrize("blob", [
        b"GET / HTTP/1.1\r\n\r\n",
        _frame(b"not json"),
        _frame(b"{}"),
        _frame(b'{"t": "no-such-type"}'),
        _frame(b'{"t": "hello", "user": ""}'),
        struct.pack("!I", 0),
        struct.pack("!I", 0xFFFFFFFF) + b"x" * 64,
        encode_frame(Op(op_seq=1, verb="insert")),   # op before hello
        encode_frame(Ack(op_seq=1)),                 # server-only frame
        encode_frame(Ping()),                        # ping before hello
    ], ids=["http", "notjson", "empty-obj", "unknown-type", "bad-hello",
            "zero-len", "hostile-len", "op-first", "ack-first",
            "ping-first"])
    def test_malformed_first_frame_closes_cleanly(self, net_server, blob):
        received = _attack(net_server, blob)
        # Either a fatal ERROR envelope or an immediate close; never a
        # crash (the module-scoped server keeps serving later tests).
        for envelope in received:
            assert isinstance(envelope, Error)
            assert envelope.fatal

    @pytest.mark.parametrize("version", [1, 2, PROTOCOL_VERSION + 1])
    def test_other_protocol_versions_are_refused_at_hello(
            self, net_server, version):
        """One protocol: a version-1 peer (full rows, separate cursor
        frames) or a version-2 one (cursors without a presence seq) gets
        a fatal ERROR naming the version, and a close."""
        received = _attack(net_server, encode_frame(
            Hello(user="ana", protocol=version)))
        assert len(received) == 1
        (error,) = received
        assert isinstance(error, Error) and error.fatal
        assert error.code == "ProtocolError"
        assert f"version {version}" in error.message
        client = NetworkClient("127.0.0.1", net_server.port, "ana")
        try:
            assert client.ping() < 5.0
        finally:
            client.close()

    def test_truncated_frame_then_close_reaps_connection(self, net_server):
        frame = encode_frame(Hello(user="ana"))
        _attack(net_server, frame[:len(frame) // 2])
        client = NetworkClient("127.0.0.1", net_server.port, "ana")
        try:
            assert client.ping() < 5.0
        finally:
            client.close()

    def test_random_fuzz_never_wedges_the_server(self, net_server):
        rng = random.Random(1131)
        for _ in range(60):
            size = rng.randrange(1, 200)
            blob = bytes(rng.randrange(256) for _ in range(size))
            _attack(net_server, blob)
        for _ in range(20):
            # Structure-aware fuzz: valid header, mutated JSON payload.
            base = bytearray(json.dumps(
                {"t": rng.choice(list(ENVELOPE_TYPES)),
                 "user": "ana", "op_seq": 1}).encode())
            for _ in range(rng.randrange(1, 6)):
                base[rng.randrange(len(base))] = rng.randrange(256)
            _attack(net_server, _frame(bytes(base)))
        client = NetworkClient("127.0.0.1", net_server.port, "ana")
        try:
            assert client.ping() < 5.0
            metrics = client.server_stats()["metrics"]
            assert metrics["net.protocol_errors"]["value"] > 0
        finally:
            client.close()

    def test_malformed_after_handshake_is_fatal_for_that_conn_only(
            self, net_server):
        victim = socket.create_connection(
            ("127.0.0.1", net_server.port), timeout=5.0)
        bystander = NetworkClient("127.0.0.1", net_server.port, "ana")
        try:
            victim.sendall(encode_frame(Hello(user="ana")))
            decoder = FrameDecoder()
            welcomed = False
            while not welcomed:
                data = victim.recv(65536)
                assert data, "server closed during a valid handshake"
                for envelope in decoder.feed(data):
                    assert isinstance(envelope, Welcome)
                    welcomed = True
            victim.sendall(_frame(b"post-handshake garbage"))
            saw_fatal, closed = False, False
            while not closed:
                data = victim.recv(65536)
                if not data:
                    closed = True
                    break
                for envelope in decoder.feed(data):
                    if isinstance(envelope, Error) and envelope.fatal:
                        saw_fatal = True
            assert saw_fatal or closed
            assert bystander.ping() < 5.0  # unaffected neighbour
        finally:
            victim.close()
            bystander.close()
