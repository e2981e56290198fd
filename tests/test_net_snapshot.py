"""How an ``open``/``resync`` snapshot is rendered and read.

The server renders a snapshot straight from the stored row tuples
(:class:`~repro.net.protocol.Snapshot`); the client decodes the frame in
place and lets each row's dict go once its image is built.  Pinned here:

* **The frame bytes.**  Open and resync ACKs are byte-identical to the
  dict-based renderer they replaced (:func:`dict_snapshot_frame`, kept
  here as the oracle): one ``wire_row`` dict per row, the tagged copy of
  ``encode_value``, one ``json`` dump — for 0, 1, 513 and 8 000
  characters with deleted, styled and non-ASCII rows and two cursors.
* **The server's memory.**  Rendering an 8 000-character open, from the
  row scan to the frame bytes, peaks at ≤ 8 MiB under ``tracemalloc``
  (14.3 MiB with the dict renderer, ≈3.1 MiB from the tuples).
* **The client's memory.**  Decoding that frame and adopting it into a
  :class:`~repro.net.DocMirror` peaks at ≤ 6.08 MiB (6.74 MiB with a
  copied payload and every row dict alive beside its image, ≈5.43 MiB
  now; the gate is halfway).
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

import repro.net.server as net_server
from repro.collab import CollaborationServer
from repro.db.wal import encode_value
from repro.net import DocMirror, FrameDecoder, NetworkClient, ServerThread
from repro.net import encode_frame
from repro.net.protocol import Ack, Snapshot, wire_cursor, wire_row
from repro.net.server import CollabNetServer
from repro.text import chars as C

MiB = 1 << 20
SERVER_PEAK = 8 * MiB
CLIENT_PEAK = 6.08 * MiB
OPEN_CHARS = 8_000
TEXT = "aé✓ 日😀b\"\\\n"


def dict_snapshot_frame(collab: CollaborationServer, handle,
                        ack: Ack) -> bytes:
    """The frame of ``ack`` as the dict-based renderer built it: the
    snapshot of ``handle``'s document as a dict of ``wire_row`` dicts,
    tagged by ``encode_value`` and dumped whole."""
    doc = handle.doc
    snapshot = {
        "doc": doc,
        "begin": handle.begin_char,
        "end": handle.end_char,
        "rep_seq": collab.rep_seqs.get(doc, 0),
        "rows": [wire_row(row)
                 for row in C.doc_char_rows(collab.db, doc).values()],
        "cursors": [wire_cursor(s.session_id, s.user, s.anchor,
                                s.selection, s.seq)
                    for s in collab.awareness.cursors(doc)],
    }
    wire = {"t": "ack", "op_seq": ack.op_seq, "result": snapshot,
            "lsn": ack.lsn, "echo": [d.to_wire() for d in ack.echo]}
    payload = json.dumps(encode_value(wire),
                         separators=(",", ":")).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


def _document(collab: CollaborationServer, chars: int):
    """A ``chars``-character document, some of it deleted and styled,
    with ana's cursor (and selection) in it."""
    ana = collab.connect("ana")
    text = (TEXT * (chars // len(TEXT) + 1))[:chars]
    handle = ana.create_document(f"doc{chars}", text=text)
    if chars > 1:
        bold = collab.styles.define_style("b", {"bold": True}, "ana")
        ana.apply_style(handle.doc, chars // 3, max(1, chars // 4), bold)
        ana.delete(handle.doc, chars // 2, max(1, chars // 5))
        ana.insert(handle.doc, 1, "ü")
    length = handle.length()
    ana.set_cursor(handle.doc, length // 2,
                   handle.char_oids_range(0, min(2, length)))
    return handle


@pytest.mark.parametrize("chars", [0, 1, 513, OPEN_CHARS])
def test_open_and_resync_frames_match_the_dict_renderer(monkeypatch, chars):
    """Each snapshot ACK the server writes, against the oracle's frame
    of the same ACK built at the same moment."""
    collab = CollaborationServer()
    for user in ("ana", "ben"):
        collab.register_user(user)
    handle = _document(collab, chars)
    encode = net_server.encode_frame
    written = []

    def encode_and_compare(envelope):
        frame = encode(envelope)
        if isinstance(envelope, Ack) and isinstance(envelope.result,
                                                    Snapshot):
            written.append((envelope.result, frame == dict_snapshot_frame(
                collab, handle, envelope)))
        return frame

    monkeypatch.setattr(net_server, "encode_frame", encode_and_compare)
    with ServerThread(collab) as thread:
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            mirror = ben.session().open(handle.doc)
            ben.session().set_cursor(handle.doc, handle.length())
            ben.call("resync", handle.doc, False)
        finally:
            ben.close()
    assert mirror.text() == handle.text()
    assert [same for _, same in written] == [True, True]
    (opened, _), (resynced, _) = written
    rows = chars + 2 + (chars > 1)                    # sentinels, the "ü"
    assert len(opened.rows) == len(resynced.rows) == rows
    assert len(opened.cursors) == len(resynced.cursors) == 2


def _open_document(chars: int):
    collab = CollaborationServer()
    collab.register_user("ana")
    handle = collab.connect("ana").create_document("big", text="x" * chars)
    return CollabNetServer(collab), handle


def _traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_rendering_an_open_peaks_under_8_mib():
    server, handle = _open_document(OPEN_CHARS)
    frame, peak = _traced_peak(lambda: encode_frame(
        Ack(op_seq=1, result=server._doc_snapshot(handle))))
    assert len(frame) > 1_000_000
    assert peak <= SERVER_PEAK, (
        f"rendering an {OPEN_CHARS}-character open peaked at "
        f"{peak / MiB:.2f} MiB (budget {SERVER_PEAK / MiB:.2f})")


def test_reading_an_open_peaks_under_the_gate():
    server, handle = _open_document(OPEN_CHARS)
    frame = encode_frame(Ack(op_seq=1, result=server._doc_snapshot(handle)))
    del server

    def read() -> DocMirror:
        (ack,) = FrameDecoder().feed(frame)
        return DocMirror.from_snapshot(ack.result)

    mirror, peak = _traced_peak(read)
    assert mirror.text() == handle.text()
    assert mirror.check_integrity() == []
    assert peak <= CLIENT_PEAK, (
        f"decoding and adopting an {OPEN_CHARS}-character open peaked at "
        f"{peak / MiB:.2f} MiB (budget {CLIENT_PEAK / MiB:.2f})")


def test_an_adopted_snapshot_lets_its_row_dicts_go():
    server, handle = _open_document(3)
    (ack,) = FrameDecoder().feed(encode_frame(
        Ack(op_seq=1, result=server._doc_snapshot(handle))))
    received = ack.result["rows"]
    mirror = DocMirror.from_snapshot(ack.result)
    assert received == [] and len(mirror.rows) == 5
