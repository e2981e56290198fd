"""What a wire client holds per mirrored character.

A TeNDaX document is one row per character, and every editor's replica
(:class:`~repro.net.DocMirror`) keeps every row — sentinels and deleted
characters included — so the cost per row on a client is what an open
document costs there.  Two things are pinned:

* **Bytes per mirrored row.**  An 8 000-character open, decoded from
  its snapshot frame, retains ≤ 800 B per row under ``tracemalloc``
  (≈1 160 B when rows were 15-key dicts with three fresh ``Oid``s each;
  ≈540 B as one ``RowImage`` tuple with shared oids).
* **One object per oid.**  Each held row's ``prev``/``next`` is the key
  object of the row it names, and each row's ``char`` is its own key —
  after an open, and after typing and deleting from both ends of the
  wire (the author's ACK echo and a NOTIFY are other frames).

The open's frame is the one the server sends: rendered from the stored
row tuples by the server's snapshot renderer
(``CollabNetServer._doc_snapshot``).  What the open costs while it is in
flight — the render's and the read's allocation peaks — is gated in
``tests/test_net_snapshot.py``; this file gates what stays.
"""

from __future__ import annotations

import gc
import tracemalloc
from time import monotonic

from repro.collab import CollaborationServer
from repro.net import DocMirror, FrameDecoder, NetworkClient, ServerThread
from repro.net import encode_frame
from repro.net.protocol import Ack
from repro.net.server import CollabNetServer

ROWS = 8_000
BYTES_PER_ROW = 800


def _open_frame(size: int) -> bytes:
    """The ACK of an ``open`` of a ``size``-character document, rendered
    by the server's one snapshot renderer."""
    collab = CollaborationServer()
    collab.register_user("ana")
    handle = collab.connect("ana").create_document("big", text="x" * size)
    snapshot = CollabNetServer(collab)._doc_snapshot(handle)
    return encode_frame(Ack(op_seq=1, result=snapshot))


def test_an_open_retains_at_most_800_bytes_per_row():
    frame = _open_frame(ROWS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (ack,) = FrameDecoder().feed(frame)
        mirror = DocMirror.from_snapshot(ack.result)
        del ack
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mirror.length() == ROWS and mirror.check_integrity() == []
    per_row = held / len(mirror.rows)
    assert per_row <= BYTES_PER_ROW, (
        f"{per_row:.0f} B retained per mirrored row "
        f"(budget {BYTES_PER_ROW})")


def _assert_one_object_per_oid(mirror: DocMirror) -> None:
    rows = mirror.rows
    for key, row in rows.items():
        assert row["char"] is key
        for link in ("prev", "next"):
            named = row[link]
            if named is not None:
                assert named is rows[named]["char"], (
                    f"{key}.{link} is a second {named} object")


def test_links_are_the_key_objects_of_the_rows_they_name():
    collab = CollaborationServer()
    for user in ("ana", "ben"):
        collab.register_user(user)
    with ServerThread(collab) as thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            doc = ana.session().create_document("pad", text="hello").doc
            mine = ana.session().open(doc)
            theirs = ben.session().open(doc)
            _assert_one_object_per_oid(theirs)
            ana.session().insert(doc, 5, " world")
            ben.session().insert(doc, 0, ">> ")
            ana.session().delete(doc, 3, 2)
            ben.session().insert(doc, 4, "y")
            deadline = monotonic() + 10
            while mine.text() != theirs.text() or len(mine.text()) != 13:
                assert monotonic() < deadline, "replicas did not settle"
                ana.poll(timeout=0.01)
                ben.poll(timeout=0.01)
            for mirror in (mine, theirs):
                assert mirror.check_integrity() == []
                _assert_one_object_per_oid(mirror)
        finally:
            ana.close()
            ben.close()
