"""Holding Delete at one spot never walks the tombstones behind it.

A forward delete leaves its author's cursor in front of the first
character it deleted.  That anchor is read while the character is still
visible (:func:`repro.collab.operations.anchor_before`), so the 2 000th
delete at one spot costs what the first did: no ``prev_of`` walk over
the 1 999 tombstones its predecessors left there (≈2 000 calls each
when the anchor was resolved after the delete).  Counted, not timed: in
process and over the wire, where the server's handle and the client's
mirror both answer ``prev_of``.
"""

from __future__ import annotations

import pytest

from repro.collab import CollaborationServer, EditorClient
from repro.collab.operations import UndoRecord
from repro.net import NetworkClient, ServerThread
from repro.net.mirror import DocMirror
from repro.text.document import _DocReplica

DELETES = 2_000
SPOT = 200
#: ``prev_of`` calls the last delete may make, wherever they come from.
MOST_CALLS = 4


@pytest.fixture
def prev_of_calls(monkeypatch):
    """Every ``prev_of`` a document handle or a wire mirror answers."""
    calls = []
    for cls in (_DocReplica, DocMirror):
        original = cls.prev_of

        def counted(self, oid, _original=original):
            calls.append(oid)
            return _original(self, oid)

        monkeypatch.setattr(cls, "prev_of", counted)
    return calls


def _hold_delete(editor: EditorClient, calls: list) -> int:
    """Delete forward ``DELETES`` times; ``prev_of`` calls of the last."""
    for _ in range(DELETES - 1):
        assert editor.delete_forward() == 1
    del calls[:]
    assert editor.delete_forward() == 1
    assert editor.cursor() == SPOT
    return len(calls)


def _server() -> CollaborationServer:
    collab = CollaborationServer()
    collab.register_user("ana")
    return collab


def test_the_last_of_many_deletes_walks_nothing_in_process(prev_of_calls):
    session = _server().connect("ana")
    handle = session.create_document("pad", text="x" * (DELETES + 500))
    editor = EditorClient(session, handle.doc)
    editor.move_to(SPOT)
    assert _hold_delete(editor, prev_of_calls) <= MOST_CALLS
    assert handle.length() == 500


def test_the_last_of_many_deletes_walks_nothing_over_the_wire(prev_of_calls):
    collab = _server()
    doc = collab.connect("ana").create_document(
        "pad", text="x" * (DELETES + 500)).doc
    with ServerThread(collab) as thread:
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            editor = EditorClient(client.session(), doc)
            editor.move_to(SPOT)
            assert _hold_delete(editor, prev_of_calls) <= MOST_CALLS
            assert editor.handle.length() == 500
            assert editor.handle.check_integrity() == []
        finally:
            client.close()


def test_a_delete_anchors_before_its_first_character_in_any_order():
    """Oids not in document order, with the ones in front deleted too:
    the anchor is the nearest character in front that stays."""
    session = _server().connect("ana")
    handle = session.create_document("pad", text="abcdefgh")
    c, d, e, f = (handle.char_oid_at(i) for i in (2, 3, 4, 5))
    session.delete_chars(handle.doc, [f, d, e])
    (state,) = session.server.awareness.cursors(handle.doc)
    assert state.anchor == c and handle.text() == "abcgh"
    session.delete_chars(handle.doc, [handle.char_oid_at(0)])
    (state,) = session.server.awareness.cursors(handle.doc)
    assert state.anchor == handle.begin_char


def test_redo_reads_the_anchor_again():
    """Between the undo and the redo, someone else deleted the anchor
    the delete first read: the redo reads the one in front of it."""
    collab = _server()
    collab.register_user("ben")
    ana, ben = collab.connect("ana"), collab.connect("ben")
    handle = ana.create_document("pad", text="abcdef")
    ben.open(handle.doc)
    ana.delete(handle.doc, 2, 2)                    # "cd", after "b"
    ana.undo(handle.doc)
    ben.delete(handle.doc, 1, 1)                    # "b"
    record: UndoRecord = ana.redo(handle.doc)
    assert handle.text() == "aef"
    assert record.anchor == handle.char_oid_at(0)   # "a"
    assert record.cursor_anchor(handle) == record.anchor
