"""The gate on what a keystroke leaves behind (tools/keystroke_heap.py).

What made edits slow was not the CPU of any one step but the heap each
keystroke retained — dict trees in the in-memory log — and the full
collections that heap bought.  Retained bytes per typed character is
deterministic enough at 2 000 operations to gate in tier 1: the log
holding row images as dicts again, or anything of that weight creeping
back onto the per-keystroke path, trips it.
"""

from __future__ import annotations

import importlib.util
import os

from repro.collab import CollaborationServer, EditorClient
from repro.db import wal as walmod

_TOOL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "keystroke_heap.py")


def _tool():
    spec = importlib.util.spec_from_file_location("keystroke_heap", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_typed_character_retains_at_most_4_kb():
    """Measured 3 510 B and 17.7 GC-tracked objects (4 322 B and 21.2
    while every keystroke also kept an access-log row, its Oid, three
    index entries, a WAL record and a version); pinned 15 % above."""
    report = _tool().retained(2000, doc_chars=3000)
    assert report["retained_bytes_per_op"] <= 4040, report
    assert report["retained_objects_per_op"] <= 20.4, report


def test_dml_records_hold_no_dict():
    """The in-memory log keeps stored tuples, not column mappings."""
    server = CollaborationServer()
    try:
        server.register_user("ana")
        session = server.connect("ana")
        editor = EditorClient(
            session, session.create_document("d", text="some text").doc)
        for ch in "typed":
            editor.type(ch)
        editor.select(0, 3)
        editor.copy()
        editor.paste()
        editor.backspace(2)
        dml = [r for r in server.db.wal.records() if r.type in walmod.DML]
        assert len(dml) > 30
        chars = server.db.table("tx_chars")
        stored = {id(row) for __, row in chars.committed_items()}
        for record in dml:
            # No mapping of its own: the payload slot is the one shared
            # empty constant, the row rides as two flat tuples.
            assert record.payload is walmod._NO_PAYLOAD
            assert type(record.cols) is tuple and type(record.vals) is tuple
            assert not any(isinstance(value, dict) for value in record.vals)
            if record.type == walmod.UPDATE:
                assert len(record.cols) < len(chars.schema.columns)
        # An INSERT's image *is* the table's row: shared, never copied.
        assert any(id(r.vals) in stored for r in dml
                   if r.type == walmod.INSERT and r.table == "tx_chars")
    finally:
        server.shutdown()
