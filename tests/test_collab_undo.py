"""Tests for local and global undo/redo."""

import pytest

from repro.collab import CollaborationServer
from repro.errors import UndoError


@pytest.fixture
def server():
    server = CollaborationServer()
    for user in ("ana", "ben"):
        server.register_user(user)
    return server


@pytest.fixture
def setup(server):
    s1 = server.connect("ana")
    s2 = server.connect("ben")
    handle = s1.create_document("d", text="base ")
    s2.open(handle.doc)
    return server, s1, s2, handle.doc


class TestLocalUndo:
    def test_undo_own_insert(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "mine")
        s1.undo(doc)
        assert s1.handle(doc).text() == "base "

    def test_undo_skips_other_users_ops(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "ana1 ")
        s2.insert(doc, 0, "ben1 ")
        # ana's local undo reverts her op even though ben edited after.
        s1.undo(doc)
        assert s1.handle(doc).text() == "ben1 base "

    def test_undo_delete_restores(self, setup):
        server, s1, s2, doc = setup
        s1.delete(doc, 0, 4)
        assert s1.handle(doc).text() == " "
        s1.undo(doc)
        assert s1.handle(doc).text() == "base "

    def test_undo_style_restores_previous(self, setup):
        server, s1, s2, doc = setup
        bold = server.styles.define_style("b", {"bold": True}, "ana")
        italic = server.styles.define_style("i", {"italic": True}, "ana")
        s1.apply_style(doc, 0, 4, bold)
        s1.apply_style(doc, 0, 4, italic)
        s1.undo(doc)
        runs = s1.handle(doc).styled_runs()
        assert runs[0][1] == bold
        s1.undo(doc)
        assert s1.handle(doc).styled_runs()[0][1] is None

    def test_nothing_to_undo(self, setup):
        server, s1, s2, doc = setup
        with pytest.raises(UndoError):
            s2.undo(doc)

    def test_undo_stack_depth(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 0, "a")
        s1.insert(doc, 0, "b")
        assert server.undo.undo_depth(doc, "ana") == 2
        s1.undo(doc)
        assert server.undo.undo_depth(doc, "ana") == 1
        s1.undo(doc)
        with pytest.raises(UndoError):
            s1.undo(doc)


class TestRedo:
    def test_redo_roundtrip(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "x")
        s1.undo(doc)
        s1.redo(doc)
        assert s1.handle(doc).text() == "base x"

    def test_redo_cleared_by_new_op(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "x")
        s1.undo(doc)
        s1.insert(doc, 5, "y")
        with pytest.raises(UndoError):
            s1.redo(doc)

    def test_redo_empty(self, setup):
        server, s1, s2, doc = setup
        with pytest.raises(UndoError):
            s1.redo(doc)

    def test_undo_redo_undo_chain(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "1")
        s1.insert(doc, 6, "2")
        s1.undo(doc)
        s1.undo(doc)
        s1.redo(doc)
        assert s1.handle(doc).text() == "base 1"
        s1.redo(doc)
        assert s1.handle(doc).text() == "base 12"


class TestGlobalUndo:
    def test_global_undo_reverts_any_users_op(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "ana ")
        s2.insert(doc, 0, "ben ")
        # ana globally undoes ben's operation (the most recent).
        s1.undo_global(doc)
        assert s1.handle(doc).text() == "base ana "

    def test_global_redo(self, setup):
        server, s1, s2, doc = setup
        s2.insert(doc, 0, "ben ")
        s1.undo_global(doc)
        s1.redo_global(doc)
        assert s1.handle(doc).text() == "ben base "

    def test_global_undo_walks_back_through_history(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "1")
        s2.insert(doc, 6, "2")
        s1.insert(doc, 7, "3")
        for __ in range(3):
            s2.undo_global(doc)
        assert s1.handle(doc).text() == "base "

    def test_global_and_local_interplay(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "A")
        s2.insert(doc, 6, "B")
        s1.undo(doc)          # removes A (ana's local)
        assert s1.handle(doc).text() == "base B"
        s2.undo_global(doc)   # most recent not-undone op is ben's B
        assert s1.handle(doc).text() == "base "

    def test_global_nothing_to_undo(self, setup):
        server, s1, s2, doc = setup
        with pytest.raises(UndoError):
            s1.undo_global(doc)


class TestUndoUnderConcurrency:
    def test_undo_insert_after_remote_edits_around_it(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "XYZ")
        s2.insert(doc, 0, ">>")       # shifts everything
        s2.insert(doc, 10, "<<")      # inserts inside/after
        s1.undo(doc)                  # removes exactly XYZ wherever it is
        text = s1.handle(doc).text()
        assert "X" not in text and "Y" not in text and "Z" not in text
        assert s1.handle(doc).check_integrity() == []

    def test_history_log_records_all_ops(self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 0, "a")
        s2.insert(doc, 0, "b")
        s1.delete(doc, 0, 1)
        history = server.undo.history(doc)
        assert [r.kind for r in history] == ["insert", "insert", "delete"]
        assert [r.user for r in history] == ["ana", "ben", "ana"]


class TestSizeAccountingUnderOverlappingUndo:
    def test_undo_of_insert_after_remote_delete_keeps_size_exact(
            self, setup):
        server, s1, s2, doc = setup
        s1.insert(doc, 5, "XY")
        s2.delete(doc, 5, 2)       # ben deletes ana's fresh chars
        s1.undo(doc)               # ana undoes her insert (already gone)
        handle = s1.handle(doc)
        assert server.documents.meta(doc)["size"] == handle.length()
        s1.redo(doc)               # resurrects XY exactly once
        assert handle.text() == "base XY"
        assert server.documents.meta(doc)["size"] == handle.length()

    def test_double_undelete_is_idempotent(self, setup):
        server, s1, s2, doc = setup
        oids = s1.delete(doc, 0, 2)
        handle = s1.handle(doc)
        handle.undelete_chars(oids, "ana")
        handle.undelete_chars(oids, "ana")   # second time: no-op
        assert handle.text() == "base "
        assert server.documents.meta(doc)["size"] == handle.length()
