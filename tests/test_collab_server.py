"""Tests for the collaboration server, sessions and propagation."""

import pytest

from repro.collab import CollaborationServer
from repro.errors import (
    AccessDenied,
    ClipboardError,
    InvalidPositionError,
    SessionError,
    UnknownPrincipalError,
)
from repro.text import dbschema as S


@pytest.fixture
def server():
    server = CollaborationServer()
    for user in ("ana", "ben", "cleo"):
        server.register_user(user)
    return server


@pytest.fixture
def doc(server):
    session = server.connect("ana")
    handle = session.create_document("shared", text="hello world")
    session.disconnect()
    return handle.doc


class TestConnection:
    def test_connect_requires_registered_user(self, server):
        with pytest.raises(UnknownPrincipalError):
            server.connect("stranger")

    def test_register_with_roles(self, server):
        server.register_user("dora", roles=("reviewer",))
        assert "reviewer" in server.principals.roles_of("dora")

    def test_register_idempotent(self, server):
        server.register_user("ana")  # no UniqueViolation
        assert server.principals.has_user("ana")

    def test_sessions_tracked(self, server):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        assert {s.user for s in server.sessions()} == {"ana", "ben"}
        s1.disconnect()
        assert {s.user for s in server.sessions()} == {"ben"}
        s2.disconnect()

    def test_disconnected_session_rejects_work(self, server):
        session = server.connect("ana")
        session.disconnect()
        with pytest.raises(SessionError):
            session.create_document("x")


class TestEditingVerbs:
    def test_insert_delete(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        session.insert(doc, 5, ",")
        assert session.handle(doc).text() == "hello, world"
        session.delete(doc, 0, 2)
        assert session.handle(doc).text() == "llo, world"

    def test_delete_out_of_range(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(InvalidPositionError):
            session.delete(doc, 8, 100)

    def test_ops_require_open_document(self, server, doc):
        session = server.connect("ben")
        with pytest.raises(SessionError):
            session.insert(doc, 0, "x")

    def test_apply_style(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        style = server.styles.define_style("b", {"bold": True}, "ben")
        session.apply_style(doc, 0, 5, style)
        runs = session.handle(doc).styled_runs()
        assert runs[0] == ("hello", style)

    def test_concurrent_sessions_converge(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        h1, h2 = s1.open(doc), s2.open(doc)
        s1.insert(doc, 0, "A")
        s2.insert(doc, h2.length(), "B")
        s1.insert(doc, 3, "C")
        assert h1.text() == h2.text()
        assert h1.check_integrity() == []


class TestSecurityEnforcement:
    def test_write_denied_after_restriction(self, server, doc):
        # Restrict write to a role ben does not hold.
        server.register_user("ana")
        server.acl.grant(doc, "editors", "write", "ana")
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(AccessDenied):
            session.insert(doc, 0, "x")

    def test_creator_still_writes(self, server, doc):
        server.acl.grant(doc, "editors", "write", "ana")
        session = server.connect("ana")
        session.open(doc)
        session.insert(doc, 0, "x")  # creator bypasses restriction

    def test_read_denied_blocks_open(self, server, doc):
        server.acl.grant(doc, "insiders", "read", "ana")
        session = server.connect("cleo")
        with pytest.raises(AccessDenied):
            session.open(doc)

    def test_protected_range_blocks_delete(self, server, doc):
        ana = server.connect("ana")
        handle = ana.open(doc)
        server.acl.protect_range(handle, 0, 5, "ana")
        ben = server.connect("ben")
        ben.open(doc)
        with pytest.raises(AccessDenied):
            ben.delete(doc, 0, 3)
        # Inserts *between* protected chars are allowed.
        ben.insert(doc, 2, "!")
        # And deleting unprotected text is fine.
        ben.delete(doc, 7, 2)

    def test_layout_permission_separate_from_write(self, server, doc):
        server.acl.grant(doc, "designers", "layout", "ana")
        ben = server.connect("ben")
        ben.open(doc)
        style = server.styles.define_style("b", {"bold": True}, "ben")
        with pytest.raises(AccessDenied):
            ben.apply_style(doc, 0, 2, style)
        ben.insert(doc, 0, "x")  # write still open


class TestClipboard:
    def test_copy_paste_internal_lineage(self, server, doc):
        session = server.connect("ben")
        handle = session.open(doc)
        session.copy(doc, 0, 5)
        session.paste(doc, handle.length())
        assert handle.text() == "hello worldhello"
        copylog = server.db.query(S.COPYLOG).run()
        assert len(copylog) == 1
        assert copylog[0]["src_doc"] == doc
        assert copylog[0]["n_chars"] == 5

    def test_paste_external_source(self, server, doc):
        session = server.connect("ben")
        handle = session.open(doc)
        session.copy_external("quoted", "https://example.org")
        session.paste(doc, 0)
        assert handle.text().startswith("quoted")
        copylog = server.db.query(S.COPYLOG).run()
        assert copylog[0]["external_source"] == "https://example.org"
        assert copylog[0]["src_doc"] is None

    def test_paste_empty_clipboard(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(ClipboardError):
            session.paste(doc, 0)

    def test_copy_out_of_range(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(ClipboardError):
            session.copy(doc, 8, 100)

    def test_cross_document_paste(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        other = session.create_document("notes", text="")
        session.copy(doc, 6, 5)  # "world"
        session.paste(other.doc, 0)
        assert other.text() == "world"
        copylog = server.db.query(S.COPYLOG).run()
        assert copylog[0]["src_doc"] == doc
        assert copylog[0]["dst_doc"] == other.doc


class TestNotifications:
    def test_other_sessions_notified(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s1.insert(doc, 0, "x")
        notes = s2.notifications()
        assert len(notes) == 1
        assert notes[0].origin_user == "ana"
        assert notes[0].doc == doc
        assert S.CHARS in notes[0].tables
        # Originator gets no echo.
        assert s1.notifications() == []

    def test_sessions_without_doc_not_notified(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s1.insert(doc, 0, "x")
        assert s2.notifications() == []

    def test_drain_clears_inbox(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s1.insert(doc, 0, "x")
        s2.notifications()
        assert s2.notifications() == []

    def test_close_stops_notifications(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s2.close(doc)
        s1.insert(doc, 0, "x")
        assert s2.notifications() == []


class TestAwareness:
    def test_participants(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        assert server.awareness.participants(doc) == ["ana", "ben"]
        s2.close(doc)
        assert server.awareness.participants(doc) == ["ana"]

    def test_cursor_positions(self, server, doc):
        s1 = server.connect("ana")
        handle = s1.open(doc)
        s1.set_cursor(doc, 4)
        positions = server.awareness.cursor_positions(handle)
        assert positions["ana"] == 4

    def test_cursor_shifts_with_remote_insert(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        handle = s1.open(doc)
        s2.open(doc)
        s1.set_cursor(doc, 4)
        s2.insert(doc, 0, ">>>")
        assert server.awareness.cursor_positions(handle)["ana"] == 7

    def test_cursor_slides_left_when_anchor_deleted(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        handle = s1.open(doc)
        s2.open(doc)
        s1.set_cursor(doc, 5)
        s2.delete(doc, 2, 4)  # removes the cursor's anchor char
        pos = server.awareness.cursor_positions(handle)["ana"]
        assert pos == 2

    def test_activity_feed(self, server, doc):
        s1 = server.connect("ana")
        s1.open(doc)
        s1.insert(doc, 0, "x")
        feed = server.awareness.recent_activity()
        assert any(e["what"] == "InsertText" for e in feed)

    def test_shutdown(self, server, doc):
        s1 = server.connect("ana")
        s1.open(doc)
        server.shutdown()
        assert server.sessions() == []


class TestObjectOperations:
    def test_insert_image_undoable(self, server, doc):
        session = server.connect("ben")
        handle = session.open(doc)
        session.insert_image(doc, 2, name="f.png", width=8, height=8)
        assert len(server.objects.objects_in(doc)) == 1
        session.undo(doc)
        assert server.objects.objects_in(doc) == []
        session.redo(doc)
        assert len(server.objects.objects_in(doc)) == 1

    def test_table_lifecycle_with_undo(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        table = session.insert_table(doc, 0, rows=2, cols=2)
        session.set_cell(doc, table, 0, 0, "v")
        assert server.objects.get(table)["data"]["cells"][0][0] == "v"
        session.delete_object(doc, table)
        assert server.objects.objects_in(doc) == []
        session.undo(doc)        # restores the table (cell kept)
        assert server.objects.get(table)["data"]["cells"][0][0] == "v"

    def test_object_ops_respect_write_permission(self, server, doc):
        server.acl.grant(doc, "editors", "write", "ana")
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(AccessDenied):
            session.insert_image(doc, 0, name="f", width=1, height=1)

    def test_object_ops_notify_other_sessions(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s1.insert_table(doc, 0, rows=1, cols=1)
        notes = s2.notifications()
        assert len(notes) == 1
        assert "tx_objects" in notes[0].tables

    def test_global_undo_covers_objects(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s2.insert_image(doc, 0, name="f", width=1, height=1)
        s1.undo_global(doc)
        assert server.objects.objects_in(doc) == []


class TestStructureOperations:
    def test_add_node_spanning_range(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        node = session.add_structure_node(doc, "section", label="Intro",
                                          start_pos=0, end_pos=4)
        row = server.structure.node(node)
        assert row["label"] == "Intro"
        assert server.structure.node_text(session.handle(doc), node) == \
            "hello"

    def test_structure_permission_enforced(self, server, doc):
        server.acl.grant(doc, "architects", "structure", "ana")
        session = server.connect("ben")
        session.open(doc)
        with pytest.raises(AccessDenied):
            session.add_structure_node(doc, "section")
        # write permission is unaffected.
        session.insert(doc, 0, "x")

    def test_move_and_remove(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        a = session.add_structure_node(doc, "section", label="A")
        b = session.add_structure_node(doc, "section", label="B")
        session.move_structure_node(doc, b, None, -1)
        roots = server.structure.roots(doc)
        assert [r["label"] for r in roots] == ["B", "A"]
        assert session.remove_structure_node(doc, a) == 1

    def test_structure_change_notifies(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s1.add_structure_node(doc, "section")
        notes = s2.notifications()
        assert notes and "tx_structure" in notes[0].tables


class TestServerStatistics:
    def test_statistics_snapshot(self, server, doc):
        session = server.connect("ana")
        session.open(doc)
        session.insert(doc, 0, "x")
        stats = server.statistics()
        assert stats["sessions"] == 1
        assert stats["documents"] == 1
        assert stats["characters"] >= 12
        assert stats["operations"] >= 1
        assert stats["db_commits"] > 0
        assert stats["wal_records"] > 0


class TestPasteIntegrity:
    def test_denied_paste_leaves_no_lineage(self, server, doc):
        server.acl.grant(doc, "editors", "write", "ana")
        ben = server.connect("ben")
        # ben can read but not write.
        handle = ben.open(doc)
        ben.clipboard.set_external("stolen text", "mail")
        with pytest.raises(AccessDenied):
            ben.paste(doc, 0)
        assert server.db.query(S.COPYLOG).count() == 0
        assert handle.text() == "hello world"

    def test_invalid_position_paste_leaves_no_lineage(self, server, doc):
        ben = server.connect("ben")
        ben.open(doc)
        ben.clipboard.set_external("x", "mail")
        with pytest.raises(InvalidPositionError):
            ben.paste(doc, 999)
        assert server.db.query(S.COPYLOG).count() == 0


class TestNoteVerbs:
    def test_add_and_resolve_note(self, server, doc):
        session = server.connect("ben")
        session.open(doc)
        note = session.add_note(doc, 2, "please verify")
        assert server.notes.get(note)["author"] == "ben"
        session.resolve_note(doc, note)
        assert server.notes.notes_in(doc) == []

    def test_note_requires_write(self, server, doc):
        server.acl.grant(doc, "editors", "write", "ana")
        session = server.connect("cleo")
        session.open(doc)
        with pytest.raises(AccessDenied):
            session.add_note(doc, 0, "sneaky")

    def test_note_notifies_sessions(self, server, doc):
        s1 = server.connect("ana")
        s2 = server.connect("ben")
        s1.open(doc)
        s2.open(doc)
        s1.add_note(doc, 0, "hello margin")
        notes = s2.notifications()
        assert notes and "tx_notes" in notes[0].tables


class TestStatisticsThreadSafety:
    """Regression: ``server.stats`` was a plain dict mutated with ``+=``,
    which silently lost increments when sessions operated from multiple
    threads.  The counters now live in the obs registry; operation counts
    must be exact however many threads drive the server."""

    def test_operation_count_exact_under_concurrent_sessions(self, server):
        import threading

        n_threads, ops_each = 4, 25
        workers = []
        for i in range(n_threads):
            user = f"typist{i}"
            server.register_user(user)
            session = server.connect(user)
            handle = session.create_document(f"pad-{i}", text="seed ")
            workers.append((session, handle.doc))
        base_ops = server.stats["operations"]
        barrier = threading.Barrier(n_threads)
        errors = []

        def hammer(session, doc):
            try:
                barrier.wait()
                for __ in range(ops_each):
                    session.insert(doc, 0, "x")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=worker)
                   for worker in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert server.stats["operations"] - base_ops \
            == n_threads * ops_each
        stats = server.statistics()
        assert stats["operations"] == server.stats["operations"]
        assert stats["sessions"] == n_threads

    def test_statistics_merge_into_the_obs_registry(self, server):
        session = server.connect("ana")
        handle = session.create_document("obs", text="hello")
        session.insert(handle.doc, 0, "x")
        snapshot = server.db.metrics_snapshot()
        assert snapshot["collab.op_seconds"]["count"] \
            == server.stats["operations"]
        assert snapshot["collab.sessions"]["value"] == len(server.sessions())
        session.disconnect()
        assert server.db.metrics_snapshot()["collab.sessions"]["value"] \
            == len(server.sessions())


class TestHeldDeliveryMetrics:
    """Regression: ``collab.held_seconds`` must be observed exactly once
    per held notification — at the drain that releases it — and never
    for notifications that were delivered immediately."""

    def test_drain_observes_held_seconds_once_per_notification(self):
        from repro.faults import DeliveryFault, FaultInjector, FaultPlan

        plan = FaultPlan(delivery=DeliveryFault(p_hold=1.0, reorder=True),
                         seed=11)
        server = CollaborationServer(node="held",
                                     faults=FaultInjector(plan))
        for user in ("ana", "ben"):
            server.register_user(user)
        ana = server.connect("ana")
        ben = server.connect("ben")
        handle = ana.create_document("held", text="seed ")
        ben.open(handle.doc)
        for i in range(5):
            ana.insert(handle.doc, i, "x")
        held = server.delivery.stats["held"]
        assert held == 5
        assert server.db.metrics_snapshot()[
            "collab.held_seconds"]["count"] == 0
        assert server.delivery.drain() == held
        snapshot = server.db.metrics_snapshot()
        assert snapshot["collab.held_seconds"]["count"] == held
        # Draining an empty backlog must not fabricate observations.
        assert server.delivery.drain() == 0
        assert server.db.metrics_snapshot()[
            "collab.held_seconds"]["count"] == held

    def test_immediate_delivery_never_counts_as_held(self, server, doc):
        ana = server.connect("ana")
        ben = server.connect("ben")
        ana.open(doc)
        ben.open(doc)
        ana.insert(doc, 0, "x")
        snapshot = server.db.metrics_snapshot()
        assert snapshot["collab.held_seconds"]["count"] == 0
        assert snapshot["collab.replication_seconds"]["count"] >= 1


class TestDisconnectMidBatchOverTheWire:
    """A wire client killed between ``batch_begin`` and ``batch_end``
    must leave no trace: the reaper rolls the partial batch back and
    releases the op lock so surviving clients keep full service."""

    def test_dead_client_batch_rolls_back_and_frees_the_lock(self):
        from time import monotonic

        from repro.net import NetworkClient, ServerThread

        collab = CollaborationServer()
        for user in ("ana", "ben"):
            collab.register_user(user)
        with ServerThread(collab) as thread:
            ana = NetworkClient("127.0.0.1", thread.port, "ana")
            ben = NetworkClient("127.0.0.1", thread.port, "ben")
            try:
                s_ana = ana.session()
                doc = s_ana.create_document("doc", text="keep").doc
                h_ben = ben.session().open(doc)
                dead_id = ana.session_id
                aborts_before = collab.db.stats["aborts"]

                # Open a batch, write into it, then die without a
                # batch_end or a BYE — just a severed socket.
                ana._rpc("batch_begin", {})
                anchor = s_ana.handle(doc).begin_char
                s_ana.insert_after(doc, anchor, "!")
                ana._sock.close()
                ana._sock = None

                deadline = monotonic() + 10.0
                while any(s.id == dead_id for s in collab.sessions()):
                    assert monotonic() < deadline, "session never reaped"
                # The reaper aborted the partial batch: nothing of the
                # uncommitted insert survives on the server...
                assert collab.db.stats["aborts"] > aborts_before
                judge = collab.connect("ben")
                assert judge.open(doc).text() == "keep"
                # ...and the op lock is free: the survivor can edit.
                s_ben = ben.session()
                s_ben.insert(doc, 4, "ers")
                ben.sync(doc)
                assert h_ben.text() == "keepers"
            finally:
                ana.close()
                ben.close()
