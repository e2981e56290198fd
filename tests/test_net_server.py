"""Server-side behaviour of the network layer: auth, errors, batching,
awareness, reconnect, backpressure, and the in-process/wire mix.

Complements ``test_net_protocol.py`` (wire format + fuzz) and
``test_net_convergence.py`` (fault-plan convergence): these tests pin
the RPC semantics of :class:`~repro.net.CollabNetServer` over real
loopback sockets.
"""

from __future__ import annotations

import socket
from time import monotonic

import pytest

from repro.collab import CollaborationServer, EditorClient
from repro.errors import (
    AccessDenied,
    InvalidPositionError,
    NetError,
    UnknownPrincipalError,
)
from repro.net import NetworkClient, ServerThread
from repro.net.protocol import Delta

SETTLE_SECONDS = 10.0


@pytest.fixture
def collab():
    server = CollaborationServer()
    for user in ("ana", "ben"):
        server.register_user(user)
    return server


@pytest.fixture
def thread(collab):
    with ServerThread(collab) as t:
        yield t


def wait_until(condition, timeout: float = SETTLE_SECONDS) -> None:
    deadline = monotonic() + timeout
    while not condition():
        assert monotonic() < deadline, "condition never became true"


class TestHandshake:
    def test_token_required(self, collab):
        with ServerThread(collab, token="sesame") as t:
            with pytest.raises(AccessDenied):
                NetworkClient("127.0.0.1", t.port, "ana", token="wrong")
            client = NetworkClient("127.0.0.1", t.port, "ana",
                                   token="sesame")
            try:
                assert client.session_id > 0
            finally:
                client.close()

    def test_unknown_user_rejected(self, thread):
        with pytest.raises(UnknownPrincipalError):
            NetworkClient("127.0.0.1", thread.port, "stranger")

    def test_register_on_hello(self, collab, thread):
        client = NetworkClient("127.0.0.1", thread.port, "dora",
                               register=True)
        try:
            assert collab.principals.has_user("dora")
            assert client.session().user == "dora"
        finally:
            client.close()

    def test_session_identity_travels(self, collab, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana",
                               editor="vim", os_name="plan9")
        try:
            session = next(s for s in collab.sessions()
                           if s.id == client.session_id)
            assert (session.editor, session.os_name) == ("vim", "plan9")
        finally:
            client.close()


class TestRpcSemantics:
    def test_application_error_keeps_the_connection(self, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc", text="ab").doc
            with pytest.raises(InvalidPositionError):
                session.insert(doc, 99, "x")
            # The error was scoped to the op: the connection still works.
            session.insert(doc, 2, "c")
            assert session.handle(doc).text() == "abc"
        finally:
            client.close()

    def test_unknown_verb_is_an_application_error(self, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            with pytest.raises(NetError, match="unknown verb"):
                client._rpc("frobnicate", {})
            assert client.ping() < SETTLE_SECONDS
        finally:
            client.close()

    def test_acks_carry_the_durable_lsn(self, tmp_path):
        server = CollaborationServer(wal_path=str(tmp_path / "net.wal"))
        server.register_user("ana")
        with ServerThread(server) as t:
            client = NetworkClient("127.0.0.1", t.port, "ana")
            try:
                session = client.session()
                doc = session.create_document("doc").doc
                before = server.db.wal.durable_lsn
                session.insert(doc, 0, "x")
                # The insert's ACK is built after its own commit made it
                # to disk, so the durable LSN must have advanced.
                assert server.db.wal.durable_lsn > before
            finally:
                client.close()

    def test_batch_commits_as_one_transaction(self, collab, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc").doc
            commits_before = collab.db.stats["commits"]
            # OID-anchored typing, like the editor's cursor: positions
            # cannot resolve against a batch's uncommitted rows.
            with session.batch():
                anchor = session.handle(doc).begin_char
                for ch in "batch":
                    anchor = session.insert_after(doc, anchor, ch)[0]
            assert session.handle(doc).text() == "batch"
            assert collab.db.stats["commits"] == commits_before + 1
        finally:
            client.close()

    def test_batch_abort_rolls_back(self, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc", text="keep").doc
            with pytest.raises(RuntimeError):
                with session.batch():
                    session.insert(doc, 4, "!")
                    raise RuntimeError("editor crashed mid-batch")
            client.sync(doc)
            assert session.handle(doc).text() == "keep"
        finally:
            client.close()

    def test_undo_over_the_wire(self, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc", text="abc").doc
            session.insert(doc, 3, "d")
            session.undo(doc)
            assert session.handle(doc).text() == "abc"
            session.redo(doc)
            assert session.handle(doc).text() == "abcd"
        finally:
            client.close()


class TestAwareness:
    def test_cursor_broadcast(self, thread):
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="hello").doc
            h_ben = ben.session().open(doc)
            anchor = h_ben.char_oid_at(2)
            ben.publish_cursor(doc, anchor, ())
            cursors = ana.mirrors[doc].cursors
            wait_until(lambda: (ana.poll(timeout=0.05) or True)
                       and cursors[ben.session_id]["anchor"] == anchor)
            assert cursors[ben.session_id]["user"] == "ben"
        finally:
            ana.close()
            ben.close()

    def test_open_snapshot_carries_everyones_cursor(self, thread):
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="hello").doc
            EditorClient(s_ana, doc).move_to(3)
            assert ana.ping() < SETTLE_SECONDS   # the move was handled
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            # No frame since the open: the snapshot itself said so.
            assert s_ben.server.awareness.cursor_positions(h_ben) == {
                "ana": 3, "ben": 0}
            assert s_ben.server.awareness.participants(doc) == ["ana", "ben"]
        finally:
            ana.close()
            ben.close()

    def test_an_edits_cursor_arrives_with_its_text(self, thread):
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="hello").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            typist = EditorClient(s_ana, doc)
            typist.move_end()
            typist.type(" world")
            wait_until(lambda: (ben.poll(timeout=0.05) or True)
                       and h_ben.text() == "hello world")
            # Same poll, same frame: no second wait for the cursor.
            assert s_ben.server.awareness.cursor_positions(h_ben)["ana"] == 11
            typist.backspace(5)
            wait_until(lambda: (ben.poll(timeout=0.05) or True)
                       and h_ben.text() == "hello ")
            assert s_ben.server.awareness.cursor_positions(h_ben)["ana"] == 6
        finally:
            ana.close()
            ben.close()


class TestFramesPerKeystroke:
    """Exact counts, read from the server's own registry (no stats RPC
    in the way): a keystroke is OP, ACK, NOTIFY."""

    @staticmethod
    def frames(collab) -> int:
        snapshot = collab.db.metrics_snapshot()
        return (snapshot["net.frames_in"]["value"]
                + snapshot["net.frames_out"]["value"])

    def settled(self, collab, reader, handle, text: str) -> int:
        """Frame count once ``reader`` shows ``text`` and the server has
        gone quiet (an extra frame would still be in a send queue)."""
        wait_until(lambda: (reader.poll(timeout=0.05) or True)
                   and handle.text() == text)
        count, quiet_since = self.frames(collab), monotonic()
        while monotonic() - quiet_since < 0.2:
            reader.poll(timeout=0.02)
            if self.frames(collab) != count:
                count, quiet_since = self.frames(collab), monotonic()
        return count

    def test_exact_frame_counts(self, collab, thread):
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="hello world").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            typist = EditorClient(s_ana, doc)
            typist.move_to(5)
            base = self.settled(collab, ben, h_ben, "hello world")

            typist.type("!")
            typed = self.settled(collab, ben, h_ben, "hello! world")
            assert typed - base == 3

            typist.backspace()
            erased = self.settled(collab, ben, h_ben, "hello world")
            assert erased - typed == 3

            typist.move_to(2)       # AWARENESS in, AWARENESS out
            wait_until(lambda: (ben.poll(timeout=0.05) or True)
                       and s_ben.server.awareness.cursor_positions(
                           h_ben)["ana"] == 2)
            moved = self.settled(collab, ben, h_ben, "hello world")
            assert moved - erased == 2
            typist.move_to(2)       # the server holds it there already
            assert self.settled(collab, ben, h_ben, "hello world") == moved

            s_ana.copy_external("x" * 24, "elsewhere")
            copied = self.settled(collab, ben, h_ben, "hello world")
            assert copied - moved == 2      # OP, ACK: nothing to notify
            typist.paste()
            pasted = self.settled(collab, ben, h_ben,
                                  "he" + "x" * 24 + "llo world")
            assert pasted - copied == 3
            assert s_ben.server.awareness.cursor_positions(
                h_ben)["ana"] == 26
        finally:
            ana.close()
            ben.close()

    def test_rows_are_rendered_once_for_any_number_of_readers(
            self, collab, thread, monkeypatch):
        rendered = []
        render = Delta._render
        monkeypatch.setattr(
            Delta, "_render",
            lambda self: rendered.append(self.rep_seq) or render(self))
        for user in ("cleo", "dan", "eve"):
            collab.register_user(user)
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        readers = [NetworkClient("127.0.0.1", thread.port, user)
                   for user in ("ben", "cleo", "dan", "eve")]
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="hello").doc
            handles = [r.session().open(doc) for r in readers]
            typist = EditorClient(s_ana, doc)
            typist.move_end()
            del rendered[:]
            typist.type("!")
            for reader, handle in zip(readers, handles):
                wait_until(lambda: (reader.poll(timeout=0.05) or True)
                           and handle.text() == "hello!")
            # One delta, five recipients (the ACK's echo, four NOTIFYs).
            assert rendered == [ana.mirrors[doc].last_seq]
        finally:
            ana.close()
            for reader in readers:
                reader.close()


class TestReconnect:
    def test_reconnect_resyncs_missed_edits(self, thread):
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("doc", text="v1").doc
            h_ben = ben.session().open(doc)
            assert h_ben.text() == "v1"

            # Sever ben's link without a goodbye, then edit past him.
            ben._sock.close()
            ben._sock = None
            s_ana.insert(doc, 2, " v2")
            old_session = ben.session_id
            ben.reconnect()
            assert ben.reconnects == 1
            assert ben.session_id != old_session
            assert h_ben.text() == "v1 v2"
            # The healed replica keeps tracking the delta lane.
            s_ana.insert(doc, 5, " v3")
            wait_until(lambda: (ben.poll(timeout=0.05) or True)
                       and h_ben.text() == "v1 v2 v3")
        finally:
            ana.close()
            ben.close()


class TestMixedTopology:
    def test_in_process_commits_reach_wire_clients(self, collab, thread):
        """The call_soon_threadsafe fan-out leg: a local (in-process)
        editing session shares the server with socket clients."""
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            local = collab.connect("ben")
            doc = local.create_document("mixed", text="local").doc
            handle = client.session().open(doc)
            local.insert(doc, 5, " says hi")
            wait_until(lambda: (client.poll(timeout=0.05) or True)
                       and handle.text() == "local says hi")
        finally:
            client.close()

    def test_wire_commits_reach_in_process_handles(self, collab, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("mixed").doc
            local = collab.connect("ben")
            local_handle = local.open(doc)
            session.insert(doc, 0, "wire")
            # In-process handles splice synchronously on commit: the
            # RPC's ACK means the text is already visible locally.
            assert local_handle.text() == "wire"
        finally:
            client.close()


class TestBackpressure:
    def test_slow_consumer_is_shed_not_buffered(self, collab):
        """A victim that stops reading must be aborted once its bounded
        send queue overflows — the server never buffers unboundedly and
        healthy neighbours keep full service."""
        with ServerThread(collab, send_queue=4) as t:
            ana = NetworkClient("127.0.0.1", t.port, "ana")
            victim = NetworkClient("127.0.0.1", t.port, "ben")
            try:
                s_ana = ana.session()
                doc = s_ana.create_document("flood").doc
                victim.session().open(doc)
                # Shrink the victim's receive window so the kernel
                # can't soak up the flood on the server's behalf.
                victim._sock.setsockopt(socket.SOL_SOCKET,
                                        socket.SO_RCVBUF, 4096)
                payload = "y" * 2048
                deadline = monotonic() + SETTLE_SECONDS
                while True:
                    s_ana.insert(doc, 0, payload)
                    stats = ana.server_stats()["net"]
                    if stats["backpressure_closes"] >= 1:
                        break
                    assert monotonic() < deadline, \
                        "flood never triggered a shed"
                # The victim was aborted; the writer was never blocked.
                assert ana.ping() < SETTLE_SECONDS
                with pytest.raises(NetError):
                    deadline = monotonic() + SETTLE_SECONDS
                    while True:
                        victim.ping()
                        assert monotonic() < deadline, \
                            "victim connection survived the shed"
            finally:
                ana.close()
                victim.close()


class TestLifecycle:
    def test_ephemeral_port_allocation(self, collab):
        with ServerThread(collab) as a, ServerThread(collab) as b:
            assert a.port != b.port
            assert a.port > 0

    def test_bind_failure_surfaces_in_start(self, collab):
        with ServerThread(collab) as running:
            clash = ServerThread(collab, port=running.port)
            with pytest.raises(NetError, match="failed to start"):
                clash.start()

    def test_stop_disconnects_sessions(self, collab):
        t = ServerThread(collab).start()
        client = NetworkClient("127.0.0.1", t.port, "ana")
        try:
            assert len(collab.sessions()) == 1
            t.stop()
            wait_until(lambda: len(collab.sessions()) == 0)
        finally:
            client.close()

    def test_net_metrics_land_in_the_engine_snapshot(self, collab, thread):
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc").doc
            session.insert(doc, 0, "x")
            client.ping()
        finally:
            client.close()
        snapshot = collab.db.metrics_snapshot()
        assert snapshot["net.connects"]["value"] >= 1
        assert snapshot["net.ops"]["value"] >= 2
        assert snapshot["net.op_seconds"]["count"] >= 2
        from repro.obs.catalogue import unknown_names
        assert unknown_names(snapshot) == []

    def test_remembered_series_survive_label_churn(self, collab, thread):
        """The server remembers a verb's series instead of resolving it
        per frame; a flood of other labels (the family evicts past 64)
        must not leave it observing into an unregistered series."""
        client = NetworkClient("127.0.0.1", thread.port, "ana")
        try:
            session = client.session()
            doc = session.create_document("doc").doc
            session.insert(doc, 0, "a")
            for i in range(80):
                with pytest.raises(NetError, match="unknown verb"):
                    client._rpc(f"junk-{i}", {})
            session.insert(doc, 1, "b")
        finally:
            client.close()
        series = collab.db.metrics_snapshot()["net.op_seconds{verb=insert}"]
        assert series["count"] >= 1
