"""The post-commit spine: one call after a commit, one feed behind it.

Two properties of :meth:`repro.db.engine.Database.on_commit` ->
:meth:`repro.feed.changefeed.Changefeed.publish` that no single layer's
tests can see:

* **State before notice.**  When a ``Notification`` reaches an inbox or
  a ``NOTIFY`` is queued for a connection, every open handle of that
  document already returns the post-commit text and every sync
  state-keeping consumer has acked the batch — whenever it subscribed
  relative to the servers.
* **A failing fan-out costs nobody a commit.**  The typist's call
  returns, the transaction is counted and finished, the other editors
  are told, and the failure is on the feed's error list under the
  fan-out's name.
"""

from __future__ import annotations

from time import monotonic

import pytest

from repro.collab import CollaborationServer
from repro.collab.session import EditingSession
from repro.faults import DeliveryFault, FaultInjector, FaultPlan
from repro.folders import DynamicFolderManager
from repro.meta import MetadataCollector
from repro.net import NetworkClient, ServerThread
from repro.net.protocol import Notify
from repro.text import chars as C

USERS = ("ana", "ben", "cleo")
PASTE = "twenty-four chars pasted"
assert len(PASTE) == 24


def make_server(faults=None) -> CollaborationServer:
    server = CollaborationServer(faults=faults)
    for user in USERS:
        server.register_user(user)
    return server


def state_at_notice(server: CollaborationServer, doc) -> dict:
    """What an editor told of a change to ``doc`` could observe now."""
    feed = server.db.changefeed()
    begin = server.documents.meta(doc)["begin_char"]
    return {
        "committed": C.chain_text(server.db, doc, begin),
        "handles": {s.user: s.handle(doc).text()
                    for s in server.sessions() if s.has_open(doc)},
        "head": feed.last_seq,
        "acked": {s.name: s.acked_seq for s in feed.subscriptions()
                  if "-fanout" not in s.name and not s.deferred},
    }


def assert_state_precedes(probes: list[dict]) -> None:
    assert probes
    for probe in probes:
        for user, text in probe["handles"].items():
            assert text == probe["committed"], (user, probe)
        assert {"dynamic-folders", "meta-collector"} <= set(probe["acked"])
        for name, acked in probe["acked"].items():
            assert acked == probe["head"], (name, probe)


def edit_mix(server: CollaborationServer, session, doc) -> int:
    """A typed character, a 24-char paste, a delete and a batch; returns
    the number of commits made."""
    session.insert(doc, 5, "!")
    session.copy_external(PASTE, "elsewhere")
    session.paste(doc, 0)
    session.delete(doc, 2, 3)
    with server.db.batch():
        for ch in "abc":
            session.insert(doc, 1, ch)
    return 4


@pytest.fixture
def probed_notify(monkeypatch):
    """Record the observable state each time a notification lands."""
    probes: list[dict] = []
    landed = EditingSession._notify

    def _notify(self, notification):
        probes.append(state_at_notice(self.server, notification.doc))
        landed(self, notification)

    monkeypatch.setattr(EditingSession, "_notify", _notify)
    return probes


class TestStateBeforeNotice:
    def test_in_process_inbox(self, probed_notify):
        server = make_server()
        ana, ben, cleo = (server.connect(user) for user in USERS)
        doc = ana.create_document("pad", text="hello world").doc
        # Subscribed after the server's fan-out, the replica first of all.
        ben.open(doc)
        folders = DynamicFolderManager(server.db)
        collector = MetadataCollector(server.db)
        cleo.open(doc)
        commits = edit_mix(server, ana, doc)
        # (The batch commits outside any operation: ana is told as well.)
        assert len(probed_notify) == 2 * commits + 1
        assert_state_precedes(probed_notify)
        assert len(ben.notifications()) == commits
        assert ana.handle(doc).text() == ben.handle(doc).text()
        assert server.db.changefeed().errors == []
        folders.close(); collector.close()

    def test_held_and_reordered_delivery_after_drain(self, probed_notify):
        plan = FaultPlan(delivery=DeliveryFault(p_hold=0.6, reorder=True),
                         seed=19)
        server = make_server(FaultInjector(plan))
        ana, ben, cleo = (server.connect(user) for user in USERS)
        doc = ana.create_document("pad", text="hello world").doc
        ben.open(doc)
        folders = DynamicFolderManager(server.db)
        collector = MetadataCollector(server.db)
        cleo.open(doc)
        commits = edit_mix(server, ana, doc)
        assert server.delivery.pending
        server.delivery.drain()
        # Held notices land late, never early and never lost.
        assert len(probed_notify) == 2 * commits + 1
        assert_state_precedes(probed_notify)
        assert len(cleo.notifications()) == commits
        folders.close(); collector.close()

    def test_wire_notify(self):
        server = make_server()
        probes: list[dict] = []
        with ServerThread(server) as thread:
            enqueue = thread.server._enqueue

            def probing_enqueue(conn, envelope):
                if isinstance(envelope, Notify):
                    probes.append(state_at_notice(server, envelope.delta.doc))
                enqueue(conn, envelope)

            thread.server._enqueue = probing_enqueue
            ana = NetworkClient("127.0.0.1", thread.port, "ana")
            ben = NetworkClient("127.0.0.1", thread.port, "ben")
            try:
                remote = ana.session()
                doc = remote.create_document("pad", text="hello world").doc
                mirror = ben.session().open(doc)
                folders = DynamicFolderManager(server.db)
                collector = MetadataCollector(server.db)
                remote.insert(doc, 5, "!")
                remote.copy_external(PASTE, "elsewhere")
                remote.paste(doc, 0)
                remote.delete(doc, 2, 3)
                ana._rpc("batch_begin", {})
                for ch in "abc":
                    remote.insert(doc, 1, ch)
                ana._rpc("batch_end", {})
                final = remote.handle(doc).text()
                deadline = monotonic() + 10.0
                while mirror.text() != final:
                    assert monotonic() < deadline, "ben never converged"
                    ben.poll(timeout=0.05)
            finally:
                ana.close()
                ben.close()
        assert len(probes) == 4
        assert_state_precedes(probes)
        assert server.db.changefeed().errors == []
        folders.close(); collector.close()


class TestAFailingFanOutIsIsolated:
    @staticmethod
    def commit_counts(server) -> tuple:
        snapshot = server.db.metrics_snapshot()
        return (snapshot["txn.committed"]["value"],
                snapshot["txn.commit_seconds"]["count"],
                snapshot["txn.duration_seconds"]["count"],
                snapshot["feed.consumer_errors"]["value"])

    def test_in_process_inbox_that_raises(self, monkeypatch):
        server = make_server()
        ana, ben, cleo = (server.connect(user) for user in USERS)
        doc = ana.create_document("pad", text="hello").doc
        ben.open(doc)
        cleo.open(doc)

        def broken(notification):
            raise RuntimeError("inbox bug")

        monkeypatch.setattr(ben, "_notify", broken)
        committed, timed, finished, errors = self.commit_counts(server)
        assert ana.insert(doc, 5, "!")          # returns, does not raise
        assert ana.handle(doc).text() == "hello!"
        assert self.commit_counts(server) == (
            committed + 1, timed + 1, finished + 1, errors + 1)
        snapshot = server.db.metrics_snapshot()
        assert snapshot["txn.active"]["value"] == 0   # span and all closed
        assert len(cleo.notifications()) == 1         # told, after ben
        name, exc = server.db.changefeed().errors[-1]
        assert name == "collab-fanout" and isinstance(exc, RuntimeError)
        # The next keystroke is business as usual.
        monkeypatch.undo()
        ana.insert(doc, 6, "?")
        assert len(ben.notifications()) == 1
        assert self.commit_counts(server)[3] == errors + 1

    def test_wire_connection_whose_enqueue_raises(self):
        server = make_server()
        with ServerThread(server, telemetry_interval=0.0) as thread:
            telemetry = thread.server.telemetry
            clients = [NetworkClient("127.0.0.1", thread.port, user)
                       for user in USERS]
            ana, ben, cleo = clients
            try:
                remote = ana.session()
                doc = remote.create_document("pad", text="hello").doc
                ben.session().open(doc)
                mirror = cleo.session().open(doc)
                enqueue = thread.server._enqueue

                def broken_for_ben(conn, envelope):
                    if isinstance(envelope, Notify) \
                            and conn.session.id == ben.session_id:
                        raise RuntimeError("send queue bug")
                    enqueue(conn, envelope)

                thread.server._enqueue = broken_for_ben
                base = telemetry.clock.now()
                telemetry.sample(now=base)
                committed, timed, finished, errors = \
                    self.commit_counts(server)
                assert remote.insert(doc, 5, "!")   # ACKed, no ERROR
                assert remote.handle(doc).text() == "hello!"
                assert self.commit_counts(server) == (
                    committed + 1, timed + 1, finished + 1, errors + 1)
                name, exc = server.db.changefeed().errors[-1]
                assert name == "net-fanout"
                assert isinstance(exc, RuntimeError)
                deadline = monotonic() + 10.0
                while mirror.text() != "hello!":
                    assert monotonic() < deadline, "cleo was not told"
                    cleo.poll(timeout=0.05)
                # The operator sees it, and sees it clear.
                telemetry.sample(now=base + 1.0)
                checks = {c["check"]: c["status"] for c in
                          thread.server.health_payload()["checks"]}
                assert checks["feed.consumers"] == "degraded"
                telemetry.sample(now=base + 100.0)
                telemetry.sample(now=base + 101.0)
                checks = {c["check"]: c["status"] for c in
                          thread.server.health_payload()["checks"]}
                assert checks["feed.consumers"] == "ok"
            finally:
                for client in clients:
                    client.close()
