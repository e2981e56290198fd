"""Transport-level guarantees of the wire: no Nagle stalls, deadlines on
the monotonic clock, and a prompt failure — never a silent hang — when
a reply cannot fit a frame.

``test_net_server.py`` pins the RPC semantics; these pin what happens
underneath them.
"""

from __future__ import annotations

import itertools
import socket
from time import monotonic

import pytest

from repro.collab import CollaborationServer
from repro.errors import NetError, ProtocolError
from repro.net import NetworkClient, ServerThread
from repro.net import client as client_module
from repro.net import protocol

#: An RPC whose reply cannot be sent must fail well inside the client's
#: socket timeout (it used to be the only thing that ended it).
PROMPT_SECONDS = 5.0


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


def connect(thread, user: str) -> NetworkClient:
    return NetworkClient("127.0.0.1", thread.port, user, timeout=20.0)


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = monotonic() + timeout
    while not condition():
        assert monotonic() < deadline, "condition never became true"


def test_client_socket_has_nodelay(thread):
    """OP → AWARENESS → OP are three small writes with one read between
    them; under Nagle the third waits ~40 ms for a delayed ACK."""
    with connect(thread, "ana") as ana:
        assert ana._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        ana.reconnect()
        assert ana._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_deadlines_ignore_wall_clock_steps(thread, monkeypatch):
    """An NTP step (here: an hour back on every reading) must neither
    stretch ``poll``'s wait nor make ``ping`` report nonsense."""
    readings = itertools.count()
    monkeypatch.setattr(client_module, "time",
                        lambda: 2e9 - 3600.0 * next(readings))
    with connect(thread, "ana") as ana:
        started = monotonic()
        assert ana.poll(timeout=0.05) == []
        assert 0.0 <= ana.ping() < PROMPT_SECONDS
        assert monotonic() - started < PROMPT_SECONDS


class TestOversizedFrames:
    """A reply over ``MAX_FRAME_BYTES`` (325 B of row JSON per character:
    a 25 000-character ``create_document``) used to kill the connection's
    sender task silently; the client then sat out its socket timeout."""

    @pytest.fixture(autouse=True)
    def small_frames(self, monkeypatch):
        # Same code path as the 8 MiB limit, reached with a document
        # that takes milliseconds, not seconds, to create.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64 * 1024)

    def test_oversized_ack_fails_the_rpc_promptly(self, thread):
        with connect(thread, "ana") as ana, connect(thread, "ben") as ben:
            session = ana.session()
            started = monotonic()
            with pytest.raises(ProtocolError, match="exceeds"):
                session.create_document("big", text="x" * 1000)
            assert monotonic() - started < PROMPT_SECONDS
            # Non-fatal: the same connection and its neighbours go on.
            small = session.create_document("small", text="fits")
            assert small.text() == "fits"
            assert ben.session().open(small.doc).text() == "fits"
            metrics = ana.server_stats()["metrics"]
            assert metrics["net.protocol_errors"]["value"] == 1
            assert metrics["net.connections"]["value"] == 2

    def test_oversized_notify_sheds_the_reader_and_reaps_it(
            self, collab, thread):
        with connect(thread, "ana") as ana, connect(thread, "ben") as ben:
            session = ana.session()
            doc = session.create_document("shared").doc
            ben.session().open(doc)
            # The paste's echo (ana's ACK) and its NOTIFY (ben) are both
            # too big: ana's RPC fails, ben's connection is dropped.
            with pytest.raises(ProtocolError):
                session.insert(doc, 0, "y" * 1000)
            with pytest.raises(NetError):
                deadline = monotonic() + PROMPT_SECONDS
                while True:
                    ben.ping()
                    assert monotonic() < deadline, "ben was never shed"
            # Shed means cleaned up, not just cut off: the gauge drops
            # and ben's server-side session is disconnected.
            wait_until(lambda: ana.server_stats()["metrics"][
                "net.connections"]["value"] == 1)
            assert [s.user for s in collab.sessions() if s.connected] \
                == ["ana"]
            assert ana.ping() < PROMPT_SECONDS
