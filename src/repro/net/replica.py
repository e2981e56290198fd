"""Follower-side wire endpoints: subscription client, status server.

:class:`ReplicationClient` is the blocking counterpart of the server's
SUBSCRIBE lane (:meth:`CollabNetServer._serve_subscription`): it opens a
TCP connection whose first frame is SUBSCRIBE at ``applied_lsn + 1``,
then alternates receiving one WAL_SEGMENT and sending one REPL_ACK,
feeding every segment into a :class:`~repro.repl.follower.FollowerEngine`.
Restart resumption needs no protocol state — a reconnect simply
re-subscribes from the follower's recovered cursor.

:class:`ReplicaStatusServer` is the scrape endpoint a *following*
replica exposes.  A follower must not take editor writes (a full
:class:`~repro.net.server.CollabNetServer` would install schema and
register users against the replica database), so pre-promotion
``repro serve --follow`` fronts the follower with this read-only
server: the leader's scrape lane (:class:`~repro.net.monitor.ScrapeLane`)
with the payload extended by the follower's replication status.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
from time import sleep, time
from typing import TYPE_CHECKING

from ..errors import NetError, ProtocolError
from .monitor import ScrapeLane
from .protocol import (
    Bye,
    Error,
    FrameDecoder,
    ReplAck,
    Subscribe,
    WalSegment,
    encode_frame,
    error_class,
    open_connection,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..repl.follower import FollowerEngine

__all__ = ["ReplicaStatusServer", "ReplicationClient"]


class ReplicationClient:
    """Tails a leader over TCP into a :class:`FollowerEngine`.

    Blocking by design (run it on a dedicated thread, like
    :class:`~repro.net.client.NetworkClient`): the pull protocol means
    the socket only ever waits for the leader's immediate reply to the
    last ack, so a dead leader surfaces as EOF/reset within one
    round-trip.  ``poll_interval`` paces re-polling while caught up —
    an empty segment is the leader's heartbeat, not a reason to spin.
    """

    def __init__(self, host: str, port: int, follower: "FollowerEngine",
                 *, token: str | None = None, poll_interval: float = 0.05,
                 timeout: float = 10.0) -> None:
        self._host = host
        self._port = port
        self._follower = follower
        self._token = token
        self._poll_interval = max(0.001, poll_interval)
        self._timeout = timeout

    def run(self, stop=None) -> str:
        """Stream until stopped or the leader dies.

        Returns ``"stopped"`` when the ``stop`` event was set (orderly
        shutdown, BYE sent) or ``"disconnected"`` when an *established*
        stream failed or closed — the caller's cue that the leader died
        and the follower is a promotion candidate.  A leader that was
        never reachable raises :class:`~repro.errors.NetError` instead
        (a follower must not promote over a typo'd address), as do
        protocol/authentication errors.
        """
        decoder = FrameDecoder()
        try:
            sock = open_connection(self._host, self._port, self._timeout)
        except OSError as exc:
            raise NetError(
                f"cannot reach leader at {self._host}:{self._port}: "
                f"{exc}") from exc
        with sock:
            try:
                sock.sendall(encode_frame(Subscribe(
                    from_lsn=self._follower.applied_lsn + 1,
                    node=self._follower.db.node, token=self._token)))
                while True:
                    records = self._apply_next(sock, decoder)
                    if stop is not None and stop.is_set():
                        with contextlib.suppress(OSError):
                            sock.sendall(encode_frame(
                                Bye(reason="follower stopping")))
                        return "stopped"
                    if not records:
                        # Caught up: pace the next poll (interruptibly
                        # when the caller gave us a stop event).
                        if stop is not None:
                            if stop.wait(self._poll_interval):
                                with contextlib.suppress(OSError):
                                    sock.sendall(encode_frame(
                                        Bye(reason="follower stopping")))
                                return "stopped"
                        else:
                            sleep(self._poll_interval)
                    sock.sendall(encode_frame(ReplAck(
                        applied_lsn=self._follower.applied_lsn,
                        node=self._follower.db.node, at=time())))
            except (ConnectionError, socket.timeout, OSError):
                return "disconnected"

    def step(self) -> int:
        """One subscribe/segment/apply round trip (tests, catch-up).

        Connects, applies exactly one segment, says BYE; returns the
        number of records the segment carried.
        """
        decoder = FrameDecoder()
        with open_connection(self._host, self._port,
                             self._timeout) as sock:
            sock.sendall(encode_frame(Subscribe(
                from_lsn=self._follower.applied_lsn + 1,
                node=self._follower.db.node, token=self._token)))
            records = self._apply_next(sock, decoder)
            with contextlib.suppress(OSError):
                sock.sendall(encode_frame(Bye(reason="single step")))
            return records

    def _apply_next(self, sock: socket.socket,
                    decoder: FrameDecoder) -> int:
        """Receive one WAL_SEGMENT and apply it; returns the number of
        records it carried (0 = heartbeat)."""
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError(
                    "leader closed the replication stream")
            for envelope in decoder.feed(data):
                if isinstance(envelope, WalSegment):
                    self._follower.apply_records(
                        envelope.parse(), leader_lsn=envelope.end_lsn,
                        shipped_at=envelope.at or None)
                    return len(envelope.records)
                if isinstance(envelope, Error):
                    raise error_class(envelope.code)(envelope.message)
                raise ProtocolError(
                    f"unexpected {envelope.TYPE!r} on the replication "
                    f"stream")


class ReplicaStatusServer:
    """Read-only STATS/HEALTH endpoint over a follower's registry."""

    def __init__(self, follower: "FollowerEngine", *,
                 host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None,
                 telemetry_interval: float = 1.0) -> None:
        self.follower = follower
        self.host = host
        self.port = port
        self.scrape = ScrapeLane(
            follower.db, token=token, interval=telemetry_interval,
            extras=lambda: {"repl": follower.status()})
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "ReplicaStatusServer":
        self._server = await asyncio.start_server(
            self.scrape.accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.scrape.start()
        return self

    async def stop(self) -> None:
        await self.scrape.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
