"""The wire replication lane: SUBSCRIBE segments, acks, status scrapes.

A real :class:`ServerThread` leader on loopback TCP with a
:class:`ReplicationClient` follower — the ``repro serve --follow``
topology in miniature.  Covers catch-up over the pull protocol, live
streaming on a dedicated thread, payload fidelity for tagged values
(OIDs survive the decode/re-encode round trip), token enforcement on
the subscription lane, and the follower's read-only status endpoint.
"""

from __future__ import annotations

import asyncio
import threading
from time import monotonic, sleep

import pytest

from repro.collab import CollaborationServer
from repro.errors import AccessDenied
from repro.net import (
    NetworkClient,
    ReplicaStatusServer,
    ReplicationClient,
    ServerThread,
    scrape,
)
from repro.db.wal import WalRecord, render_record
from repro.errors import ProtocolError
from repro.ids import Oid
from repro.net import FrameDecoder, WalSegment, encode_frame
from repro.repl import FollowerEngine

SETTLE_SECONDS = 10.0


def make_collab(wal_path) -> CollaborationServer:
    """A leader with a file-backed WAL.

    The file matters: tailers and the SUBSCRIBE lane ship only the
    *durable* prefix, and only fsync advances ``durable_lsn``.
    """
    collab = CollaborationServer(wal_path=str(wal_path))
    collab.register_user("ana")
    return collab


def type_text(thread: ServerThread, text: str,
              token: str | None = None) -> None:
    client = NetworkClient("127.0.0.1", thread.port, "ana", token=token)
    try:
        session = client.session()
        handle = session.create_document("wire")
        session.insert(handle.doc, 0, text)
    finally:
        client.close()


def tables_equal(leader_db, replica_db) -> None:
    assert set(leader_db.tables()) == set(replica_db.tables())
    for name in leader_db.tables():
        assert dict(leader_db.table(name).committed_items()) \
            == dict(replica_db.table(name).committed_items()), name


class TestSubscription:
    def test_step_catches_up_a_fresh_follower(self, tmp_path):
        collab = make_collab(tmp_path / "leader.wal")
        with ServerThread(collab) as thread:
            type_text(thread, "hello wire")
            follower = FollowerEngine(node="replica")
            client = ReplicationClient("127.0.0.1", thread.port, follower)
            while follower.applied_lsn < collab.db.wal.durable_lsn:
                client.step()
            assert follower.lag_lsn == 0
            tables_equal(collab.db, follower.db)
            # OID-typed columns survived the wire (tagged payloads were
            # re-encoded, not flattened into plain dicts).
            registry = thread.server.collab.db.obs.registry.snapshot()
            assert registry["repl.segments_shipped"]["value"] >= 1
            follower.close()

    def test_run_streams_live_edits_until_stopped(self, tmp_path):
        collab = make_collab(tmp_path / "leader.wal")
        with ServerThread(collab) as thread:
            follower = FollowerEngine(node="replica")
            client = ReplicationClient("127.0.0.1", thread.port, follower,
                                       poll_interval=0.01)
            stop = threading.Event()
            outcome: list = []
            streamer = threading.Thread(
                target=lambda: outcome.append(client.run(stop)),
                daemon=True)
            streamer.start()
            type_text(thread, "streamed while following")
            deadline = monotonic() + SETTLE_SECONDS
            while follower.applied_lsn < collab.db.wal.durable_lsn:
                assert monotonic() < deadline, "stream never caught up"
                sleep(0.01)
            stop.set()
            streamer.join(timeout=SETTLE_SECONDS)
            assert outcome == ["stopped"]
            tables_equal(collab.db, follower.db)
            follower.close()

    def test_leader_death_reports_disconnected(self, tmp_path):
        collab = make_collab(tmp_path / "leader.wal")
        thread = ServerThread(collab).start()
        type_text(thread, "x")
        follower = FollowerEngine(node="replica")
        client = ReplicationClient("127.0.0.1", thread.port, follower,
                                   poll_interval=0.01)
        outcome: list = []
        streamer = threading.Thread(
            target=lambda: outcome.append(client.run()), daemon=True)
        streamer.start()
        # Wait for the stream to be established *and* caught up, so the
        # kill severs a live subscription rather than racing the connect.
        deadline = monotonic() + SETTLE_SECONDS
        while follower.applied_lsn < collab.db.wal.durable_lsn \
                or follower.applied_lsn == 0:
            assert monotonic() < deadline
            sleep(0.01)
        thread.stop()  # the leader dies mid-subscription
        streamer.join(timeout=SETTLE_SECONDS)
        assert outcome == ["disconnected"]
        follower.close()

    def test_unreachable_leader_raises_not_disconnects(self):
        from repro.errors import NetError

        follower = FollowerEngine(node="replica")
        client = ReplicationClient("127.0.0.1", 1, follower, timeout=0.5)
        # A typo'd address must never look like a dead leader (which
        # would promote the follower over nothing).
        with pytest.raises(NetError):
            client.run()
        follower.close()

    def test_subscription_requires_the_shared_token(self, tmp_path):
        collab = make_collab(tmp_path / "leader.wal")
        with ServerThread(collab, token="sesame") as thread:
            follower = FollowerEngine(node="replica")
            client = ReplicationClient("127.0.0.1", thread.port, follower)
            with pytest.raises(AccessDenied):
                client.step()
            authed = ReplicationClient("127.0.0.1", thread.port, follower,
                                       token="sesame")
            authed.step()
            follower.close()

    def test_segment_ships_tagged_payloads_verbatim(self):
        """Records cross the wire as their WAL lines: the envelope's
        value tagging never reaches inside them, so the line's own
        tagging (OIDs, bytes) arrives untouched and the WAL parser — the
        only reader of a line — gives the stored values back."""
        records = [
            WalRecord(7, "INSERT", 3, table="t", rowid=1,
                      cols=("doc", "blob", "rows", "by"),
                      vals=(Oid("db.doc", 4), b"\x00\xff", [1, 2], None)),
            WalRecord(8, "COMMIT", 3),
        ]
        segment = WalSegment(records=tuple(map(render_record, records)),
                             end_lsn=8)
        assert '"doc":{"__oid__":"db.doc:4"}' in segment.records[0]
        (received,) = FrameDecoder().feed(encode_frame(segment))
        assert received == segment
        assert received.parse() == records
        empty = WalSegment(records=(
            '{"lsn":1,"type":"BEGIN","txn":1,"payload":null}',))
        assert empty.parse()[0].payload == {}

    def test_malformed_segment_record_is_a_protocol_error(self):
        good = render_record(WalRecord(1, "BEGIN", 1))
        with pytest.raises(ProtocolError):
            WalSegment(records=(good, good[:9])).parse()
        with pytest.raises(ProtocolError):
            decoder = FrameDecoder()
            list(decoder.feed(encode_frame(
                WalSegment(records=({"lsn": 1},)))))


class TestReplicaStatusServer:
    def run_against_status(self, follower, fn):
        async def scenario():
            status = ReplicaStatusServer(follower, telemetry_interval=0.0)
            await status.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, lambda: fn(status.port))
            finally:
                await status.stop()
        return asyncio.run(scenario())

    def test_stats_scrape_carries_repl_status(self):
        follower = FollowerEngine(node="replica")
        payload = self.run_against_status(
            follower,
            lambda port: scrape("127.0.0.1", port, kind="stats"))
        assert payload["node"] == "replica"
        repl = payload["repl"]
        assert repl["promoted"] is False
        assert repl["applied_lsn"] == 0
        assert "repl.apply_lag_lsn" in payload["metrics"]
        follower.close()

    def test_health_scrape_includes_repl_lag_check(self):
        follower = FollowerEngine(node="replica")
        verdict = self.run_against_status(
            follower,
            lambda port: scrape("127.0.0.1", port, kind="health"))
        checks = {c["check"]: c for c in verdict["checks"]}
        assert "repl.lag" in checks
        assert checks["repl.lag"]["status"] == "ok"
        follower.close()

    def test_status_endpoint_rejects_editor_frames(self):
        from repro.errors import ProtocolError

        follower = FollowerEngine(node="replica")

        def connect_as_editor(port):
            client = NetworkClient("127.0.0.1", port, "ana")
            try:
                client.session()
            finally:
                client.close()

        with pytest.raises(ProtocolError):
            self.run_against_status(follower, connect_as_editor)
        follower.close()
