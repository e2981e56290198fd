"""Tests for the command-line interface."""

import contextlib
import io
import re
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestCli:
    def test_lan_party(self):
        code, out = run_cli("lan-party", "--rounds", "10", "--seed", "1")
        assert code == 0
        assert "converged    : True" in out

    def test_portal(self):
        code, out = run_cli("portal", "--docs", "8", "--seed", "1")
        assert code == 0
        assert "# Dynamic folders" in out
        assert "# Data lineage (Fig. 1)" in out
        assert "# Document space (Fig. 2)" in out

    def test_search(self):
        code, out = run_cli("search", "database", "--docs", "8",
                            "--seed", "1", "--limit", "2")
        assert code == 0
        assert "1." in out

    def test_search_ranking_option(self):
        code, out = run_cli("search", "database", "--docs", "8",
                            "--seed", "1", "--ranking", "newest")
        assert code == 0

    @pytest.mark.parametrize("option", (("--limit", "-1"),
                                        ("--ranking", "by_vibes")))
    def test_search_rejects_bad_arguments(self, option):
        with pytest.raises(SystemExit, match="repro search: "):
            run_cli("search", "database", "--docs", "4", "--seed", "1",
                    *option)

    def test_stats(self):
        code, out = run_cli("stats", "--docs", "4", "--seed", "1")
        assert code == 0
        assert "tx_documents" in out
        assert "total rows" in out
        # A labelled latency histogram still reads as a latency.
        assert re.search(r"collab\.op_seconds\{verb=\w+\} +n=\d+ +"
                         r"p50=[\d.]+(ns|us|ms|s) ", out)

    def test_stats_json_round_trips_metrics_snapshot(self):
        import json

        code, out = run_cli("stats", "--docs", "4", "--seed", "1",
                            "--format", "json")
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["txn.committed"]["type"] == "counter"
        assert snapshot["txn.committed"]["value"] > 0
        assert "txn.commit_seconds" in snapshot
        # The raw snapshot round-trips: dump → load → identical.
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_stats_prom_renders_the_local_snapshot(self):
        code, out = run_cli("stats", "--docs", "4", "--seed", "1",
                            "--format", "prom")
        assert code == 0
        assert "# TYPE tendax_txn_committed counter" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTraceCommand:
    def test_tree_format_shows_causal_chain(self):
        code, out = run_cli("trace", "--text", "hi")
        assert code == 0
        for name in ("collab.op", "txn", "wal.fsync", "collab.dispatch",
                     "collab.deliver", "collab.apply"):
            assert name in out

    def test_chrome_format_is_valid(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        code, out = run_cli("trace", "--text", "hi", "--format", "chrome",
                            "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    def test_jsonl_format_one_object_per_line(self):
        import json

        code, out = run_cli("trace", "--text", "a", "--format", "jsonl")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert all("span" in json.loads(line) for line in lines)

    def test_single_trace_selection_and_missing_id(self):
        code, out = run_cli("trace", "--text", "a", "--trace", "1")
        assert code == 0
        assert out.count("trace 1 ·") == 1
        code, __ = run_cli("trace", "--text", "a", "--trace", "99999")
        assert code == 1

    def test_slow_threshold_filters_to_slow_ops(self):
        # An absurd threshold: nothing qualifies, output is empty.
        code, out = run_cli("trace", "--text", "a", "--slow-ms", "60000")
        assert code == 0
        assert "collab.op" not in out

    def test_hold_seed_runs_fault_plan(self):
        code, out = run_cli("trace", "--text", "hi", "--hold-seed", "1311")
        assert code == 0
        assert "collab.apply" in out


@pytest.fixture
def watch_clock(monkeypatch):
    """Swap the CLI's watch clock for a simulated one: watch loops pace
    (and terminate) deterministically, with zero real sleeping."""
    from repro import cli
    from repro.clock import SimulatedClock

    clock = SimulatedClock(start=1_000.0, tick=0.25)
    monkeypatch.setattr(cli, "WATCH_CLOCK", clock)
    return clock


class TestRemoteCommands:
    @pytest.fixture
    def server(self):
        from repro.collab import CollaborationServer
        from repro.net import ServerThread

        collab = CollaborationServer()
        collab.register_user("typist")
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            yield thread

    @pytest.fixture
    def busy_server(self, server):
        from repro.net import NetworkClient

        client = NetworkClient("127.0.0.1", server.port, "typist")
        session = client.session()
        doc = session.create_document("cli").doc
        for char in "hello":
            session.insert(doc, 0, char)
        server.server.telemetry.sample()
        try:
            yield server
        finally:
            client.close()

    def test_connect_watch_terminates_on_the_clock(self, busy_server,
                                                   watch_clock):
        # watch=1.0 simulated seconds tick away in a handful of polls;
        # with the system clock this would be a real one-second loop.
        code, out = run_cli("connect", "--port", str(busy_server.port),
                            "--user", "typist", "--doc", "cli",
                            "--watch", "1.0")
        assert code == 0
        assert "document     : cli" in out


@contextlib.contextmanager
def follower_endpoint(follower):
    """A follower's STATS/HEALTH endpoint on a background event loop:
    the scrape side of ``repro serve --follow``."""
    import asyncio
    import threading

    from repro.net import ReplicaStatusServer

    loop = asyncio.new_event_loop()
    status = ReplicaStatusServer(follower, telemetry_interval=0.0)
    loop.run_until_complete(status.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield status.port
    finally:
        asyncio.run_coroutine_threadsafe(status.stop(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()


class TestTopCommand:
    """``repro top HOST:PORT`` over a live leader and its follower."""

    @pytest.fixture
    def cluster(self, tmp_path):
        from repro.collab import CollaborationServer
        from repro.net import NetworkClient, ReplicationClient, ServerThread
        from repro.repl import FollowerEngine

        collab = CollaborationServer(wal_path=str(tmp_path / "leader.wal"))
        collab.register_user("typist")
        with ServerThread(collab, telemetry_interval=0.0) as leader:
            client = NetworkClient("127.0.0.1", leader.port, "typist")
            session = client.session()
            doc = session.create_document("top").doc
            for char in "hello":
                session.insert(doc, 0, char)
            follower = FollowerEngine(node="replica")
            stream = ReplicationClient("127.0.0.1", leader.port, follower)
            while follower.applied_lsn < collab.db.wal.durable_lsn:
                stream.step()
            leader.server.telemetry.sample()
            try:
                with follower_endpoint(follower) as follower_port:
                    yield SimpleNamespace(
                        collab=collab, leader=f"127.0.0.1:{leader.port}",
                        follower=follower,
                        replica=f"127.0.0.1:{follower_port}",
                        session=session, doc=doc)
            finally:
                client.close()
                follower.close()

    def test_leader_frame(self, cluster):
        code, out = run_cli("top", cluster.leader)
        assert code == 0
        assert "== repro top ==  node=tendax" in out
        assert "health: OK" in out
        assert "hot paths" in out
        assert "net.op_seconds" in out
        assert re.search(r"role\s+leader", out)
        assert re.search(r"segments_shipped\s+[1-9]", out)
        assert re.search(r"collab-fanout\s+0$", out, re.M)
        assert re.search(r"^  metric .*10s .*1m .*5m$", out, re.M)

    def test_follower_frame(self, cluster):
        code, out = run_cli("top", cluster.replica)
        assert code == 0
        assert "node=replica" in out
        assert re.search(r"role\s+follower", out)
        assert re.search(r"lag_lsn\s+0$", out, re.M)
        assert re.search(r"\[ \] repl.lag", out)

    def test_follower_stall_shows_in_its_frame(self, cluster):
        follower = cluster.follower
        follower.note_leader_lsn(follower.applied_lsn + 20_000)
        code, out = run_cli("top", cluster.replica)
        assert code == 0
        assert "health: DEGRADED" in out
        assert re.search(r"\[!\] repl.lag .*apply lag 20000 LSNs", out)
        assert re.search(r"lag_lsn\s+20000$", out, re.M)

    def test_consumer_stall_shows_in_the_leader_frame(self, cluster):
        cluster.collab.db.changefeed().subscribe(
            "stalled", lambda batch: None, deferred=True)
        for __ in range(70):
            cluster.session.insert(cluster.doc, 0, "x")
        code, out = run_cli("top", cluster.leader)
        assert code == 0
        assert re.search(r"\[!\] feed.lag .*consumer .*stalled", out)
        lag = int(re.search(r"^  stalled\s+(\d+)$", out, re.M).group(1))
        assert lag >= 70
        assert re.search(r"collab-fanout\s+0$", out, re.M)

    def test_watch_rides_the_watch_clock(self, cluster, watch_clock):
        start = watch_clock.peek()
        code, out = run_cli("top", cluster.leader, "--watch", "2",
                            "--interval", "30")
        assert code == 0
        assert out.count("== repro top ==") == 2
        assert "-- refresh 2/2 --" in out
        # One sleep of 30 simulated seconds, zero real ones.
        assert watch_clock.peek() >= start + 30.0

    def test_json_is_the_raw_stats_payload(self, cluster):
        import json

        code, out = run_cli("top", cluster.leader, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["net.ops"]["value"] >= 5
        assert payload["telemetry"]["series"]
        code, out = run_cli("top", cluster.replica, "--format", "json")
        assert json.loads(out)["repl"]["lag_lsn"] == 0

    def test_prom_is_the_text_exposition(self, cluster):
        code, out = run_cli("top", cluster.leader, "--format", "prom")
        assert code == 0
        assert "# TYPE tendax_net_ops counter" in out

    @pytest.mark.parametrize("address", (":", "nonsense", "host:",
                                         "127.0.0.1:0", "127.0.0.1:65536",
                                         "127.0.0.1:-1"))
    def test_bad_address_is_refused(self, address, capsys):
        with pytest.raises(SystemExit):
            run_cli("top", address)
        err = capsys.readouterr().err
        assert "argument HOST:PORT" in err and "1-65535" in err

    def test_unreachable_node_is_one_line(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(SystemExit, match=f"repro top: 127.0.0.1:{port}"):
            run_cli("top", f"127.0.0.1:{port}")

    @pytest.mark.parametrize("argv", (
        ("dash", "--port", "1"), ("repl-status", "127.0.0.1:1"),
        ("feed-status",), ("stats", "--remote", "127.0.0.1:1"),
        ("top", "--text", "hi")))
    def test_retired_commands_are_refused(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(list(argv))


class TestDumpLoad:
    def test_dump_then_load_roundtrip(self, tmp_path):
        out = str(tmp_path / "export")
        code, dump_out = run_cli("dump", "--docs", "2", "--seed", "1",
                                 "--out", out)
        assert code == 0
        files = sorted((tmp_path / "export").glob("*.tendax.json"))
        assert len(files) == 2
        code, load_out = run_cli("load", str(files[0]))
        assert code == 0
        assert "imported" in load_out
