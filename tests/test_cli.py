"""Tests for the command-line interface."""

import io
from contextlib import redirect_stdout

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

    def test_feed_status(self):
        code, out = run_cli("feed-status", "--docs", "8", "--seed", "1")
        assert code == 0
        assert "feed seq" in out
        assert "search-index" in out
        assert "lag   0" in out

    def test_feed_status_json(self):
        import json
        code, out = run_cli("feed-status", "--docs", "8", "--seed", "1",
                            "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["seq"] > 0
        assert all(c["lag"] == 0 for c in payload["consumers"])

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


class TestTopCommand:
    def test_one_shot(self):
        code, out = run_cli("top", "--text", "hello")
        assert code == 0
        assert "hot paths" in out
        assert "slowest recent traces" in out
        assert "collab.replication_seconds" in out

    def test_watch_renders_each_refresh(self, watch_clock):
        code, out = run_cli("top", "--text", "ab", "--watch", "2")
        assert code == 0
        assert out.count("-- refresh") == 2

    def test_watch_pacing_rides_the_watch_clock(self, watch_clock):
        start = watch_clock.peek()
        code, out = run_cli("top", "--text", "ab", "--watch", "3",
                            "--interval", "30")
        assert code == 0
        # Two sleeps of 30 simulated seconds, zero real ones.
        assert watch_clock.peek() >= start + 60.0

    def test_watch_shows_trend_table(self, watch_clock):
        code, out = run_cli("top", "--text", "ab", "--watch", "2",
                            "--interval", "0")
        assert code == 0
        assert "trends:" in out
        assert "10s" in out and "5m" in out
        # The second refresh reuses the same server, so labelled series
        # from the first round are still in the registry.
        assert "collab.op_seconds{verb=InsertText}" in out


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

    def test_stats_remote_text(self, busy_server):
        code, out = run_cli("stats", "--remote",
                            f"127.0.0.1:{busy_server.port}")
        assert code == 0
        assert "engine metrics" in out
        assert "trends:" in out
        assert "net.ops" in out

    def test_stats_remote_json(self, busy_server):
        import json

        code, out = run_cli("stats", "--remote",
                            f"127.0.0.1:{busy_server.port}",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["net.ops"]["value"] >= 5
        assert payload["telemetry"]["series"]

    def test_stats_remote_prom(self, busy_server):
        code, out = run_cli("stats", "--remote",
                            f"127.0.0.1:{busy_server.port}",
                            "--format", "prom")
        assert code == 0
        assert "# TYPE tendax_net_ops counter" in out

    def test_stats_remote_bad_address(self):
        with pytest.raises(SystemExit):
            run_cli("stats", "--remote", "nonsense")

    def test_dash_renders_health_and_trends(self, busy_server,
                                            watch_clock):
        code, out = run_cli("dash", "--port", str(busy_server.port),
                            "--watch", "2", "--interval", "60")
        assert code == 0
        assert out.count("== repro dash ==") == 2
        assert "health: OK" in out
        assert "-- refresh 2/2 --" in out

    def test_connect_watch_terminates_on_the_clock(self, busy_server,
                                                   watch_clock):
        # watch=1.0 simulated seconds tick away in a handful of polls;
        # with the system clock this would be a real one-second loop.
        code, out = run_cli("connect", "--port", str(busy_server.port),
                            "--user", "typist", "--doc", "cli",
                            "--watch", "1.0")
        assert code == 0
        assert "document     : cli" in out


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
