"""The wire scrape lane: STATS / HEALTH envelopes end to end.

A real :class:`ServerThread` on loopback TCP, scraped by the blocking
:func:`repro.net.scrape` helper — the monitoring topology (`repro dash`,
Prometheus pollers) in miniature.  Covers the pre-auth scrape lane
(JSON and Prometheus formats, token enforcement), the mid-session
``health`` RPC verb, and the health verdict degrading under an armed
socket fault plan and recovering once the faults stop and the window
rolls clear.
"""

from __future__ import annotations

import time

import pytest

from repro.collab import CollaborationServer
from repro.errors import AccessDenied
from repro.faults import FaultInjector, FaultPlan
from repro.net import NetworkClient, ServerThread, scrape
from repro.obs import TELEMETRY_SCHEMA, render_dash


def make_collab(n_users: int = 2) -> CollaborationServer:
    collab = CollaborationServer()
    for i in range(n_users):
        collab.register_user(f"user{i}")
    return collab


def typing_burst(session, doc, chars: str = "hello") -> None:
    handle = session.handle(doc)
    for char in chars:
        session.insert(doc, handle.length(), char)


class TestStatsScrape:
    def test_json_scrape_carries_metrics_and_telemetry(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "user0")
            try:
                session = client.session()
                doc = session.create_document("scrape").doc
                typing_burst(session, doc)
                thread.server.telemetry.sample()
                payload = scrape("127.0.0.1", thread.port, kind="stats")
            finally:
                client.close()
        assert payload["node"] == collab.db.node
        assert payload["metrics"]["net.ops"]["value"] >= 5
        telemetry = payload["telemetry"]
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        labelled = [n for n in telemetry["series"] if "{" in n]
        assert any(n.startswith("net.op_seconds{verb=") for n in labelled)
        assert payload["net"]["scrapes"] >= 1
        # The collector's share and worst pause ride along (repro dash
        # renders them as the "gc:" row).
        assert 0.0 <= payload["gc"]["share"] < 1.0
        assert set(payload["gc"]["generations"]) == {"0", "1", "2"}
        assert "gc: " in render_dash(payload)

    def test_prom_scrape_is_text_exposition(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "user0")
            try:
                session = client.session()
                doc = session.create_document("prom").doc
                typing_burst(session, doc)
                text = scrape("127.0.0.1", thread.port, kind="stats",
                              fmt="prom")
            finally:
                client.close()
        assert isinstance(text, str)
        assert "# TYPE tendax_net_ops counter" in text
        assert 'tendax_net_op_seconds_bucket{verb="insert",le="+Inf"}' \
            in text
        assert text.endswith("\n")

    def test_scrape_without_series_is_lean(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            thread.server.telemetry.sample()
            payload = scrape("127.0.0.1", thread.port, kind="stats",
                             series=False)
        assert "telemetry" not in payload

    def test_consecutive_scrapes_on_one_connection(self):
        # The scrape lane keeps answering on the same socket: the
        # blocking helper opens one per call, so just assert repeated
        # calls keep working and the scrape counter climbs.
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            first = scrape("127.0.0.1", thread.port, kind="stats")
            second = scrape("127.0.0.1", thread.port, kind="stats")
        assert second["net"]["scrapes"] > first["net"]["scrapes"]

    def test_token_enforced_on_the_scrape_lane(self):
        collab = make_collab()
        with ServerThread(collab, token="hunter2",
                          telemetry_interval=0.0) as thread:
            with pytest.raises(AccessDenied):
                scrape("127.0.0.1", thread.port, kind="stats")
            with pytest.raises(AccessDenied):
                scrape("127.0.0.1", thread.port, kind="health",
                       token="wrong")
            payload = scrape("127.0.0.1", thread.port, kind="stats",
                             token="hunter2")
        assert payload["metrics"]


class TestHealthScrape:
    def test_health_reports_ok_with_all_checks(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.05) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "user0")
            try:
                session = client.session()
                doc = session.create_document("health").doc
                typing_burst(session, doc)
                time.sleep(0.2)        # let the sampler tick
                health = scrape("127.0.0.1", thread.port, kind="health")
            finally:
                client.close()
        assert health["status"] == "ok"
        assert {c["check"] for c in health["checks"]} == {
            "wal.fsync_stall", "net.send_queue", "gc.backlog",
            "net.churn", "net.faults", "feed.lag", "feed.consumers",
            "gc.pause"}

    def test_mid_session_health_verb(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.0) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "user0")
            try:
                health = client.server_health()
            finally:
                client.close()
        assert health["status"] in ("ok", "degraded", "unhealthy")
        assert health["checks"]

    def test_health_degrades_under_faults_and_recovers(self):
        plan = FaultPlan.net_only(20060101, p_drop=0.5, reorder=False)
        injector = FaultInjector(plan, armed=True)
        collab = make_collab()
        with ServerThread(collab, faults=injector,
                          telemetry_interval=0.0) as thread:
            telemetry = thread.server.telemetry
            writer = NetworkClient("127.0.0.1", thread.port, "user0")
            watcher = NetworkClient("127.0.0.1", thread.port, "user1")
            try:
                session = writer.session()
                doc = session.create_document("faulty").doc
                watcher.session().open(doc)
                base = telemetry.clock.now()
                telemetry.sample(now=base)
                # Type through the armed fault plan: NOTIFY frames to
                # the watcher get dropped/delayed and counted.
                typing_burst(session, doc, "x" * 40)
                telemetry.sample(now=base + 1.0)
                health = thread.server.health_payload()
                assert health["status"] == "degraded", health
                by = {c["check"]: c for c in health["checks"]}
                assert by["net.faults"]["status"] == "degraded"

                # Disarm and let the 60s fault window roll clear: the
                # verdict must recover without a restart.
                injector.armed = False
                telemetry.sample(now=base + 100.0)
                telemetry.sample(now=base + 101.0)
                recovered = thread.server.health_payload()
                by = {c["check"]: c for c in recovered["checks"]}
                assert by["net.faults"]["status"] == "ok", recovered
            finally:
                writer.close()
                watcher.close()


class TestServePipeline:
    def test_sampler_task_feeds_slo_gauges(self):
        collab = make_collab()
        with ServerThread(collab, telemetry_interval=0.05) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "user0")
            try:
                session = client.session()
                doc = session.create_document("slo").doc
                typing_burst(session, doc)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    snap = collab.db.metrics_snapshot()
                    if "slo.breached{slo=durable_keystroke}" in snap:
                        break
                    time.sleep(0.05)
            finally:
                client.close()
        snap = collab.db.metrics_snapshot()
        assert "slo.breached{slo=durable_keystroke}" in snap
        assert snap["obs.samples"]["value"] >= 1
