"""SLO burn-rate evaluation and the health verdict.

Scenarios run on a simulated clock through the real telemetry rings:
a clean latency stream must leave every shipped SLO green; a sustained
burn must trip **both** windows (fast proves it is still happening,
slow proves it is real) and flip the labelled ``slo.*`` gauges; a burn
that *stops* must recover once the fast window rolls clear — the whole
point of the multi-window method.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.obs import (
    DEFAULT_SLOS,
    DEFAULT_THRESHOLDS,
    HealthThresholds,
    MetricsRegistry,
    SLOEvaluator,
    SLOSpec,
    TelemetryStore,
    evaluate_health,
)

START = 1_000_000.0


def drive(latency_at, *, seconds: int = 120, per_second: int = 20):
    """Observe ``latency_at(second)`` into both SLO metrics, sampling 1/s."""
    registry = MetricsRegistry()
    clock = SimulatedClock(start=START, tick=0.0)
    store = TelemetryStore(registry, clock, interval=1.0, capacity=1024)
    fsync = registry.histogram("wal.fsync_seconds")
    repl = registry.histogram("collab.replication_seconds")
    for second in range(seconds):
        latency = latency_at(second)
        for __ in range(per_second):
            fsync.observe(latency)
            repl.observe(latency)
        store.sample(now=START + second)
    return registry, store


class TestSLOEvaluator:
    def test_clean_stream_is_green(self):
        registry, store = drive(lambda s: 0.002)
        results = SLOEvaluator(store).evaluate(now=START + 119)
        assert {r["slo"] for r in results} == {
            "durable_keystroke", "replication_visibility",
            "replica_apply_lag", "derived_staleness"}
        assert not any(r["breached"] for r in results)
        snap = registry.snapshot()
        assert snap["slo.breached{slo=durable_keystroke}"]["value"] == 0.0

    def test_sustained_burn_breaches_and_reddens_gauges(self):
        registry, store = drive(lambda s: 0.2 if s >= 60 else 0.002)
        results = SLOEvaluator(store).evaluate(now=START + 119)
        # The replica-lag and staleness specs saw no observations (this
        # node neither follows a leader nor runs a changefeed) and must
        # stay green while the two data-carrying specs burn.
        for name in ("replica_apply_lag", "derived_staleness"):
            quiet = next(r for r in results if r["slo"] == name)
            assert not quiet["breached"]
        burning = [r for r in results
                   if r["slo"] not in ("replica_apply_lag",
                                       "derived_staleness")]
        assert burning and all(r["breached"] for r in burning)
        for r in burning:
            assert r["fast"]["burn"] > r["burn_threshold"]
            assert r["slow"]["burn"] > r["burn_threshold"]
        snap = registry.snapshot()
        assert snap["slo.breached{slo=durable_keystroke}"]["value"] == 1.0
        assert snap[
            "slo.burn_rate{slo=durable_keystroke,window=fast}"]["value"] > 2.0

    def test_recovery_clears_the_fast_window_first(self):
        # 60s of burn, then 120s clean: at the end the fast (1m) window
        # is clean while the slow (5m) one still remembers the burn —
        # no breach, because breach needs BOTH.
        registry, store = drive(
            lambda s: 0.2 if s < 60 else 0.002, seconds=180)
        results = SLOEvaluator(store).evaluate(now=START + 179)
        for r in results:
            if r["slo"] in ("replica_apply_lag",
                            "derived_staleness"):  # no data on this node
                assert not r["breached"]
                continue
            assert r["fast"]["burn"] <= r["burn_threshold"]
            assert r["slow"]["burn"] > r["burn_threshold"]
            assert not r["breached"]
        snap = registry.snapshot()
        assert snap["slo.breached{slo=durable_keystroke}"]["value"] == 0.0

    def test_no_traffic_means_no_breach(self):
        registry = MetricsRegistry()
        store = TelemetryStore(registry,
                               SimulatedClock(start=START, tick=0.0))
        results = SLOEvaluator(store, registry=registry).evaluate(
            now=START)
        assert not any(r["breached"] for r in results)
        assert all(r["fast"] is None and r["slow"] is None
                   for r in results)

    def test_objectives_sit_on_bucket_bounds(self):
        from repro.obs import DEFAULT_LATENCY_BUCKETS
        for spec in DEFAULT_SLOS:
            assert spec.objective in DEFAULT_LATENCY_BUCKETS

    def test_budget_property(self):
        spec = SLOSpec("x", "m", objective=0.1, target=0.99)
        assert spec.budget == pytest.approx(0.01)


class TestHealth:
    def test_quiet_system_is_ok(self):
        registry, store = drive(lambda s: 0.002)
        health = evaluate_health(registry.snapshot(), store)
        assert health["status"] == "ok"
        assert {c["check"] for c in health["checks"]} == {
            "wal.fsync_stall", "net.send_queue", "gc.backlog",
            "net.churn", "net.faults"}

    def test_fsync_stall_degrades_then_goes_unhealthy(self):
        registry, store = drive(lambda s: 0.5)
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["wal.fsync_stall"]["status"] == "degraded"
        registry2, store2 = drive(lambda s: 2.0)
        health2 = evaluate_health(registry2.snapshot(), store2)
        assert health2["status"] == "unhealthy"

    def test_socket_faults_degrade(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0)
        dropped = registry.counter("net.frames_dropped")
        store.sample(now=START)
        dropped.inc(5)
        store.sample(now=START + 5)
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["net.faults"]["status"] == "degraded"
        assert health["status"] == "degraded"

    def test_fault_window_rolls_clear(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0,
                               capacity=1024)
        dropped = registry.counter("net.frames_dropped")
        dropped.inc(5)
        for second in range(180):
            store.sample(now=START + second)
        window = DEFAULT_THRESHOLDS.window
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["net.faults"]["status"] == "ok", \
            f"faults older than the {window}s window must not degrade"

    def test_consumer_failures_degrade_then_roll_clear(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0,
                               capacity=1024)
        errors = registry.counter("feed.consumer_errors")
        store.sample(now=START)
        by = {c["check"]: c for c in
              evaluate_health(registry.snapshot(), store)["checks"]}
        assert by["feed.consumers"]["status"] == "ok"
        errors.inc()
        store.sample(now=START + 5)
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["feed.consumers"]["status"] == "degraded"
        assert health["status"] == "degraded"
        for second in range(6, 180):
            store.sample(now=START + second)
        by = {c["check"]: c for c in
              evaluate_health(registry.snapshot(), store)["checks"]}
        assert by["feed.consumers"]["status"] == "ok"

    def test_send_queue_shed_is_unhealthy(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0)
        sheds = registry.counter("net.backpressure_closes")
        store.sample(now=START)
        sheds.inc()
        store.sample(now=START + 1)
        health = evaluate_health(registry.snapshot(), store)
        assert health["status"] == "unhealthy"

    def test_queue_occupancy_degrades_with_context_limit(self):
        registry = MetricsRegistry()
        registry.gauge("net.send_queue_depth",
                       labels={"conn": "7"}).set(90)
        health = evaluate_health(registry.snapshot(), None,
                                 context={"send_queue_limit": 100})
        by = {c["check"]: c for c in health["checks"]}
        assert by["net.send_queue"]["status"] == "degraded"

    def test_churn_does_not_extrapolate_short_uptimes(self):
        # 3 handshakes in the first two seconds of uptime is not a
        # 90/minute storm: the check divides by the configured window.
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0)
        connects = registry.counter("net.connects")
        store.sample(now=START)
        connects.inc(3)
        store.sample(now=START + 2)
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["net.churn"]["status"] == "ok"
        assert by["net.churn"]["value"] == pytest.approx(3.0)

    def test_churn_storm_still_degrades(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0)
        connects = registry.counter("net.connects")
        store.sample(now=START)
        connects.inc(500)
        store.sample(now=START + 30)
        health = evaluate_health(registry.snapshot(), store)
        by = {c["check"]: c for c in health["checks"]}
        assert by["net.churn"]["status"] == "degraded"

    def test_custom_thresholds(self):
        registry, store = drive(lambda s: 0.002)
        strict = HealthThresholds(fsync_stall_p99=1e-6)
        health = evaluate_health(registry.snapshot(), store,
                                 thresholds=strict)
        by = {c["check"]: c for c in health["checks"]}
        assert by["wal.fsync_stall"]["status"] == "degraded"
