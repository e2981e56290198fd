"""TelemetryStore: clock-driven rings and windowed aggregates.

Everything runs on a :class:`~repro.clock.SimulatedClock` with explicit
sample times, so the windows are exact: a counter incremented 10/s for
two minutes must show a 10s-window rate of 10.0, and a histogram whose
latency steps up at t=60 must show the step in the 10s window while the
5m window still blends both regimes.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.obs import (
    DEFAULT_WINDOWS,
    TELEMETRY_SCHEMA,
    MetricsRegistry,
    TelemetryStore,
    render_trends,
    window_label,
)

START = 1_000_000.0


def make_store(capacity: int = 512) -> tuple[MetricsRegistry,
                                             TelemetryStore]:
    registry = MetricsRegistry()
    clock = SimulatedClock(start=START, tick=0.0)
    return registry, TelemetryStore(registry, clock, interval=1.0,
                                    capacity=capacity)


class TestSampling:
    def test_sample_records_one_point_per_metric(self):
        registry, store = make_store()
        registry.counter("c").inc()
        registry.gauge("g").set(5)
        store.sample(now=START)
        assert store.points("c") == [(START, 1)]
        assert store.points("g") == [(START, 5)]
        assert store.kind("c") == "counter"

    def test_rings_are_bounded(self):
        registry, store = make_store(capacity=8)
        counter = registry.counter("c")
        for i in range(50):
            counter.inc()
            store.sample(now=START + i)
        assert len(store.points("c")) == 8

    def test_maybe_sample_respects_the_interval(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(start=START, tick=0.0)
        store = TelemetryStore(registry, clock, interval=10.0)
        registry.counter("c").inc()
        assert store.maybe_sample() is True
        assert store.maybe_sample() is False      # no time elapsed
        clock.advance(10.0)
        assert store.maybe_sample() is True

    def test_sampling_is_counted(self):
        registry, store = make_store()
        registry.counter("c").inc()
        store.sample(now=START)
        store.sample(now=START + 1)
        assert registry.snapshot()["obs.samples"]["value"] == 2

    def test_capacity_below_two_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TelemetryStore(registry, capacity=1)


class TestWindows:
    def test_counter_rate_is_exact_on_a_steady_stream(self):
        registry, store = make_store()
        counter = registry.counter("c")
        for second in range(121):
            store.sample(now=START + second)
            counter.inc(10)
        for span in DEFAULT_WINDOWS:
            agg = store.window("c", span, now=START + 120)
            assert agg["kind"] == "counter"
            assert agg["rate"] == pytest.approx(10.0)

    def test_gauge_window_aggregates_in_window_points(self):
        registry, store = make_store()
        gauge = registry.gauge("g")
        for second, value in enumerate((1, 2, 3, 10)):
            gauge.set(value)
            store.sample(now=START + second)
        agg = store.window("g", 2.0, now=START + 3)
        assert agg["last"] == 10
        assert agg["min"] == 2 and agg["max"] == 10

    def test_histogram_step_shows_in_fast_window_only(self):
        registry, store = make_store()
        hist = registry.histogram("lat")
        for second in range(121):
            latency = 0.128 if second >= 111 else 0.001
            for __ in range(10):
                hist.observe(latency)
            store.sample(now=START + second)
        fast = store.window("lat", 10.0, now=START + 120)
        slow = store.window("lat", 300.0, now=START + 120)
        # The last 10 seconds are all slow: fast p99 sees the step.
        assert fast["p99"] > 0.064
        # The 5m window blends 110 fast seconds with 10 slow ones, so
        # its p50 stays down at the old regime.
        assert slow["p50"] < 0.004
        assert fast["rate"] == pytest.approx(10.0)

    def test_short_history_falls_back_to_oldest_point(self):
        registry, store = make_store()
        counter = registry.counter("c")
        store.sample(now=START)
        counter.inc(30)
        store.sample(now=START + 3)
        agg = store.window("c", 300.0, now=START + 3)
        assert agg["delta"] == 30
        assert agg["span"] == pytest.approx(3.0)

    def test_unknown_metric_windows_are_none(self):
        __, store = make_store()
        assert store.window("nope", 10.0) is None
        assert store.histogram_delta("nope", 10.0) is None

    def test_histogram_delta_buckets_are_positive_deltas(self):
        registry, store = make_store()
        hist = registry.histogram("lat", buckets=(0.01, 0.1))
        hist.observe(0.005)
        store.sample(now=START)
        hist.observe(0.05)
        hist.observe(0.05)
        store.sample(now=START + 5)
        delta = store.histogram_delta("lat", 10.0, now=START + 5)
        assert delta["count"] == 2
        assert delta["buckets"] == {0.1: 2}


class TestSnapshot:
    def test_snapshot_shape_and_trimming(self):
        registry, store = make_store()
        counter = registry.counter("c")
        hist = registry.histogram("lat")
        for second in range(40):
            counter.inc()
            hist.observe(0.001)
            store.sample(now=START + second)
        snap = store.snapshot(max_points=4)
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert snap["at"] == START + 39
        assert len(snap["series"]["c"]["points"]) == 4
        # Histogram points are trimmed to (time, count, sum) on the wire.
        assert all(len(pt) == 3 for pt in snap["series"]["lat"]["points"])
        assert "10s" in snap["windows"]["c"]

    def test_snapshot_name_filter(self):
        registry, store = make_store()
        registry.counter("a").inc()
        registry.counter("b").inc()
        store.sample(now=START)
        snap = store.snapshot(names=["a"])
        assert set(snap["series"]) == {"a"}

    def test_snapshot_is_json_clean(self):
        import json
        registry, store = make_store()
        registry.histogram("lat").observe(0.002)
        registry.counter("c", labels={"verb": "x"}).inc()
        store.sample(now=START)
        store.sample(now=START + 1)
        snap = store.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestTrendTable:
    """``repro top``'s trend table shows the busiest rows, not the
    alphabetically first."""

    def busy_leader(self) -> dict:
        registry, store = make_store()
        for name in ("collab.deliveries", "collab.drains", "collab.held"):
            registry.counter(name)
        registry.gauge("collab.sessions").set(2)
        frames = registry.counter("net.frames_in")
        fsync = registry.histogram("wal.fsync_seconds")
        op = registry.histogram("net.op_seconds")
        group = registry.histogram("wal.group_commit_size")
        for second in range(20):
            frames.inc(30)
            for __ in range(10):
                fsync.observe(0.004)
                op.observe(0.001)
                group.observe(3)
            store.sample(now=START + second)
        return store.snapshot()["windows"]

    def rows(self, windows: dict, limit: int) -> list[str]:
        return [line.split()[0] for line in
                render_trends(windows, limit=limit).splitlines()[1:]]

    def test_rows_rank_by_time_then_rate_then_gauge(self):
        windows = self.busy_leader()
        # obs.samples is the store's own counter: one per second.
        assert self.rows(windows, 6) == [
            "wal.fsync_seconds", "net.op_seconds", "net.frames_in",
            "wal.group_commit_size", "obs.samples", "collab.sessions"]

    def test_idle_rows_come_last_in_name_order(self):
        windows = self.busy_leader()
        assert self.rows(windows, 3) == [
            "wal.fsync_seconds", "net.op_seconds", "net.frames_in"]
        assert self.rows(windows, 99)[-3:] == [
            "collab.deliveries", "collab.drains", "collab.held"]


class TestWindowLabel:
    def test_labels(self):
        assert window_label(10.0) == "10s"
        assert window_label(60.0) == "1m"
        assert window_label(300.0) == "5m"
        assert window_label(2.5) == "2.5s"
