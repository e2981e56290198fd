"""The interpreter's own cost is observable: ``runtime.gc_*`` series, the
``gc:`` row of ``repro top`` / STATS, and the ``gc.pause`` health check."""

import gc

import pytest

from repro.db import Database
from repro.obs import (
    Observability,
    evaluate_health,
    render_gc,
    render_top,
    unknown_names,
)

FULL_PAUSES = "runtime.gc_pause_seconds{generation=2}"
FULL_COUNT = "runtime.gc_collections{generation=2}"


def _garbage(n: int = 20000) -> list:
    """Cyclic garbage the collector has to walk."""
    cells = [[] for __ in range(n)]
    for cell in cells:
        cell.append(cell)
    return cells


@pytest.fixture(autouse=True)
def only_forced_collections():
    """Exact counts need the collector to run when told to, only."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestGcWatch:
    def test_forced_full_collection_fires_counter_histogram_and_verdict(self):
        obs = Observability()
        before = obs.registry.snapshot()
        assert before[FULL_COUNT]["value"] == 0
        keep = _garbage()
        gc.collect(2)
        del keep
        snapshot = obs.registry.snapshot()
        assert snapshot[FULL_COUNT]["value"] == 1
        pauses = snapshot[FULL_PAUSES]
        assert pauses["count"] == 1 and pauses["max"] > 0.0
        assert unknown_names(snapshot) == []
        # The verdict reports the pause it saw, and judges it: walking
        # this process's whole heap may itself take over 100 ms when the
        # full suite has filled it.
        health = evaluate_health(snapshot)
        verdict = {c["check"]: c for c in health["checks"]}["gc.pause"]
        assert verdict["value"] == pauses["max"]
        assert verdict["status"] == (
            "degraded" if pauses["max"] > 0.1 else "ok")

    def test_a_long_full_pause_degrades_health(self):
        obs = Observability()
        obs.gc.record(2, 0.25)
        verdict = evaluate_health(obs.registry.snapshot())
        assert verdict["status"] == "degraded"
        check = {c["check"]: c for c in verdict["checks"]}["gc.pause"]
        assert "250 ms" in check["detail"]

    def test_every_live_registry_sees_each_collection_once(self):
        first, second = Observability(), Observability()
        gc.collect(1)
        for obs in (first, second):
            snap = obs.registry.snapshot()
            assert snap["runtime.gc_collections{generation=1}"]["value"] == 1
            assert snap["runtime.gc_pause_seconds{generation=1}"]["count"] == 1
        assert sum(cb.__module__ == "repro.obs.runtime"
                   for cb in gc.callbacks) == 1

    def test_hook_survives_a_collection_started_under_a_metric_lock(self):
        """A snapshot allocates under the histogram's lock; a collection
        starting right there re-enters the hook on the same thread."""
        obs = Observability()
        pauses = obs.registry.get(FULL_PAUSES)
        with pauses._lock:
            gc.collect(2)
        assert obs.registry.snapshot()[FULL_COUNT]["value"] == 1

    def test_disabled_observability_watches_nothing(self):
        obs = Observability(enabled=False)
        assert obs.gc is None
        gc.collect(2)
        assert obs.registry.snapshot() == {}

    def test_summary_and_top_row(self):
        db = Database("rt")
        gc.collect(2)
        summary = db.obs.gc.summary()
        assert 0.0 < summary["share"] < 1.0
        assert summary["generations"]["2"]["collections"] == 1
        assert summary["max_pause_seconds"] >= \
            summary["generations"]["2"]["max_pause_seconds"] > 0.0
        row = render_gc(summary)
        assert row.startswith("gc: ") and "1 full collections" in row
        assert row in render_top(db.metrics_snapshot(), gc=summary)
        assert "gc:" not in render_top(db.metrics_snapshot())
