"""Trace export tests: buffer, Chrome trace golden, fault interplay.

The causal-tracing contract this file pins down:

* every keystroke in the two-editor duet yields ONE trace linking the
  editor op → txn commit → WAL fsync → dispatch → remote deliver →
  remote apply, with correct parent edges;
* the Chrome trace-event export of the fixed scenario is byte-stable
  (golden file, timestamps scrubbed) and structurally valid;
* held/reordered delivery (seeded PR-1 fault plans) bends the timeline
  but never the causality: the same chain holds, and every started span
  finishes exactly once.

Regenerate the golden after an intentional format change::

    PYTHONPATH=src python tests/test_trace_export.py --regen
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.obs import (
    TraceBuffer,
    Tracer,
    chrome_trace,
    render_top,
    render_trace,
    span_to_dict,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.workload import run_traced_duet

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "trace_chrome_golden.json")

#: The causal chain every keystroke trace must carry, child → parent.
CHAIN = ("collab.apply", "collab.deliver", "collab.dispatch", "txn",
         "collab.op")


def duet(tmp_path, **kwargs):
    """The fixed scenario behind the golden file (WAL on, so fsync traces)."""
    return run_traced_duet(wal_path=str(tmp_path / "duet.wal"), **kwargs)


def scrub(payload: dict) -> dict:
    """Zero the wall-clock fields so the payload is run-independent."""
    payload = copy.deepcopy(payload)
    for event in payload["traceEvents"]:
        if event["ph"] == "X":
            event["ts"] = 0.0
            event["dur"] = 0.0
    return payload


def keystroke_traces(buffer: TraceBuffer) -> list:
    return [t for t in buffer.traces()
            if t.root is not None and t.root.name == "collab.op"]


def assert_causal_chain(trace) -> None:
    """Walk child → parent along CHAIN inside one trace."""
    by_id = {s.span_id: s for s in trace.spans}
    applies = [s for s in trace.spans if s.name == "collab.apply"]
    assert applies, f"trace {trace.trace_id} has no remote apply"
    for apply_span in applies:
        span = apply_span
        for expected_parent in CHAIN[1:]:
            assert span.parent_id is not None, \
                f"{span.name} lost its parent in trace {trace.trace_id}"
            span = by_id[span.parent_id]
            assert span.name == expected_parent
        assert span.parent_id is None  # collab.op roots the trace
        assert len({s.trace_id for s in trace.spans}) == 1


# ---------------------------------------------------------------------------
# The duet scenario end to end
# ---------------------------------------------------------------------------

class TestTracedDuet:
    def test_one_trace_per_keystroke_with_full_chain(self, tmp_path):
        server, buffer = duet(tmp_path, text="causal trace")
        traces = keystroke_traces(buffer)
        assert len(traces) == len("causal trace")
        for trace in traces:
            assert_causal_chain(trace)
            names = {s.name for s in trace.spans}
            assert "wal.fsync" in names

    def test_every_span_finished_exactly_once(self, tmp_path):
        server, buffer = duet(tmp_path)
        registry = server.db.obs.registry
        started = registry.get("trace.spans_started").value
        finished = sum(len(t) for t in buffer.traces())
        assert started == finished > 0
        assert server.db.obs.tracer.open_spans() == []
        assert registry.get("trace.active_spans").value == 0

    def test_replication_metric_observed_per_delivery(self, tmp_path):
        server, buffer = duet(tmp_path, text="abcd")
        snapshot = server.db.metrics_snapshot()
        deliveries = sum(
            1 for t in buffer.traces() for s in t.spans
            if s.name == "collab.deliver")
        assert snapshot["collab.replication_seconds"]["count"] == deliveries
        assert deliveries >= len("abcd")


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------

class TestChromeExport:
    def test_matches_golden_file(self, tmp_path):
        __, buffer = duet(tmp_path, text="causal trace")
        payload = scrub(chrome_trace(buffer.traces()))
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            assert payload == json.load(handle)

    def test_payload_validates(self, tmp_path):
        __, buffer = duet(tmp_path)
        assert validate_chrome_trace(chrome_trace(buffer.traces())) == []

    def test_validator_catches_broken_causality(self):
        payload = {"traceEvents": [{
            "ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0,
            "dur": 1.0, "args": {"trace": 1, "span": 2, "parent": 99},
        }]}
        errors = validate_chrome_trace(payload)
        assert any("broken causal link" in e for e in errors)

    def test_validator_catches_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                              "ts": -1.0, "dur": 0.0,
                              "args": {"span": 1, "trace": 1,
                                       "parent": None}}]}) != []


class TestJsonlExport:
    def test_round_trips_span_fields(self, tmp_path):
        __, buffer = duet(tmp_path, text="ab")
        spans = [s for t in buffer.traces() for s in t.spans]
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        for span, line in zip(spans, lines):
            loaded = json.loads(line)
            assert loaded == json.loads(json.dumps(span_to_dict(span)))
            assert loaded["trace"] == span.trace_id
            assert loaded["span"] == span.span_id
            assert loaded["parent"] == span.parent_id
            assert loaded["duration"] == pytest.approx(span.duration)


class TestRendering:
    def test_tree_render_shows_chain_and_depth(self, tmp_path):
        __, buffer = duet(tmp_path, text="a")
        trace = keystroke_traces(buffer)[-1]
        rendered = render_trace(trace)
        lines = rendered.splitlines()
        assert "end-to-end" in lines[0]
        order = [name for name in
                 ("collab.op", "txn", "wal.fsync", "collab.dispatch",
                  "collab.deliver", "collab.apply")
                 if any(name in line for line in lines)]
        assert order == ["collab.op", "txn", "wal.fsync", "collab.dispatch",
                         "collab.deliver", "collab.apply"]
        # Depth grows along the delivery leg.
        deliver = next(line for line in lines if "collab.deliver" in line)
        apply_ = next(line for line in lines if "collab.apply" in line)
        assert len(apply_) - len(apply_.lstrip()) > \
            len(deliver) - len(deliver.lstrip())

    def test_top_render_lists_hot_metrics(self, tmp_path):
        server, __ = duet(tmp_path, text="abc")
        out = render_top({"metrics": server.db.metrics_snapshot()})
        assert "hot paths" in out
        assert "collab.replication_seconds" in out
        assert "collab.op_seconds" in out


# ---------------------------------------------------------------------------
# Trace buffer behaviour
# ---------------------------------------------------------------------------

class TestTraceBuffer:
    def test_evicts_whole_traces_beyond_bound(self):
        tracer = Tracer()
        buffer = TraceBuffer(max_traces=3)
        tracer.add_sink(buffer)
        for __ in range(10):
            with tracer.span("op"):
                pass
        assert len(buffer) == 3
        assert buffer.evicted == 7
        kept = [t.trace_id for t in buffer.traces()]
        assert kept == [8, 9, 10]  # the newest three, oldest first

    def test_slow_op_log_thresholds_on_trace_extent(self):
        import time

        tracer = Tracer()
        buffer = TraceBuffer(slow_threshold=0.02)
        tracer.add_sink(buffer)
        with tracer.span("fast"):
            pass
        with tracer.span("slow"):
            time.sleep(0.03)
        slow = buffer.slow_ops()
        assert [t.root.name for t in slow] == ["slow"]

    def test_slow_counter_increments_once_per_trace(self):
        import time

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer()
        buffer = TraceBuffer(slow_threshold=0.01, registry=registry)
        tracer.add_sink(buffer)
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                time.sleep(0.015)
            with tracer.span("inner-2"):
                pass
        assert registry.get("trace.slow_ops").value == 1
        # The re-captured tree holds the whole trace, not the first hit.
        assert len(buffer.slow_ops()[0]) == 3

    def test_slowest_ranks_by_extent(self, tmp_path):
        __, buffer = duet(tmp_path, text="abc")
        slowest = buffer.slowest(3)
        durations = [t.duration for t in slowest]
        assert durations == sorted(durations, reverse=True)


# ---------------------------------------------------------------------------
# Fault interplay: held / reordered delivery must not break causality
# ---------------------------------------------------------------------------

class TestFaultInterplay:
    @pytest.mark.parametrize("seed", [3, 17, 99, 1311])
    def test_causal_links_survive_held_and_reordered_delivery(
            self, tmp_path, seed):
        faults = FaultInjector(FaultPlan.delivery_only(seed))
        server, buffer = duet(tmp_path, text="causal trace", faults=faults)
        traces = keystroke_traces(buffer)
        assert len(traces) == len("causal trace")
        for trace in traces:
            assert_causal_chain(trace)

    @pytest.mark.parametrize("seed", [3, 17, 99, 1311])
    def test_every_span_finished_exactly_once_under_faults(
            self, tmp_path, seed):
        faults = FaultInjector(FaultPlan.delivery_only(seed))
        server, buffer = duet(tmp_path, faults=faults)
        registry = server.db.obs.registry
        started = registry.get("trace.spans_started").value
        finished = sum(len(t) for t in buffer.traces())
        assert started == finished > 0
        assert server.db.obs.tracer.open_spans() == []
        assert registry.get("trace.active_spans").value == 0

    def test_held_deliveries_marked_and_measured(self, tmp_path):
        # p_hold is seeded per plan; this seed is known to hold some.
        faults = FaultInjector(FaultPlan.delivery_only(1311))
        server, buffer = duet(tmp_path, faults=faults)
        held_spans = [
            s for t in buffer.traces() for s in t.spans
            if s.name == "collab.deliver" and s.attrs.get("held")]
        snapshot = server.db.metrics_snapshot()
        assert snapshot["collab.held"]["value"] > 0
        assert len(held_spans) == snapshot["collab.held"]["value"]
        assert snapshot["collab.held_seconds"]["count"] == len(held_spans)
        # Replication latency counts every delivery, held or not.
        assert snapshot["collab.replication_seconds"]["count"] == \
            snapshot["collab.deliveries"]["value"]


def _regen() -> None:  # pragma: no cover - maintenance helper
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        __, buffer = duet(Path(tmp), text="causal trace")
    payload = scrub(chrome_trace(buffer.traces()))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import sys
    if "--regen" in sys.argv:
        _regen()
