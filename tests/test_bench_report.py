"""Tests for the benchmark reporting pipeline (``benchmarks/report.py``).

Covers the paper-style table renderer (against a golden file, so format
drift is a conscious decision) and the BENCH_obs.json schema contract
the smoke-bench CI step enforces.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from benchmarks.report import (
    SCHEMA_ID,
    build_obs_payload,
    load_groups,
    render,
    render_obs,
    validate_obs_payload,
)
from repro.obs import REQUIRED_METRICS, MetricsRegistry, compact_snapshot

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "report_golden.txt")

#: A frozen two-group pytest-benchmark payload (only the fields the
#: renderer consumes).
SAMPLE_BENCH = {
    "benchmarks": [
        {
            "group": "C1 keystroke mid-doc n=500",
            "name": "test_keystroke_tendax[500]",
            "stats": {"median": 0.000234, "mean": 0.000245},
            "extra_info": {"system": "tendax", "n": 500},
        },
        {
            "group": "C1 keystroke mid-doc n=500",
            "name": "test_keystroke_file_baseline[500]",
            "stats": {"median": 0.00311, "mean": 0.00305},
            "extra_info": {"system": "file-wp", "n": 500},
        },
        {
            "group": "D6 content search n=50",
            "name": "test_indexed_content_search[50]",
            "stats": {"median": 0.00037, "mean": 0.00039},
            "extra_info": {"mode": "indexed", "docs": 50},
        },
        {
            "name": "test_ungrouped_probe",
            "stats": {"median": 2e-07, "mean": 2.5e-07},
            "extra_info": {},
        },
    ]
}


def sample_obs_payload() -> dict:
    """A valid payload built the way the bench harness builds it."""
    registry = MetricsRegistry()
    for name in REQUIRED_METRICS:
        kind = "histogram" if name.endswith("_seconds") else "counter"
        if kind == "histogram":
            registry.histogram(name).observe(0.001)
        else:
            registry.counter(name).inc(7)
    registry.gauge("txn.active").set(0)
    metrics = compact_snapshot(registry.snapshot())
    return build_obs_payload([
        {"name": "test_keystroke_tendax[500]",
         "group": "C1 keystroke mid-doc n=500", "metrics": metrics},
    ])


class TestTableRendering:
    def test_render_matches_golden_file(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(SAMPLE_BENCH), encoding="utf-8")
        rendered = render(load_groups(str(path)))
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            assert rendered == handle.read()

    def test_groups_sorted_and_rows_ordered_by_median(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(SAMPLE_BENCH), encoding="utf-8")
        rendered = render(load_groups(str(path)))
        c1 = rendered.index("C1 keystroke")
        d6 = rendered.index("D6 content search")
        assert c1 < d6
        # Within C1, tendax (faster median) renders before file-wp.
        assert rendered.index("tendax") < rendered.index("file-wp")


class TestObsSchema:
    def test_valid_payload_passes(self):
        payload = sample_obs_payload()
        assert validate_obs_payload(payload) == []
        assert validate_obs_payload(payload, require_core=True) == []
        assert payload["schema"] == SCHEMA_ID

    def test_payload_is_json_serialisable(self):
        payload = sample_obs_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_render_obs_mentions_every_metric(self):
        payload = sample_obs_payload()
        text = render_obs(payload)
        for name in REQUIRED_METRICS:
            assert name in text

    def test_wrong_schema_id_rejected(self):
        payload = sample_obs_payload()
        payload["schema"] = "tendax.bench-obs.v0"
        assert any("schema" in e for e in validate_obs_payload(payload))

    def test_unknown_metric_name_rejected(self):
        payload = sample_obs_payload()
        payload["benchmarks"][0]["metrics"]["txn.visited"] = {
            "type": "counter", "value": 1}
        errors = validate_obs_payload(payload)
        assert any("txn.visited" in e and "catalogue" in e for e in errors)

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda p: p.pop("benchmarks"), "'benchmarks' must be a list"),
        (lambda p: p["benchmarks"].append("nope"), "must be an object"),
        (lambda p: p["benchmarks"][0].pop("name"), ".name"),
        (lambda p: p["benchmarks"][0].__setitem__("group", 7), ".group"),
        (lambda p: p["benchmarks"][0].__setitem__("metrics", []),
         ".metrics"),
        (lambda p: p["benchmarks"][0]["metrics"]["txn.committed"].pop("value"),
         "numeric 'value'"),
        (lambda p: p["benchmarks"][0]["metrics"]["txn.committed"]
         .__setitem__("type", "meter"), "unknown type"),
    ])
    def test_malformed_entries_rejected(self, mutate, fragment):
        payload = copy.deepcopy(sample_obs_payload())
        mutate(payload)
        errors = validate_obs_payload(payload)
        assert any(fragment in e for e in errors), errors

    def test_require_core_detects_name_regression(self):
        payload = sample_obs_payload()
        del payload["benchmarks"][0]["metrics"]["txn.committed"]
        assert validate_obs_payload(payload) == []
        errors = validate_obs_payload(payload, require_core=True)
        assert any("txn.committed" in e for e in errors)


class TestObsSchemaV2:
    """v2 additions: labelled metric names and the per-bench telemetry
    time-series block; v1 payloads must stay readable."""

    def test_v1_payload_still_validates(self):
        payload = sample_obs_payload()
        payload["schema"] = "tendax.bench-obs.v1"
        assert validate_obs_payload(payload) == []

    def test_labelled_metric_names_accepted(self):
        payload = sample_obs_payload()
        payload["benchmarks"][0]["metrics"][
            "collab.notifications{doc=tendax.doc:1}"] = {
                "type": "counter", "value": 3}
        assert validate_obs_payload(payload) == []

    def test_labelled_name_with_bad_key_rejected(self):
        payload = sample_obs_payload()
        payload["benchmarks"][0]["metrics"][
            "collab.notifications{host=web1}"] = {
                "type": "counter", "value": 3}
        errors = validate_obs_payload(payload)
        assert any("catalogue" in e for e in errors)

    def _telemetry(self) -> dict:
        from repro.clock import SimulatedClock
        from repro.obs import MetricsRegistry, TelemetryStore

        registry = MetricsRegistry()
        clock = SimulatedClock(start=1_000.0, tick=0.0)
        store = TelemetryStore(registry, clock, interval=1.0)
        counter = registry.counter("net.ops")
        for second in range(15):
            counter.inc()
            store.sample(now=1_000.0 + second)
        return store.snapshot()

    def test_real_telemetry_snapshot_validates(self):
        payload = sample_obs_payload()
        payload["benchmarks"][0]["telemetry"] = self._telemetry()
        assert validate_obs_payload(payload) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda t: t.__setitem__("schema", "nope"), ".schema"),
        (lambda t: t.pop("series"), ".series"),
        (lambda t: t.__setitem__("windows", "x"), ".windows"),
        (lambda t: t["windows"].__setitem__(
            "net.ops", {"10s": {"rate": 1.0}}), "needs a 'kind'"),
        (lambda t: t["series"].__setitem__(
            "no.such.metric", {"kind": "counter", "points": []}),
         "catalogue"),
    ])
    def test_malformed_telemetry_rejected(self, mutate, fragment):
        payload = sample_obs_payload()
        telemetry = self._telemetry()
        mutate(telemetry)
        payload["benchmarks"][0]["telemetry"] = telemetry
        errors = validate_obs_payload(payload)
        assert any(fragment in e for e in errors), errors


class TestPerfTrendGate:
    """The perf-trend gate in ``tools/smoke_bench.py``.

    The tool is a script, not a package module, so it is loaded from its
    file path; ``check_trend`` takes explicit paths so the tests drive it
    against synthetic pytest-benchmark dumps.
    """

    @pytest.fixture(scope="class")
    def smoke(self):
        import importlib.util
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "tools", "smoke_bench.py")
        spec = importlib.util.spec_from_file_location("_smoke_bench", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _dump(self, tmp_path, smoke, medians: dict) -> str:
        by_key = {v: k for k, v in smoke.TREND_NODES.items()}
        payload = {"benchmarks": [
            {"fullname": by_key[key], "stats": {"median": value}}
            for key, value in medians.items()
        ]}
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def _full(self, smoke, value: float) -> dict:
        return {key: value for key in smoke.TREND_NODES.values()}

    def test_record_then_pass_on_same_numbers(self, tmp_path, smoke):
        dump = self._dump(tmp_path, smoke, self._full(smoke, 0.01))
        trend = str(tmp_path / "trend.json")
        assert smoke.check_trend(record_baseline=True, smoke_json=dump,
                                 trend_path=trend) == 0
        assert smoke.check_trend(smoke_json=dump, trend_path=trend) == 0

    def test_small_jitter_passes_big_regression_fails(self, tmp_path, smoke):
        trend = str(tmp_path / "trend.json")
        base = self._dump(tmp_path, smoke, self._full(smoke, 0.01))
        smoke.check_trend(record_baseline=True, smoke_json=base,
                          trend_path=trend)
        jitter = self._dump(tmp_path, smoke, self._full(smoke, 0.018))
        assert smoke.check_trend(smoke_json=jitter, trend_path=trend) == 0
        blown = self._dump(tmp_path, smoke, self._full(smoke, 0.031))
        assert smoke.check_trend(smoke_json=blown, trend_path=trend) == 1

    def test_tolerance_env_override(self, tmp_path, smoke, monkeypatch):
        trend = str(tmp_path / "trend.json")
        base = self._dump(tmp_path, smoke, self._full(smoke, 0.01))
        smoke.check_trend(record_baseline=True, smoke_json=base,
                          trend_path=trend)
        blown = self._dump(tmp_path, smoke, self._full(smoke, 0.05))
        assert smoke.check_trend(smoke_json=blown, trend_path=trend) == 1
        monkeypatch.setenv("BENCH_TREND_MAX_RATIO", "10")
        assert smoke.check_trend(smoke_json=blown, trend_path=trend) == 0

    def test_missing_trend_node_fails(self, tmp_path, smoke):
        trend = str(tmp_path / "trend.json")
        medians = self._full(smoke, 0.01)
        medians.pop("group_commit_multiwriter")
        dump = self._dump(tmp_path, smoke, medians)
        assert smoke.check_trend(smoke_json=dump, trend_path=trend) == 1

    def test_missing_baseline_file_fails(self, tmp_path, smoke):
        dump = self._dump(tmp_path, smoke, self._full(smoke, 0.01))
        assert smoke.check_trend(smoke_json=dump,
                                 trend_path=str(tmp_path / "no.json")) == 1

    def test_committed_baseline_covers_all_trend_nodes(self, smoke):
        with open(smoke.TREND_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert set(baseline["medians"]) == set(smoke.TREND_NODES.values())

    def test_slo_gate_clean_passes(self, smoke, capsys):
        assert smoke.check_slo() == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "BREACH" not in out

    def test_slo_gate_burn_fails(self, smoke, capsys):
        assert smoke.check_slo(burn=True) == 1
        captured = capsys.readouterr()
        assert "[BREACH]" in captured.out
        assert "SLO breach" in captured.err
