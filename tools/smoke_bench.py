#!/usr/bin/env python3
"""Smoke-bench: one cheap benchmark per experiment group, obs-validated,
with a perf-trend gate.

Runs a minimal slice of the benchmark suite (the cheapest node from each
C*/D* experiment group) with GC disabled, then validates the emitted
``BENCH_obs.json`` against the schema in :mod:`benchmarks.report` with
``require_core=True`` — so CI fails on:

* an invalid or missing snapshot payload (pipeline regression);
* a metric name outside the catalogue (undocumented metric);
* a required core metric missing from every bench (name regression —
  somebody renamed or dropped ``txn.begun`` & co).

On top of the validity checks, a **perf-trend gate**: the medians of a
few headline nodes (C1 keystroke, group-commit multi-writer, replication
visibility) are compared against the committed baseline in
``BENCH_trend.json``.  Only a blow-up beyond ``BENCH_TREND_MAX_RATIO``
(default 2.0 — generous on purpose, CI runners are noisy) fails the
gate; ordinary jitter passes.

Finally an **SLO burn-rate gate**: a deterministic synthetic scenario
(simulated clock, fixed latency stream) is driven through the telemetry
pipeline and ``repro.obs.slo`` — the clean stream must leave every
shipped SLO green, and the same scenario with a latency burn injected
after t=60s must breach (a self-check that the gate can actually fire).
``--slo-burn`` runs the burned scenario *as* the gate, so CI can assert
the failure path end to end (exit code 1).

Last, a **derived-staleness gate**: traffic against a small changefeed-
maintained portal must leave every consumer at ``feed.lag`` 0 with zero
full rebuilds or rescans on the query path.

Usage::

    PYTHONPATH=src python tools/smoke_bench.py
    PYTHONPATH=src python tools/smoke_bench.py --record-baseline
    PYTHONPATH=src python tools/smoke_bench.py --slo-burn  # must fail
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The cheapest benchmark node from each experiment group.
SMOKE_NODES = (
    "benchmarks/bench_editing_transactions.py::test_keystroke_tendax[500]",
    "benchmarks/bench_editing_transactions.py::test_keystroke_bookkept",
    "benchmarks/bench_editing_transactions.py::test_group_commit_multiwriter",
    "benchmarks/bench_editing_transactions.py"
    "::test_snapshot_scan_interference",
    "benchmarks/bench_editing_transactions.py"
    "::test_cache_remote_splice_chunked[256000]",
    "benchmarks/bench_editing_transactions.py"
    "::test_cache_remote_splice_flat[256000]",
    "benchmarks/bench_editing_transactions.py::test_select_copy_paste_30k",
    "benchmarks/bench_editing_transactions.py::test_position_lookup_30k",
    "benchmarks/bench_editing_transactions.py::test_keystroke_commit_30k",
    "benchmarks/bench_editing_transactions.py::test_unique_key_read_30k",
    "benchmarks/bench_editing_transactions.py::test_create_document_30k",
    "benchmarks/bench_editing_transactions.py::test_snapshot_key_read",
    "benchmarks/bench_undo_redo.py::test_undo_redo_cycle[10]",
    "benchmarks/bench_recovery_security.py::test_recovery_replay[100]",
    "benchmarks/bench_recovery_security.py"
    "::test_recovery_growing_history[1000]",
    "benchmarks/bench_versioning.py::test_tag_version[500]",
    "benchmarks/bench_collaborative_editing.py::test_party_throughput[1]",
    "benchmarks/bench_collaborative_editing.py::test_replication_visibility[2]",
    "benchmarks/bench_workflow.py::test_task_state_transition",
    "benchmarks/bench_dynamic_folders.py::test_event_driven_update[25]",
    "benchmarks/bench_lineage.py::test_build_lineage_graph[10]",
    "benchmarks/bench_visual_mining.py::test_feature_extraction",
    "benchmarks/bench_search.py::test_indexed_content_search[50]",
    "benchmarks/bench_net.py::test_connect_storm[8]",
    "benchmarks/bench_net.py::test_fanout_latency[2]",
    "benchmarks/bench_net.py::test_stats_scrape[32]",
    "benchmarks/bench_net.py::test_mirror_lookup_scaling[1k]",
    "benchmarks/bench_net.py::test_mirror_lookup_scaling[64k]",
    "benchmarks/bench_net.py::test_mirror_open_8k",
    "benchmarks/bench_net.py::test_snapshot_render_8k",
    "benchmarks/bench_net.py::test_client_import_rss",
    "benchmarks/bench_repl.py::test_follower_apply_throughput[300]",
    "benchmarks/bench_repl.py::test_replica_scan_offload[leader]",
    "benchmarks/bench_repl.py::test_replica_scan_offload[replica]",
    "benchmarks/bench_repl.py::test_promotion_time[300]",
    "benchmarks/bench_portal.py::test_portal_search[100000]",
    "benchmarks/bench_portal.py::test_portal_folder_listing[100000]",
    "benchmarks/bench_portal.py::test_portal_scan_search[10k]",
    "benchmarks/bench_portal.py::test_index_apply_throughput",
    "benchmarks/bench_portal.py::test_index_bytes_per_doc",
)

#: Headline nodes whose medians are tracked in BENCH_trend.json.
TREND_NODES = {
    "benchmarks/bench_editing_transactions.py::test_keystroke_tendax[500]":
        "c1_keystroke_500",
    "benchmarks/bench_editing_transactions.py::test_keystroke_bookkept":
        "c1_keystroke_bookkept",
    "benchmarks/bench_editing_transactions.py::test_group_commit_multiwriter":
        "group_commit_multiwriter",
    "benchmarks/bench_editing_transactions.py"
    "::test_snapshot_scan_interference":
        "c1_snapshot_scan_interference",
    "benchmarks/bench_editing_transactions.py"
    "::test_cache_remote_splice_chunked[256000]":
        "c1_cache_splice_chunked_256k",
    "benchmarks/bench_editing_transactions.py"
    "::test_cache_remote_splice_flat[256000]":
        "c1_cache_splice_flat_256k",
    "benchmarks/bench_editing_transactions.py::test_select_copy_paste_30k":
        "c1_select_copy_paste_30k",
    "benchmarks/bench_editing_transactions.py::test_position_lookup_30k":
        "c1_position_lookup_30k",
    "benchmarks/bench_editing_transactions.py::test_keystroke_commit_30k":
        "c1_keystroke_commit",
    "benchmarks/bench_editing_transactions.py::test_unique_key_read_30k":
        "c1_unique_key_read",
    "benchmarks/bench_editing_transactions.py::test_create_document_30k":
        "c1_create_document_30k",
    "benchmarks/bench_editing_transactions.py::test_snapshot_key_read":
        "c1_snapshot_key_read",
    "benchmarks/bench_recovery_security.py"
    "::test_recovery_growing_history[1000]":
        "c3_recovery_growing_history_1000",
    "benchmarks/bench_collaborative_editing.py::test_replication_visibility[2]":
        "c3_replication_visibility_2",
    "benchmarks/bench_net.py::test_connect_storm[8]":
        "d7_connect_storm_8",
    "benchmarks/bench_net.py::test_fanout_latency[2]":
        "d7_fanout_latency_2",
    "benchmarks/bench_net.py::test_stats_scrape[32]":
        "d7_stats_scrape_32",
    "benchmarks/bench_net.py::test_mirror_lookup_scaling[1k]":
        "d7_mirror_lookup_1k",
    "benchmarks/bench_net.py::test_mirror_lookup_scaling[64k]":
        "d7_mirror_lookup_64k",
    "benchmarks/bench_net.py::test_mirror_open_8k":
        "d7_mirror_open_8k",
    "benchmarks/bench_net.py::test_snapshot_render_8k":
        "d7_snapshot_render_8k",
    "benchmarks/bench_net.py::test_client_import_rss":
        "d7_client_import_rss",
    "benchmarks/bench_repl.py::test_follower_apply_throughput[300]":
        "d8_follower_apply_300",
    "benchmarks/bench_repl.py::test_replica_scan_offload[replica]":
        "d8_replica_scan_offload",
    "benchmarks/bench_repl.py::test_promotion_time[300]":
        "d8_promotion_300",
    "benchmarks/bench_portal.py::test_portal_search[100000]":
        "d9_portal_search_100k",
    "benchmarks/bench_portal.py::test_portal_folder_listing[100000]":
        "d9_folder_listing_100k",
    "benchmarks/bench_portal.py::test_portal_scan_search[10k]":
        "d9_portal_scan_10k",
    "benchmarks/bench_portal.py::test_index_apply_throughput":
        "d9_index_apply",
    "benchmarks/bench_portal.py::test_index_bytes_per_doc":
        "d9_index_bytes_per_doc",
}

TREND_PATH = os.path.join(REPO, "BENCH_trend.json")
SMOKE_JSON = os.path.join(REPO, "BENCH_smoke.json")


def run_smoke(record_baseline: bool = False) -> int:
    obs_path = os.path.join(REPO, "BENCH_obs.json")
    if os.path.exists(obs_path):
        os.remove(obs_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", *SMOKE_NODES, "-q",
           "--benchmark-only", "--benchmark-disable-gc",
           "--benchmark-warmup=off", f"--benchmark-json={SMOKE_JSON}"]
    proc = subprocess.run(cmd, cwd=REPO, env=env)
    if proc.returncode != 0:
        print("smoke benchmarks failed", file=sys.stderr)
        return 1
    status = validate(obs_path)
    if status:
        return status
    status = check_trend(record_baseline=record_baseline)
    if status:
        return status
    status = check_slo()
    if status:
        return status
    return check_staleness()


def validate(obs_path: str) -> int:
    sys.path.insert(0, REPO)
    sys.path.insert(0, os.path.join(REPO, "src"))
    from benchmarks.report import validate_obs_payload

    if not os.path.exists(obs_path):
        print("BENCH_obs.json was not emitted", file=sys.stderr)
        return 1
    with open(obs_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    errors = validate_obs_payload(payload, require_core=True)
    if errors:
        for error in errors:
            print(f"BENCH_obs invalid: {error}", file=sys.stderr)
        return 1
    names = {n for b in payload["benchmarks"] for n in b["metrics"]}
    print(f"BENCH_obs.json valid: {len(payload['benchmarks'])} benchmarks, "
          f"{len(names)} distinct metrics")
    return 0


def _load_medians(smoke_json: str) -> dict[str, float]:
    """Median seconds per trend key from a pytest-benchmark JSON dump."""
    with open(smoke_json, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    medians: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        key = TREND_NODES.get(bench.get("fullname", ""))
        if key is not None:
            medians[key] = bench["stats"]["median"]
    return medians


def check_trend(*, record_baseline: bool = False,
                smoke_json: str = SMOKE_JSON,
                trend_path: str = TREND_PATH) -> int:
    """Gate the headline medians against the committed baseline.

    ``record_baseline`` rewrites ``BENCH_trend.json`` from the current
    run instead of gating (used after intentional perf changes).  The
    tolerated ratio comes from ``BENCH_TREND_MAX_RATIO`` (default 2.0):
    the gate only catches a node getting *several times* slower — real
    regressions, not runner noise.
    """
    if not os.path.exists(smoke_json):
        print("benchmark JSON dump missing; cannot check trend",
              file=sys.stderr)
        return 1
    medians = _load_medians(smoke_json)
    missing = sorted(set(TREND_NODES.values()) - set(medians))
    if missing:
        print(f"trend nodes missing from the run: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    if record_baseline:
        baseline = {
            "comment": "perf-trend baselines (median seconds); regenerate "
                       "with: PYTHONPATH=src python tools/smoke_bench.py "
                       "--record-baseline",
            "max_ratio_default": 2.0,
            "medians": {k: round(v, 9) for k, v in sorted(medians.items())},
        }
        with open(trend_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded perf-trend baseline: {trend_path}")
        return 0
    if not os.path.exists(trend_path):
        print("BENCH_trend.json missing; record a baseline first "
              "(--record-baseline)", file=sys.stderr)
        return 1
    with open(trend_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    max_ratio = float(os.environ.get(
        "BENCH_TREND_MAX_RATIO", baseline.get("max_ratio_default", 2.0)))
    failures = []
    for key, current in sorted(medians.items()):
        base = baseline["medians"].get(key)
        if base is None:
            failures.append(f"{key}: no baseline recorded")
            continue
        # Sub-microsecond baselines (the folder-listing node) sit at
        # timer resolution; flooring the denominator keeps the ratio
        # meaningful instead of gating on nanosecond jitter.
        ratio = current / max(base, 1e-6)
        marker = "FAIL" if ratio > max_ratio else "ok"
        print(f"trend {key}: {current * 1e3:.3f} ms vs baseline "
              f"{base * 1e3:.3f} ms (x{ratio:.2f}) [{marker}]")
        if ratio > max_ratio:
            failures.append(
                f"{key}: {ratio:.2f}x slower than baseline "
                f"(limit {max_ratio:.1f}x)")
    if failures:
        for failure in failures:
            print(f"perf-trend regression: {failure}", file=sys.stderr)
        return 1
    print(f"perf-trend gate passed ({len(medians)} nodes, "
          f"limit {max_ratio:.1f}x)")
    return 0


def _drive_slo_scenario(*, burn: bool):
    """120 simulated seconds of latency traffic through the SLO pipeline.

    Clean: every fsync/replication observation is 2ms, far under both
    objectives.  Burn: from t=60s the stream degrades to 200ms, which is
    bad for both SLOs — the fast (1m) window sees 100% errors and the
    slow (5m) window, clamped to the run's span, sees 50%; both burn far
    above the 2.0 threshold against a 1% budget.
    """
    from repro.clock import SimulatedClock
    from repro.obs import MetricsRegistry, SLOEvaluator, TelemetryStore

    start = 1_000_000.0
    clock = SimulatedClock(start=start, tick=0.0)
    registry = MetricsRegistry()
    fsync = registry.histogram("wal.fsync_seconds")
    replication = registry.histogram("collab.replication_seconds")
    store = TelemetryStore(registry, clock, interval=1.0, capacity=256)
    evaluator = SLOEvaluator(store, registry=registry)
    for second in range(120):
        latency = 0.2 if burn and second >= 60 else 0.002
        for __ in range(50):
            fsync.observe(latency)
            replication.observe(latency)
        store.sample(now=start + second)
    return evaluator.evaluate(now=start + 119), registry


def check_slo(*, burn: bool = False) -> int:
    """Gate CI on the deterministic synthetic SLO scenario.

    The clean scenario must pass and — run inline as a self-check — the
    burned one must breach, proving the gate can fire.  ``burn=True``
    (the ``--slo-burn`` flag) makes the burned scenario *the* gate, so a
    caller can assert the red path returns a non-zero exit code.
    """
    sys.path.insert(0, os.path.join(REPO, "src"))
    results, registry = _drive_slo_scenario(burn=burn)
    failures = []
    for result in results:
        fast, slow = result["fast"], result["slow"]
        fast_burn = fast["burn"] if fast else 0.0
        slow_burn = slow["burn"] if slow else 0.0
        marker = "BREACH" if result["breached"] else "ok"
        print(f"slo {result['slo']}: fast burn x{fast_burn:.1f}, "
              f"slow burn x{slow_burn:.1f} "
              f"(threshold x{result['burn_threshold']:.1f}) [{marker}]")
        if result["breached"]:
            failures.append(f"{result['slo']}: error budget burning "
                            f"{slow_burn:.1f}x too fast")
    breached_gauges = sum(
        1 for name, metric in registry.snapshot().items()
        if name.startswith("slo.breached{") and metric.get("value"))
    if failures:
        for failure in failures:
            print(f"SLO breach: {failure}", file=sys.stderr)
        return 1
    if burn:
        print("SLO burn scenario did not breach — gate is broken",
              file=sys.stderr)
        return 1
    if not burn:
        # Self-check: the burned scenario must turn the slo.* gauges red
        # and fail; otherwise the gate is decorative.
        burn_results, burn_registry = _drive_slo_scenario(burn=True)
        red = sum(
            1 for name, metric in burn_registry.snapshot().items()
            if name.startswith("slo.breached{") and metric.get("value"))
        if not any(r["breached"] for r in burn_results) or not red:
            print("SLO gate self-check failed: synthetic burn did not "
                  "breach", file=sys.stderr)
            return 1
        print(f"SLO gate passed ({len(results)} specs green, "
              f"{breached_gauges} gauges red; burn self-check breached "
              f"{red} spec(s))")
    return 0


def check_staleness() -> int:
    """Gate CI on derived-data staleness draining to zero.

    Drives Zipf traffic (including versioned re-uploads) against a small
    changefeed-maintained portal, then asserts that the maintenance
    worker drains every consumer's ``feed.lag`` to 0 and that no query
    fell back to a full index rebuild or folder rescan — the structural
    invariant behind the ``derived_staleness`` SLO.
    """
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.workload import PortalSpec, build_portal, run_portal_traffic

    portal = build_portal(PortalSpec(n_docs=300))
    try:
        report = run_portal_traffic(portal, n_ops=150, seed=7)
        feed = portal.db.changefeed()
        lag = feed.max_lag()
        failures = []
        if lag != 0:
            failures.append(f"feed lag did not drain: {lag} batches behind")
        if report.index_rebuilds:
            failures.append(
                f"{report.index_rebuilds} full index rebuild(s) on the "
                "query path")
        if report.folder_rescans:
            failures.append(
                f"{report.folder_rescans} full folder rescan(s) on the "
                "query path")
        if failures:
            for failure in failures:
                print(f"staleness gate: {failure}", file=sys.stderr)
            return 1
        consumers = len(feed.status()["consumers"])
        print(f"staleness gate passed ({consumers} consumers at lag 0, "
              f"{report.uploads} uploads absorbed in "
              f"{report.drain_rounds} final drain round(s))")
        return 0
    finally:
        portal.close()


if __name__ == "__main__":
    if "--slo-burn" in sys.argv[1:]:
        sys.exit(check_slo(burn=True))
    sys.exit(run_smoke(record_baseline="--record-baseline" in sys.argv[1:]))
