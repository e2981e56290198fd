"""Smoke and contract tests of the benchmark itself.

Run with ``python3 -m pytest bench/ -q`` (about two minutes: each
workload is set up for real).  Not part of the tier-1 collection
(``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import BLOCK, WORKLOADS, OpDigest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]][2]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] \
        + list(WORKLOADS)
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _digest(name: str, seed: int, n: int = 5 * BLOCK) -> OpDigest:
    ops = WORKLOADS[name][0](seed)
    digest = OpDigest()
    for _ in range(n):
        digest.add(next(ops))
    return digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_ops_depend_on_the_seed_and_nothing_else(name):
    first, again, other = _digest(name, 7), _digest(name, 7), _digest(name, 8)
    assert first.hexdigest() == again.hexdigest()
    assert first.hexdigest() != other.hexdigest()
    # Exact shares: whole blocks hold the same verb counts for any seed.
    assert first.counts == other.counts


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_second_smoke(name, trace):
    run = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, cwd=ROOT_DIR)
    assert run.returncode == 0, run.stdout[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.targets_missing"] == 0
        assert 0.9 <= values["trace.selftime_coverage"] <= 1.1
        # Each workload really bypasses the layers it claims to.
        bypassed = {
            "wire_typing": ("search.", "folders."),
            "local_edit_mix": ("net.", "search.", "folders."),
            "portal_query": ("net.", "collab."),
            "portal_ingest": ("net.", "collab."),
        }[name]
        for metric, value in values.items():
            if metric.startswith(bypassed):
                assert value == 0, metric
        if name == "local_edit_mix":
            assert values["db.wal.fsyncs_per_op"] == 0
        with open(os.path.join(BENCH_DIR, "out", f"trace-{name}.json"),
                  encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert events and {"name", "ph", "ts", "dur", "pid", "tid"} \
            <= set(events[0])


def test_self_time_subtracts_what_children_cover():
    # root 0..10; child 1..4 with grandchild 2..3; second child 6..9 on
    # another thread, overhanging the root's end.
    spans = [
        (1, -1, tracing.ROOT, "type", 0.0, 10.0, 0, 1),
        (2, 1, "a.x", "A.x", 1.0, 4.0, 0, 1),
        (3, 2, "b.y", "B.y", 2.0, 3.0, 0, 1),
        (4, 1, "a.x", "A.x", 6.0, 11.0, 0, 2),
    ]
    summary = tracing.TraceSummary(spans)
    assert summary.self_seconds(tracing.ROOT) == pytest.approx(3.0)
    assert summary.self_seconds("a.x") == pytest.approx(2.0 + 5.0)
    assert summary.total_seconds("a.x") == pytest.approx(8.0)
    assert summary.mean_self("b.y") == pytest.approx(1.0)
    assert summary.layer_seconds("a") == pytest.approx(7.0)
    # 3 + 2 + 1 + 5 attributed to a 10-long op (the overhang shows).
    assert summary.coverage == [pytest.approx(1.1)]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady],
                           "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "higher", 0.10) == "better"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert compare.spread(steady) < 0.02 < compare.spread(noisy)
