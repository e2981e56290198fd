#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, named metrics.

    python3 bench/run.py --workload wire_typing --seed 7 --seconds 10 --trace 0

runs one workload for ``--seconds``, checks its outputs, prints every
metric by name with its unit and ends with one JSON line::

    {"correct": true, "attempted": 1021, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation.  ``--trace 1`` splits the window: the first half runs
untraced (class latencies, and the throughput the overhead is judged
against), the second half repeats the same ops on a fresh set-up with
the span wrappers of :mod:`trace` installed; it reports the per-layer
metrics and writes ``bench/out/trace-<workload>.json``.

Without ``--workload`` (or with ``--repeat N``) this process only
orchestrates: each run happens in a child ``run.py`` so that peak RSS
and GC state are the run's own.  Repeats use seeds SEED, SEED+1, ... —
the regression gate compares medians across seeds, so that is the
spread that matters; ``--out FILE`` stores the run set that
``compare.py`` reads.

The load generator is one thread, closed loop, one op in flight: an
editor cannot send its next key before the previous one is ACKed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

import drivers  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import BLOCK, WORKLOADS, OpDigest  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Ops run (from a sibling seed) before the window opens, so lazily
#: built caches are warm before anything is timed.
WARMUP_OPS = 30
_TICK = os.sysconf("SC_CLK_TCK")
_LAYERS = ("net", "collab", "text", "db", "feed", "search", "folders")


def load_spec() -> dict:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Process probes
# ----------------------------------------------------------------------

def child_cpu(pid: int | None) -> float:
    """user+sys CPU seconds of a live child (0 when there is none)."""
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def child_peak_rss_kib(pid: int | None) -> float:
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    return 0.0


def percentile(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# CPU speed calibration
# ----------------------------------------------------------------------
# This sandbox's vCPUs change speed under the benchmark: a fixed
# pure-Python loop takes 8.6 ms, then 10.1 ms, for stretches of 0.3 s
# to minutes, and at times twice that — which moves every time-based
# metric by 10-30 % between runs of identical code.  So a fixed kernel
# of interpreter work is timed every CAL_EVERY seconds inside the
# window, and each op's time is scaled by REFERENCE_KERNEL_S / (kernel
# time measured next to it): all times are reported at reference speed.
# A change to the program cannot move the kernel, so the scaling
# cancels the machine and nothing else.  (A shorter kernel, or one made
# of dict/JSON work, tracked the program worse: it is dominated by how
# cold the caches are when it starts.)

#: Seconds the kernel takes on this box in its usual faster regime.
REFERENCE_KERNEL_S = 1.15e-3
CAL_EVERY = 0.030


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel."""
    started = perf_counter()
    x = 0
    for i in range(25000):
        x += i * i % 7
    return perf_counter() - started


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------

class Phase:
    """What one set-up + window produced."""

    def __init__(self, driver_cls: type) -> None:
        self.driver_cls = driver_cls
        self.setup_seconds: list[float] = []
        #: (verb, latency, iteration, raw iteration); the first two at
        #: reference speed.  Iteration = op plus the propagation wait.
        self.ops: list[tuple] = []
        #: (n_ops, cpu seconds, seconds spent calibrating, peak RSS KiB)
        #: at the start and after every block.
        self.marks: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = OpDigest()
        self.counter_delta: dict = {}
        self.counters_end: dict = {}
        self.extras: dict = {}
        self.problems: list[str] = []
        self.wall = 0.0
        #: Reference-speed seconds per measured second, window average.
        self.speed = 1.0

    def measured(self) -> tuple[list, float]:
        """The ops of the whole blocks completed (of everything run,
        when not even one block completed) and their CPU seconds at
        reference speed."""
        first = self.marks[0]
        whole = [m for m in self.marks if m[0] and m[0] % BLOCK == 0]
        last = whole[-1] if whole else self.marks[-1]
        ops = self.ops[:last[0]]
        raw = sum(op[3] for op in ops)
        scale = sum(op[2] for op in ops) / raw if raw else 1.0
        cpu = (last[1] - first[1]) - (last[2] - first[2])
        return ops, cpu * scale

    def peak_rss_kib(self) -> float:
        """High-water RSS once the driver's ``RSS_AFTER_BLOCKS`` blocks
        are done (at the last whole block, if the run did not get that
        far).  Memory grows with the work done, so it is read at a
        fixed amount of work, not at whatever count this machine
        reached in time."""
        whole = [m for m in self.marks if m[0] % BLOCK == 0]
        return whole[min(self.driver_cls.RSS_AFTER_BLOCKS,
                         len(whole) - 1)][3]

    def class_p50_ms(self) -> dict:
        """Median latency per class of verbs the driver names."""
        out = {}
        for metric, verbs in self.driver_cls.CLASS_P50.items():
            samples = [op[1] for op in self.ops if op[0] in verbs]
            out[metric] = statistics.median(samples) * 1e3 if samples else 0.0
        return out

    def ops_per_s(self) -> float:
        ops, _ = self.measured()
        return len(ops) / sum(op[2] for op in ops)


def run_phase(name: str, seed: int, seconds: float, *,
              tracer: "tracing.Tracer | None" = None,
              setups: int = 1) -> Phase:
    make_ops, driver_name, _why = WORKLOADS[name]
    driver_cls = getattr(drivers, driver_name)
    phase = Phase(driver_cls)
    driver = None
    for _ in range(setups):
        if driver is not None:
            driver.teardown()
            # The program's objects are cyclic; free the previous
            # set-up now, not whenever the collector next runs, so the
            # memory high-water mark does not depend on that timing.
            driver = None
            gc.collect()
        driver = driver_cls(OUT_DIR, in_process=tracer is not None)
        started = perf_counter()
        driver.setup(seed)
        phase.setup_seconds.append(perf_counter() - started)
    try:
        driver.probe()
        warm = make_ops(seed ^ 0x5EED)
        for _ in range(WARMUP_OPS):
            driver.execute(next(warm))
        # The corpus built in set-up is long-lived: keep the cyclic GC
        # from re-walking it (a multi-10-ms pause) during the window.
        gc.collect()
        gc.freeze()
        _window(phase, driver, make_ops(seed), seconds, tracer)
        phase.problems = driver.verify()
        phase.extras = dict(driver.extras)
    finally:
        gc.unfreeze()
        driver.teardown()
    return phase


def _window(phase: Phase, driver, ops, seconds: float, tracer) -> None:
    """The closed loop: one op in flight until the deadline passes."""
    def mark(n_ops: int) -> tuple:
        pid = driver.child_pid
        return (n_ops, time.process_time() + child_cpu(pid), calibrating,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + child_peak_rss_kib(pid))

    before = driver.counters()
    if tracer is not None:
        tracer.recording = True
    kernels: list[float] = []
    calibrating = 0.0
    records = []
    start = perf_counter()
    deadline = start + seconds
    due = start
    phase.marks.append(mark(0))
    n = 0
    while True:
        now = perf_counter()
        if now >= deadline:
            break
        if now >= due:
            kernels.append(kernel_seconds())
            calibrating += kernels[-1]
            due = perf_counter() + CAL_EVERY
        op = next(ops)
        phase.digest.add(op)
        sid = tracer.begin_op(n) if tracer is not None else 0
        begun = perf_counter()
        try:
            done = driver.execute(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            done = None
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"{op[0]}: {exc!r}")
        ended = perf_counter()
        if tracer is not None:
            tracer.end_op(sid, op[0], begun, ended)
        n += 1
        records.append((op[0], (done or ended) - begun, ended - begun,
                        len(kernels)))
        if n % BLOCK == 0:
            phase.marks.append(mark(n))
    end = perf_counter()
    if tracer is not None:
        tracer.recording = False
    kernels.append(kernel_seconds())
    if n % BLOCK:
        phase.marks.append(mark(n))
    phase.attempted = n
    phase.wall = end - start - calibrating
    # Scale each op by the kernel timings taken around it: the median
    # of five tracks a speed regime and ignores a one-off preemption.
    scales = [REFERENCE_KERNEL_S
              / statistics.median(kernels[max(0, k - 3):k + 2])
              for k in range(len(kernels) + 1)]
    for verb, latency, iteration, k in records:
        phase.ops.append((verb, latency * scales[k], iteration * scales[k],
                          iteration))
    raw = sum(op[3] for op in phase.ops)
    phase.speed = sum(op[2] for op in phase.ops) / raw if raw else 1.0
    after = driver.counters()
    phase.counters_end = after
    phase.counter_delta = {k: after[k] - before.get(k, 0) for k in after}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(phase: Phase) -> dict:
    ops, cpu_seconds = phase.measured()
    latencies = sorted(op[1] for op in ops)
    return {
        "setup_s": statistics.median(phase.setup_seconds),
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "cpu_ms_per_op": cpu_seconds / len(ops) * 1e3,
        "peak_rss_mb": phase.peak_rss_kib() / 1024.0,
    }


def per_layer(plain: Phase, traced: Phase, tracer: "tracing.Tracer") -> dict:
    summary = tracer.analyse()
    delta = traced.counter_delta
    ops = max(traced.attempted, 1)

    def per_op(*names: str) -> float:
        return sum(delta.get(name, 0) for name in names) / ops

    def ms(group: str) -> float:
        return summary.mean_self(group) * traced.speed * 1e3

    def us(group: str) -> float:
        return summary.mean_self(group) * traced.speed * 1e6

    encode, decode = tracing.protocol_replay(tracer.envelopes)
    worker_calls = summary.calls("feed.worker.run")
    worker_total = summary.total_seconds("feed.worker.run")
    index_busy = traced.speed * (
        summary.self_seconds("search.index.maintain")
        + summary.self_seconds("search.index.ensure_fresh"))
    results = delta.get("search.results", 0)
    iterations = sorted(op[2] for op in plain.measured()[0]) \
        if plain.driver_cls.PROPAGATES else [0.0]
    metrics = {
        # -- net -------------------------------------------------------
        "net.client.rpc_ms": ms("net.client.rpc"),
        "net.mirror.lookup_ms": ms("net.mirror.lookup"),
        "net.mirror.apply_ms": ms("net.mirror.apply"),
        "net.protocol.encode_us": encode * 1e6,
        "net.protocol.decode_us": decode * 1e6,
        "net.wire_bytes_per_op": per_op("net.bytes_in", "net.bytes_out"),
        "net.frames_per_op": per_op("net.frames_in", "net.frames_out"),
        "net.open_snapshot_bytes": plain.extras.get(
            "net.open_snapshot_bytes", 0.0),
        "net.resyncs": delta.get("net.resyncs", 0)
        + delta.get("mirror.resyncs", 0),
        "net.protocol_errors": delta.get("net.protocol_errors", 0),
        # -- collab ----------------------------------------------------
        "collab.session.insert_ms": ms("collab.session.insert"),
        "collab.session.delete_ms": ms("collab.session.delete"),
        "collab.session.style_ms": ms("collab.session.style"),
        "collab.session.paste_ms": ms("collab.session.paste"),
        "collab.session.undo_ms": ms("collab.session.undo"),
        "collab.notifications_per_op": per_op("collab.notifications"),
        # -- text ------------------------------------------------------
        "text.handle.edit_ms": ms("text.handle.edit"),
        "text.handle.lookup_ms": ms("text.handle.lookup"),
        "text.full_scans_per_op": per_op("doc.full_scans"),
        "text.store.meta_us": us("text.store.meta"),
        # -- db --------------------------------------------------------
        "db.txn.commit_ms": ms("db.txn.commit"),
        "db.wal.append_us": us("db.wal.append"),
        "db.wal.commit_append_ms": ms("db.wal.commit_append"),
        "db.wal.records_per_op": per_op("wal.appends"),
        "db.wal.bytes_per_op": per_op("wal.appended_bytes"),
        "db.wal.fsyncs_per_op": per_op("wal.fsyncs"),
        "db.locks.acquired_per_op": per_op("lock.acquired"),
        "db.locks.waits_per_op": per_op("lock.waits"),
        "db.versions_live": traced.counters_end.get("db.versions_live", 0),
        "db.recovery.us_per_record": plain.extras.get(
            "db.recovery.us_per_record", 0.0),
        "repl.apply.us_per_record": plain.extras.get(
            "repl.apply.us_per_record", 0.0),
        "repl.promote_ms": plain.extras.get("repl.promote_ms", 0.0),
        # -- feed ------------------------------------------------------
        "feed.publish_us": us("feed.publish"),
        "feed.events_per_op": per_op("feed.events"),
        "feed.worker.run_ms": (
            worker_total * traced.speed / worker_calls * 1e3
            if worker_calls else 0.0),
        "feed.worker.busy_share": worker_total / traced.wall,
        # -- search / folders ------------------------------------------
        "search.engine.search_ms": ms("search.engine.search"),
        "search.index.ensure_fresh_ms": ms("search.index.ensure_fresh"),
        "search.index.top_docs_us": us("search.index.top_docs"),
        "search.index.matching_docs_ms": ms("search.index.matching_docs"),
        "search.index.maintain_ms": ms("search.index.maintain"),
        "search.index.docs_applied_per_s": (
            delta.get("index.docs_applied", 0) / index_busy
            if index_busy else 0.0),
        "search.candidates_per_result": (
            delta.get("search.index_hits", 0) / results if results else 0.0),
        "search.index.full_builds": delta.get("index.full_builds", 0),
        "folders.full_scans": delta.get("folders.full_scans", 0),
        "folders.contents_us": us("folders.contents"),
        # -- user-visible classes (untraced half) ----------------------
        "class.visibility_p50_ms": percentile(iterations, 0.50) * 1e3,
        "class.visibility_p99_ms": percentile(iterations, 0.99) * 1e3,
        "class.open_p50_ms": plain.extras.get("class.open_p50_ms", 0.0),
        "class.wal_file_bytes_per_op": (
            plain.counter_delta.get("wal.file_bytes", 0)
            / max(plain.attempted, 1)),
        "class.search_topk_p50_ms": 0.0,
        "class.search_scan_p50_ms": 0.0,
        "class.write_p50_ms": 0.0,
        "class.failed_op_share": (
            (plain.failed + traced.failed)
            / max(plain.attempted + traced.attempted, 1)),
        # -- validity of the traced numbers ----------------------------
        "trace.overhead_share": 1.0 - traced.ops_per_s() / plain.ops_per_s(),
        "trace.selftime_coverage": (
            statistics.median(summary.coverage) if summary.coverage else 0.0),
        "trace.unattributed_share": (
            summary.self_seconds(tracing.ROOT) / summary.root_seconds
            if summary.root_seconds else 0.0),
        "trace.spans_per_op": summary.n_spans / ops,
        "trace.targets_missing": len(tracer.missing),
    }
    metrics.update(plain.class_p50_ms())
    for layer in _LAYERS:
        metrics[f"{layer}.busy_share"] = (
            summary.layer_seconds(layer) / traced.wall)
    return metrics


# ----------------------------------------------------------------------
# One run (what the driver invokes)
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        plain = run_phase(name, seed, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(name, seed, seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(plain, traced, tracer)
        declared = spec["per_layer"]
        phases = (plain, traced)
        path = os.path.join(OUT_DIR, f"trace-{name}.json")
        n_spans = tracer.write_chrome(path, {
            "workload": name, "seed": seed, "ops": traced.attempted})
        print(f"# wrote {n_spans} spans to {os.path.relpath(path, ROOT_DIR)}"
              " (traced half hosts any server in this process; it yields "
              "per-op times and counts, never throughput)")
    else:
        plain = run_phase(name, seed, seconds, setups=SETUPS)
        values = end_to_end(plain)
        declared = spec["end_to_end"]
        phases = (plain,)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    problems = [p for phase in phases for p in phase.problems]
    failed = sum(phase.failed for phase in phases)
    attempted = sum(phase.attempted for phase in phases)
    correct = not problems and failed == 0

    print(f"# workload {name}  seed {seed}  window {seconds}s  "
          f"trace {trace}")
    for phase in phases:
        counts = " ".join(f"{verb}={count}" for verb, count
                          in sorted(phase.digest.counts.items()))
        print(f"# issued {phase.attempted} ops ({counts}) "
              f"digest {phase.digest.hexdigest()[:16]} "
              f"measured over {len(phase.measured()[0])}")
    for metric, entry in metrics.items():
        print(f"{metric:34s} {entry['value']:14.4f} {entry['unit']}")
    for phase in phases:
        for error in phase.errors:
            print(f"# failed op: {error}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Orchestration: all workloads and/or repeats, one child per run
# ----------------------------------------------------------------------

def run_many(names: list, seed: int, seconds: float, trace: int,
             repeat: int, out: str | None) -> int:
    runs = []
    status = 0
    for name in names:
        for i in range(repeat):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed + i),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                status = 1
                continue
            runs.append(dict(json.loads(lines[-1]), workload=name))
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"seed": seed, "seconds": seconds, "trace": trace,
                       "runs": runs}, handle, indent=1)
    return status


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float,
                        help="window length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in its own process, "
                             "with seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="write the run set here (compare.py)")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None \
        else load_spec()["run_seconds"]
    if args.workload and args.repeat == 1 and args.out is None:
        return run_one(args.workload, args.seed, seconds, args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    return run_many(names, args.seed, seconds, args.trace, args.repeat,
                    args.out)


if __name__ == "__main__":
    sys.exit(main())
