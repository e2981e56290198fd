"""Engine-wide observability: metrics registry + trace spans.

The paper's performance story ("very fast transactions for all editing
tasks", §2) needs to be measurable from inside the system.  This package
is the zero-dependency instrumentation layer every subsystem reports
into:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  with bounded-error quantile estimation;
* :mod:`repro.obs.tracing` — spans with context propagation (including
  explicit cross-session trace contexts) and a no-op fast path when
  nobody listens;
* :mod:`repro.obs.export` — bounded trace buffer, JSONL / Chrome
  trace-event export, slow-op log, and the ``repro trace`` /
  ``repro top`` renderings;
* :mod:`repro.obs.runtime` — the interpreter's own cost: cyclic-GC
  pauses and collection counts from one ``gc.callbacks`` hook;
* :mod:`repro.obs.catalogue` — the closed set of metric names, the
  contract the bench snapshot validator enforces.

One :class:`Observability` instance rides on each
:class:`~repro.db.engine.Database`; the collab server and search engine
share the database's, so ``Database.metrics_snapshot()`` covers
txn/WAL/lock/collab/search in one call.  ``Observability(enabled=False)``
swaps in inert metrics for overhead baselines.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator

from .catalogue import (
    LABELLED_FAMILIES,
    METRIC_CATALOGUE,
    REQUIRED_METRICS,
    missing_required,
    unknown_names,
)
from .labels import (
    DEFAULT_MAX_SERIES,
    LABEL_EVICTIONS,
    MetricFamily,
    labelled_name,
    split_labelled,
)
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    compact_snapshot,
    merge_snapshots,
)
from .export import (
    Trace,
    TraceBuffer,
    chrome_trace,
    prometheus_text,
    render_top,
    render_trace,
    span_to_dict,
    spans_to_jsonl,
    validate_chrome_trace,
)
from .health import (
    DEFAULT_THRESHOLDS,
    HealthThresholds,
    evaluate_health,
)
from .render import (
    describe,
    render_dash,
    render_health,
    render_snapshot,
    render_trends,
)
from .runtime import GcWatch, render_gc
from .slo import DEFAULT_SLOS, SLOEvaluator, SLOSpec
from .timeseries import (
    DEFAULT_WINDOWS,
    TELEMETRY_SCHEMA,
    TelemetryStore,
    window_label,
)
from .tracing import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "DEFAULT_SLOS",
    "DEFAULT_THRESHOLDS",
    "DEFAULT_WINDOWS",
    "LABELLED_FAMILIES",
    "LABEL_EVICTIONS",
    "METRIC_CATALOGUE",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "GcWatch",
    "HealthThresholds",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "Observability",
    "REQUIRED_METRICS",
    "SLOEvaluator",
    "SLOSpec",
    "Span",
    "TELEMETRY_SCHEMA",
    "TelemetryStore",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "chrome_trace",
    "collecting",
    "compact_snapshot",
    "describe",
    "evaluate_health",
    "labelled_name",
    "merge_snapshots",
    "missing_required",
    "prometheus_text",
    "render_dash",
    "render_gc",
    "render_health",
    "render_snapshot",
    "render_top",
    "render_trace",
    "render_trends",
    "span_to_dict",
    "spans_to_jsonl",
    "split_labelled",
    "unknown_names",
    "validate_chrome_trace",
    "window_label",
]


#: Callbacks invoked with every new enabled Observability (see
#: :func:`collecting`); guarded by a lock for threaded creators.
_collectors: list[Callable[["Observability"], None]] = []
_collectors_lock = threading.Lock()


class Observability:
    """One registry + one tracer, shared by everything on a database."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry() if enabled else NULL_REGISTRY
        self.tracer = Tracer(self.registry)
        #: Collector pauses of this process (``runtime.gc_*``); ``None``
        #: when observability is off.
        self.gc = GcWatch(self.registry) if enabled else None
        if enabled:
            with _collectors_lock:
                collectors = list(_collectors)
            for collector in collectors:
                collector(self)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Observability(enabled={self.enabled}, "
                f"metrics={len(self.registry.names())})")


@contextlib.contextmanager
def collecting() -> Iterator[list[Observability]]:
    """Collect every enabled :class:`Observability` created in the block.

    The benchmark harness wraps each bench in this so snapshots from
    every engine the bench creates — fixtures and inline — can be merged
    into its ``extra_info`` and the ``BENCH_obs.json`` trajectory.
    """
    created: list[Observability] = []
    with _collectors_lock:
        _collectors.append(created.append)
    try:
        yield created
    finally:
        with _collectors_lock:
            _collectors.remove(created.append)
