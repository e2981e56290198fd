"""Trace collection and export: buffer, JSONL, Chrome trace-event, top.

The tracer (:mod:`repro.obs.tracing`) fans finished spans to sinks; this
module is the sink that turns them into something a human or a tool can
look at:

* :class:`TraceBuffer` — a bounded in-memory sink grouping finished
  spans by ``trace_id`` (one trace per keystroke), with an integrated
  *slow-op log*: any trace whose end-to-end extent exceeds a threshold
  is captured with its full span tree;
* :func:`spans_to_jsonl` — one JSON object per span, the neutral wire
  format;
* :func:`chrome_trace` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or Perfetto; each trace renders as its own track,
  so a keystroke's editor-op → txn → fsync → dispatch → remote-apply
  cascade reads left to right);
* :func:`render_trace` — one trace as an ASCII span tree
  (``repro trace``);
* :func:`render_top` — hottest metrics + slowest recent traces
  (``repro top``).

Everything here consumes *finished* spans only and never touches the
hot paths: with no sink registered the tracer short-circuits to
``NULL_SPAN`` and this module never runs.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Iterable, Mapping

from .metrics import NULL_REGISTRY
from .render import _fmt_seconds
from .runtime import render_gc
from .tracing import Span


class Trace:
    """All finished spans sharing one ``trace_id`` — one causal story."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: int, spans: list[Span]) -> None:
        self.trace_id = trace_id
        #: Finish order as received; :meth:`tree` orders causally.
        self.spans = spans

    @property
    def started(self) -> float:
        return min(s.started for s in self.spans)

    @property
    def ended(self) -> float:
        return max(s.ended for s in self.spans if s.ended is not None)

    @property
    def duration(self) -> float:
        """End-to-end extent: first span start to last span end.

        Under held delivery this spans the hold too — exactly the
        keystroke→remote-visibility number the slow-op log thresholds.
        """
        return self.ended - self.started

    @property
    def root(self) -> Span | None:
        """The causally first root span (usually the editor op)."""
        roots = [s for s, depth in self.tree() if depth == 0]
        return roots[0] if roots else None

    def tree(self) -> list[tuple[Span, int]]:
        """Spans in causal pre-order as ``(span, depth)`` pairs.

        A span whose parent is absent from the trace (still open, or
        evicted) becomes a root.  Siblings order by start time.
        """
        by_id = {s.span_id: s for s in self.spans}
        children: dict[int | None, list[Span]] = {}
        for span in sorted(self.spans, key=lambda s: (s.started, s.span_id)):
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)
        out: list[tuple[Span, int]] = []

        def walk(parent: int | None, depth: int) -> None:
            for span in children.get(parent, ()):
                out.append((span, depth))
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return out

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Trace(id={self.trace_id}, spans={len(self.spans)}, "
                f"duration={self.duration:.6f})")


class TraceBuffer:
    """Bounded span sink grouping finished spans into traces.

    Register with ``tracer.add_sink(buffer)``.  Keeps the most recent
    ``max_traces`` traces (evicting whole traces oldest-first) so a
    long-running server cannot grow without bound.  With
    ``slow_threshold`` set (seconds), any trace whose end-to-end extent
    exceeds it is copied into the slow-op log — late spans (a held
    notification delivered on drain) re-capture the trace, so the log
    always holds the completed tree.
    """

    def __init__(self, *, max_traces: int = 256,
                 slow_threshold: float | None = None,
                 max_slow: int = 64,
                 registry=None) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self.slow_threshold = slow_threshold
        self.max_slow = max_slow
        reg = registry if registry is not None else NULL_REGISTRY
        self._m_slow = reg.counter("trace.slow_ops")
        self._traces: "OrderedDict[int, list[Span]]" = OrderedDict()
        self._slow: "OrderedDict[int, Trace]" = OrderedDict()
        self._evicted = 0
        self._lock = threading.Lock()

    # -- sink protocol -------------------------------------------------------

    def __call__(self, span: Span) -> None:
        """Receive one finished span (the tracer sink contract)."""
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                spans = self._traces[span.trace_id] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
                    self._evicted += 1
            spans.append(span)
            if self.slow_threshold is None:
                return
            extent = (max(s.ended for s in spans if s.ended is not None)
                      - min(s.started for s in spans))
            if extent >= self.slow_threshold:
                if span.trace_id not in self._slow:
                    self._m_slow.inc()
                    while len(self._slow) >= self.max_slow:
                        self._slow.popitem(last=False)
                # Re-capture: the latest (largest) tree wins.
                self._slow[span.trace_id] = Trace(span.trace_id, list(spans))

    # -- reads ---------------------------------------------------------------

    def traces(self) -> list[Trace]:
        """Buffered traces, oldest first."""
        with self._lock:
            return [Trace(tid, list(spans))
                    for tid, spans in self._traces.items()]

    def get(self, trace_id: int) -> Trace | None:
        with self._lock:
            spans = self._traces.get(trace_id)
            return Trace(trace_id, list(spans)) if spans else None

    def slow_ops(self) -> list[Trace]:
        """Slow-trace captures, oldest first (full span trees)."""
        with self._lock:
            return list(self._slow.values())

    def slowest(self, n: int = 5) -> list[Trace]:
        """The ``n`` buffered traces with the largest end-to-end extent."""
        return sorted(self.traces(), key=lambda t: t.duration,
                      reverse=True)[:n]

    @property
    def evicted(self) -> int:
        """Whole traces dropped to honour ``max_traces``."""
        return self._evicted

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._slow.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceBuffer(traces={len(self)}, "
                f"slow={len(self._slow)}, evicted={self._evicted})")


# ---------------------------------------------------------------------------
# Span serialisation
# ---------------------------------------------------------------------------

def span_to_dict(span: Span) -> dict:
    """One span as a plain JSON-serialisable dict."""
    return {
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "status": span.status,
        "start": span.started,
        "end": span.ended,
        "duration": span.duration,
        "attrs": {k: _plain(v) for k, v in span.attrs.items()},
    }


def _plain(value) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Spans as JSON-lines (one object per line, finish order)."""
    return "\n".join(json.dumps(span_to_dict(s), sort_keys=True)
                     for s in spans)


def chrome_trace(traces: Iterable[Trace]) -> dict:
    """Traces as a Chrome trace-event payload (``chrome://tracing``).

    Each trace becomes one track (``tid`` = trace id, with a
    ``thread_name`` metadata event naming its root span), every span one
    complete (``"ph": "X"``) event.  Timestamps are microseconds
    relative to the earliest span start across all exported traces, so
    the payload is self-contained and viewer-friendly.
    """
    traces = [t for t in traces if t.spans]
    events: list[dict] = []
    if not traces:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    zero = min(t.started for t in traces)
    for trace in sorted(traces, key=lambda t: t.trace_id):
        root = trace.root
        events.append({
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": trace.trace_id,
            "args": {"name": f"trace {trace.trace_id}"
                             + (f" · {root.name}" if root else "")},
        })
        for span, __ in trace.tree():
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": 1,
                "tid": trace.trace_id,
                "ts": (span.started - zero) * 1e6,
                "dur": (span.duration or 0.0) * 1e6,
                "args": dict(
                    {k: _plain(v) for k, v in span.attrs.items()},
                    trace=span.trace_id,
                    span=span.span_id,
                    parent=span.parent_id,
                    status=span.status,
                ),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload) -> list[str]:
    """Structural validation of a Chrome trace payload; returns problems.

    The contract the CI trace-export check enforces: a well-formed
    envelope, well-formed events, and causal consistency (every ``X``
    event's ``args.parent`` resolves to a span in the same trace or is
    null).
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    spans_by_trace: dict[object, set] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where} must be an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}.ph is {ph!r}, expected 'X' or 'M'")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                errors.append(f"{where} is missing {field!r}")
        if ph != "X":
            continue
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"{where}.{field} must be a number >= 0")
        args = event.get("args")
        if not isinstance(args, dict) or "span" not in args:
            errors.append(f"{where}.args must carry a 'span' id")
            continue
        spans_by_trace.setdefault(args.get("trace"), set()).add(args["span"])
    for i, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        parent = args.get("parent")
        if parent is not None and \
                parent not in spans_by_trace.get(args.get("trace"), ()):
            errors.append(
                f"traceEvents[{i}]: parent span {parent} not in trace "
                f"{args.get('trace')} (broken causal link)")
    return errors


# ---------------------------------------------------------------------------
# Terminal rendering
# ---------------------------------------------------------------------------

def render_trace(trace: Trace) -> str:
    """One trace as an ASCII span tree with durations and attributes."""
    lines = [f"trace {trace.trace_id} · {_fmt_seconds(trace.duration)} "
             f"end-to-end · {len(trace)} spans"]
    tree = trace.tree()
    for i, (span, depth) in enumerate(tree):
        branch = "└─ " if _is_last_sibling(tree, i) else "├─ "
        attrs = " ".join(f"{k}={_plain(v)}"
                         for k, v in sorted(span.attrs.items()))
        lines.append(
            "   " * depth + branch
            + f"{span.name} {_fmt_seconds(span.duration)} [{span.status}]"
            + (f"  {attrs}" if attrs else "")
        )
    return "\n".join(lines)


def _is_last_sibling(tree: list[tuple[Span, int]], index: int) -> bool:
    """Is ``tree[index]`` the last entry at its depth under its parent?"""
    depth = tree[index][1]
    for span, d in tree[index + 1:]:
        if d < depth:
            return True
        if d == depth:
            return False
    return True


def render_top(snapshot: Mapping[str, dict],
               traces: list[Trace] | None = None,
               *, limit: int = 8, gc: Mapping | None = None) -> str:
    """The ``repro top`` view: hottest metrics + slowest recent traces.

    ``gc`` is a :meth:`~repro.obs.runtime.GcWatch.summary`: the
    collector's share of wall time and its longest pause get a row of
    their own, because no hot path below contains them.

    Histograms rank by total recorded time (``sum``) — where the engine
    actually spends it — counters/gauges by value.  Count-shaped
    histograms (``txn.ops``, ``wal.group_commit_size``) sort below the
    ``*_seconds`` ones: their sums are incommensurable with time.
    """
    lines: list[str] = []
    hists = [(name, m) for name, m in snapshot.items()
             if m.get("type") == "histogram" and m.get("count")]
    hists.sort(key=lambda kv: (kv[0].endswith("_seconds"),
                               kv[1].get("sum", 0.0)), reverse=True)
    lines.append("hot paths (by total recorded time)")
    if not hists:
        lines.append("  (no histogram samples recorded)")
    for name, m in hists[:limit]:
        fmt = _fmt_seconds if name.endswith("_seconds") \
            else lambda v: f"{v:,.1f}"
        lines.append(
            f"  {name:<28} n={m.get('count', 0):<7} "
            f"sum={fmt(m.get('sum', 0.0)):>9} "
            f"p50={fmt(m.get('p50')) if m.get('p50') is not None else '-':>9} "
            f"p95={fmt(m.get('p95')) if m.get('p95') is not None else '-':>9}")
    counters = [(name, m) for name, m in snapshot.items()
                if m.get("type") in ("counter", "gauge") and m.get("value")]
    counters.sort(key=lambda kv: kv[1]["value"], reverse=True)
    lines.append("")
    lines.append("busiest counters")
    if not counters:
        lines.append("  (no counts recorded)")
    for name, m in counters[:limit]:
        lines.append(f"  {name:<28} {m['value']:,.0f}".rstrip())
    if gc is not None:
        lines.append("")
        lines.append(render_gc(gc))
    if traces is not None:
        lines.append("")
        lines.append("slowest recent traces (keystroke → remote visibility)")
        slowest = sorted(traces, key=lambda t: t.duration,
                         reverse=True)[:limit]
        if not slowest:
            lines.append("  (no traces recorded)")
        for trace in slowest:
            root = trace.root
            label = root.name if root else "?"
            detail = " ".join(f"{k}={_plain(v)}" for k, v in
                              sorted(root.attrs.items())) if root else ""
            lines.append(
                f"  trace {trace.trace_id:<6} "
                f"{_fmt_seconds(trace.duration):>9}  "
                f"{len(trace):>2} spans  {label}"
                + (f"  {detail}" if detail else ""))
    return "\n".join(lines)


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_labels(labels: Mapping[str, str] | None, extra: str = "") -> str:
    parts = [f'{k}="{_prom_escape(v)}"' for k, v in (labels or {}).items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(snapshot: Mapping[str, dict], *,
                    prefix: str = "tendax_") -> str:
    """Registry snapshot as Prometheus text exposition (version 0.0.4).

    Metric names swap ``.`` for ``_`` under a ``tendax_`` prefix;
    labelled children of one family render as label sets on a single
    ``# TYPE``'d metric.  Histograms expose cumulative ``_bucket{le=}``
    series (including ``+Inf``) plus ``_sum`` and ``_count``, matching
    the native Prometheus histogram contract.
    """
    from .catalogue import METRIC_CATALOGUE
    from .labels import split_labelled

    families: "OrderedDict[str, list]" = OrderedDict()
    for name in sorted(snapshot):
        base, labels = split_labelled(name)
        families.setdefault(base, []).append((labels, snapshot[name]))
    lines: list[str] = []
    for base, series in families.items():
        prom = prefix + base.replace(".", "_").replace("-", "_")
        kind = series[0][1].get("type", "untyped")
        desc = METRIC_CATALOGUE.get(base, (None, None))[1]
        if desc:
            lines.append(f"# HELP {prom} {_prom_escape(desc)}")
        lines.append(f"# TYPE {prom} {kind}")
        for labels, entry in series:
            body = _prom_labels(labels)
            if entry.get("type") in ("counter", "gauge"):
                value = _prom_number(entry.get("value", 0))
                lines.append(f"{prom}{body} {value}")
                continue
            cumulative = 0
            for bound, n in entry.get("buckets", []):
                cumulative += n
                le = 'le="%s"' % _prom_number(float(bound))
                lines.append(f"{prom}_bucket{_prom_labels(labels, le)}"
                             f" {cumulative}")
            cumulative += entry.get("overflow", 0)
            inf = 'le="+Inf"'
            lines.append(f"{prom}_bucket{_prom_labels(labels, inf)}"
                         f" {cumulative}")
            total = _prom_number(float(entry.get("sum", 0.0)))
            lines.append(f"{prom}_sum{body} {total}")
            lines.append(f"{prom}_count{body} {entry.get('count', 0)}")
    return "\n".join(lines) + "\n"


def _prom_number(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
