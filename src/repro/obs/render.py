"""Human-readable rendering of metrics snapshots (``repro stats``) and
of one node's scrape (``repro top``)."""

from __future__ import annotations

from typing import Mapping

from .catalogue import METRIC_CATALOGUE
from .labels import split_labelled
from .runtime import render_gc


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-6:
        return f"{value * 1e9:.0f}ns"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _fmt_value(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def _timed(name: str) -> bool:
    """Does the (possibly labelled) metric ``name`` record seconds?"""
    return split_labelled(name)[0].endswith("_seconds")


def render_snapshot(snapshot: Mapping[str, dict]) -> str:
    """Render a registry snapshot as an aligned, prefix-grouped table.

    Histograms named ``*_seconds`` format their quantiles as latencies;
    other histograms (e.g. ``txn.ops``) as plain numbers.
    """
    if not snapshot:
        return "(no metrics recorded)"
    rows: list[tuple[str, str]] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            rows.append((name, _fmt_value(entry.get("value"))))
        elif kind == "histogram":
            fmt = _fmt_seconds if _timed(name) else _fmt_value
            rows.append((
                name,
                f"n={entry.get('count', 0)}  "
                f"p50={fmt(entry.get('p50'))}  "
                f"p95={fmt(entry.get('p95'))}  "
                f"p99={fmt(entry.get('p99'))}  "
                f"max={fmt(entry.get('max'))}",
            ))
        else:
            rows.append((name, repr(entry)))
    width = max(len(name) for name, __ in rows)
    lines = []
    previous_prefix = None
    for name, value in rows:
        prefix = name.split(".", 1)[0]
        if previous_prefix is not None and prefix != previous_prefix:
            lines.append("")
        previous_prefix = prefix
        lines.append(f"  {name.ljust(width)}  {value}")
    return "\n".join(lines)


def describe(name: str) -> str:
    """One-line description of a catalogued metric name."""
    base, __ = split_labelled(name)
    kind, text = METRIC_CATALOGUE.get(base, ("?", "(uncatalogued)"))
    return f"{name} ({kind}): {text}"


def render_health(health: Mapping) -> str:
    """The HEALTH verdict as a status line plus one line per check."""
    lines = [f"health: {health.get('status', '?').upper()}"]
    for check in health.get("checks", []):
        marker = {"ok": " ", "degraded": "!", "unhealthy": "X"}.get(
            check.get("status"), "?")
        lines.append(f"  [{marker}] {check.get('check', '?'):<18} "
                     f"{check.get('detail', '')}")
    return "\n".join(lines)


def _trend_rank(name: str, aggs: Mapping[str, Mapping]) -> tuple:
    """Sort key of one trend row, busiest first.

    Read from the shortest window that has a value: rows that moved
    rank above idle ones; among them, ``*_seconds`` histograms come
    first by time recorded per second (rate x mean — the windowed
    ``sum``, as the hot paths rank), then counters and count-shaped
    histograms by rate, then gauges by the size of their mean.
    """
    for agg in aggs.values():
        if agg.get("kind") == "gauge":
            tier, value = 0, agg.get("mean")
        else:
            tier, value = 1, agg.get("rate")
            if value is not None and _timed(name) \
                    and agg.get("kind") == "histogram":
                tier, value = 2, value * (agg.get("mean") or 0.0)
        if value is not None:
            return (value != 0, tier, abs(value))
    return (False, 0, 0.0)


def render_trends(windows: Mapping[str, Mapping], *,
                  limit: int = 12) -> str:
    """Windowed aggregates as one row per metric (10s / 1m / 5m columns).

    ``windows`` is ``TelemetryStore.snapshot()["windows"]``: metric name
    -> window label -> aggregate dict.  Histograms show rate + p99 per
    window; counters show rate; gauges show the in-window mean.  The
    ``limit`` busiest rows are shown (:func:`_trend_rank`), ties by
    name.
    """
    if not windows:
        return "(no telemetry sampled)"

    def cell(agg: Mapping | None, fmt) -> str:
        if not agg:
            return "-"
        kind = agg.get("kind")
        if kind == "counter":
            rate = agg.get("rate")
            return f"{rate:,.1f}/s" if rate is not None else "-"
        if kind == "gauge":
            return _fmt_value(agg.get("mean"))
        rate = agg.get("rate")
        left = f"{rate:,.1f}/s" if rate is not None else "-"
        return f"{left} p99={fmt(agg.get('p99'))}"

    labels: list[str] = []
    for aggs in windows.values():
        for label in aggs:
            if label not in labels:
                labels.append(label)
    names = sorted(sorted(windows), reverse=True,
                   key=lambda n: _trend_rank(n, windows[n]))[:limit]
    width = max(len(n) for n in names)
    head = "  " + "metric".ljust(width) + "".join(
        f"  {label:>22}" for label in labels)
    lines = [head]
    for name in names:
        aggs = windows[name]
        fmt = _fmt_seconds if _timed(name) else _fmt_value
        row = "  " + name.ljust(width) + "".join(
            f"  {cell(aggs.get(label), fmt):>22}" for label in labels)
        lines.append(row)
    return "\n".join(lines)


def render_top(stats: Mapping, health: Mapping | None = None, *,
               limit: int = 8) -> str:
    """The ``repro top`` frame over one node's STATS (and HEALTH) reply.

    The node's health verdict and ``gc:`` row, then its hot paths:
    histograms rank by total recorded time (``sum``) — where the engine
    actually spends it — counters/gauges by value.  Count-shaped
    histograms (``txn.ops``, ``wal.group_commit_size``) sort below the
    ``*_seconds`` ones: their sums are incommensurable with time.  Then
    the replication role (a follower's ``repl`` status, else the
    leader's from its metrics), each changefeed consumer's lag and the
    windowed trend table.
    """
    metrics = stats.get("metrics") or {}
    header = "== repro top =="
    if stats.get("node") is not None:
        header += f"  node={stats['node']}"
    if stats.get("at") is not None:
        header += f"  at={stats['at']:.3f}"
    lines = [header]
    if health is not None:
        lines.append(render_health(health))
    if stats.get("gc") is not None:
        lines.append(render_gc(stats["gc"]))

    hists = [(name, m) for name, m in metrics.items()
             if m.get("type") == "histogram" and m.get("count")]
    hists.sort(key=lambda kv: (_timed(kv[0]), kv[1].get("sum", 0.0)),
               reverse=True)
    lines += ["", "hot paths (by total recorded time)"]
    if not hists:
        lines.append("  (no histogram samples recorded)")
    for name, m in hists[:limit]:
        fmt = _fmt_seconds if _timed(name) else lambda v: f"{v:,.1f}"
        lines.append(
            f"  {name:<28} n={m.get('count', 0):<7} "
            f"sum={fmt(m.get('sum', 0.0)):>9} "
            f"p50={fmt(m.get('p50')) if m.get('p50') is not None else '-':>9} "
            f"p95={fmt(m.get('p95')) if m.get('p95') is not None else '-':>9}")
    counters = [(name, m) for name, m in metrics.items()
                if m.get("type") in ("counter", "gauge") and m.get("value")]
    counters.sort(key=lambda kv: kv[1]["value"], reverse=True)
    lines += ["", "busiest counters"]
    if not counters:
        lines.append("  (no counts recorded)")
    for name, m in counters[:limit]:
        lines.append(f"  {name:<28} {m['value']:,.0f}".rstrip())

    repl = stats.get("repl")
    if repl is None:
        # A leader (or a promoted follower fronting editors): its role
        # comes from its repl.* metrics.
        repl = {"role": "leader",
                "durable_lsn": (stats.get("wal") or {}).get("durable_lsn"),
                "segments_shipped": metrics.get(
                    "repl.segments_shipped", {}).get("value", 0),
                "promotions": metrics.get(
                    "repl.promotions", {}).get("value", 0)}
    else:
        repl = dict(repl, role="promoted" if repl.get("promoted")
                    else "follower")
    lines += ["", "replication"]
    lines += [f"  {key:<18} {repl[key]}" for key in sorted(repl)
              if key != "node"]

    lines += ["", "changefeed consumers (lag in batches)"]
    consumers = []
    for name, m in metrics.items():
        base, labels = split_labelled(name)
        if base == "feed.lag" and labels:
            consumers.append((labels.get("consumer", "?"), m.get("value", 0)))
    if not consumers:
        lines.append("  (no changefeed consumers)")
    for consumer, lag in sorted(consumers):
        lines.append(f"  {consumer:<28} {lag:,.0f}")

    telemetry = stats.get("telemetry") or {}
    lines += ["", "trends"]
    lines.append(render_trends(telemetry.get("windows", {}), limit=limit))
    return "\n".join(lines)
