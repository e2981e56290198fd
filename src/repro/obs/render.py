"""Human-readable rendering of metrics snapshots (``repro stats``)."""

from __future__ import annotations

from typing import Mapping

from .catalogue import METRIC_CATALOGUE
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
            fmt = _fmt_seconds if name.endswith("_seconds") else _fmt_value
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
    from .labels import split_labelled

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


def render_trends(windows: Mapping[str, Mapping], *,
                  limit: int = 12) -> str:
    """Windowed aggregates as one row per metric (10s / 1m / 5m columns).

    ``windows`` is ``TelemetryStore.snapshot()["windows"]``: metric name
    -> window label -> aggregate dict.  Histograms show rate + p99 per
    window; counters show rate; gauges show the in-window mean.
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
    names = sorted(windows)[:limit]
    width = max(len(n) for n in names)
    head = "  " + "metric".ljust(width) + "".join(
        f"  {label:>22}" for label in labels)
    lines = [head]
    for name in names:
        aggs = windows[name]
        fmt = _fmt_seconds if "_seconds" in name else _fmt_value
        row = "  " + name.ljust(width) + "".join(
            f"  {cell(aggs.get(label), fmt):>22}" for label in labels)
        lines.append(row)
    return "\n".join(lines)


def render_dash(stats: Mapping, health: Mapping | None = None, *,
                limit: int = 12) -> str:
    """The ``repro dash`` frame: health verdict + windowed trend table."""
    lines = []
    node = stats.get("node")
    at = stats.get("at")
    header = "== repro dash =="
    if node is not None:
        header += f"  node={node}"
    if at is not None:
        header += f"  at={at:.3f}"
    lines.append(header)
    if health is not None:
        lines.append(render_health(health))
    if stats.get("gc") is not None:
        lines.append(render_gc(stats["gc"]))
    telemetry = stats.get("telemetry") or {}
    lines.append("")
    lines.append(render_trends(telemetry.get("windows", {}), limit=limit))
    return "\n".join(lines)
