"""Time-series ring buffers over a metrics registry.

A :class:`TelemetryStore` turns the registry's point-in-time snapshots
into *history*: :meth:`~TelemetryStore.sample` records one point per
metric into a fixed-size ring (``deque(maxlen=capacity)``), and windowed
aggregates — rate, p50/p99, mean — are computed over the rings on
demand.  Sampling is driven by a :class:`~repro.clock.Clock`, so tests
(and the smoke-bench SLO gate) drive the whole pipeline with a
:class:`~repro.clock.SimulatedClock` while ``repro serve`` samples on an
asyncio timer.

Points are cumulative registry values; window aggregates are *deltas*
between the newest in-window point and a base point at (or just before)
the window start.  Histogram windows difference the sparse per-bucket
counts and feed them to the shared bounded-error quantile core, so a
windowed p99 carries the same bucket-width error contract as a lifetime
one.  The only approximation: a window's min/max clamp comes from the
cumulative extremes, since per-window extremes are not recorded.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Mapping

from ..clock import Clock, SystemClock
from .metrics import _bucket_quantile

#: Snapshot schema identifier for the wire / JSON form.
TELEMETRY_SCHEMA = "tendax.telemetry.v1"

#: Default aggregate windows (seconds): 10s / 1m / 5m.
DEFAULT_WINDOWS: tuple[float, ...] = (10.0, 60.0, 300.0)


def window_label(seconds: float) -> str:
    """``10 -> "10s"``, ``60 -> "1m"``, ``300 -> "5m"``."""
    seconds = float(seconds)
    if seconds >= 60 and seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


class TelemetryStore:
    """Fixed-size per-metric rings sampled from a registry on a clock."""

    def __init__(self, registry, clock: Clock | None = None, *,
                 interval: float = 1.0, capacity: int = 512) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (windows need deltas)")
        self.registry = registry
        self.clock = clock if clock is not None else SystemClock()
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._rings: dict[str, deque] = {}
        self._kinds: dict[str, str] = {}
        self._last: float | None = None
        self._samples = registry.counter("obs.samples")
        self._lock = threading.Lock()

    # -- sampling -----------------------------------------------------------

    def sample(self, now: float | None = None) -> float:
        """Record one point per registry metric; returns the sample time."""
        if now is None:
            now = self.clock.now()
        snap = self.registry.snapshot()
        with self._lock:
            for name, entry in snap.items():
                ring = self._rings.get(name)
                if ring is None:
                    ring = self._rings[name] = deque(maxlen=self.capacity)
                    self._kinds[name] = entry["type"]
                if entry["type"] == "histogram":
                    ring.append((
                        now,
                        entry.get("count", 0),
                        entry.get("sum", 0.0),
                        tuple((b, n) for b, n in entry.get("buckets", [])),
                        entry.get("overflow", 0),
                        entry.get("min"),
                        entry.get("max"),
                    ))
                else:
                    ring.append((now, entry.get("value", 0)))
            self._last = now
        self._samples.inc()
        return now

    def maybe_sample(self) -> bool:
        """Sample iff at least ``interval`` has elapsed since the last one."""
        now = self.clock.now()
        with self._lock:
            due = self._last is None or now - self._last >= self.interval
        if due:
            self.sample(now=now)
        return due

    # -- introspection ------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._rings)

    def kind(self, name: str) -> str | None:
        return self._kinds.get(name)

    def points(self, name: str) -> list[tuple]:
        with self._lock:
            ring = self._rings.get(name)
            return list(ring) if ring is not None else []

    # -- windowed aggregates ------------------------------------------------

    def _bracket(self, name: str, seconds: float,
                 now: float | None) -> tuple[tuple, tuple] | None:
        """(base, head) points spanning the window, or ``None``."""
        with self._lock:
            ring = self._rings.get(name)
            if ring is None or len(ring) < 1:
                return None
            pts = list(ring)
            if now is None:
                now = self._last
        if now is None:
            return None
        start = now - seconds
        head = None
        for pt in reversed(pts):
            if pt[0] <= now:
                head = pt
                break
        if head is None:
            return None
        # Base: the newest point at or before the window start, so the
        # delta covers the whole window; fall back to the oldest point.
        base = pts[0]
        for pt in pts:
            if pt[0] <= start:
                base = pt
            else:
                break
        return base, head

    def window(self, name: str, seconds: float, *,
               now: float | None = None) -> dict | None:
        """Aggregate over the trailing window; ``None`` without data."""
        kind = self._kinds.get(name)
        if kind is None:
            return None
        bracket = self._bracket(name, seconds, now)
        if bracket is None:
            return None
        base, head = bracket
        span = head[0] - base[0]
        if kind == "counter":
            delta = head[1] - base[1]
            return {"kind": "counter", "delta": delta, "span": span,
                    "rate": (delta / span) if span > 0 else None}
        if kind == "gauge":
            # Gauges aggregate over every in-window point, not a delta.
            start = head[0] - seconds
            values = [pt[1] for pt in self.points(name)
                      if start <= pt[0] <= head[0]]
            if not values:
                values = [head[1]]
            return {"kind": "gauge", "last": head[1],
                    "min": min(values), "max": max(values),
                    "mean": sum(values) / len(values), "span": span}
        delta = self.histogram_delta(name, seconds, now=now)
        if delta is None:
            return None
        out = {"kind": "histogram", "count": delta["count"], "span": span,
               "rate": (delta["count"] / span) if span > 0 else None,
               "mean": (delta["sum"] / delta["count"])
               if delta["count"] else None}
        for label, q in (("p50", 0.5), ("p99", 0.99)):
            out[label] = _delta_quantile(q, delta)
        return out

    def histogram_delta(self, name: str, seconds: float, *,
                        now: float | None = None) -> dict | None:
        """Per-bucket count deltas over the window (SLO evaluation core)."""
        if self._kinds.get(name) != "histogram":
            return None
        bracket = self._bracket(name, seconds, now)
        if bracket is None:
            return None
        base, head = bracket
        by_bound = {b: n for b, n in head[3]}
        for bound, n in base[3]:
            by_bound[bound] = by_bound.get(bound, 0) - n
        buckets = {b: n for b, n in by_bound.items() if n > 0}
        return {
            "count": max(0, head[1] - base[1]),
            "sum": head[2] - base[2],
            "buckets": buckets,
            "overflow": max(0, head[4] - base[4]),
            "min": head[5],
            "max": head[6],
            "span": head[0] - base[0],
        }

    def windows(self, name: str,
                spans: Iterable[float] = DEFAULT_WINDOWS, *,
                now: float | None = None) -> dict[str, dict]:
        out = {}
        for span in spans:
            agg = self.window(name, span, now=now)
            if agg is not None:
                out[window_label(span)] = agg
        return out

    def rate(self, name: str, seconds: float, *,
             now: float | None = None) -> float | None:
        """Events per second over the window (counters and histograms)."""
        agg = self.window(name, seconds, now=now)
        if agg is None:
            return None
        return agg.get("rate")

    # -- JSON form ----------------------------------------------------------

    def snapshot(self, *, max_points: int = 16,
                 spans: Iterable[float] = DEFAULT_WINDOWS,
                 names: Iterable[str] | None = None) -> dict:
        """JSON-able time-series snapshot (trimmed points + windows)."""
        wanted = sorted(names) if names is not None else self.names()
        series = {}
        windows = {}
        for name in wanted:
            pts = self.points(name)
            if not pts:
                continue
            series[name] = {
                "kind": self._kinds.get(name),
                "points": [list(pt[:3]) if len(pt) > 2 else list(pt)
                           for pt in pts[-max_points:]],
            }
            aggs = self.windows(name, spans)
            if aggs:
                windows[name] = aggs
        return {
            "schema": TELEMETRY_SCHEMA,
            "interval": self.interval,
            "capacity": self.capacity,
            "at": self._last,
            "series": series,
            "windows": windows,
        }


def _delta_quantile(q: float, delta: Mapping) -> float | None:
    total = delta["count"]
    if not total:
        return None
    bounds = tuple(sorted(delta["buckets"]))
    counts = [delta["buckets"][b] for b in bounds]
    overflow = delta["overflow"]
    lo = delta["min"] if delta["min"] is not None else (
        bounds[0] if bounds else 0.0)
    hi = delta["max"] if delta["max"] is not None else (
        bounds[-1] if bounds else 0.0)
    if not bounds:
        if not overflow:
            return None
        return hi
    return _bucket_quantile(q, bounds, counts, overflow, total, lo, hi)
