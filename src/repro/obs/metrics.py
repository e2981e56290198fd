"""Zero-dependency metrics: counters, gauges, fixed-bucket histograms.

The observability layer the engine's hot paths report into.  Three metric
kinds, all thread-safe — counters and gauges behind one small lock per
metric; a histogram takes an observation with a single (atomic) list
append and sorts what it was handed into buckets under its lock when
somebody reads it, or every :data:`_DRAIN_AT` observations:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a value that goes up and down (active transactions,
  notification queue depth);
* :class:`Histogram` — fixed-bucket distribution with quantile
  *estimation*: an estimated quantile is always inside the bucket the
  true quantile falls in, so its error is bounded by that bucket's width
  (the property the test suite states with hypothesis).

A :class:`MetricsRegistry` owns metrics by name; snapshots are plain
JSON-serialisable dicts so they can ride along in benchmark
``extra_info`` and ``BENCH_obs.json`` without any wire format.  The
:data:`NULL_REGISTRY` hands out shared no-op metrics — the fast path for
code instrumented unconditionally but running without observability
(e.g. overhead baselines, standalone components).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Iterable, Mapping

#: Default latency buckets: exponential from 1µs to ~16.8s.  25 buckets
#: plus overflow keeps the relative quantile error at 2x worst case.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * 2 ** i for i in range(25)
)

#: Buckets for small-count distributions (rows per transaction, ...).
COUNT_BUCKETS: tuple[float, ...] = tuple(float(2 ** i) for i in range(11))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that moves both ways (depths, active counts)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


#: A histogram buckets its buffered observations once this many wait.
_DRAIN_AT = 64


class _Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist

    def __enter__(self) -> "_Timer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(perf_counter() - self._t0)


class Histogram:
    """Fixed-bucket histogram with rank-based quantile estimation.

    ``buckets`` are the inclusive upper bounds of each bucket, strictly
    increasing; an implicit overflow bucket catches everything above the
    last bound.  Bucket membership: value ``v`` lands in the first bucket
    whose bound is ``>= v`` — i.e. bucket *i* covers
    ``(bound[i-1], bound[i]]``.

    :meth:`quantile` locates the bucket containing the rank
    ``max(1, ceil(q * count))`` (exact, because per-bucket counts are
    exact) and linearly interpolates inside it, clamped to the observed
    min/max.  Estimate and true quantile therefore share a bucket: the
    error is bounded by the bucket width.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_min", "_max",
                 "_pending", "_lock")

    def __init__(self, name: str,
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        #: One count per bound, then the overflow bucket: the slot
        #: ``bisect_left`` names (the total is their sum, taken when
        #: somebody asks).
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Observations not bucketed yet (see :meth:`_drain`).
        self._pending: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _DRAIN_AT:
            with self._lock:
                self._drain()

    def _drain(self) -> None:
        """Bucket the buffered observations (caller holds ``_lock``).

        Only the prefix seen here is taken, in one slice and one slice
        deletion: an observation appended meanwhile stays for the next
        drain, none is lost or counted twice.
        """
        pending = self._pending
        batch = pending[:]
        if not batch:
            return
        del pending[:len(batch)]
        counts, bounds = self._counts, self.bounds
        for value in batch:
            counts[bisect_left(bounds, value)] += 1
        self._sum += sum(batch)
        self._min = min(self._min, min(batch))
        self._max = max(self._max, max(batch))

    def time(self) -> _Timer:
        """``with hist.time(): ...`` — observe the block's duration."""
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            self._drain()
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            self._drain()
            return self._sum

    @property
    def min(self) -> float | None:
        with self._lock:
            self._drain()
            return None if self._min == math.inf else self._min

    @property
    def max(self) -> float | None:
        with self._lock:
            self._drain()
            return None if self._max == -math.inf else self._max

    def quantile(self, q: float) -> float | None:
        """Estimate the q-quantile (0 <= q <= 1); ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            self._drain()
            total = sum(self._counts)
            if total == 0:
                return None
            return _bucket_quantile(
                q, self.bounds, self._counts[:-1], self._counts[-1],
                total, self._min, self._max,
            )

    def snapshot(self) -> dict:
        with self._lock:
            self._drain()
            counts, overflow = self._counts[:-1], self._counts[-1]
            total = sum(counts) + overflow
            entry = {
                "type": "histogram",
                "count": total,
                "sum": self._sum,
                "min": self._min if total else None,
                "max": self._max if total else None,
                # Sparse (bound, count) pairs: only occupied buckets.
                "buckets": [
                    [bound, n]
                    for bound, n in zip(self.bounds, counts) if n
                ],
                "overflow": overflow,
            }
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                entry[label] = (
                    _bucket_quantile(q, self.bounds, counts, overflow,
                                     total, self._min, self._max)
                    if total else None
                )
            return entry

    def reset(self) -> None:
        with self._lock:
            del self._pending[:]
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


def _bucket_quantile(q: float, bounds: tuple[float, ...],
                     counts: list[int], overflow: int, total: int,
                     lo_obs: float, hi_obs: float) -> float:
    """Shared quantile core (histogram internals and merged snapshots)."""
    rank = max(1, math.ceil(q * total))
    cumulative = 0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if cumulative + n >= rank:
            hi = bounds[i]
            lo = bounds[i - 1] if i > 0 else lo_obs
            lo = max(lo, lo_obs)
            hi = min(hi, hi_obs)
            if hi <= lo:
                return lo
            fraction = (rank - cumulative) / n
            return lo + (hi - lo) * fraction
        cumulative += n
    # Rank fell into the overflow bucket (last_bound, +inf), clamped by
    # the observed extremes to (max(last_bound, min), max].  Interpolate
    # by remaining rank just like a finite bucket, so q=0.0 on
    # overflow-only data does not collapse to the maximum; q=1.0 still
    # returns exactly the observed max.
    # Merged snapshots carry sparse buckets: overflow-only data arrives
    # with no finite buckets at all, so the lower clamp falls back to
    # the observed minimum.
    lo = max(bounds[-1], lo_obs) if bounds else lo_obs
    hi = hi_obs
    if overflow <= 0 or hi <= lo:
        return hi
    fraction = (rank - cumulative) / overflow
    return lo + (hi - lo) * fraction


class MetricsRegistry:
    """Named metrics, created on first use, snapshotted as plain dicts.

    Passing ``labels={...}`` to :meth:`counter`/:meth:`gauge`/
    :meth:`histogram` routes through a :class:`~repro.obs.labels.MetricFamily`
    and returns the per-label-set child instead of the base metric; hot
    paths should pre-resolve the family via :meth:`family` once and call
    ``fam.labels(...)`` per event.
    """

    #: Real registries record; the null registry overrides this.
    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._families: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, *, labels: Mapping | None = None) -> Counter:
        if labels is not None:
            return self.family(name, "counter").labels(**dict(labels))
        return self._get(name, Counter)

    def gauge(self, name: str, *, labels: Mapping | None = None) -> Gauge:
        if labels is not None:
            return self.family(name, "gauge").labels(**dict(labels))
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  *, labels: Mapping | None = None) -> Histogram:
        if labels is not None:
            return self.family(
                name, "histogram", buckets=buckets).labels(**dict(labels))
        return self._get(name, Histogram, buckets)

    def family(self, name: str, kind: str, *, buckets=None,
               max_series: int | None = None):
        """The labelled :class:`~repro.obs.labels.MetricFamily` for ``name``."""
        from .labels import DEFAULT_MAX_SERIES, LABEL_EVICTIONS, MetricFamily
        evictions = self._get(LABEL_EVICTIONS, Counter)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(
                    self, name, kind, buckets=buckets,
                    max_series=max_series or DEFAULT_MAX_SERIES,
                    evictions=evictions)
                self._families[name] = fam
            elif fam.kind != kind:
                raise TypeError(
                    f"family {name!r} already registered as {fam.kind}, "
                    f"not {kind}")
            return fam

    def _register_series(self, name: str, metric) -> None:
        with self._lock:
            self._metrics[name] = metric

    def _unregister_series(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict[str, dict]:
        """All metrics as ``{name: {"type": ..., ...}}`` (sorted keys)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


class _NullCounter:
    name = "null"

    def inc(self, n: int = 1) -> None:
        pass

    value = 0

    def snapshot(self) -> dict:
        return {"type": "counter", "value": 0}

    def reset(self) -> None:
        pass


class _NullGauge:
    name = "null"

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1) -> None:
        pass

    def dec(self, n: float = 1) -> None:
        pass

    value = 0.0

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": 0.0}

    def reset(self) -> None:
        pass


class _NullTimer:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class _NullHistogram:
    name = "null"
    count = 0
    sum = 0.0
    min = None
    max = None
    _timer = _NullTimer()

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return self._timer

    def quantile(self, q: float) -> None:
        return None

    def snapshot(self) -> dict:
        return {"type": "histogram", "count": 0, "sum": 0.0}

    def reset(self) -> None:
        pass


class NullRegistry:
    """No-op registry: shared inert metrics, empty snapshots.

    The analogue of :data:`repro.faults.injector.NO_FAULTS` — hot paths
    are instrumented unconditionally and this keeps them cheap when
    observability is switched off (overhead baselines).
    """

    enabled = False
    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str, *, labels=None) -> _NullCounter:
        return self._counter

    def gauge(self, name: str, *, labels=None) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS,
                  *, labels=None) -> _NullHistogram:
        return self._histogram

    def family(self, name: str, kind: str, *, buckets=None,
               max_series=None):
        from .labels import _NullFamily
        child = {"counter": self._counter, "gauge": self._gauge,
                 "histogram": self._histogram}[kind]
        return _NullFamily(child)

    def names(self) -> list[str]:
        return []

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


#: Shared null registry; safe because its metrics hold no state.
NULL_REGISTRY = NullRegistry()


def merge_snapshots(snapshots: Iterable[Mapping[str, dict]]) -> dict:
    """Merge registry snapshots from several databases into one.

    Counters and histogram bucket counts add; gauges add too (a summed
    queue depth over engines is the fleet depth); histogram quantiles
    are recomputed from the merged buckets.  Used by the benchmark
    pipeline, where one bench may create several engines.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            current = merged.get(name)
            if current is None:
                merged[name] = _copy_entry(entry)
            else:
                _merge_entry(current, entry)
    for entry in merged.values():
        if entry["type"] == "histogram" and entry.get("count"):
            bounds = [b for b, __ in entry["buckets"]]
            counts = [n for __, n in entry["buckets"]]
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                entry[label] = _bucket_quantile(
                    q, tuple(bounds), counts, entry.get("overflow", 0),
                    entry["count"], entry["min"], entry["max"],
                )
    return dict(sorted(merged.items()))


def _copy_entry(entry: Mapping) -> dict:
    copy = dict(entry)
    if copy.get("type") == "histogram":
        copy["buckets"] = [list(pair) for pair in copy.get("buckets", [])]
    return copy


def _merge_entry(current: dict, entry: Mapping) -> None:
    kind = current["type"]
    if kind != entry["type"]:
        raise ValueError(
            f"cannot merge metric kinds {kind!r} and {entry['type']!r}"
        )
    if kind in ("counter", "gauge"):
        current["value"] += entry["value"]
        return
    current["count"] = current.get("count", 0) + entry.get("count", 0)
    current["sum"] = current.get("sum", 0.0) + entry.get("sum", 0.0)
    for key, pick in (("min", min), ("max", max)):
        ours, theirs = current.get(key), entry.get(key)
        if ours is None:
            current[key] = theirs
        elif theirs is not None:
            current[key] = pick(ours, theirs)
    by_bound = {bound: n for bound, n in current.get("buckets", [])}
    for bound, n in entry.get("buckets", []):
        by_bound[bound] = by_bound.get(bound, 0) + n
    current["buckets"] = [list(p) for p in sorted(by_bound.items())]
    current["overflow"] = current.get("overflow", 0) + entry.get("overflow", 0)


def compact_snapshot(snapshot: Mapping[str, dict]) -> dict:
    """Shrink a snapshot for benchmark ``extra_info`` (no bucket arrays)."""
    compact = {}
    for name, entry in snapshot.items():
        if entry["type"] == "histogram":
            compact[name] = {
                "type": "histogram",
                "count": entry.get("count", 0),
                "p50": entry.get("p50"),
                "p95": entry.get("p95"),
            }
        else:
            compact[name] = {"type": entry["type"], "value": entry["value"]}
    return compact
