"""Labelled metric families: dimensioned series with bounded cardinality.

A :class:`MetricFamily` is one catalogue name (``collab.op_seconds``)
fanned out into per-label-set children (``collab.op_seconds{verb=insert}``)
— the zero-dependency analogue of Prometheus labels.  Children are real
:class:`~repro.obs.metrics.Counter`/``Gauge``/``Histogram`` instances
registered in the owning registry under their decorated name, so
snapshots, merging and rendering need no special cases.

Cardinality is **bounded**: each family keeps at most ``max_series``
live label sets in an LRU.  Creating a new set beyond the cap evicts the
least-recently-used child, unregisters it from the registry and bumps
the :data:`LABEL_EVICTIONS` counter — a runaway dimension (per-request
ids as labels, say) shows up as a hot ``obs.label_evictions`` instead of
an unbounded snapshot.  Hot paths should pre-resolve the family once and
call :meth:`MetricFamily.labels` per event (a label set seen before is
two dict hits under the family lock), or — where one label set lives as
long as the caller, like a feed subscription — keep the child itself.

The decorated-name grammar is ``base{k=v,k2=v2}`` with keys sorted and
the characters ``{ } , = "`` (and newlines) replaced by ``_`` in values,
so :func:`split_labelled` can always recover the base name for catalogue
validation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping

from .metrics import DEFAULT_LATENCY_BUCKETS, Counter, Gauge, Histogram

#: Default per-family cap on live label sets.
DEFAULT_MAX_SERIES = 64

#: Catalogue name of the shared eviction counter.
LABEL_EVICTIONS = "obs.label_evictions"

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

_FORBIDDEN = str.maketrans({c: "_" for c in '{},="\n\r'})


def _clean(value: object) -> str:
    return str(value).translate(_FORBIDDEN)


def labelled_name(base: str, labels: Mapping[str, object]) -> str:
    """``("a.b", {"k": "v"})`` -> ``"a.b{k=v}"`` (keys sorted, values cleaned)."""
    pairs = ",".join(f"{k}={_clean(v)}" for k, v in sorted(labels.items()))
    return f"{base}{{{pairs}}}"


def split_labelled(name: str) -> tuple[str, dict[str, str] | None]:
    """Inverse of :func:`labelled_name`; plain names give ``(name, None)``."""
    if "{" not in name or not name.endswith("}"):
        return name, None
    base, _, rest = name.partition("{")
    labels: dict[str, str] = {}
    body = rest[:-1]
    if body:
        for pair in body.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key:
                return name, None
            labels[key] = value
    return base, labels


class MetricFamily:
    """One metric name dimensioned by label sets, LRU-capped.

    Created through :meth:`MetricsRegistry.family` (or implicitly by the
    ``labels=`` keyword on ``registry.counter/gauge/histogram``); not
    constructed directly by instrumented code.
    """

    __slots__ = ("name", "kind", "max_series", "_registry", "_buckets",
                 "_children", "_keys", "_evictions", "_lock")

    def __init__(self, registry, name: str, kind: str, *,
                 buckets=None, max_series: int = DEFAULT_MAX_SERIES,
                 evictions: Counter | None = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if max_series < 1:
            raise ValueError("max_series must be at least 1")
        self.name = name
        self.kind = kind
        self.max_series = max_series
        self._registry = registry
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: OrderedDict[tuple, object] = OrderedDict()
        #: Label sets as callers pass them -> their ``_children`` key, so
        #: a repeat lookup skips the sort and the value cleaning (values
        #: that do not hash just take the slow way).  Dropped whole on
        #: eviction and when it outgrows the family.
        self._keys: dict[tuple, tuple] = {}
        self._evictions = evictions
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The child metric for this label set (created on first use)."""
        if not labels:
            raise ValueError(
                f"family {self.name!r} needs at least one label; use the "
                f"unlabelled registry accessor for the base series")
        raw = tuple(labels.items())
        try:
            key = self._keys.get(raw)
        except TypeError:
            raw = key = None
        known = key is not None
        if not known:
            key = tuple(sorted((k, _clean(v)) for k, v in labels.items()))
        with self._lock:
            if raw is not None and not known:
                if len(self._keys) >= self.max_series:
                    self._keys.clear()
                self._keys[raw] = key
            child = self._children.get(key)
            if child is not None:
                self._children.move_to_end(key)
                return child
            child = self._make(dict(key))
            self._children[key] = child
            self._registry._register_series(child.name, child)
            while len(self._children) > self.max_series:
                __, evicted = self._children.popitem(last=False)
                self._registry._unregister_series(evicted.name)
                self._keys.clear()
                if self._evictions is not None:
                    self._evictions.inc()
            return child

    def _make(self, labels: dict[str, str]):
        name = labelled_name(self.name, labels)
        cls = _KINDS[self.kind]
        if cls is Histogram:
            return Histogram(name, self._buckets or DEFAULT_LATENCY_BUCKETS)
        return cls(name)

    def series_count(self) -> int:
        """Live (non-evicted) label sets in this family."""
        with self._lock:
            return len(self._children)


class _NullFamily:
    """Inert family handed out by :class:`NullRegistry`."""

    __slots__ = ("_child",)

    max_series = DEFAULT_MAX_SERIES

    def __init__(self, child) -> None:
        self._child = child

    def labels(self, **labels):
        return self._child

    def series_count(self) -> int:
        return 0
