"""Runtime telemetry: what the interpreter itself costs the editor.

The cyclic garbage collector is the one pause no per-layer latency
metric sees: a full (generation-2) collection stops every thread for as
long as it takes to walk the live heap, and nothing in the engine is on
the stack when it happens.  One process-wide ``gc.callbacks`` hook times
every collection and reports it into each live
:class:`~repro.obs.Observability` as ``runtime.gc_pause_seconds`` and
``runtime.gc_collections``, labelled by generation.

The hook runs *inside* the collector, which may have been entered from
an allocation made while this very thread holds a metric's lock (a
``Histogram.snapshot()`` builds lists under it).  The series it feeds
therefore carry no lock — collections neither nest nor overlap, so the
hook is their only writer, one call at a time.
"""

from __future__ import annotations

import contextlib
import gc
import weakref
from time import perf_counter

from .labels import labelled_name
from .metrics import Counter, Histogram

GENERATIONS = (0, 1, 2)

_NO_LOCK = contextlib.nullcontext()

#: Every live watch; the hook reports each collection to all of them.
_watches: "weakref.WeakSet[GcWatch]" = weakref.WeakSet()
_started: float | None = None


def _on_gc(phase: str, info: dict) -> None:
    global _started
    if phase == "start":
        _started = perf_counter()
    elif _started is not None:
        pause = perf_counter() - _started
        _started = None
        for watch in list(_watches):
            watch.record(info["generation"], pause)


class GcWatch:
    """The ``runtime.gc_*`` series of one registry."""

    def __init__(self, registry) -> None:
        self.since = perf_counter()
        self._pauses: list[Histogram] = []
        self._collections: list[Counter] = []
        for generation in GENERATIONS:
            labels = {"generation": generation}
            pauses = Histogram(
                labelled_name("runtime.gc_pause_seconds", labels))
            collections = Counter(
                labelled_name("runtime.gc_collections", labels))
            for metric in (pauses, collections):
                metric._lock = _NO_LOCK  # written from the hook only
                registry._register_series(metric.name, metric)
            self._pauses.append(pauses)
            self._collections.append(collections)
        if _on_gc not in gc.callbacks:
            gc.callbacks.append(_on_gc)
        _watches.add(self)

    def record(self, generation: int, pause: float) -> None:
        self._pauses[generation].observe(pause)
        self._collections[generation].inc()

    def summary(self) -> dict:
        """Share of wall time since this watch started that the process
        spent collecting, and the longest pause, per generation."""
        elapsed = perf_counter() - self.since
        total = sum(h.sum for h in self._pauses)
        return {
            "share": total / elapsed if elapsed > 0 else 0.0,
            "max_pause_seconds": max(
                (h.max or 0.0 for h in self._pauses), default=0.0),
            "generations": {
                str(generation): {
                    "collections": self._collections[generation].value,
                    "max_pause_seconds":
                        self._pauses[generation].max or 0.0,
                }
                for generation in GENERATIONS
            },
        }


def render_gc(summary: dict) -> str:
    """The one-line ``gc:`` row of ``repro top`` and the STATS scrape."""
    full = summary["generations"]["2"]
    return (f"gc: {summary['share']:.1%} of wall time, max pause "
            f"{summary['max_pause_seconds'] * 1e3:.1f} ms "
            f"({full['collections']} full collections, longest "
            f"{full['max_pause_seconds'] * 1e3:.1f} ms)")
