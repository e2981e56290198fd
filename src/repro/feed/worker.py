"""Maintenance driven by the changefeed.

Deferred consumers (the inverted index, and anything else that only
*records* work in its handler) need something to actually absorb the
recorded work.  :class:`MaintenanceWorker` is that something: a small
registry of named maintenance callables, each run once per explicit
:meth:`~MaintenanceWorker.run_once` tick (tests, benchmarks, CLI).

The worker deliberately owns no policy: each registered task is a
callable such as ``index.ensure_fresh`` that knows its own consumer and
acks it; the worker adds the tick and failure isolation (a failing task
is recorded and does not starve the others).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from ..errors import CrashSignal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.engine import Database


class MaintenanceWorker:
    """Runs deferred derived-data maintenance, one tick per call."""

    def __init__(self, db: "Database") -> None:
        self._feed = db.changefeed()
        self._tasks: list[tuple[str, Callable[[], object]]] = []
        self._lock = threading.Lock()
        #: Recent task failures as (task, exception) pairs.
        self.errors: list[tuple[str, Exception]] = []
        registry = db.obs.registry
        self._m_runs = registry.counter("feed.worker_runs")
        self._m_seconds = registry.histogram("feed.worker_seconds")

    def register(self, name: str, fn: Callable[[], object]) -> None:
        """Add a maintenance task; ``fn`` runs on every tick."""
        with self._lock:
            self._tasks.append((name, fn))

    def run_once(self) -> dict[str, object]:
        """Run every task once; returns ``{task: result-or-exception}``.

        Failures are isolated per task (recorded in :attr:`errors`);
        :class:`~repro.errors.CrashSignal` propagates — a simulated
        process death must not be absorbed by the maintenance loop.
        """
        started = perf_counter()
        with self._lock:
            tasks = list(self._tasks)
        results: dict[str, object] = {}
        for name, fn in tasks:
            try:
                results[name] = fn()
            except CrashSignal:
                raise
            except Exception as exc:
                results[name] = exc
                self.errors.append((name, exc))
                if len(self.errors) > 100:
                    del self.errors[: len(self.errors) - 100]
        self._m_runs.inc()
        self._m_seconds.observe(perf_counter() - started)
        return results

    def drain(self, *, max_rounds: int = 100) -> int:
        """Run ticks until the feed's worst consumer lag reaches zero.

        Returns the number of rounds used; raises ``RuntimeError`` if
        the lag refuses to drain (a consumer that never acks would
        otherwise spin forever).  This is the benchmark/staleness-gate
        entry point: "the workload is over, absorb everything."
        """
        for rounds in range(1, max_rounds + 1):
            self.run_once()
            if self._feed.max_lag() == 0:
                return rounds
        raise RuntimeError(
            f"feed lag did not drain to 0 in {max_rounds} rounds "
            f"(still {self._feed.max_lag()})")
