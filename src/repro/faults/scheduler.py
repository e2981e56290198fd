"""Deterministic scheduler: reproducible concurrent-typist interleavings.

Thread schedulers are a source of flake; this one serialises "concurrent"
actors into a single thread and picks who runs next from a seeded RNG, so
any interleaving — including the one that breaks — replays exactly from
its seed.  Each actor step is one atomic unit of work (one editing
operation, i.e. one database transaction), which matches the engine's
serialisation point: interleaving at sub-transaction granularity cannot
produce states the lock manager doesn't already serialise.

The trace records who ran at every step; a torture failure message quotes
the seed, and the seed regenerates both the fault plan and this schedule.
"""

from __future__ import annotations

import random
from typing import Any, Callable


class DeterministicScheduler:
    """Runs named actors in a seeded, reproducible interleaving."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed ^ 0x5EED5EED)
        self._actors: list[tuple[str, Callable[[], Any], int]] = []
        #: Actor name per executed step, in order.
        self.trace: list[str] = []

    def add_actor(self, name: str, step: Callable[[], Any],
                  weight: int = 1) -> None:
        """Register an actor; ``step()`` performs one atomic operation."""
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self._actors.append((name, step, weight))

    def actors(self) -> list[str]:
        return [name for name, __, __ in self._actors]

    def step(self) -> tuple[str, Any]:
        """Pick the next actor (seeded) and run one of its steps.

        Exceptions — including the injector's ``CrashSignal`` — propagate
        to the caller with the already-recorded trace intact.
        """
        if not self._actors:
            raise RuntimeError("no actors registered")
        weights = [a[2] for a in self._actors]
        idx = self.rng.choices(range(len(self._actors)),
                               weights=weights, k=1)[0]
        name, fn, __ = self._actors[idx]
        self.trace.append(name)
        return name, fn()

    def run(self, n_steps: int) -> list[str]:
        """Execute ``n_steps`` interleaved steps; returns the trace."""
        for __ in range(n_steps):
            self.step()
        return self.trace

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeterministicScheduler(seed={self.seed}, "
                f"actors={self.actors()}, steps={len(self.trace)})")
