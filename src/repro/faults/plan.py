"""Fault plans: the *what* and *when* of deterministic fault injection.

A :class:`FaultPlan` is a passive description — which named crash point
fires on which hit, whether the simulated failure is a process crash or a
power loss (dropping bytes written but never fsynced), which lock acquires
are forced to time out, and how the collab delivery bus misbehaves
towards every reader, in process or on the wire.
The :class:`~repro.faults.injector.FaultInjector` executes a plan; every
plan is derivable from a single integer seed (:meth:`FaultPlan.random`),
so any torture failure reproduces from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import CrashSignal

__all__ = [
    "CRASH_POINTS",
    "FEED_CRASH_POINTS",
    "REPL_CRASH_POINTS",
    "CrashSignal",
    "CrashSpec",
    "DeliveryFault",
    "FaultPlan",
    "LockFault",
]

#: Every named crash point threaded through the engine.  The strings are
#: the contract between the injector and the instrumented code — tests
#: address points by these names.
CRASH_POINTS = (
    "wal.before_append",       # record never reaches memory or disk
    "wal.mid_record",          # torn write: a prefix of the JSON line lands
    "wal.after_write",         # commit record buffered, barrier never entered
    "wal.before_fsync",        # records written, the group's fsync lost
    "txn.pre_commit",          # crash before the COMMIT record is appended
    "txn.post_commit",         # COMMIT durable, in-memory apply interrupted
)

#: The crash points a *follower* exercises while applying a shipped
#: stream: death halfway through a shipped transaction's row images
#: (``repl.mid_apply``), and a torn write to its own WAL mirror
#: (shipped appends go through the WAL's one write path, so
#: ``wal.mid_record`` fires for them too).  Kept out of
#: ``CRASH_POINTS`` so leader-side seeded plans keep their historical
#: seed -> schedule mapping (``repl.mid_apply`` is unreachable on a
#: leader and would only dilute the leader crash-coverage floor).
REPL_CRASH_POINTS = (
    "repl.mid_apply",
    "wal.mid_record",
)

#: The changefeed's crash point: process death between a commit
#: becoming durable and a feed consumer absorbing its batch
#: (``feed.mid_dispatch`` fires immediately before each consumer
#: invocation).  A separate tuple for the same reason as
#: ``REPL_CRASH_POINTS``: folding it into ``CRASH_POINTS`` would
#: silently remap every historical seed -> schedule derivation.
FEED_CRASH_POINTS = (
    "feed.mid_dispatch",
)


@dataclass(frozen=True)
class CrashSpec:
    """Crash the process the ``hit``-th time ``point`` is reached.

    ``tear`` applies only to ``wal.mid_record``: the fraction of the
    record line that reaches the file before death.  ``power_loss``
    additionally drops every byte written since the last fsync (a process
    crash alone leaves the OS page cache intact, so flushed bytes
    survive).
    """

    point: str
    hit: int = 1
    tear: float = 0.5
    power_loss: bool = False


@dataclass(frozen=True)
class LockFault:
    """Inject a failure into the ``nth`` lock acquire.

    ``kind`` is ``"timeout"`` (raise ``LockTimeoutError`` immediately, as
    if the wait expired) or ``"delay"`` (sleep ``delay`` seconds before
    proceeding, widening race windows in threaded tests).
    """

    nth: int = 1
    kind: str = "timeout"
    delay: float = 0.001


@dataclass(frozen=True)
class DeliveryFault:
    """Misbehave the collab delivery bus, for every reader alike.

    ``p_drop`` loses an item outright (a wire mirror heals by resync);
    ``p_hold`` holds it in the bus until ``drain()``; ``reorder``
    shuffles a released backlog.  With ``window`` > 0 a non-empty
    backlog holds everything behind it and is released once ``window``
    long, so nothing overtakes a held item by more than ``window - 1``.
    """

    p_hold: float = 0.5
    reorder: bool = True
    p_drop: float = 0.0
    window: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seed-reproducible fault schedule."""

    crashes: tuple[CrashSpec, ...] = ()
    lock_faults: tuple[LockFault, ...] = ()
    delivery: DeliveryFault | None = None
    seed: int | None = None

    def is_empty(self) -> bool:
        return (not self.crashes and not self.lock_faults
                and self.delivery is None)

    # -- constructors --------------------------------------------------------

    @classmethod
    def crash_once(cls, point: str, *, hit: int = 1, tear: float = 0.5,
                   power_loss: bool = False) -> "FaultPlan":
        """A plan with a single deterministic crash."""
        if point not in CRASH_POINTS + REPL_CRASH_POINTS \
                + FEED_CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        return cls(crashes=(CrashSpec(point, hit, tear, power_loss),))

    @classmethod
    def random(cls, seed: int, *, points: tuple[str, ...] = CRASH_POINTS,
               max_hit: int = 25, p_power_loss: float = 0.3,
               with_locks: bool = False,
               with_delivery: bool = False) -> "FaultPlan":
        """Derive a crash schedule from ``seed`` alone.

        The same seed always yields the same plan, which (driven through
        a deterministic workload) yields the same crash — the torture
        suite's reproducibility contract.
        """
        rng = random.Random(seed)
        spec = CrashSpec(
            point=points[rng.randrange(len(points))],
            hit=rng.randint(1, max_hit),
            tear=rng.uniform(0.05, 0.95),
            power_loss=rng.random() < p_power_loss,
        )
        lock_faults: tuple[LockFault, ...] = ()
        if with_locks and rng.random() < 0.5:
            lock_faults = (LockFault(
                nth=rng.randint(1, max_hit),
                kind="timeout" if rng.random() < 0.7 else "delay",
            ),)
        delivery = None
        if with_delivery:
            delivery = DeliveryFault(
                p_hold=rng.uniform(0.1, 0.7),
                reorder=rng.random() < 0.8,
            )
        return cls(crashes=(spec,), lock_faults=lock_faults,
                   delivery=delivery, seed=seed)

    @classmethod
    def delivery_only(cls, seed: int) -> "FaultPlan":
        """A plan that only perturbs notification delivery (no crashes)."""
        rng = random.Random(seed)
        return cls(
            delivery=DeliveryFault(p_hold=rng.uniform(0.2, 0.8),
                                   reorder=rng.random() < 0.9),
            seed=seed,
        )

    @classmethod
    def lossy_delivery(cls, seed: int) -> "FaultPlan":
        """A plan for a wire server (no crashes): every delivery may be
        dropped, held or reordered within a window of 2 or 3 items, so
        reordering alone never outruns a mirror's resync threshold and
        only a drop costs one."""
        rng = random.Random(seed)
        return cls(
            delivery=DeliveryFault(p_hold=rng.uniform(0.2, 0.5),
                                   p_drop=rng.uniform(0.03, 0.15),
                                   window=rng.randint(2, 3)),
            seed=seed,
        )
