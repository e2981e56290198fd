"""Fault plans: the *what* and *when* of deterministic fault injection.

A :class:`FaultPlan` is a passive description — which named crash point
fires on which hit, whether the simulated failure is a process crash or a
power loss (dropping bytes written but never fsynced), which lock acquires
are forced to time out, and how collab notification delivery misbehaves.
The :class:`~repro.faults.injector.FaultInjector` executes a plan; every
plan is derivable from a single integer seed (:meth:`FaultPlan.random`),
so any torture failure reproduces from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

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
    "NetFault",
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
    "checkpoint.mid_snapshot", # crash while building the snapshot
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
    """Misbehave notification delivery on the collab message bus.

    ``p_hold`` is the probability a notification is held back instead of
    delivered immediately; held messages sit in the bus until
    ``drain()``.  ``reorder`` shuffles the held backlog on drain, so
    replicas observe out-of-order propagation.
    """

    p_hold: float = 0.5
    reorder: bool = True


@dataclass(frozen=True)
class NetFault:
    """Misbehave the network layer's outbound change frames.

    The socket-level twin of :class:`DeliveryFault`, consulted by a
    :class:`~repro.net.server.CollabNetServer` connection's sender for
    every *faultable* frame (NOTIFY and AWARENESS — the RPC control lane
    is never faulted, as TCP would not lose acknowledged requests
    either).  ``p_drop`` loses the frame outright (the mirror heals by
    anti-entropy resync); ``p_delay`` sleeps up to ``max_delay`` seconds
    *in band*, i.e. subsequent frames on that connection queue behind
    the delay like packets behind link latency; ``reorder_window`` > 1
    buffers that many frames and releases them in a seeded shuffle;
    ``disconnect_after`` severs the connection after that many faultable
    frames have been sent (clients are expected to reconnect + resync).
    """

    p_drop: float = 0.0
    p_delay: float = 0.0
    max_delay: float = 0.05
    reorder_window: int = 0
    disconnect_after: int | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seed-reproducible fault schedule."""

    crashes: tuple[CrashSpec, ...] = ()
    lock_faults: tuple[LockFault, ...] = ()
    delivery: DeliveryFault | None = None
    net: NetFault | None = None
    seed: int | None = None

    def is_empty(self) -> bool:
        return (not self.crashes and not self.lock_faults
                and self.delivery is None and self.net is None)

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
        point = points[rng.randrange(len(points))]
        # Checkpoints are rare events; a hit number drawn from the full
        # range would almost never land, starving that point of coverage.
        hit_cap = 4 if point == "checkpoint.mid_snapshot" else max_hit
        spec = CrashSpec(
            point=point,
            hit=rng.randint(1, hit_cap),
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
    def net_only(cls, seed: int, *, p_drop: float | None = None,
                 reorder: bool | None = None) -> "FaultPlan":
        """A plan that only perturbs the socket layer (no crashes).

        The drawn plan always delays (link latency); drop and reorder
        are drawn from the seed unless pinned by the keyword overrides.
        """
        rng = random.Random(seed)
        drawn_drop = rng.uniform(0.05, 0.3)
        drawn_reorder = rng.random() < 0.7
        return cls(
            net=NetFault(
                p_drop=drawn_drop if p_drop is None else p_drop,
                p_delay=rng.uniform(0.2, 0.6),
                max_delay=rng.uniform(0.005, 0.03),
                reorder_window=rng.randint(2, 4)
                if (drawn_reorder if reorder is None else reorder) else 0,
            ),
            seed=seed,
        )

    def with_delivery(self, fault: DeliveryFault) -> "FaultPlan":
        return replace(self, delivery=fault)

    def with_net(self, fault: NetFault) -> "FaultPlan":
        return replace(self, net=fault)
