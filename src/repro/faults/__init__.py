"""Deterministic fault injection: crash points, fault plans, torture tools.

The paper sells DBMS-grade guarantees for word processing; this package
is how the reproduction earns them off the happy path.  It provides:

* named **crash points** threaded through the engine
  (:data:`~repro.faults.plan.CRASH_POINTS`) that a seeded
  :class:`~repro.faults.plan.FaultPlan` turns into simulated process
  death, torn WAL writes, and fsync loss;
* **lock faults** (forced timeouts, injected latency) and **delivery
  faults** (seeded drop / hold / reorder of what the collab fan-out
  hands every reader, in-process inbox or wire connection alike);
* a :class:`~repro.faults.scheduler.DeterministicScheduler` replaying
  concurrent-typist interleavings from one seed; and
* the torture harness (:mod:`repro.faults.harness`) asserting the
  recovery-equivalence property across seeded crash schedules.

Everything reproduces from a single integer seed; see ``docs/FAULTS.md``.
"""

from .harness import (
    ReplScheduleOutcome,
    ScheduleOutcome,
    check_promotion_equivalence,
    check_recovery_equivalence,
    recovered_rows,
    run_engine_schedule,
    run_replicated_schedule,
)
from .injector import NO_FAULTS, FaultInjector, FiredFault, NullInjector
from .plan import (
    CRASH_POINTS,
    FEED_CRASH_POINTS,
    REPL_CRASH_POINTS,
    CrashSignal,
    CrashSpec,
    DeliveryFault,
    FaultPlan,
    LockFault,
)
from .scheduler import DeterministicScheduler

__all__ = [
    "CRASH_POINTS",
    "CrashSignal",
    "CrashSpec",
    "DeliveryFault",
    "DeterministicScheduler",
    "FEED_CRASH_POINTS",
    "FaultInjector",
    "FaultPlan",
    "FiredFault",
    "LockFault",
    "NO_FAULTS",
    "NullInjector",
    "REPL_CRASH_POINTS",
    "ReplScheduleOutcome",
    "ScheduleOutcome",
    "check_promotion_equivalence",
    "check_recovery_equivalence",
    "recovered_rows",
    "run_engine_schedule",
    "run_replicated_schedule",
]
