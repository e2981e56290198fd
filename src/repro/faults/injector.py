"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One injector is threaded through a :class:`~repro.db.engine.Database`
(WAL, transactions, lock manager) and, optionally, a
:class:`~repro.collab.server.CollaborationServer` delivery bus.
Instrumented code calls :meth:`FaultInjector.fire` (or :meth:`check` +
:meth:`crash` when the failure needs site-specific mechanics, e.g. a torn
WAL write).  The injector counts hits per crash point, triggers the
planned fault on the matching hit, powers off the attached WAL so a
"dead" process cannot write another byte, and raises
:class:`~repro.faults.plan.CrashSignal`.

A module-level :data:`NO_FAULTS` null injector keeps the hot paths cheap
when no plan is active.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .plan import CrashSignal, CrashSpec, FaultPlan, LockFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.wal import WriteAheadLog


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector actually triggered (for assertions/repro)."""

    kind: str               # "crash" | "lock" | "hold" | "drop"
    point: str              # crash point, or "locks.acquire" / "delivery"
    hit: int
    detail: dict


class NullInjector:
    """No-op injector: the default wiring when no faults are planned."""

    armed = False
    crashed = False
    plan = FaultPlan()
    fired: tuple = ()

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        pass

    def check(self, point: str) -> None:
        return None

    def fire(self, point: str, **ctx: Any) -> None:
        return None

    def lock_action(self, txn_id: int, resource: Any,
                    mode: str) -> None:
        return None

    def delivery_action(self) -> str:
        return "deliver"

    def drain_order(self, n: int) -> list[int]:
        return list(range(n))


#: Shared null injector; safe because it holds no mutable state.
NO_FAULTS = NullInjector()


class FaultInjector:
    """Executes a fault plan against the instrumented engine/collab code.

    Parameters
    ----------
    plan:
        The fault schedule.  ``None`` or an empty plan makes the injector
        inert (but still counting hits, which is useful for calibrating
        ``hit`` numbers in new torture workloads).
    armed:
        When ``False`` the injector counts nothing and fires nothing
        until :meth:`arm` is called — lets a harness build fixture state
        (schemas, documents, users) outside the blast radius so every
        planned fault lands inside the measured workload.
    """

    def __init__(self, plan: FaultPlan | None = None, *,
                 armed: bool = True) -> None:
        self.plan = plan or FaultPlan()
        self.armed = armed
        self.crashed = False
        self.hits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._wal: "WriteAheadLog | None" = None
        self._lock = threading.Lock()
        self._lock_acquires = 0
        self._rng = random.Random(self.plan.seed if self.plan.seed is not None
                                  else 0)

    # -- lifecycle -----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Start counting hits and firing faults (see ``armed``)."""
        self.armed = True
        return self

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Register the WAL to power off when a crash fires."""
        self._wal = wal

    @property
    def crash_point_fired(self) -> str | None:
        """The crash point that killed the process, if any."""
        for fault in self.fired:
            if fault.kind == "crash":
                return fault.point
        return None

    # -- crash points --------------------------------------------------------

    def check(self, point: str) -> CrashSpec | None:
        """Count a pass through ``point``; return the spec if it triggers.

        Callers that need site-specific crash mechanics (torn writes) use
        ``check`` + :meth:`crash`; everyone else uses :meth:`fire`.
        """
        if not self.armed or self.crashed:
            return None
        with self._lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
        for spec in self.plan.crashes:
            if spec.point == point and spec.hit == count:
                return spec
        return None

    def fire(self, point: str, **ctx: Any) -> None:
        """Pass through ``point``; simulate process death if planned."""
        spec = self.check(point)
        if spec is not None:
            self.crash(spec, **ctx)

    def crash(self, spec: CrashSpec, **ctx: Any) -> None:
        """Kill the simulated process *now* according to ``spec``.

        Powers off the attached WAL first (flush-or-truncate per
        ``spec.power_loss``) so nothing the post-mortem interpreter does
        — e.g. a context manager appending an ABORT record — can reach
        the "disk" a real dead process could never have written to.
        """
        self.crashed = True
        self.fired.append(FiredFault("crash", spec.point, spec.hit, dict(ctx)))
        if self._wal is not None:
            self._wal.power_off(lose_unsynced=spec.power_loss)
        raise CrashSignal(f"injected crash at {spec.point} "
                          f"(hit {spec.hit}, power_loss={spec.power_loss})")

    # -- lock faults ---------------------------------------------------------

    def lock_action(self, txn_id: int, resource: Any,
                    mode: str) -> LockFault | None:
        """Consulted by the lock manager before every acquire."""
        if not self.armed or self.crashed or not self.plan.lock_faults:
            return None
        with self._lock:
            self._lock_acquires += 1
            count = self._lock_acquires
        for fault in self.plan.lock_faults:
            if fault.nth == count:
                self.fired.append(FiredFault(
                    "lock", "locks.acquire", count,
                    {"txn": txn_id, "resource": resource, "mode": mode,
                     "kind": fault.kind},
                ))
                return fault
        return None

    # -- delivery faults -----------------------------------------------------

    def delivery_action(self) -> str:
        """``"deliver"``, ``"hold"`` or ``"drop"`` for the next item the
        bus hands a reader.

        The drop roll is drawn only when the plan can drop, so a plan
        without ``p_drop`` keeps the seed -> schedule mapping it had
        before drops existed.
        """
        fault = self.plan.delivery
        if not self.armed or fault is None:
            return "deliver"
        if fault.p_drop and self._rng.random() < fault.p_drop:
            self.fired.append(FiredFault(
                "drop", "delivery", len(self.fired) + 1, {}))
            return "drop"
        if self._rng.random() < fault.p_hold:
            self.fired.append(FiredFault(
                "hold", "delivery", len(self.fired) + 1, {}))
            return "hold"
        return "deliver"

    def drain_order(self, n: int) -> list[int]:
        """Delivery order for ``n`` held items on release."""
        order = list(range(n))
        fault = self.plan.delivery
        if fault is not None and fault.reorder and n > 1:
            self._rng.shuffle(order)
        return order

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultInjector(seed={self.plan.seed}, armed={self.armed}, "
                f"crashed={self.crashed}, fired={len(self.fired)})")
