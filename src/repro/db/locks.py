"""Lock manager: shared/exclusive locks with deadlock detection.

Writers run read-committed isolation with exclusive row locks held until
commit or abort (strict two-phase locking); plain reads see the last
committed version without blocking.  MVCC snapshot transactions
(``db.begin(read_only=True)``) bypass this manager entirely — their reads
resolve from version chains (:mod:`repro.db.table`) and never touch a
lock.  No engine read takes SHARED mode; it exists for a caller that
locks the rows it reads (:meth:`Transaction.lock_shared` — the
interference benchmark's 2PL-reader arm).  Table-level locks protect
DDL.

Blocking waits are supported for multi-threaded use; a wait-for graph is
checked before every wait so deadlocks are detected immediately and the
requesting transaction is chosen as the victim (it raises
:class:`~repro.errors.DeadlockError`).  The graph is built from the
resources somebody waits on — a set kept as waits start and end — so a
check costs what the waiting costs, not what is held.  A wait's timeout
is a deadline: wake-ups (every release wakes every waiter) do not use
it up.  Single-threaded cooperative callers can pass ``timeout=0`` to
get immediate ``LockTimeoutError`` on conflict.

A lock costs what it holds.  Nearly every lock in the engine has one
exclusive holder and nobody waiting — each row an edit writes, each key
it claims — so such a resource is one slot of the manager's map,
resource -> holder's txn id.  A resource gets a :class:`_LockState`
(holders dict, waiters list) only when it needs one: a SHARED holder, a
second holder, or a waiter.  Each transaction's holdings are one record,
resource -> mode, which the transaction reads too
(:meth:`LockManager.held_modes`): a repeat acquire that is already
strong enough never reaches the manager.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from ..errors import DeadlockError, LockTimeoutError
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

SHARED = "S"
EXCLUSIVE = "X"

#: Lock compatibility: can a new request of mode *row* join holders of
#: mode *col*?
_COMPATIBLE = {
    (SHARED, SHARED): True,
    (SHARED, EXCLUSIVE): False,
    (EXCLUSIVE, SHARED): False,
    (EXCLUSIVE, EXCLUSIVE): False,
}


#: What a transaction that holds nothing holds.
_NOTHING: Mapping[Hashable, str] = MappingProxyType({})


class _LockState:
    """Holders and waiters of a resource that needs more than one slot:
    a SHARED holder, a second holder or a waiter (born granted)."""

    __slots__ = ("holders", "waiters")

    def __init__(self, txn_id: int, mode: str) -> None:
        self.holders: dict[int, str] = {txn_id: mode}
        self.waiters: list[tuple[int, str]] = []

    def compatible(self, txn_id: int, mode: str) -> bool:
        """Would granting (txn_id, mode) conflict with current holders?"""
        for holder, held in self.holders.items():
            if holder == txn_id:
                continue
            if not _COMPATIBLE[(mode, held)]:
                return False
        return True


def _granted(txn_id: int, mode: str) -> "int | _LockState":
    """The entry of a resource nobody held, now granted to ``txn_id``:
    an exclusive lock is its holder's id, a shared one a state."""
    return txn_id if mode == EXCLUSIVE else _LockState(txn_id, mode)


class LockManager:
    """Grants S/X locks on hashable resource keys to transaction ids.

    An optional :class:`~repro.faults.injector.FaultInjector` is
    consulted before every acquire: it can force an immediate timeout
    (as if the wait expired under contention) or inject latency to widen
    race windows — the torture suite's handle on lock-failure paths.
    """

    def __init__(self, default_timeout: float = 5.0,
                 faults: "FaultInjector | None" = None,
                 registry=None, tracer=None) -> None:
        from ..faults.injector import NO_FAULTS
        from ..obs.tracing import NULL_TRACER
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: resource -> its holder's txn id (one exclusive holder, nobody
        #: waiting) or its :class:`_LockState`.
        self._states: dict[Hashable, int | _LockState] = {}
        #: txn id -> {resource: mode}: the one record of what it holds.
        self._held_by_txn: dict[int, dict[Hashable, str]] = {}
        #: The states that have waiters: all the wait-for graph needs.
        self._waited: set[_LockState] = set()
        self._cond = threading.Condition()
        self.default_timeout = default_timeout
        self.faults = faults if faults is not None else NO_FAULTS
        # A manager on its own still counts (into a registry of its own).
        reg = registry if registry is not None else MetricsRegistry()
        self._m_acquired = reg.counter("lock.acquired")
        self._m_waits = reg.counter("lock.waits")
        self._m_wait_seconds = reg.histogram("lock.wait_seconds")
        self._m_timeouts = reg.counter("lock.timeouts")
        self._m_deadlocks = reg.counter("lock.deadlocks")
        self._m_injected = reg.counter("lock.injected")

    @property
    def stats(self) -> dict[str, int]:
        """The ``lock.*`` counters under their historical short names
        (all zero when the engine runs with observability off)."""
        return {"acquired": self._m_acquired.value,
                "waited": self._m_waits.value,
                "deadlocks": self._m_deadlocks.value,
                "timeouts": self._m_timeouts.value,
                "injected": self._m_injected.value}

    # -- public API ---------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: Hashable,
        mode: str = EXCLUSIVE,
        timeout: float | None = None,
    ) -> None:
        """Acquire ``resource`` in ``mode`` for ``txn_id``.

        Upgrades S->X in place when possible.  Raises
        :class:`~repro.errors.DeadlockError` if waiting would deadlock and
        :class:`~repro.errors.LockTimeoutError` on timeout.
        """
        self.acquire_many(txn_id, (resource,), mode, timeout)

    def acquire_many(
        self,
        txn_id: int,
        resources: Sequence[Hashable],
        mode: str = EXCLUSIVE,
        timeout: float | None = None,
    ) -> None:
        """Acquire several resources for ``txn_id`` in one round trip.

        The edit path declares the lock set of a statement group and
        takes it here: every uncontended resource is granted under a
        single condition acquisition.  Grants are counted per
        transaction, when :meth:`release_all` lets them go (an S->X
        upgrade, a second grant of a resource already held, at once).
        Fault injection
        is still consulted per resource — torture plans keep their
        handle on every logical acquire — and a resource that turns out
        to be contended waits on its own (:meth:`_wait_for`): waiting,
        deadlock detection and timeouts are per resource.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        if self.faults.armed:
            for resource in resources:
                self._consult_faults(txn_id, resource, mode)
        contended: list = []
        upgrades = 0
        states = self._states
        with self._cond:
            held = self._held_by_txn.get(txn_id)
            if held is None:
                held = self._held_by_txn[txn_id] = {}
            for resource in resources:
                mine = held.get(resource)
                if mine == EXCLUSIVE or mine == mode:
                    continue  # already strong enough
                state = states.get(resource)
                if state is None:
                    states[resource] = _granted(txn_id, mode)
                elif (type(state) is not _LockState
                      or not state.compatible(txn_id, mode)):
                    contended.append(resource)
                    continue
                else:
                    state.holders[txn_id] = mode
                    upgrades += mine is not None
                held[resource] = mode
            for resource in contended:
                # Looked up again: an earlier wait of this call may
                # have seen the resource's last holder leave.
                state = states.get(resource)
                if state is None:
                    states[resource] = _granted(txn_id, mode)
                else:
                    self._wait_for(txn_id, resource, state, mode, timeout)
                    upgrades += resource in held
                held[resource] = mode
        if upgrades:
            self._m_acquired.inc(upgrades)

    def _consult_faults(self, txn_id: int, resource: Hashable,
                        mode: str) -> None:
        fault = self.faults.lock_action(txn_id, resource, mode)
        if fault is not None:
            self._m_injected.inc()
            if fault.kind == "timeout":
                self._m_timeouts.inc()
                raise LockTimeoutError(
                    f"injected timeout: txn {txn_id} on {resource!r} ({mode})"
                )
            time.sleep(fault.delay)

    def _wait_for(self, txn_id: int, resource: Hashable,
                  state: "int | _LockState", mode: str,
                  timeout: float | None) -> None:
        """Block until ``resource`` can be granted, then grant it (caller
        holds the condition; ``state`` is the resource's live entry)."""
        deadline_timeout = self.default_timeout if timeout is None else timeout
        if type(state) is not _LockState:
            if state == txn_id:
                return  # its own slot, named twice in one call
            # Another transaction's exclusive slot: the state it would
            # have, stored only once a waiter joins it.
            state = _LockState(state, EXCLUSIVE)
        elif state.compatible(txn_id, mode):
            state.holders[txn_id] = mode
            return
        if deadline_timeout == 0:
            self._m_timeouts.inc()
            raise LockTimeoutError(
                f"txn {txn_id} would block on {resource!r} ({mode})"
            )
        if self._would_deadlock(txn_id, state):
            self._m_deadlocks.inc()
            raise DeadlockError(
                f"txn {txn_id} deadlocks waiting for {resource!r}"
            )
        self._states[resource] = state
        entry = (txn_id, mode)
        state.waiters.append(entry)
        self._waited.add(state)
        self._m_waits.inc()
        wait_started = perf_counter()
        # Contended waits are cold and interesting: traced, so a
        # keystroke trace shows where it stalled (and on what).
        wait_span = self._tracer.start("lock.wait", txn=txn_id,
                                       resource=str(resource),
                                       mode=mode)
        try:
            # A deadline, not a budget of wake-ups: every release wakes
            # every waiter, so a wait is woken far more often than its
            # resource frees.
            deadline = time.monotonic() + deadline_timeout
            step = 0.05
            while not state.compatible(txn_id, mode):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._m_timeouts.inc()
                    wait_span.end("timeout")
                    raise LockTimeoutError(
                        f"txn {txn_id} timed out on {resource!r} ({mode})"
                    )
                self._cond.wait(min(step, remaining))
                if self._would_deadlock(txn_id, state):
                    self._m_deadlocks.inc()
                    wait_span.end("deadlock")
                    raise DeadlockError(
                        f"txn {txn_id} deadlocks waiting for {resource!r}"
                    )
            state.holders[txn_id] = mode
        finally:
            # Wait time is recorded however the wait ends: grant,
            # timeout or deadlock victimhood all contribute.  The
            # span end is idempotent, so the error paths above
            # keep their specific statuses.
            wait_span.end("ok")
            self._m_wait_seconds.observe(perf_counter() - wait_started)
            state.waiters.remove(entry)
            if not state.waiters:
                self._waited.discard(state)

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/abort)."""
        with self._cond:
            held = self._held_by_txn.pop(txn_id, None)
            if not held:
                return
            states = self._states
            for resource in held:
                state = states.get(resource)
                if type(state) is not _LockState:
                    if state == txn_id:
                        del states[resource]
                    continue
                state.holders.pop(txn_id, None)
                if not state.holders and not state.waiters:
                    del states[resource]
            self._cond.notify_all()
            self._m_acquired.inc(len(held))

    def holders(self, resource: Hashable) -> dict[int, str]:
        """Snapshot of current holders of ``resource`` (txn id -> mode)."""
        with self._cond:
            state = self._states.get(resource)
            if state is None:
                return {}
            if type(state) is not _LockState:
                return {state: EXCLUSIVE}
            return dict(state.holders)

    def locks_held(self, txn_id: int) -> set[Hashable]:
        """Snapshot of resources currently held by ``txn_id``."""
        with self._cond:
            return set(self._held_by_txn.get(txn_id, ()))

    def held_modes(self, txn_id: int) -> Mapping[Hashable, str]:
        """What ``txn_id`` holds, resource -> mode: the live record, not
        a snapshot — read it, do not write it.  Only that transaction's
        own acquires and its release change it, so the transaction
        reads it between its calls to skip a repeat acquire that is
        already strong enough."""
        return self._held_by_txn.get(txn_id, _NOTHING)

    # -- internals ----------------------------------------------------------

    def _would_deadlock(self, requester: int, wanted: _LockState) -> bool:
        """Check the wait-for graph for a cycle through ``requester``.

        Called with the condition lock held.  Edges: requester waits for
        each conflicting holder of the wanted resource; recursively, those
        holders may themselves be waiting.
        """
        # Build txn -> set of txns it waits for, from the resources
        # somebody waits on (a lock nobody waits for adds no edge).
        waits_for: dict[int, set[int]] = {}
        for state in self._waited:
            for waiter, mode in state.waiters:
                blockers = {
                    holder for holder, held in state.holders.items()
                    if holder != waiter and not _COMPATIBLE[(mode, held)]
                }
                if blockers:
                    waits_for.setdefault(waiter, set()).update(blockers)
        # Add the hypothetical edge for the new request.
        blockers = {
            holder for holder, held in wanted.holders.items()
            if holder != requester
        }
        waits_for.setdefault(requester, set()).update(blockers)
        # DFS from requester looking for a path back to requester.
        stack = list(waits_for.get(requester, ()))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == requester:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(waits_for.get(node, ()))
        return False
