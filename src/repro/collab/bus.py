"""Notification delivery: the in-process transport of the collab fan-out.

A notice the fan-out hands to an in-process session travels this hop,
from the operation that made the commit to the session's inbox (a wire
session's transport is its connection instead: see
:mod:`repro.net.server`).  By default the hop is instantaneous.  With a
:class:`~repro.faults.plan.DeliveryFault` in the server's fault plan, the
:class:`DeliveryBus` holds a seeded fraction of notifications back and
releases the backlog — optionally out of order — on :meth:`drain`,
simulating delayed and reordered propagation.  The torture suite's
convergence property is stated against this bus: once delivery drains,
every replica must agree.

Delivery is also where the paper's *real-time* claim is measured: every
notification landing in an inbox observes the end-to-end
``collab.replication_seconds`` histogram (operation start, carried on
the envelope, to inbox arrival — held time included), and each delivery
opens a ``collab.deliver`` span whose parent is the originating
keystroke's dispatch span (resumed from the envelope's trace context,
so the causal chain survives holds, reordering and cross-thread drains).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING

from ..obs.metrics import NULL_REGISTRY
from ..obs.tracing import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from .session import EditingSession, Notification


class DeliveryBus:
    """Routes notifications to session inboxes, with injectable faults.

    The backlog *list* is guarded by a lock: sessions may commit from
    multiple threads, and a racy ``list.append`` against a concurrent
    :meth:`drain` could drop a held notification — which would break
    the convergence property the torture suite asserts.  The counters
    need no such guard: they live in the (thread-safe) metrics
    registry, and :attr:`stats` just reads them back out.
    """

    def __init__(self, faults: "FaultInjector | None" = None,
                 registry=None, tracer=None) -> None:
        from ..faults.injector import NO_FAULTS
        self.faults = faults if faults is not None else NO_FAULTS
        #: (session, notification, held_at perf_counter stamp).
        self._pending: list[tuple["EditingSession", "Notification",
                                  float]] = []
        self._lock = threading.Lock()
        reg = registry if registry is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._m_delivered = reg.counter("collab.deliveries")
        self._m_held = reg.counter("collab.held")
        self._m_drains = reg.counter("collab.drains")
        self._m_depth = reg.gauge("collab.queue_depth")
        self._m_replication = reg.histogram("collab.replication_seconds")
        self._m_held_seconds = reg.histogram("collab.held_seconds")

    @property
    def stats(self) -> dict:
        """Delivery counts in the historical dict shape, read from the
        metrics registry (the registry is the single source of truth;
        the bus keeps no counters of its own)."""
        return {
            "delivered": self._m_delivered.value,
            "held": self._m_held.value,
            "drains": self._m_drains.value,
        }

    def send(self, session: "EditingSession",
             notification: "Notification") -> bool:
        """Deliver now, or hold per the fault plan.  True if delivered."""
        if self.faults.delivery_action() == "hold":
            with self._lock:
                self._pending.append((session, notification,
                                      perf_counter()))
                self._m_held.inc()
                self._m_depth.set(len(self._pending))
            return False
        self._deliver(session, notification)
        return True

    def drain(self) -> int:
        """Deliver every held notification; returns how many.

        The fault plan chooses the release order, so replicas can observe
        out-of-order propagation — but never loss: drain always empties
        the backlog (the convergence property's precondition).
        """
        with self._lock:
            pending, self._pending = self._pending, []
            self._m_depth.set(0)
        for index in self.faults.drain_order(len(pending)):
            session, notification, held_at = pending[index]
            self._deliver(session, notification, held_at=held_at)
        self._m_drains.inc()
        return len(pending)

    @property
    def pending(self) -> int:
        """Held notifications not yet delivered."""
        with self._lock:
            return len(self._pending)

    def _deliver(self, session: "EditingSession",
                 notification: "Notification",
                 held_at: float | None = None) -> None:
        # The deliver span resumes the originating keystroke's trace
        # from the envelope context — explicitly, because a drain may
        # run on another thread long after the dispatch span closed.
        with self._tracer.span("collab.deliver", notification.trace_ctx,
                               session=session.id, seq=notification.seq,
                               held=held_at is not None):
            now = perf_counter()
            if held_at is not None:
                self._m_held_seconds.observe(now - held_at)
            if notification.origin_started is not None:
                self._m_replication.observe(now -
                                            notification.origin_started)
            # Dropping a notification for a session that disconnected
            # while it was in flight mirrors a network send to a closed
            # socket.
            if session.connected:
                session._notify(notification)
        self._m_delivered.inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeliveryBus(pending={self.pending}, "
                f"delivered={self.stats['delivered']})")
