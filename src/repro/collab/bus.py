"""Delivery: the one hop from the collab fan-out to every reader.

Every item the fan-out hands a reader — a commit's notice, or a cursor
move — goes through :meth:`DeliveryBus.send` to the reader's transport:
its inbox in process, its connection on the wire (see
:mod:`repro.net.server`).  By default the hop is instantaneous.  A
:class:`~repro.faults.plan.DeliveryFault` in the server's fault plan
makes the bus the LAN party's network, with one seeded schedule for
both transports: it drops, holds, and releases the backlog — optionally
shuffled, optionally within a bounded window — on :meth:`drain`.  The
torture suite's convergence property is stated against this bus.

Inbox delivery is where the paper's *real-time* claim is measured:
each observes ``collab.replication_seconds`` (operation start, carried
on the envelope, to inbox arrival — held time included) under a
``collab.deliver`` span resumed from the envelope's trace context, so
the causal chain survives holds, reordering and cross-thread drains.
A wire delivery is measured by the connection that writes it.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..obs.metrics import NULL_REGISTRY
from ..obs.tracing import NULL_TRACER
from .awareness import CursorState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from .session import EditingSession


class DeliveryBus:
    """Hands fan-out items to readers' transports, with injectable faults.

    With no delivery fault planned, :meth:`send` checks one attribute
    and delivers.  Under a plan one lock covers the roll, the backlog
    and every hand-off, so no held item is lost and the window bound
    holds across sending threads.  The counters live in the metrics
    registry.
    """

    def __init__(self, faults: "FaultInjector | None" = None,
                 registry=None, tracer=None) -> None:
        from ..faults.injector import NO_FAULTS
        self.faults = faults if faults is not None else NO_FAULTS
        #: The plan's delivery fault; ``None`` is the fast path.
        self.fault = self.faults.plan.delivery
        #: (reader, document, item, held_at perf_counter stamp).
        self._pending: list[tuple["EditingSession", Any, Any, float]] = []
        self._lock = threading.RLock()
        reg = registry if registry is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._m_delivered = reg.counter("collab.deliveries")
        self._m_held = reg.counter("collab.held")
        self._m_dropped = (reg if self.fault is not None
                           else NULL_REGISTRY).counter("collab.dropped")
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
            "dropped": self._m_dropped.value,
            "drains": self._m_drains.value,
        }

    def send(self, reader: "EditingSession", doc, item) -> None:
        """Hand ``item`` — a :class:`~repro.collab.server.Notice` or a
        :class:`CursorState` — to ``reader`` now, later, or (dropped)
        never, per the fault plan.  An in-process reader reads cursors
        from the awareness registry itself: a cursor move for one stops
        here."""
        if reader.transport is None and isinstance(item, CursorState):
            return
        fault = self.fault
        if fault is None:
            self._deliver(reader, doc, item)
            return
        with self._lock:
            action = self.faults.delivery_action()
            if action == "drop":
                self._m_dropped.inc()
                return
            # With a window, a held item holds everything behind it
            # until the backlog is ``window`` long.
            if action == "deliver" and not (fault.window and self._pending):
                self._deliver(reader, doc, item)
                return
            self._pending.append((reader, doc, item, perf_counter()))
            self._m_held.inc()
            self._m_depth.set(len(self._pending))
            if fault.window and len(self._pending) >= fault.window:
                self.drain()

    def drain(self, held_before: float | None = None) -> int:
        """Deliver every held item, in the plan's order; returns how many.

        The shuffle lets replicas observe out-of-order propagation, but
        drain empties the backlog (the convergence property's
        precondition).  With ``held_before``, a wire server's clock (see
        :meth:`repro.net.server.CollabNetServer._caught_up`), it releases
        nothing unless the oldest item was held before that stamp.
        """
        with self._lock:
            pending = self._pending
            if held_before is not None and not (
                    pending and pending[0][3] < held_before):
                return 0
            self._pending = []
            self._m_depth.set(0)
            for index in self.faults.drain_order(len(pending)):
                reader, doc, item, held_at = pending[index]
                self._deliver(reader, doc, item, held_at=held_at)
            self._m_drains.inc()
        return len(pending)

    @property
    def pending(self) -> int:
        """Held items not yet delivered."""
        with self._lock:
            return len(self._pending)

    def _deliver(self, reader: "EditingSession", doc, item,
                 held_at: float | None = None) -> None:
        if held_at is not None:
            self._m_held_seconds.observe(perf_counter() - held_at)
        transport = reader.transport
        if transport is not None:
            transport(doc, item)
            return
        notification = item.notification
        # The deliver span resumes the originating keystroke's trace
        # from the envelope context — explicitly, because a drain may
        # run on another thread long after the dispatch span closed.
        with self._tracer.span("collab.deliver", notification.trace_ctx,
                               session=reader.id, seq=notification.seq,
                               held=held_at is not None):
            if notification.origin_started is not None:
                self._m_replication.observe(perf_counter() -
                                            notification.origin_started)
            # Dropping a notification for a session that disconnected
            # while it was in flight mirrors a network send to a closed
            # socket.
            if reader.connected:
                reader._notify(notification)
        self._m_delivered.inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeliveryBus(pending={self.pending}, "
                f"delivered={self.stats['delivered']})")
