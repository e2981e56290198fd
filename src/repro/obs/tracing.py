"""Lightweight trace spans with context propagation.

A :class:`Span` is one timed unit of engine work — a transaction, a
collab operation dispatch, a search — with a name, attributes, a status
and a parent.  The :class:`Tracer` hands spans out and routes finished
spans to registered sinks.

Two usage shapes:

* ``with tracer.span("search.query"):`` — scoped work on one thread.
  The span joins the thread's context stack, so spans started inside it
  (either shape) get it as their parent.
* ``span = tracer.start("txn"); ...; span.end("commit")`` — *detached*
  spans for work whose begin and end live in different calls (a
  transaction's lifetime).  Detached spans take the current context span
  as parent but do not occupy the stack.

**Causal traces**: every span carries a ``trace_id``.  A root span (no
parent) mints a fresh one; children inherit their parent's, so all the
work one keystroke causes — editor op, transaction, WAL fsync, dispatch,
remote delivery — shares a single trace id.  The link crosses session
and thread boundaries explicitly: :attr:`Span.ctx` is a ``(trace_id,
span_id)`` pair that can ride on a message envelope, and
``tracer.span(..., parent_ctx=ctx)`` resumes the trace on the receiving
side (held/reordered delivery included).  :meth:`Tracer.scope` pushes an
existing detached span onto the context stack, so work performed *inside*
a transaction's commit (fsync, commit fan-out) parents under the
transaction span.

**No-op fast path**: with no sink registered, :meth:`Tracer.start`
returns the shared :data:`NULL_SPAN` and records nothing — the hot
paths stay instrumented at the cost of one attribute check.
:attr:`_NullSpan.ctx` is ``None``, which is what keeps message-envelope
trace fields ``None`` when tracing is off.

**Balance**: every started span must be ended exactly once; the tracer
tracks open spans (``trace.active_spans`` gauge) so the test suite can
assert none leak, including across injected crashes (a transaction
killed by a :class:`~repro.faults.plan.CrashSignal` ends its span with
status ``"crash"``).
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Any, Callable

SpanSink = Callable[["Span"], None]

#: A span's address as carried on message envelopes: (trace_id, span_id).
TraceContext = tuple[int, int]


class Span:
    """One timed, named, attributed unit of work."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "attrs",
                 "started", "ended", "status", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, trace_id: int,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = attrs
        self.started = perf_counter()
        self.ended: float | None = None
        self.status: str | None = None

    @property
    def ctx(self) -> TraceContext:
        """This span's ``(trace_id, span_id)`` for envelope propagation."""
        return (self.trace_id, self.span_id)

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, status: str = "ok") -> None:
        """Finish the span (idempotent: only the first end counts)."""
        if self.ended is not None:
            return
        self.ended = perf_counter()
        self.status = status
        self._tracer._finish(self)

    @property
    def duration(self) -> float | None:
        if self.ended is None:
            return None
        return self.ended - self.started

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = self.status if self.ended is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan:
    """Shared inert span returned when no sink is listening."""

    __slots__ = ()
    name = "null"
    span_id = 0
    parent_id = None
    trace_id = 0
    #: ``None`` on purpose: envelope trace fields stay unset when off.
    ctx = None
    attrs: dict = {}
    status = None
    duration = None
    ended = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, status: str = "ok") -> None:
        pass


#: The tracer's no-op fast path target.
NULL_SPAN = _NullSpan()


class _Scope:
    """A span as a ``with`` block: on its thread's context stack for the
    block's extent, and (for one the block owns) ended with it."""

    __slots__ = ("_span", "_stack", "_owned")

    def __init__(self, span: "Span | _NullSpan", stack: list | None,
                 owned: bool) -> None:
        self._span = span
        #: The context stack to join; None = just hand the span over.
        self._stack = stack
        self._owned = owned

    def __enter__(self) -> "Span | _NullSpan":
        if self._stack is not None:
            self._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._stack is not None:
            if self._owned:
                # Any exception on purpose: CrashSignal must close
                # spans too.
                self._span.end("ok" if exc_type is None else "error")
            self._stack.remove(self._span)


#: What ``span()``/``scope()`` hand out when nobody listens (shared:
#: it holds no state).
_NULL_SCOPE = _Scope(NULL_SPAN, None, False)


class Tracer:
    """Creates spans, tracks open ones, fans finished spans to sinks."""

    def __init__(self, registry=None) -> None:
        from .metrics import NULL_REGISTRY
        reg = registry if registry is not None else NULL_REGISTRY
        self._sinks: list[SpanSink] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._open: dict[int, Span] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._active = reg.gauge("trace.active_spans")
        self._started = reg.counter("trace.spans_started")

    # -- sinks ---------------------------------------------------------------

    @property
    def recording(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink: SpanSink) -> SpanSink:
        """Register a callable receiving every finished span."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: SpanSink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    # -- span lifecycle ------------------------------------------------------

    def start(self, name: str,
              parent_ctx: TraceContext | None = None,
              **attrs: Any) -> Span | _NullSpan:
        """Start a detached span (caller must :meth:`Span.end` it).

        ``parent_ctx`` is an explicit ``(trace_id, span_id)`` parent —
        the cross-session/cross-thread link a message envelope carries.
        Without it, the parent is the thread's innermost scoped span; a
        parentless span roots a fresh trace.
        """
        if not self._sinks:
            return NULL_SPAN
        if parent_ctx is not None:
            trace_id, parent_id = parent_ctx
        else:
            current = self.current()
            if current is not None:
                trace_id, parent_id = current.trace_id, current.span_id
            else:
                trace_id, parent_id = next(self._trace_ids), None
        span = Span(self, name, next(self._ids), parent_id, trace_id, attrs)
        with self._lock:
            self._open[span.span_id] = span
        self._active.inc()
        self._started.inc()
        return span

    def span(self, name: str,
             parent_ctx: TraceContext | None = None,
             **attrs: Any) -> _Scope:
        """Scoped span: joins the thread's context stack for its extent."""
        span = self.start(name, parent_ctx, **attrs)
        if span is NULL_SPAN:
            return _NULL_SCOPE
        return _Scope(span, self._stack(), True)

    def scope(self, span: "Span | _NullSpan") -> _Scope:
        """Push an existing (detached, open) span onto the context stack.

        Lets work done inside another call chain parent under a detached
        span — e.g. a transaction's commit puts its own span in scope so
        the WAL fsync and the commit fan-out trace as its children.  The
        span is *not* ended on exit; its owner still does that.
        """
        if span is NULL_SPAN:
            return _NULL_SCOPE
        if span.ended is not None:
            return _Scope(span, None, False)
        return _Scope(span, self._stack(), False)

    def current(self) -> Span | None:
        """The innermost scoped span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.span_id, None)
        self._active.dec()
        for sink in self._sinks:
            sink(span)

    # -- introspection -------------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Snapshot of started-but-not-ended spans (leak detection)."""
        with self._lock:
            return list(self._open.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tracer(sinks={len(self._sinks)}, "
                f"open={len(self.open_spans())})")


#: Shared sink-less tracer: the default wiring for components built
#: without a database (every start() returns :data:`NULL_SPAN`).
NULL_TRACER = Tracer()
