"""Benchmark-owned spans around the public functions of each layer.

The traced run patches timing wrappers onto the methods listed in
:data:`TARGETS` (class attributes, restored on :meth:`Tracer.uninstall`)
— nothing inside ``src/`` is edited, so every layer is measured from
outside.  A span records its group (the per-layer metric it feeds), the
wrapped function, start, end, the span that caused it and the id of the
user op it belongs to.  Spans stay in memory until the run ends.

Threads: each thread keeps its own span stack.  A span that starts on a
thread with an empty stack (the in-process network server handling an
RPC) is parented to the innermost open span of the load thread, which
at that moment is the client's blocking RPC — so server work nests
under the call that waited for it, and self times still add up.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

_COMMIT_BOUNDARY = ("COMMIT", "ABORT", "CHECKPOINT")


def _wal_group(args: tuple, kwargs: dict) -> str:
    """Commit-boundary records block on fsync; data records do not."""
    if args[1] in _COMMIT_BOUNDARY:
        return "db.wal.commit_append"
    return "db.wal.append"


def _refresh_group(args: tuple, kwargs: dict) -> str:
    """A refresh pinned to a query's snapshot is query-path catch-up;
    an unpinned one is the background worker absorbing changes."""
    if len(args) > 1 or kwargs.get("txn") is not None:
        return "search.index.ensure_fresh"
    return "search.index.maintain"


#: (span group, module, class, methods, classifier or None).  The group
#: is the per-layer metric the span's self time is reported under.
TARGETS = (
    ("net.client.rpc", "repro.net.client", "RemoteSession",
     ("insert", "insert_after", "delete", "delete_chars", "apply_style",
      "style_chars", "copy", "paste", "undo", "redo"), None),
    ("net.mirror.lookup", "repro.net.client", "RemoteHandle",
     ("length", "char_oid_at", "anchor_for", "position_of",
      "char_oids_range", "visible_position_after"), None),
    ("net.mirror.apply", "repro.net.client", "NetworkClient",
     ("poll",), None),
    ("collab.session.insert", "repro.collab.session", "EditingSession",
     ("insert", "insert_after"), None),
    ("collab.session.delete", "repro.collab.session", "EditingSession",
     ("delete", "delete_chars"), None),
    ("collab.session.style", "repro.collab.session", "EditingSession",
     ("apply_style", "style_chars"), None),
    ("collab.session.paste", "repro.collab.session", "EditingSession",
     ("copy", "paste"), None),
    ("collab.session.undo", "repro.collab.session", "EditingSession",
     ("undo", "redo", "undo_global", "redo_global"), None),
    ("text.handle.edit", "repro.text.document", "DocumentHandle",
     ("insert_text", "insert_after", "delete_range", "delete_chars",
      "undelete_chars", "apply_style", "style_chars"), None),
    ("text.handle.lookup", "repro.text.document", "DocumentHandle",
     ("length", "anchor_for", "char_oid_at", "char_oids_range",
      "position_of", "visible_position_after"), None),
    ("text.store.meta", "repro.text.document", "DocumentStore",
     ("meta",), None),
    ("db.txn.commit", "repro.db.transaction", "Transaction",
     ("commit",), None),
    ("db.wal.append", "repro.db.wal", "WriteAheadLog",
     ("append",), _wal_group),
    ("feed.publish", "repro.feed.changefeed", "Changefeed",
     ("publish",), None),
    ("feed.worker.run", "repro.feed.worker", "MaintenanceWorker",
     ("run_once",), None),
    ("search.engine.search", "repro.search.engine", "SearchEngine",
     ("search",), None),
    ("search.index.ensure_fresh", "repro.search.index", "InvertedIndex",
     ("ensure_fresh",), _refresh_group),
    ("search.index.maintain", "repro.search.index", "InvertedIndex",
     ("compact",), None),
    ("search.index.top_docs", "repro.search.index", "InvertedIndex",
     ("top_docs",), None),
    ("search.index.matching_docs", "repro.search.index", "InvertedIndex",
     ("matching_docs", "phrase_docs"), None),
    ("folders.contents", "repro.folders.dynamic", "DynamicFolder",
     ("contents",), None),
)

#: Modules that call ``encode_frame`` through their own global name.
_FRAME_SENDERS = ("repro.net.client", "repro.net.server")

#: Envelopes kept for the protocol encode/decode replay.
_FRAME_SAMPLE = 400

#: Root span of one user op (the whole closed-loop iteration).
ROOT = "bench.op"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Wrappers pass straight through unless this is set, so set-up
        #: (which must run with the wrappers already installed: bound
        #: methods captured then would bypass a later patch) costs no
        #: spans.
        self.recording = False
        self.op_id = -1
        self.missing: list[str] = []
        self.envelopes: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[tuple[int, list]] = []
        self._load_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        for group, module, cls_name, methods, classify in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            for method in methods:
                fn = None if cls is None else cls.__dict__.get(method)
                if not callable(fn):
                    self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                self._restore.append((cls, method, fn))
                setattr(cls, method, self._wrap(fn, group, classify))
        for module in _FRAME_SENDERS:
            mod = importlib.import_module(module)
            fn = getattr(mod, "encode_frame", None)
            if fn is None:
                self.missing.append(f"{module}.encode_frame")
                continue
            self._restore.append((mod, "encode_frame", fn))
            setattr(mod, "encode_frame", self._capture_frames(fn))
        for name in self.missing:
            print(f"trace: no such target {name}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, fn = self._restore.pop()
            setattr(owner, name, fn)

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._thread_spans.append((threading.get_ident(), state[1]))
        return state

    def _wrap(self, fn, group: str, classify):
        tracer = self
        qualname = fn.__qualname__

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack, spans = tracer._state()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._load_stack[-1]
                except IndexError:
                    parent = -1
            sid = next(tracer._ids)
            name = group if classify is None else classify(args, kwargs)
            stack.append(sid)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, qualname, started, ended,
                              tracer.op_id))

        traced.__wrapped__ = fn
        return traced

    def _capture_frames(self, fn):
        tracer = self

        def encode_frame(envelope):
            if tracer.recording and len(tracer.envelopes) < _FRAME_SAMPLE:
                tracer.envelopes.append(envelope)
            return fn(envelope)

        return encode_frame

    # ------------------------------------------------------------------
    # Root spans (called by the load loop, on the load thread)
    # ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        stack, _ = self._state()
        self._load_stack = stack
        self.op_id = op_id
        sid = next(self._ids)
        stack.append(sid)
        return sid

    def end_op(self, sid: int, verb: str, started: float,
               ended: float) -> None:
        stack, spans = self._state()
        stack.pop()
        spans.append((sid, -1, ROOT, verb, started, ended, self.op_id))

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """All recorded spans with the recording thread id appended."""
        out = []
        with self._lock:
            threads = list(self._thread_spans)
        for tid, spans in threads:
            out.extend(span + (tid,) for span in spans)
        return out

    def analyse(self) -> "TraceSummary":
        return TraceSummary(self.spans())

    def write_chrome(self, path: str, meta: dict) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        spans = self.spans()
        origin = min((s[4] for s in spans), default=0.0)
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (started - origin) * 1e6,
            "dur": (ended - started) * 1e6,
            "pid": 1, "tid": tid,
            "args": {"id": sid, "parent": parent, "op": op_id, "fn": fn},
        } for sid, parent, name, fn, started, ended, op_id, tid in spans]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": meta}, out)
        return len(events)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class TraceSummary:
    """Self times per span group and per user op."""

    def __init__(self, spans: list[tuple]) -> None:
        self.n_spans = len(spans)
        by_id = {s[0]: s for s in spans}
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _n, _f, started, ended, _o, _t in spans:
            owner = by_id.get(parent)
            if owner is None:
                continue
            lo, hi = max(started, owner[4]), min(ended, owner[5])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
        self_time = {
            s[0]: max(0.0, (s[5] - s[4]) - _covered(children.get(s[0], [])))
            for s in spans
        }
        #: group -> [calls, self seconds, inclusive seconds]
        self.groups: dict[str, list] = {}
        for s in spans:
            entry = self.groups.setdefault(s[2], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_time[s[0]]
            entry[2] += s[5] - s[4]
        # Per-op coverage: the self times of a root span and all its
        # descendants against the root's own duration.
        root_of: dict[int, int] = {}

        def find_root(sid: int) -> int:
            path = []
            while sid not in root_of:
                span = by_id.get(sid)
                if span is None:
                    root = -1
                    break
                if span[2] == ROOT:
                    root = sid
                    break
                path.append(sid)
                sid = span[1]
            else:
                root = root_of[sid]
            for node in path:
                root_of[node] = root
            return root

        attributed: dict[int, float] = {}
        for s in spans:
            root = s[0] if s[2] == ROOT else find_root(s[0])
            if root >= 0:
                attributed[root] = attributed.get(root, 0.0) + self_time[s[0]]
        self.coverage = sorted(
            attributed[sid] / (by_id[sid][5] - by_id[sid][4])
            for sid in attributed if by_id[sid][5] > by_id[sid][4])
        self.root_seconds = sum(s[5] - s[4] for s in spans if s[2] == ROOT)

    _EMPTY = (0, 0.0, 0.0)

    def calls(self, group: str) -> int:
        return self.groups.get(group, self._EMPTY)[0]

    def self_seconds(self, group: str) -> float:
        return self.groups.get(group, self._EMPTY)[1]

    def total_seconds(self, group: str) -> float:
        """Inclusive time of ``group`` (children not subtracted)."""
        return self.groups.get(group, self._EMPTY)[2]

    def mean_self(self, group: str) -> float:
        """Mean self time of one call in ``group``, in seconds."""
        calls, own, _ = self.groups.get(group, self._EMPTY)
        return own / calls if calls else 0.0

    def layer_seconds(self, layer: str) -> float:
        """Self time of every group whose name starts with ``layer.``."""
        prefix = layer + "."
        return sum(entry[1] for name, entry in self.groups.items()
                   if name.startswith(prefix))


def protocol_replay(envelopes: list, rounds: int = 5) -> tuple[float, float]:
    """Mean seconds to encode, and to decode, one captured envelope."""
    if not envelopes:
        return 0.0, 0.0
    from repro.net.protocol import FrameDecoder, encode_frame
    frames = [encode_frame(e) for e in envelopes]
    started = perf_counter()
    for _ in range(rounds):
        for envelope in envelopes:
            encode_frame(envelope)
    encode = (perf_counter() - started) / (rounds * len(envelopes))
    decoder = FrameDecoder()
    started = perf_counter()
    for _ in range(rounds):
        for frame in frames:
            for _envelope in decoder.feed(frame):
                pass
    decode = (perf_counter() - started) / (rounds * len(frames))
    return encode, decode
