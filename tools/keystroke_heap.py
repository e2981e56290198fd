#!/usr/bin/env python3
"""What one keystroke leaves on the heap, and what the collector pays for it.

Drives N typed characters through the public API — two sessions sharing
one 30 000-character document on an in-process collaboration server, the
shape of the ``local_edit_mix`` bench workload — and reports what no
per-layer latency metric shows: memory retained per operation and the
cyclic collector's share of the window.

* **retained bytes/op** — ``tracemalloc`` traced-memory growth across the
  window (after a full collection on both ends) divided by the ops;
* **retained GC-tracked objects/op** — growth of ``len(gc.get_objects())``
  across the same two points;
* **GC share, collections and max pause per generation** — from one
  ``gc.callbacks`` timer, measured in a second, untraced window so
  ``tracemalloc``'s own overhead does not inflate the pauses.

Usage::

    PYTHONPATH=src python tools/keystroke_heap.py [ops] [--json]

The set-up corpus is ``gc.freeze()``-d before each window, as the repo
benchmark does, so the numbers describe the keystrokes, not the corpus.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import tracemalloc
from time import perf_counter

from repro.collab import CollaborationServer, EditorClient

DOC_CHARS = 30000
DEFAULT_OPS = 15000


def make_text(n: int, seed: int = 7) -> str:
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz     "
    return "".join(rng.choice(alphabet) for __ in range(n))


def build(doc_chars: int = DOC_CHARS):
    """A server, two editors on one document, and a typing closure."""
    server = CollaborationServer()
    for user in ("ana", "ben"):
        server.register_user(user)
    sessions = [server.connect("ana"), server.connect("ben")]
    handle = sessions[0].create_document("heap", text=make_text(doc_chars))
    editors = [EditorClient(s, handle.doc) for s in sessions]
    rng = random.Random(11)

    def type_one(i: int) -> None:
        editor = editors[i & 1]
        editor.move_to(rng.randrange(editor.handle.length() + 1))
        editor.type("x")
        for session in sessions:
            session.notifications()

    return server, type_one


class GcTimer:
    """Times every collection through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses: dict[int, list[float]] = {0: [], 1: [], 2: []}
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pauses[info["generation"]].append(
                perf_counter() - self._started)

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def retained(ops: int, doc_chars: int = DOC_CHARS) -> dict:
    """Bytes and GC-tracked objects the window's ops left behind."""
    server, type_one = build(doc_chars)
    try:
        for i in range(200):  # warm caches, lazy metric children
            type_one(i)
        gc.collect()
        gc.freeze()
        tracemalloc.start()
        try:
            objects_before = len(gc.get_objects())
            bytes_before = tracemalloc.get_traced_memory()[0]
            for i in range(ops):
                type_one(i)
            gc.collect()
            bytes_after = tracemalloc.get_traced_memory()[0]
            objects_after = len(gc.get_objects())
        finally:
            tracemalloc.stop()
            gc.unfreeze()
        return {
            "retained_bytes_per_op": (bytes_after - bytes_before) / ops,
            "retained_objects_per_op":
                (objects_after - objects_before) / ops,
        }
    finally:
        server.shutdown()


def gc_cost(ops: int, doc_chars: int = DOC_CHARS) -> dict:
    """The collector's share of an untraced window of ``ops`` keystrokes."""
    server, type_one = build(doc_chars)
    try:
        for i in range(200):
            type_one(i)
        gc.collect()
        gc.freeze()
        try:
            with GcTimer() as timer:
                started = perf_counter()
                for i in range(ops):
                    type_one(i)
                window = perf_counter() - started
        finally:
            gc.unfreeze()
        total = sum(sum(p) for p in timer.pauses.values())
        return {
            "window_s": window,
            "ops_per_s": ops / window,
            "gc_share": total / window,
            "generations": {
                str(gen): {"collections": len(pauses),
                           "max_pause_ms": max(pauses, default=0.0) * 1e3,
                           "total_ms": sum(pauses) * 1e3}
                for gen, pauses in timer.pauses.items()
            },
        }
    finally:
        server.shutdown()


def measure(ops: int = DEFAULT_OPS) -> dict:
    report = {"ops": ops, "doc_chars": DOC_CHARS}
    report.update(retained(ops))
    gc.collect()
    report.update(gc_cost(ops))
    return report


def main(argv: list[str]) -> int:
    as_json = "--json" in argv
    args = [a for a in argv if not a.startswith("--")]
    ops = int(args[0]) if args else DEFAULT_OPS
    report = measure(ops)
    if as_json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"{ops} keystrokes, two sessions, {DOC_CHARS}-char document")
    print(f"  retained bytes/op            "
          f"{report['retained_bytes_per_op']:10.0f} B")
    print(f"  retained GC-tracked objs/op  "
          f"{report['retained_objects_per_op']:10.1f}")
    print(f"  window                       {report['window_s']:10.2f} s"
          f"  ({report['ops_per_s']:.0f} ops/s)")
    print(f"  GC share of the window       {report['gc_share']:10.1%}")
    for gen, row in report["generations"].items():
        print(f"  gen {gen}: {row['collections']:5d} collections, "
              f"max pause {row['max_pause_ms']:8.2f} ms, "
              f"total {row['total_ms']:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
