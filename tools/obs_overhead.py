#!/usr/bin/env python3
"""Measure the observability layer's overhead on the hot editing paths.

Replays two workloads against engines with observability on and off:

* **C1 keystroke** — mid-document ``insert_after`` on a 2000-char
  document, straight against a default store (no collab layer; access
  logging on, as users run it).
* **collab keystroke** — the same keystroke through a two-session
  collaboration server, so the cost of causal-context propagation
  (trace-id stamping on notification envelopes, dispatch/deliver/apply
  span sites) is covered too.  With observability off every one of
  those sites must hit the null fast path.

The <10% acceptance bar applies to both paths (the exit code says so; CI
runs this as a step of the ``smoke-bench`` job); docs/OBSERVABILITY.md
quotes the measured numbers.

The **enabled** arm uses the default ``Database`` (live metrics
registry, tracer with no sinks); **disabled** passes
``Observability(enabled=False)`` so every instrumented site hits the
null-registry/null-span fast path.

Usage::

    PYTHONPATH=src python tools/obs_overhead.py [rounds] [keystrokes]
"""

from __future__ import annotations

import random
import statistics
import sys
from time import perf_counter

from repro.collab import CollaborationServer, EditorClient
from repro.db import Database
from repro.obs import Observability
from repro.text import DocumentStore

DOC_SIZE = 2000


def make_text(n: int, seed: int = 7) -> str:
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz     "
    return "".join(rng.choice(alphabet) for __ in range(n))


def run_round_store(enabled: bool, keystrokes: int) -> float:
    """Median per-keystroke latency against a fresh bare engine (C1)."""
    db = Database("ovh", obs=Observability(enabled=enabled))
    store = DocumentStore(db)
    handle = store.create("doc", "ana", text=make_text(DOC_SIZE))
    anchor = handle.char_oid_at(DOC_SIZE // 2)
    samples = []
    for __ in range(keystrokes):
        t0 = perf_counter()
        handle.insert_after(anchor, "x", "ana")
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def run_round_collab(enabled: bool, keystrokes: int) -> float:
    """Median per-keystroke latency through a two-session server."""
    db = Database("ovh", obs=Observability(enabled=enabled))
    server = CollaborationServer(db)
    server.register_user("ana")
    server.register_user("ben")
    ana = server.connect("ana")
    shared = ana.create_document("doc", text=make_text(DOC_SIZE))
    ben = server.connect("ben")
    active = EditorClient(ana, shared.doc)
    EditorClient(ben, shared.doc)
    active.move_to(DOC_SIZE // 2)
    samples = []
    for __ in range(keystrokes):
        t0 = perf_counter()
        active.type("x")
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def measure(run_round, rounds: int,
            keystrokes: int) -> tuple[float, float, float]:
    """Median latency per arm, and the overhead in percent.

    Rounds are paired — one enabled, one disabled, back to back,
    alternating which goes first — and the overhead is the median of
    the per-pair ratios: the machine's speed drifts between rounds
    (thermal, neighbours) by more than the effect being measured, but
    hardly within a pair.
    """
    results: dict[bool, list[float]] = {True: [], False: []}
    for i in range(rounds):
        for enabled in (True, False) if i % 2 == 0 else (False, True):
            results[enabled].append(run_round(enabled, keystrokes))
    ratios = [on / off for on, off in zip(results[True], results[False])]
    return (statistics.median(results[True]),
            statistics.median(results[False]),
            (statistics.median(ratios) - 1.0) * 100.0)


def report(label: str, on: float, off: float, overhead: float) -> float:
    print(f"{label}")
    print(f"  obs enabled : {on * 1e6:8.2f} us/keystroke (median)")
    print(f"  obs disabled: {off * 1e6:8.2f} us/keystroke (median)")
    print(f"  overhead    : {overhead:+.1f}% (median of paired rounds)")
    return overhead


def main(argv: list[str]) -> int:
    rounds = int(argv[1]) if len(argv) > 1 else 11
    keystrokes = int(argv[2]) if len(argv) > 2 else 400
    print(f"doc={DOC_SIZE} chars, {rounds} rounds x {keystrokes} keystrokes")
    c1 = report("C1 keystroke (store path)",
                *measure(run_round_store, rounds, keystrokes))
    collab = report("collab keystroke (two sessions, causal envelopes)",
                    *measure(run_round_collab, rounds, keystrokes))
    return 0 if max(c1, collab) < 10.0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
