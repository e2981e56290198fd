#!/usr/bin/env python3
"""Network smoke check: real server process, real client processes.

CI's guard on the out-of-process collaboration path.  Two legs:

* **clean** — a ``repro serve`` subprocess plus two typist client
  processes (an ``EditorClient`` each: cursor, awareness and all)
  interleaving edits on one shared document over loopback TCP.  Fails
  on divergent replicas, any resync, notification p99 >= 1 s, an
  unclean server shutdown (SIGTERM must exit 0 after ``STOPPED``) — or
  a keystroke that costs more than OP, ACK, NOTIFY: the server's own
  frame and byte counters, read over the scrape lane before and after
  the typing, must stay within ``FRAMES_PER_KEYSTROKE`` and
  ``BYTES_PER_KEYSTROKE``.
* **faulted** — same topology with a seeded socket fault plan
  (``--net-seed``: dropped / delayed / reordered change frames).
  Judged on counters, not on the clock: the plan must have fired
  (``net.frames_dropped`` and ``net.frames_delayed`` > 0), the mirrors
  must have healed through a bounded number of resyncs
  (``RESYNC_RANGE``), no protocol error, no patch without a base, both
  replicas the same SHA-256 — and the server must still shut down
  cleanly.

Both legs also scrape STATS and HEALTH from this (separate) process
while the server is still running: a telemetry snapshot, valid
Prometheus text and the ``net.faults`` health check must be there; the
clean leg must report ``ok``.  (That the verdict *degrades* under
faults and recovers is a windowed, clock-driven property: it is tested
on a controlled clock in ``tests/test_net_stats.py``, not here.)

The typists are *this script* re-invoked with ``--role typist``: one
OS process per editor, the paper's actual topology, no shared memory.

Usage::

    PYTHONPATH=src python tools/net_smoke.py
    python tools/net_smoke.py --rounds 40 --net-seed 7331
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from time import monotonic

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from proclib import REPO, ServerProcess, repro_env  # noqa: E402

sys.path.insert(0, os.path.join(REPO, "src"))

#: Acceptance bar: keystroke-to-remote-replica visibility, worst case
#: (clean leg; the faulted leg's latencies are the plan's, not ours).
P99_BUDGET_SECONDS = 1.0

#: A typed character is three frames (OP, ACK, one NOTIFY to the other
#: typist) of ~1.2 kB together; the margin covers the run's fixed frames
#: (two handshakes, opens, a cursor move each, pings, goodbyes).  A
#: fourth frame per keystroke creeping back reads >= 4.
FRAMES_PER_KEYSTROKE = 3.3
BYTES_PER_KEYSTROKE = 1600

#: Client resyncs the faulted leg may take, both typists together: at
#: least one (the plan drops frames, so a mirror that never resynced
#: did not notice), and no resync storm.
RESYNC_RANGE = (1, 40)


# ----------------------------------------------------------------------
# Typist child process
# ----------------------------------------------------------------------

def run_typist(args: argparse.Namespace) -> int:
    """Type ``--rounds`` tokens into the shared doc, settle, report."""
    from repro.collab import EditorClient
    from repro.net import NetworkClient

    client = NetworkClient("127.0.0.1", args.port, args.user, register=True)
    try:
        session = client.session()
        handle = session.open_named(args.doc)
        doc = handle.doc
        editor = EditorClient(session, doc)
        editor.move_end()
        latencies: list[float] = []
        for _ in range(args.rounds):
            editor.type(args.token)
            latencies.extend(n.latency for n in client.poll(timeout=0.0))
        # Settle: drain until the replica holds every typist's keystrokes.
        # A lane that has gone quiet short of that lost frames: heal
        # through an anti-entropy resync (never while deltas still flow).
        deadline = monotonic() + args.settle
        last_progress = monotonic()
        while handle.length() < args.expect_length:
            if monotonic() > deadline:
                break
            notes = client.poll(timeout=0.05)
            latencies.extend(n.latency for n in notes)
            if notes:
                last_progress = monotonic()
            elif monotonic() - last_progress > 0.5:
                client.sync(doc)
                last_progress = monotonic()
        latencies.extend(n.latency for n in client.poll(timeout=0.0))
        mirrors = list(client.mirrors.values())
        result = {
            "user": args.user,
            "text": handle.text(),
            "sha": hashlib.sha256(handle.text().encode()).hexdigest(),
            "length": handle.length(),
            "authors": sorted(handle.authors()),
            "chain_intact": not handle.check_integrity(),
            "latencies": latencies,
            "resyncs": sum(m.resyncs for m in mirrors),
            "missing_base": sum(m.missing_base for m in mirrors),
            "ping": client.ping(),
        }
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out)
        return 0 if result["length"] == args.expect_length else 2
    finally:
        client.close()


# ----------------------------------------------------------------------
# Orchestrating parent
# ----------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def net_counters(port: int) -> dict:
    """The server's ``net.*`` counters, read over the scrape lane."""
    from repro.net import scrape

    metrics = scrape("127.0.0.1", port, kind="stats", series=False)["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()
            if name.startswith("net.") and "value" in metric}


def keystroke_cost(port: int, typing, keystrokes: int) -> tuple:
    """(frames, bytes) per keystroke over ``typing()``, from the server's
    own counters.  A scrape counts itself — its request on the way in,
    its reply only after the snapshot was cut — so the window holds one
    reply and one request that are not the typists'; a calibration
    scrape right before measures exactly those and they are taken out.
    """
    zero = net_counters(port)
    before = net_counters(port)
    typing()
    after = net_counters(port)

    def moved(a: dict, b: dict, *names: str) -> float:
        return sum(b[name] - a[name] for name in names)

    frames = moved(before, after, "net.frames_in", "net.frames_out") \
        - moved(zero, before, "net.frames_in", "net.frames_out")
    wire = moved(before, after, "net.bytes_in", "net.bytes_out") \
        - moved(zero, before, "net.bytes_in", "net.bytes_out")
    return frames / keystrokes, wire / keystrokes


def check_scrape(label: str, port: int, *,
                 expect_ok: bool) -> list[str]:
    """STATS + HEALTH from this process against the serve subprocess."""
    from repro.net import scrape

    problems: list[str] = []
    # The serve-side sampler ticks every 0.2 s; give it a moment to
    # take its first samples before judging the snapshot.
    deadline = monotonic() + 5.0
    while True:
        stats = scrape("127.0.0.1", port, kind="stats")
        telemetry = stats.get("telemetry") or {}
        if telemetry.get("series") or monotonic() > deadline:
            break
    if not stats.get("metrics"):
        problems.append(f"{label}: STATS scrape returned no metrics")
    if not telemetry.get("series"):
        problems.append(f"{label}: STATS scrape has no telemetry series")
    prom = scrape("127.0.0.1", port, kind="stats", fmt="prom")
    if not isinstance(prom, str) or "# TYPE tendax_net_ops counter" \
            not in prom:
        problems.append(f"{label}: Prometheus exposition malformed")
    health = scrape("127.0.0.1", port, kind="health")
    status = health.get("status")
    checks = {c.get("check") for c in health.get("checks", [])}
    print(f"{label}: scrape ok — {len(telemetry.get('series', {}))} "
          f"series, health {status}")
    if "net.faults" not in checks:
        problems.append(f"{label}: health missing the net.faults check")
    if expect_ok and status != "ok":
        problems.append(f"{label}: health is {status!r} on the clean leg")
    return problems


def check_fault_counters(label: str, port: int, resyncs: int) -> list[str]:
    """The faulted leg's verdict, from counters only: the plan fired, the
    mirrors noticed and healed, and nothing else went wrong."""
    counters = net_counters(port)
    print(f"{label}: {counters['net.frames_dropped']} dropped, "
          f"{counters['net.frames_delayed']} delayed, "
          f"{counters['net.resyncs']} resyncs served")
    problems = []
    for name in ("net.frames_dropped", "net.frames_delayed"):
        if counters[name] <= 0:
            problems.append(f"{label}: {name} is 0 — the seeded plan "
                            f"never fired")
    low, high = RESYNC_RANGE
    if not low <= resyncs <= high:
        problems.append(f"{label}: {resyncs} client resyncs, expected "
                        f"{low}..{high}")
    if counters["net.resyncs"] < resyncs:
        problems.append(f"{label}: server served "
                        f"{counters['net.resyncs']} resyncs, clients "
                        f"loaded {resyncs}")
    for name in ("net.protocol_errors", "net.missing_base_rows",
                 "net.backpressure_closes"):
        if counters[name]:
            problems.append(f"{label}: {name} = {counters[name]}")
    return problems


def run_leg(label: str, *, rounds: int, settle: float,
            net_seed: int | None, timeout: float) -> list[str]:
    from repro.net import NetworkClient

    env = repro_env()
    serve_args = ["serve", "--telemetry-interval", "0.2"]
    if net_seed is not None:
        serve_args += ["--net-seed", str(net_seed)]
    problems: list[str] = []
    doc_name = f"smoke-{label}"
    typists = (("ana", "a"), ("ben", "b"))
    expect = rounds * sum(len(token) for _, token in typists)

    server = ServerProcess(serve_args, label=f"{label}: server", env=env)
    outs = []
    children = []
    try:
        problem = server.wait_listening()
        if problem is not None:
            return [problem]
        port = server.port

        # Rendezvous: create the shared document once, before any typist
        # races another into creating a same-named duplicate.
        setup = NetworkClient("127.0.0.1", port, "smoke", register=True)
        try:
            setup.session().create_document(doc_name)
        finally:
            setup.close()

        results = []

        def typing() -> None:
            """Run both typist processes to completion."""
            for user, token in typists:
                fd, out_path = tempfile.mkstemp(suffix=".json")
                os.close(fd)
                outs.append(out_path)
                children.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__),
                     "--role", "typist", "--port", str(port),
                     "--user", user, "--token-text", token,
                     "--doc", doc_name, "--rounds", str(rounds),
                     "--settle", str(settle),
                     "--expect-length", str(expect), "--out", out_path],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, env=env))
            started = monotonic()
            for (user, _), child, out_path in zip(typists, children, outs):
                budget = max(1.0, timeout - (monotonic() - started))
                try:
                    _, err = child.communicate(timeout=budget)
                except subprocess.TimeoutExpired:
                    child.kill()
                    _, err = child.communicate()
                    problems.append(f"{label}: typist {user} hung")
                    continue
                if child.returncode != 0:
                    tail = err.strip().splitlines()[-1] if err.strip() \
                        else ""
                    problems.append(f"{label}: typist {user} exited "
                                    f"{child.returncode} ({tail})")
                try:
                    with open(out_path, "r", encoding="utf-8") as handle:
                        results.append(json.load(handle))
                except (OSError, ValueError):
                    problems.append(
                        f"{label}: typist {user} wrote no result")

        frames, wire = keystroke_cost(port, typing, expect)
        print(f"{label}: {frames:.2f} frames and {wire:.0f} bytes per "
              f"keystroke ({expect} keystrokes)")
        if net_seed is None:
            if frames > FRAMES_PER_KEYSTROKE:
                problems.append(
                    f"{label}: {frames:.2f} frames per keystroke "
                    f"> {FRAMES_PER_KEYSTROKE} — a keystroke is OP, ACK, "
                    f"NOTIFY")
            if wire > BYTES_PER_KEYSTROKE:
                problems.append(
                    f"{label}: {wire:.0f} bytes per keystroke "
                    f"> {BYTES_PER_KEYSTROKE}")

        if len(results) == len(typists):
            texts = {r["sha"] for r in results}
            if len(texts) != 1:
                problems.append(
                    f"{label}: replicas diverged: "
                    f"{[r['text'][:40] for r in results]}")
            else:
                text = results[0]["text"]
                if len(text) != expect:
                    problems.append(f"{label}: converged text has "
                                    f"{len(text)} chars, expected {expect}")
                for user, token in typists:
                    if text.count(token) < rounds:
                        problems.append(f"{label}: lost keystrokes from "
                                        f"{user}")
            for r in results:
                if not r["chain_intact"]:
                    problems.append(f"{label}: {r['user']}'s replica "
                                    f"chain is broken")
            latencies = [lat for r in results for lat in r["latencies"]]
            if latencies:
                p99 = _percentile(latencies, 0.99)
                if net_seed is None and p99 >= P99_BUDGET_SECONDS:
                    problems.append(f"{label}: notify p99 {p99:.3f}s "
                                    f">= {P99_BUDGET_SECONDS}s")
                print(f"{label}: {len(latencies)} notifies, "
                      f"p50 {_percentile(latencies, 0.5) * 1000:.1f} ms, "
                      f"p99 {p99 * 1000:.1f} ms")
            resyncs = sum(r["resyncs"] for r in results)
            print(f"{label}: converged at {expect} chars, "
                  f"{resyncs} client resync(s), "
                  f"ping {min(r['ping'] for r in results) * 1000:.2f} ms")
            if net_seed is None and resyncs:
                problems.append(f"{label}: resync on the clean leg — the "
                                f"delta path dropped frames")
            if any(r["missing_base"] for r in results):
                problems.append(f"{label}: a row patch arrived without "
                                f"its base")
            if net_seed is not None:
                problems += check_fault_counters(label, port, resyncs)
        # Scrape while the server is still serving: telemetry + health
        # from a second process.
        try:
            problems += check_scrape(label, port,
                                     expect_ok=net_seed is None)
        except Exception as exc:  # noqa: BLE001 - any scrape crash fails
            problems.append(f"{label}: scrape failed: {exc!r}")
    finally:
        problem = server.shutdown()
        if problem is not None:
            problems.append(problem)
        for child in children:
            if child.poll() is None:
                child.kill()
        for out_path in outs:
            try:
                os.unlink(out_path)
            except OSError:
                pass
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("orchestrate", "typist"),
                        default="orchestrate")
    parser.add_argument("--rounds", type=int, default=100,
                        help="keystroke tokens per typist")
    parser.add_argument("--settle", type=float, default=10.0,
                        help="max seconds a typist waits for convergence")
    parser.add_argument("--net-seed", type=int, default=20061131,
                        help="seed for the faulted leg's socket plan")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-leg wall-clock budget")
    # typist-role plumbing
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--user", default="typist")
    parser.add_argument("--token-text", dest="token", default="x")
    parser.add_argument("--doc", default="smoke")
    parser.add_argument("--expect-length", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.role == "typist":
        return run_typist(args)

    problems = run_leg("clean", rounds=args.rounds, settle=args.settle,
                       net_seed=None, timeout=args.timeout)
    problems += run_leg(f"faulted(seed={args.net_seed})",
                        rounds=args.rounds, settle=args.settle,
                        net_seed=args.net_seed, timeout=args.timeout)
    for problem in problems:
        print(f"net smoke FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("net smoke OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
