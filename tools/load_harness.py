#!/usr/bin/env python3
"""Load harness: N client processes x M typists against one server.

Measures what the paper claims scales — many editors on one document —
in the real topology: a ``repro serve`` subprocess and ``--procs``
worker OS processes, each driving ``--typists`` independent
:class:`~repro.net.NetworkClient` connections (one per simulated
editor), all typing into one shared document.

Reported per run:

* **durable keystroke throughput** — committed-and-ACKed inserts per
  second across the fleet (every ACK carries the durable LSN, so each
  counted keystroke survived the WAL);
* **notify latency** — keystroke-to-remote-replica p50/p95/p99 from
  NOTIFY timestamps;
* **convergence** — after a settle phase every replica must hold the
  same text (hash compared across all clients in all processes).

Usage::

    PYTHONPATH=src python tools/load_harness.py
    python tools/load_harness.py --procs 4 --typists 3 --rounds 50
    python tools/load_harness.py --net-seed 7331   # faulted delivery
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

DOC = "load-harness"


# ----------------------------------------------------------------------
# Worker child: one process, M typist connections
# ----------------------------------------------------------------------

def run_worker(args: argparse.Namespace) -> int:
    from repro.net import NetworkClient

    clients = []
    try:
        for t in range(args.typists):
            user = f"w{args.worker}t{t}"
            client = NetworkClient("127.0.0.1", args.port, user,
                                   register=True)
            session = client.session()
            handle = session.open_named(DOC)
            clients.append((client, session, handle))

        token = chr(ord("a") + args.worker % 26)
        latencies: list[float] = []
        typed = 0
        started = monotonic()
        for _ in range(args.rounds):
            for client, session, handle in clients:
                session.insert(handle.doc, handle.length(), token)
                typed += 1
                latencies.extend(n.latency
                                 for n in client.poll(timeout=0.0))
        typing_seconds = monotonic() - started

        # Settle: every replica must reach the fleet-wide total.
        deadline = monotonic() + args.settle
        last_sync = monotonic()
        while any(h.length() < args.expect_length
                  for _, _, h in clients):
            if monotonic() > deadline:
                break
            for client, _, handle in clients:
                latencies.extend(n.latency
                                 for n in client.poll(timeout=0.01))
                if monotonic() - last_sync > 0.5:
                    client.sync(handle.doc)
            if monotonic() - last_sync > 0.5:
                last_sync = monotonic()

        digests = [hashlib.sha256(h.text().encode()).hexdigest()
                   for _, _, h in clients]
        lengths = [h.length() for _, _, h in clients]
        result = {
            "worker": args.worker,
            "typed": typed,
            "typing_seconds": typing_seconds,
            "latencies": latencies,
            "digests": digests,
            "lengths": lengths,
            "resyncs": sum(m.resyncs
                           for c, _, _ in clients
                           for m in c.mirrors.values()),
        }
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out)
        return 0
    finally:
        for client, _, _ in clients:
            client.close()


# ----------------------------------------------------------------------
# Orchestrating parent
# ----------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def run_fleet(args: argparse.Namespace) -> int:
    from repro.net import NetworkClient

    env = repro_env()
    serve_args = ["serve"]
    if args.net_seed is not None:
        serve_args += ["--net-seed", str(args.net_seed)]
    if args.wal:
        serve_args += ["--wal", args.wal]
    expect = args.procs * args.typists * args.rounds

    server = ServerProcess(serve_args, env=env)
    workers, outs = [], []
    failures = 0
    try:
        problem = server.wait_listening()
        if problem is not None:
            print(problem, file=sys.stderr)
            return 1
        port = server.port

        setup = NetworkClient("127.0.0.1", port, "harness", register=True)
        try:
            setup.session().create_document(DOC)
        finally:
            setup.close()

        started = monotonic()
        for w in range(args.procs):
            fd, out_path = tempfile.mkstemp(suffix=".json")
            os.close(fd)
            outs.append(out_path)
            workers.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 "--role", "worker", "--worker", str(w),
                 "--port", str(port), "--typists", str(args.typists),
                 "--rounds", str(args.rounds),
                 "--settle", str(args.settle),
                 "--expect-length", str(expect), "--out", out_path],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env))

        results = []
        for w, (worker, out_path) in enumerate(zip(workers, outs)):
            try:
                _, err = worker.communicate(timeout=args.timeout)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.communicate()
                print(f"worker {w} hung", file=sys.stderr)
                failures += 1
                continue
            if worker.returncode != 0:
                tail = err.strip().splitlines()[-1] if err.strip() else ""
                print(f"worker {w} exited {worker.returncode}: {tail}",
                      file=sys.stderr)
                failures += 1
                continue
            with open(out_path, "r", encoding="utf-8") as handle:
                results.append(json.load(handle))
        elapsed = monotonic() - started

        if results:
            typed = sum(r["typed"] for r in results)
            typing = max(r["typing_seconds"] for r in results)
            latencies = [lat for r in results for lat in r["latencies"]]
            digests = {d for r in results for d in r["digests"]}
            lengths = sorted({n for r in results for n in r["lengths"]})
            converged = len(digests) == 1 and lengths == [expect]
            print(f"fleet        : {args.procs} procs x {args.typists} "
                  f"typists, {args.rounds} keystrokes each")
            print(f"durable ops  : {typed} keystrokes in {typing:.2f}s "
                  f"typing ({typed / typing:,.0f} ops/s fleet-wide)")
            if latencies:
                print(f"notify p50   : "
                      f"{_percentile(latencies, 0.5) * 1000:.2f} ms")
                print(f"notify p95   : "
                      f"{_percentile(latencies, 0.95) * 1000:.2f} ms")
                print(f"notify p99   : "
                      f"{_percentile(latencies, 0.99) * 1000:.2f} ms")
            print(f"resyncs      : {sum(r['resyncs'] for r in results)}")
            print(f"converged    : {converged} "
                  f"({len(digests)} digest(s), lengths {lengths})")
            print(f"wall clock   : {elapsed:.2f}s")
            if not converged:
                failures += 1
    finally:
        problem = server.shutdown()
        if problem is not None:
            print(problem, file=sys.stderr)
            failures += 1
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
        for out_path in outs:
            try:
                os.unlink(out_path)
            except OSError:
                pass
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("fleet", "worker"),
                        default="fleet")
    parser.add_argument("--procs", type=int, default=3,
                        help="client OS processes")
    parser.add_argument("--typists", type=int, default=2,
                        help="editor connections per process")
    parser.add_argument("--rounds", type=int, default=30,
                        help="keystrokes per typist")
    parser.add_argument("--settle", type=float, default=15.0)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--net-seed", type=int, default=None,
                        help="seed of the server's delivery fault plan "
                             "(drop/hold/reorder what readers are "
                             "handed)")
    parser.add_argument("--wal", default=None,
                        help="server WAL file (durability on real disk)")
    # worker-role plumbing
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--expect-length", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.role == "worker":
        return run_worker(args)
    return run_fleet(args)


if __name__ == "__main__":
    sys.exit(main())
