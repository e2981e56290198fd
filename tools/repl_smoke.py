#!/usr/bin/env python3
"""Replication smoke check: real leader, real follower, real failover.

CI's guard on the WAL-shipping path.  The failover scenario makes four
assertions:

1. **convergence** — a ``repro serve`` leader and a
   ``repro serve --follow`` read replica, both real OS processes over
   loopback TCP.  Two typist clients interleave edits on one shared
   document through the leader; the follower must catch up to the
   leader's durable LSN (``repl.apply_lag_lsn`` scraped to 0).
2. **bounded lag** — while following, the replica's
   ``repl.apply_lag_seconds`` p99 (leader send stamp to follower apply)
   must stay under ``--lag-budget`` seconds.
3. **promotion** — SIGKILL the leader (no goodbye, no final flush
   beyond what group commit already made durable).  The follower must
   print ``PROMOTED <lsn>`` and start serving on its own port.
4. **consistent reads** — a fresh client against the promoted node
   must see exactly the converged document (every typist's keystrokes,
   correct length, intact char chain), and the promoted node must
   accept new writes and still shut down cleanly on SIGTERM.

Typing stops and the replica converges *before* the kill, so the
expected post-failover text is deterministic — this checks failover
fidelity, not which in-flight tail a crash happens to cut.

A second leg checks the other way out of a leader crash, **restarting
on the same log**: type through ``repro serve --wal``, SIGKILL it, start
``repro serve --wal`` again on the same file and port.  A fresh
``repro connect`` must read every ACKed keystroke and type more; the
file must hold one strictly increasing LSN history; and a follower
seeded with a copy of the crashed leader's log (a base backup — a
restarted leader does not serve pre-restart history) must subscribe
after the restart and converge on the extended log.

Usage::

    PYTHONPATH=src python tools/repl_smoke.py
    python tools/repl_smoke.py --rounds 40 --lag-budget 0.5
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from time import monotonic, sleep

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from proclib import (  # noqa: E402
    REPO,
    ServerProcess,
    repro_command,
    repro_env,
)

sys.path.insert(0, os.path.join(REPO, "src"))

DOC = "repl-smoke"


def scrape_repl(port: int) -> dict:
    """Follower scrape → (repl status dict, metrics snapshot)."""
    from repro.net import scrape

    payload = scrape("127.0.0.1", port, kind="stats", series=False)
    return payload.get("repl", {}), payload.get("metrics", {})


def run(args: argparse.Namespace) -> list:
    from repro.net import NetworkClient

    problems: list = []
    tmp = tempfile.mkdtemp(prefix="repl-smoke-")
    leader = ServerProcess(
        ["serve", "--wal", os.path.join(tmp, "leader.wal"),
         "--node", "leader", "--telemetry-interval", "0.2"],
        label="leader")
    follower = None
    try:
        problem = leader.wait_listening()
        if problem is not None:
            return [problem]

        follower = ServerProcess(
            ["serve", "--follow", f"127.0.0.1:{leader.port}",
             "--wal", os.path.join(tmp, "follower.wal"),
             "--node", "replica", "--telemetry-interval", "0.2"],
            label="follower")
        problem = follower.wait_listening()
        if problem is not None:
            return [problem]
        print(f"leader on :{leader.port}, follower on :{follower.port}")

        # Typist load through the leader: two interleaved editors.
        typists = (("ana", "a"), ("ben", "b"))
        expect = args.rounds * sum(len(t) for _, t in typists)
        clients = []
        for user, _ in typists:
            client = NetworkClient("127.0.0.1", leader.port, user,
                                   register=True)
            session = client.session()
            if not clients:
                handle = session.create_document(DOC)
            else:
                handle = session.open_named(DOC)
            clients.append((client, session, handle))
        for _ in range(args.rounds):
            for (client, session, handle), (_, token) in zip(clients,
                                                             typists):
                session.insert(handle.doc, handle.length(), token)
                client.poll(timeout=0.0)
        # Let both leader replicas converge, then hold the final text.
        deadline = monotonic() + args.settle
        while any(h.length() < expect for _, _, h in clients) \
                and monotonic() < deadline:
            for client, _, handle in clients:
                client.poll(timeout=0.05)
        final_text = clients[0][2].text()
        for client, _, _ in clients:
            client.close()
        if len(final_text) != expect:
            problems.append(f"leader never converged: "
                            f"{len(final_text)} != {expect} chars")

        # 1+2: replica convergence and bounded apply lag, via scrape.
        deadline = monotonic() + args.settle
        repl, metrics = {}, {}
        while monotonic() < deadline:
            repl, metrics = scrape_repl(follower.port)
            if repl.get("lag_lsn") == 0 and repl.get("applied_lsn", 0) > 0:
                break
            sleep(0.1)
        print(f"replica: applied_lsn={repl.get('applied_lsn')} "
              f"lag_lsn={repl.get('lag_lsn')} "
              f"records={repl.get('records_applied')}")
        if repl.get("lag_lsn") != 0:
            problems.append(f"replica never caught up: repl={repl}")
        lag = metrics.get("repl.apply_lag_seconds", {})
        p99 = lag.get("p99")
        if not lag.get("count"):
            problems.append("replica reported no repl.apply_lag_seconds "
                            "observations")
        elif p99 is None or p99 >= args.lag_budget:
            problems.append(f"apply lag p99 {p99}s >= "
                            f"{args.lag_budget}s budget")
        else:
            print(f"apply lag: p99 {p99 * 1000:.1f} ms over "
                  f"{lag['count']} segments")

        # 3: kill the leader dead; the follower must promote.
        leader.kill()
        tokens = follower.wait_for("PROMOTED", timeout=args.settle)
        if tokens is None:
            problems.append(f"follower never promoted "
                            f"(stderr: {follower.tail_stderr()})")
            return problems
        print(f"promoted at lsn {tokens[1]}")

        # 4: the promoted node serves the converged document.
        client = NetworkClient("127.0.0.1", follower.port, "reader",
                               register=True)
        try:
            handle = client.session().open_named(DOC)
            text = handle.text()
            if text != final_text:
                problems.append(
                    f"promoted replica diverged: {len(text)} chars vs "
                    f"{len(final_text)} pre-failover")
            for user, token in typists:
                if text.count(token) < args.rounds:
                    problems.append(f"promoted replica lost keystrokes "
                                    f"from {user}")
            if handle.check_integrity():
                problems.append("promoted replica's char chain is broken")
            client.session().insert(handle.doc, handle.length(), "!")
            if handle.length() != expect + 1:
                problems.append("promoted replica rejected a new write")
        finally:
            client.close()
        print(f"promoted node serves {len(final_text)} chars and "
              f"accepts writes")
    finally:
        if leader.proc.poll() is None:
            leader.kill()
        if follower is not None:
            problem = follower.shutdown()
            if problem is not None:
                problems.append(problem)
    return problems


def run_restart(args: argparse.Namespace) -> list:
    """The leader-restart leg (see the module docstring)."""
    from repro.db.wal import WriteAheadLog
    from repro.net import NetworkClient

    problems: list = []
    tmp = tempfile.mkdtemp(prefix="repl-smoke-restart-")
    wal = os.path.join(tmp, "leader.wal")
    serve = ["serve", "--wal", wal, "--node", "leader",
             "--telemetry-interval", "0.2"]
    first = ServerProcess(serve, label="leader")
    second = follower = None
    try:
        problem = first.wait_listening()
        if problem is not None:
            return [problem]
        client = NetworkClient("127.0.0.1", first.port, "ana",
                               register=True)
        session = client.session()
        handle = session.create_document(DOC)
        for _ in range(args.rounds):
            session.insert(handle.doc, handle.length(), "a")  # ACKed
        acked = handle.text()
        client.close(send_bye=False)
        first.kill()
        pre_crash = WriteAheadLog.load_file(wal)
        seed_mirror = os.path.join(tmp, "follower.wal")
        shutil.copyfile(wal, seed_mirror)

        second = ServerProcess([*serve, "--port", str(first.port)],
                               label="restarted leader")
        problem = second.wait_listening()
        if problem is not None:
            return [problem]
        print(f"leader restarted on :{second.port} over "
              f"{len(pre_crash)} pre-crash records")

        connect = subprocess.run(
            repro_command("connect", "--port", str(second.port),
                          "--user", "ana", "--doc", DOC, "--type", "+more"),
            capture_output=True, text=True, env=repro_env(), timeout=60)
        text = connect.stdout.split("---\n", 1)[-1].rstrip("\n")
        if connect.returncode != 0:
            problems.append(f"repro connect failed after the restart: "
                            f"{connect.stderr.strip()[-300:]}")
        elif text != acked + "+more":
            problems.append(
                f"restarted leader lost ACKed text or the new write: "
                f"{len(text)} chars vs {len(acked)} ACKed + 5 typed")

        follower = ServerProcess(
            ["serve", "--follow", f"127.0.0.1:{second.port}",
             "--wal", seed_mirror, "--node", "replica",
             "--telemetry-interval", "0.2"],
            label="late follower")
        problem = follower.wait_listening()
        if problem is not None:
            return problems + [problem]
        deadline = monotonic() + args.settle
        repl: dict = {}
        while monotonic() < deadline:
            repl, _ = scrape_repl(follower.port)
            if repl.get("lag_lsn") == 0 \
                    and repl.get("applied_lsn", 0) > pre_crash[-1].lsn:
                break
            sleep(0.1)
        else:
            problems.append(f"follower subscribed after the restart "
                            f"never converged: repl={repl}")
        print(f"late follower: applied_lsn={repl.get('applied_lsn')} "
              f"(pre-crash tail {pre_crash[-1].lsn})")
    finally:
        for proc in (follower, second):
            if proc is not None:
                problem = proc.shutdown()
                if problem is not None:
                    problems.append(problem)
        if first.proc.poll() is None:
            first.kill()
    lsns = [r.lsn for r in WriteAheadLog.load_file(wal)]
    if lsns != sorted(set(lsns)):
        problems.append("the restarted leader's log is not one strictly "
                        "increasing LSN history")
    mirror_lsns = [r.lsn for r in WriteAheadLog.load_file(seed_mirror)]
    if mirror_lsns != lsns[:len(mirror_lsns)] or len(mirror_lsns) <= \
            len(pre_crash):
        problems.append("the late follower's mirror is not a prefix of "
                        "the restarted leader's log")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=25,
                        help="keystroke tokens per typist")
    parser.add_argument("--settle", type=float, default=20.0,
                        help="max seconds for each convergence wait")
    parser.add_argument("--lag-budget", type=float, default=1.0,
                        help="replica apply-lag p99 budget, seconds")
    args = parser.parse_args(argv)

    problems = run(args) + run_restart(args)
    for problem in problems:
        print(f"repl smoke FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("repl smoke OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
