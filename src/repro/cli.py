"""Command-line interface: ``python -m repro <command>``.

Small drivers over the library for kicking the tyres without writing
code:

* ``lan-party`` — run the simulated multi-editor party and print the
  convergence report;
* ``portal`` — build a knowledge base and print dynamic folders, the
  lineage tree (Fig. 1) and the document-space map (Fig. 2);
* ``search`` — build a corpus and run a query against it;
* ``stats`` — corpus/database statistics for a generated workload
  (``--format json`` for the raw metrics snapshot, ``prom`` for the
  Prometheus text exposition);
* ``trace`` — run a traced two-editor scenario and inspect the causal
  keystroke→remote-visibility traces (ASCII tree, JSONL or Chrome
  trace-event output);
* ``serve`` — run the out-of-process collaboration server on a TCP
  port (prints ``LISTENING <port>`` once bound, for scripts);
* ``connect`` — connect to a running server, type into a named
  document and print what the replica sees;
* ``top HOST:PORT`` — scrape STATS + HEALTH from a running node (a
  leader or a follower) and render one frame: health verdict, hot
  paths, replication role and lag, changefeed consumer lag and the
  windowed trend table (``--format json`` for the raw STATS payload,
  ``prom`` for the Prometheus text).

``top --watch`` and ``connect --watch`` pace their refresh loops
through :data:`WATCH_CLOCK` (a :class:`~repro.clock.Clock`) so tests
can swap in a :class:`~repro.clock.SimulatedClock` and drive the loops
deterministically.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Sequence

from .clock import Clock, SystemClock

#: Clock behind every ``--watch`` loop.  Production leaves the default
#: SystemClock in place; tests swap in a SimulatedClock so watch loops
#: terminate without real sleeping.
WATCH_CLOCK: Clock = SystemClock()


def _watch_sleep(seconds: float) -> None:
    """Sleep on WATCH_CLOCK: advance a simulated clock, else real sleep."""
    advance = getattr(WATCH_CLOCK, "advance", None)
    if advance is not None:
        advance(seconds)
        return
    import time

    time.sleep(seconds)


def _cmd_lan_party(args: argparse.Namespace) -> int:
    from .workload import run_lan_party
    report = run_lan_party(rounds=args.rounds, seed=args.seed,
                           measure_latency=True)
    print(f"participants : {', '.join(report.participants)}")
    print(f"operations   : {report.operations}")
    print(f"throughput   : {report.ops_per_second:,.0f} ops/s")
    print(f"final length : {report.final_length} chars")
    print(f"converged    : {report.converged}")
    print(f"chain intact : {report.chain_intact}")
    if report.op_latencies:
        median = statistics.median(report.op_latencies) * 1000
        print(f"median op    : {median:.2f} ms")
    return 0 if report.converged and report.chain_intact else 1


def _cmd_portal(args: argparse.Namespace) -> int:
    from .folders import CreatorIs, DynamicFolderManager, StateIs
    from .lineage import LineageGraph, ascii_lineage
    from .mining import VisualMiner
    from .workload import build_knowledge_base

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    db = kb.server.db
    folders = DynamicFolderManager(db)
    for user in kb.users:
        folders.create_folder(f"{user}'s documents", CreatorIs(user))
    folders.create_folder("finals", StateIs("final"))
    print("# Dynamic folders")
    for folder in folders.folders():
        print(f"  {folder.name:<20} {len(folder):>3} docs")
    lineage = LineageGraph(db)
    target = max(kb.handles, key=lambda h: len(lineage.sources_of(h.doc)))
    print("\n# Data lineage (Fig. 1)")
    print(ascii_lineage(lineage, target.doc))
    print("\n# Document space (Fig. 2)")
    doc_map = VisualMiner(db, seed=args.seed).build_map()
    print(doc_map.ascii_scatter(width=60, height=14))
    print(doc_map.stats())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .errors import SearchError
    from .search import SearchEngine
    from .workload import build_knowledge_base

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    engine = SearchEngine(kb.server.db)
    try:
        results = engine.search(args.query, ranking=args.ranking,
                                limit=args.limit)
    except SearchError as exc:
        raise SystemExit(f"repro search: {exc}") from None
    print(engine.render_results(results))
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) -> (host, port), for argparse."""
    host, __, port = spec.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = 0
    if not 1 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not HOST:PORT with a port in 1-65535")
    return host or "127.0.0.1", number


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs import prometheus_text, render_snapshot
    from .workload import build_knowledge_base

    db = build_knowledge_base(n_docs=args.docs, seed=args.seed).server.db
    payload = db.metrics_snapshot()
    if args.format == "prom":
        sys.stdout.write(prometheus_text(payload))
    elif args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"node          : {db.node}")
        print(f"tables        : {len(db.tables())}")
        print(f"total rows    : {db.catalog.total_rows()}")
        print(f"transactions  : {db.stats['transactions']}")
        print(f"commits       : {db.stats['commits']}")
        print(f"wal records   : {db.wal.last_lsn()}")
        print("per-table rows:")
        for info in db.catalog.iter_tables():
            print(f"  {info.name:<18} {info.row_count:>7} rows, "
                  f"{len(info.index_names)} index(es)")
        print("\nengine metrics:")
        print(render_snapshot(payload))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os
    import tempfile

    from .obs import chrome_trace, render_trace, spans_to_jsonl
    from .workload import run_traced_duet

    faults = None
    if args.hold_seed is not None:
        from .faults import FaultInjector, FaultPlan
        faults = FaultInjector(FaultPlan.delivery_only(args.hold_seed))
    slow = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    # A real WAL file makes the fsync leg show up in every trace.
    fd, wal_path = tempfile.mkstemp(suffix=".wal")
    os.close(fd)
    try:
        __, buffer = run_traced_duet(text=args.text, faults=faults,
                                     slow_threshold=slow, wal_path=wal_path)
    finally:
        os.unlink(wal_path)
    traces = buffer.traces()
    if args.slow_ms is not None:
        traces = buffer.slow_ops()
    if args.trace is not None:
        traces = [t for t in traces if t.trace_id == args.trace]
        if not traces:
            print(f"no trace with id {args.trace}", file=sys.stderr)
            return 1
    if args.format == "tree":
        out = "\n\n".join(render_trace(t) for t in traces)
    elif args.format == "jsonl":
        out = spans_to_jsonl(s for t in traces for s in t.spans)
    else:
        out = json.dumps(chrome_trace(traces), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(out + "\n")
        print(f"wrote {len(traces)} trace(s) to {args.out}")
    else:
        print(out)
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    import json
    import os

    from .text import export_json
    from .workload import build_knowledge_base

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for handle in kb.handles:
        payload = export_json(handle)
        name = payload["document"]["name"]
        path = os.path.join(args.out, f"{name}.tendax.json")
        with open(path, "w", encoding="utf-8") as handle_file:
            json.dump(payload, handle_file)
        print(f"wrote {path} ({len(payload['chars'])} chars)")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from .db import Database
    from .text import DocumentStore, import_json

    db = Database("imported")
    store = DocumentStore(db)
    with open(args.file, "r", encoding="utf-8") as handle_file:
        payload = json.load(handle_file)
    handle = import_json(store, payload, args.user)
    meta = store.meta(handle.doc)
    print(f"imported {meta['name']!r}: {handle.length()} visible chars, "
          f"authors {sorted(handle.authors())}")
    print(handle.text()[:200])
    return 0


def _serve_follower(args: argparse.Namespace) -> int:
    """``serve --follow``: run a read replica, promote on leader death.

    While following, the node serves STATS/HEALTH scrapes (with a
    ``repl`` status section) but takes no editor connections.  When the
    established replication stream dies, the follower finalizes its
    applied prefix, prints ``PROMOTED <lsn>`` and starts a full
    collaboration server on the same port — clients keep one address
    across the failover.
    """
    import asyncio
    import contextlib
    import signal
    import threading

    from .net.replica import ReplicaStatusServer, ReplicationClient
    from .repl import FollowerEngine

    leader_host, leader_port = args.follow
    follower = FollowerEngine(args.wal, node=args.node)
    client = ReplicationClient(leader_host, leader_port, follower,
                               token=args.token)
    status = ReplicaStatusServer(
        follower, host=args.host, port=args.port, token=args.token,
        telemetry_interval=args.telemetry_interval)

    async def run() -> int:
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stopping.set)
        await status.start()
        print(f"LISTENING {status.port}", flush=True)

        stop_stream = threading.Event()
        stream_done: asyncio.Future = loop.create_future()

        def stream() -> None:
            try:
                outcome = client.run(stop_stream)
            except BaseException as exc:
                loop.call_soon_threadsafe(stream_done.set_result,
                                          ("error", exc))
            else:
                loop.call_soon_threadsafe(stream_done.set_result,
                                          (outcome, None))

        thread = threading.Thread(target=stream, name="repl-stream",
                                  daemon=True)
        thread.start()
        waiter = asyncio.create_task(stopping.wait())
        await asyncio.wait({stream_done, waiter},
                           return_when=asyncio.FIRST_COMPLETED)
        if stopping.is_set():
            stop_stream.set()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stream_done, 5.0)
            waiter.cancel()
            await status.stop()
            print("STOPPED", flush=True)
            return 0
        outcome, error = stream_done.result()
        if outcome == "error":
            waiter.cancel()
            await status.stop()
            print(f"replication stream failed: {error}", file=sys.stderr,
                  flush=True)
            return 1
        # The leader is gone: fail over.  The scrape endpoint goes down
        # for the rebind; the collab server then owns the same port.
        await status.stop()
        db = follower.promote()
        from .collab import CollaborationServer
        from .net import CollabNetServer
        collab = CollaborationServer(db, node=args.node)
        net = CollabNetServer(collab, host=args.host, port=status.port,
                              token=args.token,
                              telemetry_interval=args.telemetry_interval)
        await net.start()
        # Printed only once the promoted server accepts connections, so
        # scripts can treat it as "failover complete, reads are live".
        print(f"PROMOTED {follower.applied_lsn}", flush=True)
        serving = asyncio.create_task(net.serve_forever())
        try:
            await asyncio.wait({serving, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            serving.cancel()
            waiter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
            await net.stop()
        print("STOPPED", flush=True)
        return 0

    try:
        code = asyncio.run(run())
    except KeyboardInterrupt:
        code = 0
    follower.db.close()
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .collab import CollaborationServer
    from .net import CollabNetServer

    if args.follow is not None:
        return _serve_follower(args)

    faults = None
    if args.net_seed is not None:
        from .faults import FaultInjector, FaultPlan
        faults = FaultInjector(FaultPlan.lossy_delivery(args.net_seed))
    collab = CollaborationServer(node=args.node, wal_path=args.wal,
                                 faults=faults)
    net = CollabNetServer(collab, host=args.host, port=args.port,
                          token=args.token,
                          telemetry_interval=args.telemetry_interval)

    async def run() -> None:
        import contextlib
        import signal

        await net.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stopping.set)
        # Scripts (net_smoke, the load harness) wait for this line to
        # learn the ephemeral port, so it must hit stdout unbuffered.
        print(f"LISTENING {net.port}", flush=True)
        serving = asyncio.create_task(net.serve_forever())
        waiter = asyncio.create_task(stopping.wait())
        try:
            await asyncio.wait({serving, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            serving.cancel()
            waiter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
            await net.stop()
        print("STOPPED", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    from .errors import UnknownDocumentError
    from .net import NetworkClient

    client = NetworkClient(args.host, args.port, args.user,
                           token=args.token, register=True)
    try:
        session = client.session()
        try:
            handle = session.open_named(args.doc)
        except UnknownDocumentError:
            handle = session.create_document(args.doc)
            print(f"created document {args.doc!r}")
        if args.type:
            session.insert(handle.doc, handle.length(), args.type)
            print(f"typed {len(args.type)} chars")
        if args.watch:
            deadline = WATCH_CLOCK.now() + args.watch
            while WATCH_CLOCK.now() < deadline:
                for note in client.poll(timeout=0.1):
                    print(f"notify seq={note.rep_seq} "
                          f"changes={note.n_changes} "
                          f"from={note.origin_user} "
                          f"latency={note.latency * 1000:.1f}ms")
        print(f"document     : {args.doc}")
        print(f"length       : {handle.length()} chars")
        print(f"authors      : {', '.join(sorted(handle.authors()))}")
        print(f"ping rtt     : {client.ping() * 1000:.2f} ms")
        print(f"resyncs      : {sum(m.resyncs for m in client.mirrors.values())}")
        print("---")
        print(handle.text())
        return 0
    finally:
        client.close()


def _cmd_top(args: argparse.Namespace) -> int:
    """One frame per refresh over a running node's STATS + HEALTH."""
    import json

    from .errors import TendaxError
    from .net import scrape
    from .obs import render_top

    host, port = args.address
    refreshes = max(1, args.watch)
    for round_no in range(refreshes):
        try:
            if args.format == "prom":
                frame = scrape(host, port, fmt="prom", token=args.token)
            elif args.format == "json":
                frame = json.dumps(scrape(host, port, token=args.token),
                                   indent=2, sort_keys=True) + "\n"
            else:
                stats = scrape(host, port, token=args.token)
                health = scrape(host, port, kind="health", token=args.token)
                frame = render_top(stats, health, limit=args.limit) + "\n"
        except (OSError, TendaxError) as exc:
            raise SystemExit(f"repro top: {host}:{port}: {exc}") from None
        if refreshes > 1:
            print(f"-- refresh {round_no + 1}/{refreshes} --")
        sys.stdout.write(frame)
        if round_no + 1 < refreshes:
            _watch_sleep(args.interval)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeNDaX reproduction command-line drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    party = sub.add_parser("lan-party", help="run the simulated LAN-party")
    party.add_argument("--rounds", type=int, default=100)
    party.add_argument("--seed", type=int, default=2006)
    party.set_defaults(fn=_cmd_lan_party)

    portal = sub.add_parser("portal",
                            help="dynamic folders + Fig.1 + Fig.2 demo")
    portal.add_argument("--docs", type=int, default=24)
    portal.add_argument("--seed", type=int, default=2006)
    portal.set_defaults(fn=_cmd_portal)

    search = sub.add_parser("search", help="search a generated corpus")
    search.add_argument("query")
    search.add_argument("--docs", type=int, default=40)
    search.add_argument("--seed", type=int, default=2006)
    search.add_argument("--ranking", default="relevance")
    search.add_argument("--limit", type=int, default=10)
    search.set_defaults(fn=_cmd_search)

    stats = sub.add_parser("stats", help="database statistics")
    stats.add_argument("--docs", type=int, default=24)
    stats.add_argument("--seed", type=int, default=2006)
    stats.add_argument("--format", choices=("text", "json", "prom"),
                       default="text",
                       help="output format (json = the raw metrics "
                            "snapshot; prom = Prometheus text exposition)")
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="trace a two-editor session keystroke by keystroke")
    trace.add_argument("--text", default="causal trace",
                       help="characters the two editors alternate typing")
    trace.add_argument("--hold-seed", type=int, default=None,
                       help="run with a seeded held/reordered delivery "
                            "fault plan")
    trace.add_argument("--slow-ms", type=float, default=None,
                       help="slow-op threshold in milliseconds")
    trace.add_argument("--format", choices=("tree", "jsonl", "chrome"),
                       default="tree")
    trace.add_argument("--trace", type=int, default=None,
                       help="show only the trace with this id")
    trace.add_argument("--out", default=None,
                       help="write output to a file instead of stdout")
    trace.set_defaults(fn=_cmd_trace)

    dump = sub.add_parser(
        "dump", help="export a generated corpus as .tendax.json files")
    dump.add_argument("--docs", type=int, default=8)
    dump.add_argument("--seed", type=int, default=2006)
    dump.add_argument("--out", default="tendax-export")
    dump.set_defaults(fn=_cmd_dump)

    load = sub.add_parser(
        "load", help="import a .tendax.json export into a fresh database")
    load.add_argument("file")
    load.add_argument("--user", default="importer")
    load.set_defaults(fn=_cmd_load)

    serve = sub.add_parser(
        "serve", help="run the collaboration server on a TCP port")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (printed on stdout)")
    serve.add_argument("--node", default="tendax")
    serve.add_argument("--token", default=None,
                       help="require this shared secret in HELLO")
    serve.add_argument("--wal", default=None,
                       help="mirror the WAL to this file for durability; "
                            "an existing file is recovered and extended")
    serve.add_argument("--net-seed", type=int, default=None,
                       help="inject a seeded delivery fault plan "
                            "(drop/hold/reorder what readers are handed)")
    serve.add_argument("--telemetry-interval", type=float, default=1.0,
                       help="seconds between telemetry samples "
                            "(0 disables the sampler)")
    serve.add_argument("--follow", default=None, metavar="HOST:PORT",
                       type=_parse_hostport,
                       help="tail this leader's WAL as a read replica; "
                            "when the leader dies, promote in place and "
                            "serve writes on the same port")
    serve.set_defaults(fn=_cmd_serve)

    connect = sub.add_parser(
        "connect", help="connect to a running server and edit a document")
    connect.add_argument("--host", default="127.0.0.1")
    connect.add_argument("--port", type=int, required=True)
    connect.add_argument("--user", default="guest")
    connect.add_argument("--token", default=None)
    connect.add_argument("--doc", default="scratch",
                         help="document name to open (created if missing)")
    connect.add_argument("--type", default=None, metavar="TEXT",
                         help="append TEXT to the document")
    connect.add_argument("--watch", type=float, default=0.0,
                         help="poll for remote changes this many seconds")
    connect.set_defaults(fn=_cmd_connect)

    top = sub.add_parser(
        "top", help="health, hot paths, replication and changefeed lag "
                    "of a running node")
    top.add_argument("address", metavar="HOST:PORT", type=_parse_hostport,
                     help="a leader's or a follower's port")
    top.add_argument("--token", default=None,
                     help="the node's shared secret")
    top.add_argument("--watch", type=int, default=1,
                     help="scrape and re-render this many times")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (paced on the "
                          "watch clock)")
    top.add_argument("--limit", type=int, default=8,
                     help="rows per section")
    top.add_argument("--format", choices=("text", "json", "prom"),
                     default="text",
                     help="output format (json = the raw STATS payload; "
                          "prom = Prometheus text exposition)")
    top.set_defaults(fn=_cmd_top)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
