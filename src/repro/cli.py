"""Command-line interface: ``python -m repro <command>``.

Small drivers over the library for kicking the tyres without writing
code:

* ``lan-party`` — run the simulated multi-editor party and print the
  convergence report;
* ``portal`` — build a knowledge base and print dynamic folders, the
  lineage tree (Fig. 1) and the document-space map (Fig. 2);
* ``search`` — build a corpus and run a query against it;
* ``stats`` — corpus/database statistics for a generated workload
  (``--json`` for the raw metrics snapshot);
* ``trace`` — run a traced two-editor scenario and inspect the causal
  keystroke→remote-visibility traces (ASCII tree, JSONL or Chrome
  trace-event output);
* ``top`` — hottest metrics and slowest traces of a traced workload;
* ``serve`` — run the out-of-process collaboration server on a TCP
  port (prints ``LISTENING <port>`` once bound, for scripts);
* ``connect`` — connect to a running server, type into a named
  document and print what the replica sees;
* ``dash`` — scrape STATS + HEALTH from a running server and render
  a one-screen dashboard (health verdict + windowed trend table);
* ``feed-status`` — changefeed consumer lag and drain behaviour over
  a generated workload (``--json`` for the raw payload).

``top --watch``, ``connect --watch`` and ``dash --watch`` pace their
refresh loops through :data:`WATCH_CLOCK` (a :class:`~repro.clock.Clock`)
so tests can swap in a :class:`~repro.clock.SimulatedClock` and drive
the loops deterministically.
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
    from .search import SearchEngine
    from .workload import build_knowledge_base

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    engine = SearchEngine(kb.server.db)
    results = engine.search(args.query, ranking=args.ranking,
                            limit=args.limit)
    print(engine.render_results(results))
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) -> (host, port)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad --remote address {spec!r}: want HOST:PORT")


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs import render_snapshot
    from .workload import build_knowledge_base

    if args.remote is not None:
        from .obs import render_trends
        from .net import scrape

        host, port = _parse_hostport(args.remote)
        fmt = "prom" if args.format == "prom" else "json"
        payload = scrape(host, port, kind="stats", fmt=fmt,
                         token=args.token)
        if args.format == "prom":
            sys.stdout.write(payload)
        elif args.format == "json" or args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"node          : {payload.get('node')}")
            server_stats = payload.get("server", {})
            for key in sorted(server_stats):
                print(f"{key:<14}: {server_stats[key]}")
            print("\nengine metrics:")
            print(render_snapshot(payload.get("metrics", {})))
            telemetry = payload.get("telemetry") or {}
            windows = telemetry.get("windows")
            if windows:
                print("\ntrends:")
                print(render_trends(windows))
        return 0

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    db = kb.server.db
    if args.json:
        print(json.dumps(db.metrics_snapshot(), indent=2, sort_keys=True))
        return 0
    print(f"node          : {db.node}")
    print(f"tables        : {len(db.tables())}")
    print(f"total rows    : {db.catalog.total_rows()}")
    print(f"transactions  : {db.stats['transactions']}")
    print(f"commits       : {db.stats['commits']}")
    print(f"wal records   : {len(db.wal)}")
    print("per-table rows:")
    for info in db.catalog.iter_tables():
        print(f"  {info.name:<18} {info.row_count:>7} rows, "
              f"{len(info.index_names)} index(es)")
    print("\nengine metrics:")
    print(render_snapshot(db.metrics_snapshot()))
    return 0


def _run_traced_workload(args: argparse.Namespace, server=None):
    """Run the traced duet (with optional held delivery) for trace/top.

    ``server`` re-runs the workload against an existing server so
    ``top --watch`` accumulates history in one registry across
    refreshes instead of starting from zero each frame.
    """
    import os
    import tempfile

    from .workload import run_traced_duet

    faults = None
    if args.hold_seed is not None:
        from .faults import FaultInjector, FaultPlan
        faults = FaultInjector(FaultPlan.delivery_only(args.hold_seed))
    slow = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    if server is not None:
        return run_traced_duet(text=args.text, faults=faults,
                               slow_threshold=slow, server=server)
    # A real WAL file makes the fsync leg show up in every trace.
    fd, wal_path = tempfile.mkstemp(suffix=".wal")
    os.close(fd)
    try:
        server, buffer = run_traced_duet(text=args.text, faults=faults,
                                         slow_threshold=slow,
                                         wal_path=wal_path)
    finally:
        os.unlink(wal_path)
    return server, buffer


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import chrome_trace, render_trace, spans_to_jsonl

    server, buffer = _run_traced_workload(args)
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


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs import TelemetryStore, render_top, render_trends

    refreshes = max(1, args.watch)
    server = None
    telemetry = None
    for round_no in range(refreshes):
        server, buffer = _run_traced_workload(args, server=server)
        if telemetry is None:
            telemetry = TelemetryStore(server.db.obs.registry,
                                       server.db.clock, interval=0.0)
        telemetry.sample()
        gc_watch = server.db.obs.gc
        view = render_top(server.db.metrics_snapshot(), buffer.traces(),
                          limit=args.limit,
                          gc=gc_watch.summary() if gc_watch else None)
        if refreshes > 1:
            print(f"-- refresh {round_no + 1}/{refreshes} --")
        print(view)
        if refreshes > 1:
            print("\ntrends:")
            print(render_trends(telemetry.snapshot()["windows"],
                                limit=args.limit))
        if round_no + 1 < refreshes:
            _watch_sleep(args.interval)
    return 0


def _add_traced_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--text", default="causal trace",
                        help="characters the two editors alternate typing")
    parser.add_argument("--hold-seed", type=int, default=None,
                        help="run with a seeded held/reordered delivery "
                             "fault plan")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="slow-op threshold in milliseconds")


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

    leader_host, leader_port = _parse_hostport(args.follow)
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
        faults = FaultInjector(FaultPlan.net_only(args.net_seed))
    collab = CollaborationServer(node=args.node, wal_path=args.wal)
    net = CollabNetServer(collab, host=args.host, port=args.port,
                          token=args.token, faults=faults,
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


def _cmd_repl_status(args: argparse.Namespace) -> int:
    """Replication status of a running node (leader or follower)."""
    import json

    from .net import scrape

    host, port = _parse_hostport(args.remote)
    payload = scrape(host, port, kind="stats", series=False,
                     token=args.token)
    metrics = payload.get("metrics", {})

    def metric(name: str, default=0):
        return metrics.get(name, {}).get("value", default)

    repl = payload.get("repl")
    if repl is None:
        # A leader (or a promoted follower already fronting editors):
        # synthesise the view from its repl.* metrics.
        repl = {
            "node": payload.get("node"),
            "role": "leader",
            "durable_lsn": payload.get("wal", {}).get("durable_lsn"),
            "segments_shipped": metric("repl.segments_shipped"),
            "promotions": metric("repl.promotions"),
        }
    else:
        repl = dict(repl)
        repl["role"] = "promoted" if repl.get("promoted") else "follower"
    if args.json:
        print(json.dumps(repl, indent=2, sort_keys=True))
        return 0
    for key in sorted(repl):
        print(f"{key:<16}: {repl[key]}")
    return 0


def _cmd_feed_status(args: argparse.Namespace) -> int:
    """Changefeed freshness of a generated workload's derived data."""
    import json

    from .feed import MaintenanceWorker
    from .folders import DynamicFolderManager, StateIs
    from .search import SearchEngine
    from .workload import build_knowledge_base

    kb = build_knowledge_base(n_docs=args.docs, seed=args.seed)
    db = kb.server.db
    engine = SearchEngine(db)
    folders = DynamicFolderManager(db)
    folders.create_folder("finals", StateIs("final"))
    # Edit after the consumers attach so the feed has work to absorb.
    for handle in kb.handles[:3]:
        handle.insert_text(0, "fresh edit ", kb.users[0])
    worker = MaintenanceWorker(db)
    worker.register("search-index", engine.index.maintain,
                    sub=engine.index.subscription)
    rounds = worker.drain()
    status = db.changefeed().status()
    status["drain_rounds"] = rounds
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"feed seq      : {status['seq']}")
    print(f"feed lsn      : {status['lsn']}")
    print(f"retained      : {status['retained']} of {status['retention']}")
    print(f"drain rounds  : {rounds}")
    print(f"errors        : {status['errors']}")
    print("consumers:")
    for consumer in status["consumers"]:
        tables = ",".join(consumer["tables"] or []) or "*"
        mode = "deferred" if consumer["deferred"] else "sync"
        print(f"  {consumer['name']:<22} {mode:<8} lag {consumer['lag']:>3}"
              f"  acked {consumer['acked_seq']}/{status['seq']}"
              f"  [{tables}]")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from .net import scrape
    from .obs import render_dash

    refreshes = max(1, args.watch)
    for round_no in range(refreshes):
        stats = scrape(args.host, args.port, kind="stats",
                       token=args.token)
        health = scrape(args.host, args.port, kind="health",
                        token=args.token)
        if refreshes > 1:
            print(f"-- refresh {round_no + 1}/{refreshes} --")
        print(render_dash(stats, health, limit=args.limit))
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
    stats.add_argument("--json", action="store_true",
                       help="emit the raw metrics snapshot as JSON")
    stats.add_argument("--remote", default=None, metavar="HOST:PORT",
                       help="scrape a running server instead of "
                            "generating a local workload")
    stats.add_argument("--format", choices=("text", "json", "prom"),
                       default="text",
                       help="remote output format (prom = Prometheus "
                            "text exposition)")
    stats.add_argument("--token", default=None,
                       help="shared secret for the remote scrape")
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="trace a two-editor session keystroke by keystroke")
    _add_traced_options(trace)
    trace.add_argument("--format", choices=("tree", "jsonl", "chrome"),
                       default="tree")
    trace.add_argument("--trace", type=int, default=None,
                       help="show only the trace with this id")
    trace.add_argument("--out", default=None,
                       help="write output to a file instead of stdout")
    trace.set_defaults(fn=_cmd_trace)

    top = sub.add_parser(
        "top", help="hottest metrics + slowest traces of a traced workload")
    _add_traced_options(top)
    top.add_argument("--watch", type=int, default=1,
                     help="re-run and re-render this many times")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between refreshes (paced on the "
                          "watch clock)")
    top.add_argument("--limit", type=int, default=8,
                     help="rows per section")
    top.set_defaults(fn=_cmd_top)

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
                       help="inject a seeded socket fault plan "
                            "(drop/delay/reorder on change frames)")
    serve.add_argument("--telemetry-interval", type=float, default=1.0,
                       help="seconds between telemetry samples "
                            "(0 disables the sampler)")
    serve.add_argument("--follow", default=None, metavar="HOST:PORT",
                       help="tail this leader's WAL as a read replica; "
                            "when the leader dies, promote in place and "
                            "serve writes on the same port")
    serve.set_defaults(fn=_cmd_serve)

    repl_status = sub.add_parser(
        "repl-status", help="replication role and lag of a running node")
    repl_status.add_argument("remote", metavar="HOST:PORT",
                             help="leader or follower scrape endpoint")
    repl_status.add_argument("--token", default=None)
    repl_status.add_argument("--json", action="store_true",
                             help="emit the raw status dict as JSON")
    repl_status.set_defaults(fn=_cmd_repl_status)

    feed_status = sub.add_parser(
        "feed-status",
        help="changefeed consumer lag / staleness of a generated workload")
    feed_status.add_argument("--docs", type=int, default=24)
    feed_status.add_argument("--seed", type=int, default=2006)
    feed_status.add_argument("--json", action="store_true",
                             help="emit the raw status payload as JSON")
    feed_status.set_defaults(fn=_cmd_feed_status)

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

    dash = sub.add_parser(
        "dash", help="live dashboard scraped from a running server")
    dash.add_argument("--host", default="127.0.0.1")
    dash.add_argument("--port", type=int, required=True)
    dash.add_argument("--token", default=None)
    dash.add_argument("--watch", type=int, default=1,
                      help="scrape and re-render this many times")
    dash.add_argument("--interval", type=float, default=2.0,
                      help="seconds between refreshes (paced on the "
                           "watch clock)")
    dash.add_argument("--limit", type=int, default=12,
                      help="trend rows to show")
    dash.set_defaults(fn=_cmd_dash)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
