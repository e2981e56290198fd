"""Drivers: how each workload's ops reach the program under test.

A driver owns the program state of one run (server process, sessions,
corpus), turns the tuples from :mod:`workloads` into calls on the
program's *public* surface, reads the program's public counters, and
checks at the end that what the program holds is correct.  It imports
only from ``repro``'s packages; nothing under ``src/`` is modified.

Common interface (``run.py`` knows nothing else about a workload):

``setup(seed)``      build state; its wall time is ``setup_s``
``probe()``          timed one-off measurements before the window
``execute(op)``      run one op; returns the clock reading at which
                     the caller's call returned (propagation the loop
                     waits for afterwards is visibility, not latency)
``counters()``       flat ``{name: number}`` of public counters
``child_pid``        pid of a server subprocess, else ``None``
``verify()``         list of problems (empty = correct), may add
                     by-product measurements to ``extras``
``teardown()``       stop everything the driver started
"""

from __future__ import annotations

import hashlib
import itertools
import os
import select
import signal
import subprocess
import sys
from time import perf_counter

from repro.collab import CollaborationServer, EditorClient
from repro.db.recovery import recover_file
from repro.db.wal import WriteAheadLog
from repro.net import NetworkClient, ServerThread, scrape
from repro.repl import FollowerEngine
from repro.text import DocumentStore
from repro.workload import PortalSpec, build_portal, upload_version

from workloads import UNIT, seed_text

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_HOST = "127.0.0.1"
_SERIAL = itertools.count(1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counter_values(snapshot: dict) -> dict:
    """Counters and gauges of a metrics snapshot as plain numbers."""
    return {name: metric["value"] for name, metric in snapshot.items()
            if metric.get("type") in ("counter", "gauge")}


class _Driver:
    """Defaults shared by all drivers."""

    #: Whether ``execute`` waits for a change to reach another replica.
    PROPAGATES = False
    #: Class-level latency metrics: metric name -> verbs it covers.
    CLASS_P50: dict[str, tuple] = {}
    #: ``peak_rss_mb`` is read once this many 100-op blocks are done
    #: (about a quarter of a 10 s window on the sizing box).
    RSS_AFTER_BLOCKS = 2
    child_pid: int | None = None

    def __init__(self, workdir: str, in_process: bool) -> None:
        self.workdir = workdir
        self.in_process = in_process
        self.extras: dict[str, float] = {}

    def probe(self) -> None:
        pass

    def execute(self, op: tuple) -> float:
        getattr(self, "op_" + op[0])(*op[1:])
        return perf_counter()


# ----------------------------------------------------------------------
# wire_typing
# ----------------------------------------------------------------------

class WireTyping(_Driver):
    """Two ``EditorClient``s over two TCP connections, one document.

    The server is a ``python -m repro serve --wal`` subprocess (default
    group commit, real fsync).  With ``in_process`` it is a
    ``ServerThread`` in this process instead, so that trace wrappers
    reach the server-side layers; the threads then share one GIL, which
    is why throughput is only ever reported from the subprocess form.
    """

    PROPAGATES = True
    DOC = "bench-pad"
    DOC_CHARS = 8000
    #: A single create_document(text=...) of >= 20k chars never gets a
    #: reply over the wire, so the document is seeded in chunks.
    SEED_CHUNK = 2000
    OPEN_PROBES = 5
    VISIBLE_TIMEOUT = 1.0

    def setup(self, seed: int) -> None:
        self.wal_path = os.path.join(
            self.workdir, f"wire-{os.getpid()}-{next(_SERIAL)}.wal")
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        self.proc = None
        self.thread = None
        self.collab = None
        self.clients: list[NetworkClient] = []
        if self.in_process:
            self.collab = CollaborationServer(wal_path=self.wal_path)
            self.thread = ServerThread(self.collab).start()
            self.port = self.thread.port
        else:
            self._spawn()
        text = seed_text(seed, self.DOC_CHARS)
        for user in ("ana", "ben"):
            self.clients.append(
                NetworkClient(_HOST, self.port, user, register=True))
        sessions = [c.session() for c in self.clients]
        handle = sessions[0].create_document(self.DOC)
        self.doc = handle.doc
        for at in range(0, len(text), self.SEED_CHUNK):
            sessions[0].insert(self.doc, at, text[at:at + self.SEED_CHUNK])
        sessions[1].open_named(self.DOC)
        self.editors = [EditorClient(s, self.doc) for s in sessions]
        # Start the cursors inside the text: a backspace at position 0
        # is a no-op that never reaches the server.
        self.editors[0].move_to(self.DOC_CHARS // 3)
        self.editors[1].move_to(2 * self.DOC_CHARS // 3)
        self._await_visible(0)
        self._await_visible(1)

    def _spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.wal_path + ".log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--wal", self.wal_path],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env)
        self.child_pid = self.proc.pid
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("LISTENING"):
            self.teardown()
            raise RuntimeError(f"server never bound (got {line!r})")
        self.port = int(line.split()[1])

    def _net_counters(self) -> dict:
        return _counter_values(
            scrape(_HOST, self.port, series=False)["metrics"])

    def probe(self) -> None:
        """Cold opens of the seeded document from fresh connections."""
        times = []
        before = self._net_counters()
        for _ in range(self.OPEN_PROBES):
            started = perf_counter()
            client = NetworkClient(_HOST, self.port, "ana")
            client.session().open_named(self.DOC).text()
            times.append(perf_counter() - started)
            client.close()
        after = self._net_counters()
        times.sort()
        self.extras["class.open_p50_ms"] = times[len(times) // 2] * 1e3
        self.extras["net.open_snapshot_bytes"] = (
            after["net.bytes_out"] - before["net.bytes_out"]
        ) / self.OPEN_PROBES

    def _await_visible(self, editor: int) -> None:
        """Poll the *other* connection until it has applied everything
        ``editor``'s mirror has."""
        target = self.clients[editor].mirrors[self.doc].last_seq
        other = self.clients[1 - editor]
        mirror = other.mirrors[self.doc]
        deadline = perf_counter() + self.VISIBLE_TIMEOUT
        while mirror.last_seq < target:
            if perf_counter() > deadline:
                raise TimeoutError(
                    f"change {target} not visible to the other editor "
                    f"within {self.VISIBLE_TIMEOUT}s")
            other.poll(timeout=0.05)

    def execute(self, op: tuple) -> float:
        getattr(self, "op_" + op[0])(*op[2:], self.editors[op[1]])
        done = perf_counter()
        self._await_visible(op[1])
        return done

    def op_type(self, ch: str, editor: EditorClient) -> None:
        editor.type(ch)

    def op_backspace(self, editor: EditorClient) -> None:
        editor.backspace(1)

    def op_jump_type(self, where: int, ch: str,
                     editor: EditorClient) -> None:
        editor.move_to(where * (editor.handle.length() + 1) // UNIT)
        editor.type(ch)

    def counters(self) -> dict:
        out = self._net_counters()
        out["wal.file_bytes"] = os.path.getsize(self.wal_path)
        out["mirror.resyncs"] = sum(
            c.mirrors[self.doc].resyncs for c in self.clients)
        if self.collab is not None:
            out["db.versions_live"] = self.collab.db.live_versions()
        return out

    def verify(self) -> list[str]:
        problems = []
        for client in self.clients:
            client.poll()
        digests = [_sha(e.text()) for e in self.editors]
        fresh = NetworkClient(_HOST, self.port, "ana")
        try:
            digests.append(_sha(fresh.session().open_named(self.DOC).text()))
        finally:
            fresh.close()
        if len(set(digests)) != 1:
            problems.append(f"replicas disagree: {digests}")
        for editor in self.editors:
            for issue in editor.handle.check_integrity():
                problems.append(f"{editor.user}'s mirror: {issue}")
        # Durability: kill the server without a goodbye, then rebuild
        # the document from nothing but the WAL file.  Every keystroke
        # was ACKed after its commit record was fsynced, so all of them
        # must be there.
        self._kill_server()
        started = perf_counter()
        db = recover_file(self.wal_path)
        recover_seconds = perf_counter() - started
        store = DocumentStore(db)
        rows = store.find_by_name(self.DOC)
        recovered = store.handle(rows[0]["doc"]).text() if rows else None
        if recovered is None or _sha(recovered) != digests[0]:
            problems.append("text recovered from the WAL differs from "
                            "what the editors were ACKed")
        records = WriteAheadLog.load_file(self.wal_path)
        self.extras["db.recovery.us_per_record"] = (
            recover_seconds / len(records) * 1e6)
        follower = FollowerEngine()
        started = perf_counter()
        follower.apply_records(records)
        self.extras["repl.apply.us_per_record"] = (
            (perf_counter() - started) / len(records) * 1e6)
        started = perf_counter()
        follower.promote()
        self.extras["repl.promote_ms"] = (perf_counter() - started) * 1e3
        follower.close()
        return problems

    def _kill_server(self) -> None:
        for client in self.clients:
            client.close(send_bye=False)
        self.clients = []
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        # In-process there is nothing to SIGKILL; stopping the loop
        # closes the WAL, and recovery still reads only the file.
        self._stop_server()

    def _stop_server(self) -> None:
        """Ask a live server to stop, then reap whichever form it had."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self._log.close()
            self.proc = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
            self.collab.db.close()

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self._stop_server()
        for path in (self.wal_path, self.wal_path + ".log"):
            if os.path.exists(path):
                os.remove(path)


# ----------------------------------------------------------------------
# local_edit_mix
# ----------------------------------------------------------------------

class LocalEditMix(_Driver):
    """Two in-process sessions on one document; no wire, no WAL file."""

    PROPAGATES = True
    DOC_CHARS = 30000
    RSS_AFTER_BLOCKS = 20

    def setup(self, seed: int) -> None:
        self.server = CollaborationServer()
        for user in ("ana", "ben"):
            self.server.register_user(user)
        self.sessions = [self.server.connect("ana"),
                         self.server.connect("ben")]
        handle = self.sessions[0].create_document(
            "bench-mix", text=seed_text(seed, self.DOC_CHARS))
        self.doc = handle.doc
        self.editors = [EditorClient(s, self.doc) for s in self.sessions]
        self.styles = [
            self.server.styles.define_style("strong", {"bold": True}, "ana"),
            self.server.styles.define_style("quiet", {"italic": True}, "ana"),
        ]
        # Each user needs one operation on record before an undo.
        for editor in self.editors:
            editor.move_to(self.DOC_CHARS // 2)
            editor.type("x")
        self._drain()

    def _drain(self) -> None:
        for session in self.sessions:
            session.notifications()

    def execute(self, op: tuple) -> float:
        getattr(self, "op_" + op[0])(*op[2:], self.editors[op[1]])
        done = perf_counter()
        self._drain()
        return done

    @staticmethod
    def _at(where: int, editor: EditorClient, room: int = 0) -> int:
        """Scale a position fraction to ``[0, length - room]``."""
        return where * (editor.handle.length() - room + 1) // UNIT

    def op_type(self, where: int, ch: str, editor: EditorClient) -> None:
        editor.move_to(self._at(where, editor))
        editor.type(ch)

    def op_backspace(self, where: int, editor: EditorClient) -> None:
        editor.move_to(max(1, self._at(where, editor)))
        editor.backspace(1)

    def op_style(self, where: int, count: int, style: int,
                 editor: EditorClient) -> None:
        editor.select(self._at(where, editor, count), count)
        editor.style_selection(self.styles[style])
        editor.clear_selection()

    def op_copy_paste(self, src: int, count: int, dst: int,
                      editor: EditorClient) -> None:
        editor.select(self._at(src, editor, count), count)
        editor.copy()
        editor.move_to(self._at(dst, editor))
        editor.paste()

    def op_undo_redo(self, editor: EditorClient) -> None:
        editor.undo()
        editor.redo()

    def counters(self) -> dict:
        out = _counter_values(self.server.db.metrics_snapshot())
        out["db.versions_live"] = self.server.db.live_versions()
        return out

    def verify(self) -> list[str]:
        problems = []
        digests = [_sha(e.text()) for e in self.editors]
        digests.append(_sha(
            self.server.documents.handle(self.doc).text()))
        if len(set(digests)) != 1:
            problems.append(f"handles disagree: {digests}")
        for editor in self.editors:
            for issue in editor.handle.check_integrity():
                problems.append(f"{editor.user}'s handle: {issue}")
        return problems

    def teardown(self) -> None:
        self.server.shutdown()


# ----------------------------------------------------------------------
# portal_query / portal_ingest
# ----------------------------------------------------------------------

def _ranking(results: list) -> tuple:
    """A result list as (sort keys, documents above the last tie group).

    The two search paths break exact ties (same score, same timestamp —
    common in a bulk-ingested archive) in different orders, and a tie
    group cut by the limit may keep different members; everything else
    must match.
    """
    keys = [(round(r.score, 9), r.profile["last_modified"]) for r in results]
    above = sorted(str(r.doc) for r, key in zip(results, keys)
                   if key != keys[-1])
    return keys, above


class _Portal(_Driver):
    """A 10 000-document in-memory archive and its feed consumers."""

    N_DOCS = 10000
    #: Ops between background maintenance ticks.
    WORKER_EVERY = 50
    #: Terms whose fast-path result is checked against the scan path.
    CHECK_TERMS = 8

    def setup(self, seed: int) -> None:
        self.portal = build_portal(PortalSpec(n_docs=self.N_DOCS, seed=seed))
        self.live = list(self.portal.docs)
        self.deleted: list = []
        self.last_marker: tuple | None = None
        self.top_terms: list[str] = []
        self.results = 0
        self.n_ops = 0
        self.base = self._full_passes()

    def _full_passes(self) -> tuple[int, int]:
        return (self.portal.search.index.stats["full_builds"],
                sum(f.stats["full_scans"]
                    for f in self.portal.folders.folders()))

    def _doc(self, where: int):
        return self.live[where * len(self.live) // UNIT]

    def execute(self, op: tuple) -> float:
        getattr(self, "op_" + op[0])(*op[1:])
        done = perf_counter()
        self.n_ops += 1
        if self.n_ops % self.WORKER_EVERY == 0:
            self.portal.worker.run_once()
        return done

    def op_search_top(self, term: str) -> None:
        self.results += len(self.portal.search.search(term, limit=10))
        if len(self.top_terms) < self.CHECK_TERMS \
                and term not in self.top_terms:
            self.top_terms.append(term)

    def op_search_scan(self, query: str, ranking: str) -> None:
        self.results += len(
            self.portal.search.search(query, ranking=ranking, limit=10))

    def op_folder(self, name: str) -> None:
        self.portal.folders.folder(name).contents(limit=50)

    def op_meta(self, where: int) -> None:
        self.portal.store.meta(self._doc(where))

    def op_upload(self, where: int, user: str, text: str) -> None:
        doc = self._doc(where)
        upload_version(self.portal, doc, text, user)
        self.last_marker = (text.rsplit(" ", 1)[1].rstrip("."), doc)

    def op_import(self, name: str, creator: str, topic: str,
                  text: str) -> None:
        self.live.append(self.portal.store.import_archived(
            name, creator, text=text, props={"topic": topic}))

    def op_delete(self, where: int) -> None:
        index = where * len(self.live) // UNIT
        doc = self.live[index]
        self.live[index] = self.live[-1]
        self.live.pop()
        self.portal.store.delete_document(doc, "ana")
        self.deleted.append(doc)

    def counters(self) -> dict:
        out = _counter_values(self.portal.db.metrics_snapshot())
        stats = self.portal.search.index.stats
        out["index.docs_applied"] = (stats["reindexed_docs"]
                                     + stats["removed_docs"])
        out["index.full_builds"], out["folders.full_scans"] = \
            self._full_passes()
        out["search.results"] = self.results
        out["db.versions_live"] = self.portal.db.live_versions()
        return out

    def verify(self) -> list[str]:
        problems = []
        search = self.portal.search
        builds, scans = self._full_passes()
        if (builds, scans) != self.base:
            problems.append(
                f"traffic caused {builds - self.base[0]} index rebuilds "
                f"and {scans - self.base[1]} folder rescans")
        self.portal.worker.drain(max_rounds=200)
        if search.index.doc_count() != len(self.live):
            problems.append(
                f"index holds {search.index.doc_count()} docs, "
                f"{len(self.live)} are live")
        # An always-true filter forces the candidate-scan path, which
        # must rank exactly as the impact-ordered fast path does.
        for term in self.top_terms:
            fast = _ranking(search.search(term, limit=10))
            slow = _ranking(search.search(f"{term} name:-", limit=10))
            if fast != slow:
                problems.append(f"fast and scan rankings differ for {term!r}")
        if self.last_marker is not None:
            marker, doc = self.last_marker
            found = [r.doc for r in search.search(marker, limit=10)]
            expected = [] if doc in self.deleted else [doc]
            if found != expected:
                problems.append(
                    f"marker {marker!r} found in {found}, not {expected}")
        gone = set(self.deleted)
        if gone:
            for term in self.top_terms[:2]:
                hits = search.search(f"{term} name:-", limit=len(self.live))
                if any(r.doc in gone for r in hits):
                    problems.append(f"deleted doc returned for {term!r}")
        return problems

    def teardown(self) -> None:
        self.portal.close()


class PortalQuery(_Portal):
    CLASS_P50 = {"class.search_topk_p50_ms": ("search_top",),
                 "class.search_scan_p50_ms": ("search_scan",)}


class PortalIngest(_Portal):
    WORKER_EVERY = 20
    RSS_AFTER_BLOCKS = 40
    CLASS_P50 = {"class.search_topk_p50_ms": ("search_top",),
                 "class.write_p50_ms": ("upload", "import", "delete")}
