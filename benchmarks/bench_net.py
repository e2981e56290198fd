"""D7 — The wire: editors in separate processes over TCP (§1, §3).

The paper's editors reach the database over a LAN; ``repro.net`` is
that hop over real loopback sockets.  Measurements:

* **connect storm** — N clients handshake and open the shared document
  at once (the start of a LAN-party);
* **fan-out latency** — one keystroke typed over the wire until every
  remote replica has spliced it (the socket analogue of
  ``collab.replication_seconds``);
* **durable keystroke throughput** — sustained typing over the wire
  against a file-backed WAL, every ACK carrying the durable LSN;
* **stats scrape** — a full STATS round-trip (connect + telemetry
  snapshot + parse) with N labelled series live, while an editor keeps
  typing — the cost a monitoring poller imposes on a busy server;
* **mirror lookup scaling** — what one remote keystroke costs the
  *client*: the delta spliced into the replica, then the reads an
  editor makes around it (length, position→oid, oid→position, cursor
  anchor resolution), at 1k and 64k characters.  The replica is an
  order index, so the cost must stay flat where a per-call chain walk
  grew 64×;
* **mirror open** — what opening a document costs the client: one
  8 000-row snapshot frame through ``FrameDecoder`` into
  ``DocMirror.from_snapshot`` (decode, merge, chain walk, index build);
* **snapshot render** — what it costs the server: an 8 000-character
  document's stored rows rendered to that ACK frame, timed, and traced
  once for its allocation peak;
* **client import** — what a wire editor's process holds before it
  connects: a fresh interpreter imports the client names and reports
  its peak resident set (only a server loads asyncio and ssl).

All wire benches run the server on its own thread (``ServerThread``)
with real TCP clients, so the numbers include framing, syscalls and the
event loop — the honest cost of leaving the process.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import tracemalloc
from time import monotonic, perf_counter
from typing import Iterator

import pytest

from repro.collab import CollaborationServer
from repro.ids import Oid
from repro.net import (DocMirror, FrameDecoder, NetworkClient, ServerThread,
                       encode_frame)
from repro.net.protocol import Ack, Delta
from repro.net.server import CollabNetServer

SETTLE_SECONDS = 10.0
STORM_SIZES = [8]
FANOUT_SIZES = [2, 4]
THROUGHPUT_KEYS = 50
SCRAPE_SERIES = [32]
MIRROR_SIZES = {"1k": 1_000, "64k": 64_000}
#: How much dearer the 64x larger replica may be per keystroke.
MIRROR_FLAT_RATIO = 8.0
OPEN_ROWS = 8_000
#: Traced allocation peak an 8 000-character open's render may reach.
RENDER_PEAK_BYTES = 8 << 20
#: A wire editor's imports, run in a fresh interpreter that prints its
#: peak resident set in KiB.  ``VmHWM`` is read, not ``ru_maxrss``: a
#: child's ``ru_maxrss`` starts at its parent's (the pytest process's)
#: peak, while the high-water mark of the memory it exec'd into does not.
CLIENT_IMPORTS = """
from repro.collab import EditorClient
from repro.net import NetworkClient, RemoteSession, scrape
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""
#: Peak KiB those imports may reach: halfway between ≈27 030 with
#: asyncio and ssl loaded and ≈20 190 without (CPython 3.11, Linux).
CLIENT_MAXRSS_KIB = 23_600


def _server(n_users: int, wal_path: str | None = None):
    collab = CollaborationServer(wal_path=wal_path)
    for i in range(n_users):
        collab.register_user(f"user{i}")
    return collab


@pytest.mark.parametrize("n_clients", STORM_SIZES)
def test_connect_storm(benchmark, n_clients):
    """N clients handshake and open one document simultaneously."""
    collab = _server(n_clients)
    host = collab.connect("user0")
    doc = host.create_document("party", text="lan ").doc
    with ServerThread(collab) as thread:

        def storm():
            clients = [NetworkClient("127.0.0.1", thread.port, f"user{i}")
                       for i in range(n_clients)]
            try:
                for client in clients:
                    client.session().open(doc)
                return [c.mirrors[doc].text() for c in clients]
            finally:
                for client in clients:
                    client.close()

        benchmark.group = "D7 connect storm (handshake + open)"
        benchmark.extra_info["clients"] = n_clients
        texts = benchmark.pedantic(storm, rounds=5, iterations=1)
    assert set(texts) == {"lan "}


@pytest.mark.parametrize("n_replicas", FANOUT_SIZES)
def test_fanout_latency(benchmark, n_replicas):
    """One wire keystroke until every remote replica has applied it."""
    collab = _server(n_replicas + 1)
    with ServerThread(collab) as thread:
        writer = NetworkClient("127.0.0.1", thread.port, "user0")
        session = writer.session()
        doc = session.create_document("fanout", text="").doc
        replicas = [NetworkClient("127.0.0.1", thread.port, f"user{i+1}")
                    for i in range(n_replicas)]
        mirrors = [r.session().open(doc) for r in replicas]
        try:
            state = {"length": 0}

            def keystroke():
                state["length"] += 1
                session.insert(doc, state["length"] - 1, "x")
                deadline = monotonic() + SETTLE_SECONDS
                while any(m.length() < state["length"] for m in mirrors):
                    assert monotonic() < deadline, "fan-out stalled"
                    for replica in replicas:
                        replica.poll(timeout=0.001)

            benchmark.group = "D7 fan-out latency (keystroke to all replicas)"
            benchmark.extra_info["replicas"] = n_replicas
            benchmark.pedantic(keystroke, rounds=30, iterations=1)
            for mirror in mirrors:
                assert mirror.text() == "x" * state["length"]
                assert mirror.check_integrity() == []
        finally:
            writer.close()
            for replica in replicas:
                replica.close()


def test_durable_keystroke_throughput(benchmark, tmp_path):
    """Sustained wire typing with every ACK durably acknowledged."""
    collab = _server(1, wal_path=str(tmp_path / "net.wal"))
    with ServerThread(collab) as thread:
        client = NetworkClient("127.0.0.1", thread.port, "user0")
        session = client.session()
        handle = session.create_document("typing").doc
        state = {"anchor": session.handle(handle).begin_char}
        try:

            def burst():
                anchor = state["anchor"]
                for __ in range(THROUGHPUT_KEYS):
                    anchor = session.insert_after(handle, anchor, "k")[0]
                state["anchor"] = anchor

            benchmark.group = "D7 durable keystroke throughput (wire)"
            benchmark.extra_info["keys_per_round"] = THROUGHPUT_KEYS
            benchmark.pedantic(burst, rounds=5, iterations=1)
            # Every keystroke's ACK proved durability: the WAL fsynced.
            assert collab.db.wal.durable_lsn > 0
            stats = client.server_stats()
            benchmark.extra_info["durable_lsn"] = collab.db.wal.durable_lsn
            benchmark.extra_info["net_ops"] = \
                stats["metrics"]["net.ops"]["value"]
        finally:
            client.close()


@pytest.mark.parametrize("n_series", SCRAPE_SERIES)
def test_stats_scrape(benchmark, n_series):
    """STATS round-trip with N labelled series live under typing load."""
    from repro.net import scrape

    collab = _server(1)
    registry = collab.db.obs.registry
    # Pre-populate N labelled series beyond what the workload creates,
    # so the scraped snapshot carries a realistic dimensioned payload.
    family = registry.family("collab.notifications", "counter")
    for i in range(n_series):
        family.labels(doc=f"tendax.doc:{i}").inc()
    with ServerThread(collab, telemetry_interval=0.0) as thread:
        client = NetworkClient("127.0.0.1", thread.port, "user0")
        session = client.session()
        handle = session.create_document("scrape").doc
        state = {"anchor": session.handle(handle).begin_char}
        telemetry = thread.server.telemetry
        try:

            def typing_load():
                # A burst of wire keystrokes + one sample between
                # scrapes: the poller never sees an idle server.
                anchor = state["anchor"]
                for __ in range(5):
                    anchor = session.insert_after(handle, anchor, "k")[0]
                state["anchor"] = anchor
                telemetry.sample()
                return (), {}

            def one_scrape():
                return scrape("127.0.0.1", thread.port, kind="stats")

            benchmark.group = "D7 stats scrape (round-trip under load)"
            benchmark.extra_info["series"] = n_series
            payload = benchmark.pedantic(one_scrape, setup=typing_load,
                                         rounds=10, iterations=1)
        finally:
            client.close()
    snapshot = payload["telemetry"]
    labelled = [name for name in snapshot["series"] if "{" in name]
    assert len(labelled) >= n_series, "scrape lost the labelled series"
    assert payload["metrics"], "scrape returned no metrics"
    # Ride the time-series snapshot into BENCH_obs.json (v2 block).
    benchmark.extra_info["telemetry"] = snapshot


# ---------------------------------------------------------------------------
# The client replica (no sockets: what happens after the frame is decoded)
# ---------------------------------------------------------------------------

_DOC = Oid("bench", 0)


def _char_row(seq: int, ch: str, prev, nxt, *, deleted: bool = False) -> dict:
    """A whole row image as the wire carries it (defaults left out)."""
    row = {"char": Oid("char", seq), "ch": ch, "prev": prev, "next": nxt,
           "author": "ana"}
    if deleted:
        row["deleted"] = True
    return row


def _snapshot(size: int) -> dict:
    """An open snapshot of ``size`` characters, every tenth logically
    deleted (cursor anchors must slide over those)."""
    last = size + 1
    rows = [_char_row(0, "", None, Oid("char", 1))]
    rows += [_char_row(i, "x", Oid("char", i - 1), Oid("char", i + 1),
                       deleted=i % 10 == 0) for i in range(1, last)]
    rows.append(_char_row(last, "", Oid("char", last - 1), None))
    return {"doc": _DOC, "begin": rows[0]["char"], "end": rows[-1]["char"],
            "rep_seq": 0, "rows": rows}


def _mirror(size: int) -> DocMirror:
    """A replica of ``size`` characters (see :func:`_snapshot`)."""
    return DocMirror.from_snapshot(_snapshot(size))


def _keystroke_and_lookups(mirror: DocMirror,
                           fresh: Iterator[int]) -> None:
    """One remote keystroke mid-document, then an editor's reads."""
    seq = mirror.last_seq + 1
    anchor = mirror.char_oid_at((seq * 7919) % mirror.length())
    before = mirror.rows[anchor]
    after = mirror.rows[before["next"]]
    typed = _char_row(next(fresh), "k", anchor, after["char"])
    mirror.apply(Delta(_DOC, seq, (
        typed, {"char": anchor, "next": typed["char"]},
        {"char": after["char"], "prev": typed["char"]})))
    n = mirror.length()
    position = mirror.position_of(typed["char"])
    assert mirror.char_oid_at(position) == typed["char"]
    assert mirror.visible_position_after(typed["char"]) == position + 1
    # A deleted anchor far from the edit: the cursor slides left.
    deleted = Oid("char", 10 * (1 + seq % (n // 20)))
    assert mirror.position_of(deleted) is None
    assert 0 < mirror.visible_position_after(deleted) < n
    mirror.char_oid_at(n - 1)


def _median_seconds(mirror: DocMirror, fresh: Iterator[int],
                    rounds: int = 200) -> float:
    samples = []
    for __ in range(rounds):
        started = perf_counter()
        _keystroke_and_lookups(mirror, fresh)
        samples.append(perf_counter() - started)
    return statistics.median(samples)


@pytest.mark.parametrize("label", list(MIRROR_SIZES))
def test_mirror_lookup_scaling(benchmark, label):
    """Applied delta + mixed lookups on the client replica.

    Carries its own flat-shape gate (it is part of the smoke slice,
    which skips the non-benchmark ``test_shape_*`` nodes): the same
    round on this replica and on a 1k one, timed the same way, may
    differ by at most ``MIRROR_FLAT_RATIO``.
    """
    size = MIRROR_SIZES[label]
    mirror = _mirror(size)
    fresh = iter(range(10 * size, 20 * size))

    benchmark.group = "D7 mirror lookup scaling (delta + reads)"
    benchmark.extra_info["doc_size"] = size
    benchmark.pedantic(_keystroke_and_lookups, args=(mirror, fresh),
                       rounds=200, iterations=1, warmup_rounds=5)
    assert mirror.check_integrity() == []

    small = _median_seconds(_mirror(MIRROR_SIZES["1k"]),
                            iter(range(10**6, 2 * 10**6)))
    here = _median_seconds(mirror, fresh)
    benchmark.extra_info["ratio_to_1k"] = round(here / small, 2)
    assert here <= MIRROR_FLAT_RATIO * small, (
        f"mirror lookups not flat: {small * 1e6:.0f}us at 1k -> "
        f"{here * 1e6:.0f}us at {label}")


def test_mirror_open_8k(benchmark):
    """A cold open on the client: one 8 000-row snapshot frame decoded
    (``FrameDecoder``) and adopted (``DocMirror.from_snapshot``)."""
    frame = encode_frame(Ack(op_seq=1, result=_snapshot(OPEN_ROWS)))

    def open_once() -> DocMirror:
        (ack,) = FrameDecoder().feed(frame)
        return DocMirror.from_snapshot(ack.result)

    benchmark.group = "D7 mirror open (snapshot frame -> replica)"
    benchmark.extra_info["rows"] = OPEN_ROWS + 2
    benchmark.extra_info["frame_bytes"] = len(frame)
    mirror = benchmark.pedantic(open_once, rounds=20, iterations=1,
                                warmup_rounds=2)
    assert mirror.length() == OPEN_ROWS - OPEN_ROWS // 10
    assert mirror.check_integrity() == []


def test_snapshot_render_8k(benchmark):
    """A cold open on the server: an 8 000-character document's rows
    taken from the table and rendered to one ACK frame
    (``CollabNetServer._doc_snapshot`` + ``encode_frame``).  Timed, then
    run once under ``tracemalloc``: ``traced_peak_bytes`` is the render's
    allocation peak (≈3.1 MiB from the stored tuples, 14.3 MiB through a
    dict per row), gated at ``RENDER_PEAK_BYTES``."""
    collab = _server(1)
    handle = collab.connect("user0").create_document(
        "big", text="x" * OPEN_ROWS)
    server = CollabNetServer(collab)

    def render() -> bytes:
        return encode_frame(Ack(op_seq=1,
                                result=server._doc_snapshot(handle)))

    benchmark.group = "D7 snapshot render (stored rows -> open frame)"
    benchmark.extra_info["rows"] = OPEN_ROWS + 2
    frame = benchmark.pedantic(render, rounds=20, iterations=1,
                               warmup_rounds=2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        render()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    benchmark.extra_info["frame_bytes"] = len(frame)
    benchmark.extra_info["traced_peak_bytes"] = peak
    assert peak <= RENDER_PEAK_BYTES, peak


def test_client_import_rss(benchmark):
    """A fresh wire-editor interpreter: timed from spawn to exit, and
    its peak resident set after the client imports gated at
    ``CLIENT_MAXRSS_KIB``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(sys.modules["repro"].__file__)))
    peaks: list[int] = []

    def spawn() -> None:
        done = subprocess.run([sys.executable, "-c", CLIENT_IMPORTS],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        peaks.append(int(done.stdout.split()[-1]))

    benchmark.group = "D7 client import (fresh interpreter)"
    benchmark.pedantic(spawn, rounds=3, iterations=1)
    benchmark.extra_info["client_peak_rss_kib"] = max(peaks)
    assert max(peaks) <= CLIENT_MAXRSS_KIB, peaks
