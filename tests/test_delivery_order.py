"""One delivery model, one fault model, one ordering spec for both
transports.

Generated editing programmes run on one server, driven by two in-process
sessions and two wire clients, under one seeded
:class:`DeliveryFault` that drops, holds and reorders within a window —
applied by the :class:`~repro.collab.bus.DeliveryBus` to every reader
alike.  However the plan played out, once the bus is drained and the
mirrors are healed:

* the fan-out handed every reader exactly one notice per commit of the
  document that it did not make itself, in ``rep_seq`` order, through
  the bus, whatever the reader's transport;
* each reader received exactly what the bus did not drop for it — an
  in-process session in its inbox, a wire session on its connection —
  and no wire session's inbox ever held an entry;
* every :class:`~repro.net.mirror.DocMirror` equals the server's handle
  by SHA of the text, with ``check_integrity()`` clean.

With a window, nothing the bus delivers is overtaken by more than
``window - 1`` items (checked in process, where no connection drains
the bus).
"""

from __future__ import annotations

import hashlib
import sys
import threading
from time import monotonic, perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collab import CollaborationServer
from repro.collab.awareness import CursorState
from repro.errors import TendaxError
from repro.faults import DeliveryFault, FaultInjector, FaultPlan
from repro.net import NetworkClient, ServerThread

LOCAL, REMOTE = ("ana", "ben"), ("cy", "dee")
KINDS = ("type", "type", "type", "delete", "paste", "undo", "batch")

steps = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(KINDS),
              st.integers(0, 999), st.sampled_from("ab xyz")),
    min_size=1, max_size=20)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_step(session, handle, doc, kind: str, where: int, ch: str) -> None:
    """One editor action at a position scaled to the actor's replica."""
    length = handle.length()
    pos = where * (length + 1) // 1000
    if kind == "type":
        session.insert(doc, pos, ch)
    elif kind == "delete" and pos < length:
        session.delete(doc, pos, min(2, length - pos))
    elif kind == "paste" and length:
        count = min(5, length)
        session.copy(doc, min(pos, length - count), count)
        session.paste(doc, pos)
    elif kind == "undo":
        session.undo(doc)
    elif kind == "batch":
        anchor = handle.anchor_for(pos)
        with session.batch():
            for letter in ch * 3:
                anchor = session.insert_after(doc, anchor, letter)[0]


#: The one plan both transports run under.
PLAN = DeliveryFault(p_hold=0.4, reorder=True, p_drop=0.15, window=3)


@settings(max_examples=25, deadline=None)
@given(programme=steps, seed=st.integers(0, 2 ** 16))
def test_every_reader_gets_every_commit_once_in_order(programme, seed):
    server = CollaborationServer(
        faults=FaultInjector(FaultPlan(delivery=PLAN, seed=seed)))
    for user in LOCAL + REMOTE:
        server.register_user(user)
    with ServerThread(server, telemetry_interval=0.0) as thread:
        clients = [NetworkClient("127.0.0.1", thread.port, user)
                   for user in REMOTE]
        try:
            in_process = [server.connect(user) for user in LOCAL]
            doc = in_process[0].create_document("pad", text="seed text").doc
            in_process[1].open(doc)
            remotes = [client.session() for client in clients]
            for remote in remotes:
                remote.open(doc)
            sessions = in_process + remotes
            handles = [session.handle(doc) for session in sessions]
            wire = {s.id: s for s in server.sessions()
                    if s.transport is not None}
            assert sorted(s.user for s in wire.values()) == list(REMOTE)

            # What the fan-out hands the bus: (reader, rep_seq, origin).
            handed: list[tuple[int, int, int | None]] = []
            # What the bus hands each wire reader's connection.
            received: dict[int, list[int]] = {sid: [] for sid in wire}
            send = server.delivery.send

            def bus_send(reader, doc, item):
                assert not isinstance(item, CursorState)
                n = item.notification
                handed.append((reader.id, n.rep_seq, n.origin_session))
                send(reader, doc, item)

            server.delivery.send = bus_send
            for session in wire.values():
                def hand_off(doc, notice, session=session,
                             transport=session.transport):
                    received[session.id].append(
                        notice.notification.rep_seq)
                    transport(doc, notice)
                session.transport = hand_off
            for session in in_process:
                session.notifications()

            for actor, kind, where, ch in programme:
                try:
                    run_step(sessions[actor], handles[actor], doc,
                             kind, where, ch)
                except TendaxError:
                    pass  # a stale position, nothing to undo: carry on
                for client in clients:
                    client.poll()
            server.delivery.drain()
            for session in in_process:
                received[session.id] = [
                    n.rep_seq for n in session.notifications()]

            truth = server.documents.handle(doc)
            settle_until = monotonic() + 10.0
            while any(c.mirrors[doc].text() != truth.text()
                      for c in clients):
                assert monotonic() < settle_until, "mirrors never healed"
                for client in clients:
                    client.poll(timeout=0.01)
                    client.sync(doc)

            # One notice per commit and reader, never to its origin, in
            # rep_seq order, whatever the transport.
            assert server.db.changefeed().errors == []
            origin = {rep_seq: o for _, rep_seq, o in handed}
            if origin:
                assert sorted(origin) == list(
                    range(min(origin), max(origin) + 1))
            lost = 0
            for session in sessions:
                got = [seq for reader, seq, _ in handed
                       if reader == session.id]
                assert got == [seq for seq in sorted(origin)
                               if origin[seq] != session.id], session.user
                # Each reader received a subset of what it was handed,
                # each notice at most once; the rest the bus dropped.
                delivered = received[session.id]
                assert len(set(delivered)) == len(delivered)
                assert set(delivered) <= set(got), session.user
                lost += len(got) - len(delivered)
            assert server.delivery.pending == 0
            assert lost == server.delivery.stats["dropped"]
            for session in wire.values():
                assert session.inbox == []
            for client in clients:
                mirror = client.mirrors[doc]
                assert sha(mirror.text()) == sha(truth.text())
                assert mirror.check_integrity() == []
        finally:
            for client in clients:
                client.close()


def test_the_window_bounds_how_far_an_item_is_overtaken():
    """Under a windowed plan a held item holds everything behind it, and
    the backlog is released, shuffled, at ``window`` items: however the
    seeds play out, an in-process reader's inbox never shows a notice
    overtaken by more than ``window - 1`` later ones — and across the
    seeds the bound is reached."""
    window, worst = 3, 0
    for seed in range(8):
        server = CollaborationServer(faults=FaultInjector(FaultPlan(
            delivery=DeliveryFault(p_hold=0.5, window=window),
            seed=seed)))
        for user in LOCAL:
            server.register_user(user)
        writer, reader = (server.connect(user) for user in LOCAL)
        doc = writer.create_document("pad").doc
        reader.open(doc)
        reader.notifications()
        for i in range(60):
            writer.insert(doc, i, "x")
        server.delivery.drain()
        seen = [n.rep_seq for n in reader.notifications()]
        assert sorted(seen) == list(range(min(seen), min(seen) + 60))
        for position, seq in enumerate(seen):
            overtaken_by = sum(1 for later in seen[:position] if later > seq)
            worst = max(worst, overtaken_by)
            assert overtaken_by <= window - 1, (seed, seen)
        assert server.delivery.stats["held"] > 0
    assert worst == window - 1


def test_the_window_bound_holds_across_sending_threads():
    """The bus rolls, holds and hands off under one lock, so sessions
    committing on several threads share one backlog: each typist's
    document reaches the reader with no notice overtaken by more than
    ``window - 1`` of that document's later ones."""
    window, typists, keystrokes = 3, 4, 40
    server = CollaborationServer(faults=FaultInjector(FaultPlan(
        delivery=DeliveryFault(p_hold=0.5, window=window), seed=5)))
    users = [f"typist{i}" for i in range(typists)]
    for user in users + ["reader"]:
        server.register_user(user)
    sessions = [server.connect(user) for user in users]
    docs = [s.create_document(f"pad-{i}").doc for i, s in enumerate(sessions)]
    reader = server.connect("reader")
    for doc in docs:
        reader.open(doc)
    reader.notifications()

    def type_into(session, doc):
        for _ in range(keystrokes):
            session.insert(doc, 0, "x")

    workers = [threading.Thread(target=type_into, args=pair)
               for pair in zip(sessions, docs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    server.delivery.drain()
    seen: dict = {}
    for n in reader.notifications():
        seen.setdefault(n.doc, []).append(n.rep_seq)
    assert sorted(seen) == sorted(docs)
    for doc, seqs in seen.items():
        assert sorted(seqs) == list(range(min(seqs), min(seqs) + keystrokes))
        for position, seq in enumerate(seqs):
            overtaken_by = sum(1 for later in seqs[:position] if later > seq)
            assert overtaken_by <= window - 1, (doc, seqs)
    assert server.delivery.stats["held"] > 0


def test_a_stamped_drain_releases_only_a_backlog_older_than_the_stamp():
    """``drain(held_before=)``, a wire server's release point: nothing
    goes out while the oldest held item is younger than the stamp; once
    it is older, the whole backlog does."""
    server = CollaborationServer(faults=FaultInjector(FaultPlan(
        delivery=DeliveryFault(p_hold=1.0, reorder=False), seed=1)))
    for user in LOCAL:
        server.register_user(user)
    writer, reader = (server.connect(user) for user in LOCAL)
    doc = writer.create_document("pad").doc
    reader.open(doc)
    reader.notifications()
    before = perf_counter()
    writer.insert(doc, 0, "a")
    writer.insert(doc, 1, "b")
    assert server.delivery.drain(held_before=before) == 0
    assert server.delivery.pending == 2
    assert reader.notifications() == []
    assert server.delivery.drain(held_before=perf_counter()) == 2
    assert [n.rep_seq for n in reader.notifications()] == [2, 3]
    assert server.delivery.drain(held_before=perf_counter()) == 0


def test_concurrent_operations_keep_their_own_notices():
    """An operation's notices belong to the thread that opened it.

    More typing threads than cores, each a session with its own document
    that every other session (and a wire reader) has open, under a short
    switch interval: every reader is handed each other document's
    commits exactly once and is never told of its own, and the wire
    mirrors converge.  An operation shared across threads would hold one
    thread's notices in another's operation, or name the wrong origin."""
    typists, keystrokes = 4, 30
    server = CollaborationServer()
    users = [f"typist{i}" for i in range(typists)]
    for user in users + ["watcher"]:
        server.register_user(user)
    with ServerThread(server, telemetry_interval=0.0) as thread:
        watcher = NetworkClient("127.0.0.1", thread.port, "watcher")
        try:
            sessions = [server.connect(user) for user in users]
            docs = [s.create_document(f"pad-{i}").doc
                    for i, s in enumerate(sessions)]
            for session in sessions:
                for doc in docs:
                    session.open(doc)
                session.notifications()
            for doc in docs:
                watcher.session().open(doc)
            errors: list[Exception] = []

            def type_into(session, doc):
                try:
                    for _ in range(keystrokes):
                        session.insert(doc, 0, "x")
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            workers = [threading.Thread(target=type_into, args=pair)
                       for pair in zip(sessions, docs)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            assert errors == []
            base = server.rep_seqs[docs[0]] - keystrokes
            for session, own in zip(sessions, docs):
                got: dict = {}
                for n in session.notifications():
                    got.setdefault(n.doc, []).append(n.rep_seq)
                assert own not in got
                assert got == {doc: list(range(base + 1, base + keystrokes
                                               + 1))
                               for doc in docs if doc != own}
            deadline = monotonic() + 10.0
            for doc in docs:
                truth = server.documents.handle(doc).text()
                while watcher.mirrors[doc].text() != truth:
                    assert monotonic() < deadline, "watcher never converged"
                    watcher.poll(timeout=0.01)
                assert watcher.mirrors[doc].check_integrity() == []
        finally:
            watcher.close()
