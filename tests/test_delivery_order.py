"""One delivery model, one ordering spec for both transports.

Generated editing programmes run on one server, driven by two in-process
sessions and two wire clients, with a :class:`DeliveryFault` (held and
reordered inbox deliveries) and a :class:`NetFault` (dropped, delayed
and reordered frames) both armed.  However the plans played out, once
the bus is drained and the mirrors are healed:

* every reader was handed exactly one notice per commit of the document
  that it did not make itself, in ``rep_seq`` order — through the
  :class:`~repro.collab.bus.DeliveryBus` for an in-process session (and
  its inbox then holds each one), through its connection for a wire
  session;
* no wire session's inbox ever held an entry;
* every :class:`~repro.net.mirror.DocMirror` equals the server's handle
  by SHA of the text, with ``check_integrity()`` clean.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from time import monotonic

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collab import CollaborationServer
from repro.errors import TendaxError
from repro.faults import DeliveryFault, FaultInjector, FaultPlan, NetFault
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


@settings(max_examples=25, deadline=None)
@given(programme=steps, seed=st.integers(0, 2 ** 16))
def test_every_reader_gets_every_commit_once_in_order(programme, seed):
    plan = FaultPlan(
        delivery=DeliveryFault(p_hold=0.4, reorder=True),
        net=NetFault(p_drop=0.15, p_delay=0.3, max_delay=0.002,
                     reorder_window=3),
        seed=seed)
    faults = FaultInjector(plan)
    server = CollaborationServer(faults=faults)
    for user in LOCAL + REMOTE:
        server.register_user(user)
    with ServerThread(server, faults=faults,
                      telemetry_interval=0.0) as thread:
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

            # Every hand-off: (reader, rep_seq, origin, into an inbox).
            handed: list[tuple[int, int, int | None, bool]] = []
            send = server.delivery.send

            def bus_send(session, notification):
                handed.append((session.id, notification.rep_seq,
                               notification.origin_session, True))
                return send(session, notification)

            server.delivery.send = bus_send
            for session in wire.values():
                def hand_off(doc, notice, session=session,
                             transport=session.transport):
                    n = notice.notification
                    handed.append((session.id, n.rep_seq, n.origin_session,
                                   False))
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
            origin = {rep_seq: o for _, rep_seq, o, _ in handed}
            if origin:
                assert sorted(origin) == list(
                    range(min(origin), max(origin) + 1))
            for session in sessions:
                got = [seq for reader, seq, _, _ in handed
                       if reader == session.id]
                assert got == [seq for seq in sorted(origin)
                               if origin[seq] != session.id], session.user
                if session in in_process:
                    assert sorted(n.rep_seq for n in
                                  session.notifications()) == got
            assert not any(reader in wire for reader, _, _, inbox in handed
                           if inbox)
            for session in wire.values():
                assert session.inbox == []
            for client in clients:
                mirror = client.mirrors[doc]
                assert sha(mirror.text()) == sha(truth.text())
                assert mirror.check_integrity() == []
        finally:
            for client in clients:
                client.close()


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
