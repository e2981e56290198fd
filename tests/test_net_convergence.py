"""Socket-level convergence under seeded fault plans + causal traces.

Two real :class:`~repro.net.NetworkClient` editors over loopback TCP,
a :class:`~repro.net.ServerThread` whose outbound change frames pass
through a seeded :class:`~repro.faults.plan.NetFault` plan (drop /
delay / reorder).  After an interleaved editing run both replicas must
equal the server's authoritative document — text, styled runs and
chain integrity — with the healing mechanism the plan demands:

* delay/reorder-only plans converge on the pure delta path
  (``mirror.resyncs == 0``);
* drop plans legitimately heal through anti-entropy resync
  (``resyncs >= 1``).

Presence obeys the same plans: the cursor an edit leaves behind travels
inside the edit's NOTIFY, so a reader never sees the typist's cursor
anywhere but just after the text it has applied; a plain cursor move is
still a frame of its own and survives loss through the snapshot.

The last test follows one keystroke's trace across all three
processes: the local editor's ``net.rpc``, the server's ``net.op`` /
``net.fanout`` and the remote editor's ``net.apply`` all share one
``trace_id``.
"""

from __future__ import annotations

import random
from time import monotonic

import pytest

from repro.collab import CollaborationServer, EditorClient
from repro.errors import TendaxError
from repro.faults import FaultInjector, FaultPlan, NetFault
from repro.net import NetworkClient, ServerThread
from repro.obs import TraceBuffer, Tracer

SETTLE_SECONDS = 10.0


def make_server(net_fault: NetFault | None):
    collab = CollaborationServer()
    for user in ("ana", "ben", "judge"):
        collab.register_user(user)
    faults = None
    if net_fault is not None:
        faults = FaultInjector(FaultPlan(seed=0).with_net(net_fault))
    return collab, ServerThread(collab, faults=faults)


def settle(clients, doc, truth, timeout: float = SETTLE_SECONDS) -> None:
    """Poll (and periodically resync) until every replica matches.

    Compares styled runs, not just text: a dropped style-only NOTIFY
    must be healed too, even though it never changes ``text()``.
    """
    expected = truth.styled_runs()
    deadline = monotonic() + timeout
    last_sync = monotonic()
    while any(c.mirrors[doc].styled_runs() != expected for c in clients):
        assert monotonic() < deadline, (
            f"replicas did not converge: "
            f"{[c.mirrors[doc].text() for c in clients]!r} "
            f"!= {truth.text()!r}")
        for client in clients:
            client.poll(timeout=0.02)
        if monotonic() - last_sync > 0.4:
            for client in clients:
                client.sync(doc)
            last_sync = monotonic()


def interleaved_edit(rng: random.Random, sessions, handles, doc,
                     styles, rounds: int) -> None:
    """A seeded mixed workload: inserts, deletes, style flips, pastes,
    undo/redo and batched bursts."""
    alphabet = "abcdefghij "
    for _ in range(rounds):
        i = rng.randrange(len(sessions))
        session, handle = sessions[i], handles[i]
        length = handle.length()
        roll = rng.random()
        # A stale replica may address positions the server has since
        # deleted; the server answers with an application ERROR and the
        # connection (and the workload) carries on — like a real editor.
        try:
            if roll < 0.70 or length < 4:
                pos = rng.randint(0, length)
                session.insert(doc, pos, rng.choice(alphabet))
            elif roll < 0.80:
                pos = rng.randrange(length)
                session.delete(doc, pos,
                               min(rng.randint(1, 3), length - pos))
            elif roll < 0.86:
                pos = rng.randrange(length)
                count = min(rng.randint(1, 5), length - pos)
                session.apply_style(doc, pos, count, rng.choice(styles))
            elif roll < 0.91:
                count = min(rng.randint(4, 24), length)
                session.copy(doc, rng.randint(0, length - count), count)
                session.paste(doc, rng.randint(0, length))
            elif roll < 0.96:
                session.undo(doc)
                if rng.random() < 0.5:
                    session.redo(doc)
            else:
                anchor = handle.anchor_for(rng.randint(0, length))
                with session.batch():
                    for ch in "burst"[:rng.randint(2, 5)]:
                        anchor = session.insert_after(doc, anchor, ch)[0]
        except TendaxError:
            continue  # a stale position, nothing to undo: carry on


@pytest.mark.parametrize("plan_seed", range(5), ids=lambda s: f"seed{s}")
def test_seeded_fault_plans_converge(plan_seed):
    """Drop+delay+reorder plans: replicas match the server exactly."""
    plan = FaultPlan.net_only(plan_seed)
    collab, thread = make_server(plan.net)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            styles = [
                collab.styles.define_style("bold", {"bold": True}, "judge"),
                collab.styles.define_style("mono", {"font": "mono"},
                                           "judge"),
                None,
            ]
            s_ana = ana.session()
            doc = s_ana.create_document("conv", text="seed text ").doc
            s_ben = ben.session()
            h_ana, h_ben = s_ana.handle(doc), s_ben.open(doc)
            rng = random.Random(plan_seed * 7919 + 17)
            interleaved_edit(rng, [s_ana, s_ben], [h_ana, h_ben], doc,
                             styles, rounds=60)

            judge = collab.connect("judge")
            truth = judge.open(doc)
            settle([ana, ben], doc, truth)
            for client, handle in ((ana, h_ana), (ben, h_ben)):
                assert handle.text() == truth.text()
                assert handle.styled_runs() == truth.styled_runs()
                assert handle.authors() == truth.authors()
                assert handle.check_integrity() == []
                assert client.mirrors[doc].missing_base == 0
        finally:
            ana.close()
            ben.close()


def test_delay_reorder_only_converges_on_the_delta_path():
    """A pure receiver heals reordering by buffering, never by resync.

    Single writer on purpose: a *writing* replica's ACK echo can race
    ahead of the delayed NOTIFY lane and legitimately schedule a
    resync, but a read-only replica under delay+reorder (no drops)
    sees every sequence number and must converge on buffered in-order
    application alone.
    """
    fault = NetFault(p_drop=0.0, p_delay=0.6, max_delay=0.01,
                     reorder_window=3)
    collab, thread = make_server(fault)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("delta").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            rng = random.Random(404)
            for _ in range(50):
                pos = rng.randint(0, s_ana.handle(doc).length())
                s_ana.insert(doc, pos, rng.choice("abcdefghij "))

            judge = collab.connect("judge")
            truth = judge.open(doc)
            # No sync() calls: the delta lane alone must get there.
            deadline = monotonic() + SETTLE_SECONDS
            while h_ben.text() != truth.text():
                assert monotonic() < deadline, "delta path stalled"
                ben.poll(timeout=0.02)
            assert ben.mirrors[doc].resyncs == 0
            # seq 1 was the create-document commit; 50 inserts follow.
            assert ben.mirrors[doc].last_seq == 51
            assert h_ben.check_integrity() == []
            delayed = ana.server_stats()["net"]["frames_delayed"]
            assert delayed >= 1  # the plan actually fired
        finally:
            ana.close()
            ben.close()


def test_drop_heavy_plan_heals_through_resync():
    """Dropped NOTIFYs leave sequence gaps only resync can close."""
    fault = NetFault(p_drop=0.5, p_delay=0.0, reorder_window=0)
    collab, thread = make_server(fault)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("lossy").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            for i in range(30):
                s_ana.insert(doc, i, "x")
            judge = collab.connect("judge")
            truth = judge.open(doc)
            settle([ben], doc, truth)
            assert h_ben.text() == "x" * 30
            # Half the frames died; ben must have pulled snapshots.
            assert ben.mirrors[doc].resyncs >= 1
            stats = ana.server_stats()
            assert stats["net"]["frames_dropped"] >= 1
            assert stats["net"]["resyncs"] >= 1
        finally:
            ana.close()
            ben.close()


#: Loss, latency and reordering together, on every NOTIFY and AWARENESS.
PRESENCE_FAULT = NetFault(p_drop=0.2, p_delay=0.4, max_delay=0.004,
                          reorder_window=3)


def test_typists_cursor_is_never_seen_away_from_its_text():
    """Whatever the plan does to the frames, no ``poll()`` of the reader
    shows the typist's cursor anywhere but just after the text the
    reader has applied.  With the cursor a frame of its own (protocol 1)
    it overtook or outlived its NOTIFY, anchored at a character the
    mirror did not hold, and resolved to position 0."""
    collab, thread = make_server(PRESENCE_FAULT)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("presence").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            typist = EditorClient(s_ana, doc)
            awareness = s_ben.server.awareness

            def check() -> None:
                seen = awareness.cursor_positions(h_ben).get("ana")
                assert seen in (None, h_ben.length()), (
                    f"ana's cursor at {seen}, ben holds "
                    f"{h_ben.length()} characters")

            text = "the quick brown fox jumps over the lazy dog " * 2
            for i, ch in enumerate(text):
                typist.type(ch)
                ben.poll(timeout=0.002)
                check()
                if i % 16 == 15:
                    ben.sync(doc)       # heal whatever the plan dropped
                    check()
            deadline = monotonic() + SETTLE_SECONDS
            while h_ben.text() != text:
                assert monotonic() < deadline, "ben never converged"
                ben.poll(timeout=0.02)
                check()
                ben.sync(doc)
                check()
            assert awareness.cursor_positions(h_ben)["ana"] == len(text)
            assert ana.server_stats()["net"]["frames_dropped"] >= 1
        finally:
            ana.close()
            ben.close()


def test_standalone_cursor_move_survives_the_plan():
    """A cursor move no edit implies is still an AWARENESS frame, and
    still faultable: delayed or reordered it lands on an anchor the
    mirror already holds; dropped, the next snapshot carries it."""
    collab, thread = make_server(PRESENCE_FAULT)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("moves", text="0123456789").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)
            typist = EditorClient(s_ana, doc)
            awareness = s_ben.server.awareness
            for target in (7, 2, 10, 0, 5):
                typist.move_to(target)
                deadline = monotonic() + SETTLE_SECONDS
                last_sync = monotonic()
                while awareness.cursor_positions(h_ben).get("ana") != target:
                    assert monotonic() < deadline, (
                        f"move to {target} never reached ben")
                    ben.poll(timeout=0.02)
                    if monotonic() - last_sync > 0.2:
                        ben.sync(doc)
                        last_sync = monotonic()
            assert ben.mirrors[doc].cursors_held == 0
        finally:
            ana.close()
            ben.close()


def test_a_patch_without_its_base_costs_exactly_one_resync():
    """History a replica lost (here: a row removed behind its back) is
    fetched, never invented: the patch is refused, one ``resync`` goes
    out saying why, and the server counts it."""
    collab, thread = make_server(None)
    with thread:
        ana = NetworkClient("127.0.0.1", thread.port, "ana")
        ben = NetworkClient("127.0.0.1", thread.port, "ben")
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("lost", text="abcdef").doc
            h_ben = ben.session().open(doc)
            mirror = ben.mirrors[doc]
            del mirror.rows[h_ben.char_oid_at(2)]
            s_ana.insert(doc, 3, "!")   # patches the lost row's ``next``
            s_ana.insert(doc, 0, ">")   # buffered behind the gap
            deadline = monotonic() + SETTLE_SECONDS
            while h_ben.text() != ">abc!def":
                assert monotonic() < deadline, "ben never healed"
                ben.poll(timeout=0.02)
            assert (mirror.missing_base, mirror.resyncs) == (1, 1)
            assert h_ben.check_integrity() == []
            stats = ana.server_stats()["net"]
            assert (stats["missing_base_rows"], stats["resyncs"]) == (1, 1)
        finally:
            ana.close()
            ben.close()


def test_one_keystroke_traces_across_three_processes():
    """net.rpc -> net.op/net.fanout -> net.apply share one trace_id."""
    collab, thread = make_server(None)
    server_spans = TraceBuffer()
    collab.db.obs.tracer.add_sink(server_spans)
    with thread:
        tracer_ana, tracer_ben = Tracer(), Tracer()
        buf_ana = tracer_ana.add_sink(TraceBuffer())
        buf_ben = tracer_ben.add_sink(TraceBuffer())
        ana = NetworkClient("127.0.0.1", thread.port, "ana",
                            tracer=tracer_ana)
        ben = NetworkClient("127.0.0.1", thread.port, "ben",
                            tracer=tracer_ben)
        try:
            s_ana = ana.session()
            doc = s_ana.create_document("traced", text="abc").doc
            s_ben = ben.session()
            h_ben = s_ben.open(doc)

            s_ana.insert(doc, 3, "!")
            notes = []
            deadline = monotonic() + SETTLE_SECONDS
            while h_ben.text() != "abc!":
                assert monotonic() < deadline, "notify never arrived"
                notes.extend(ben.poll(timeout=0.05))

            # The keystroke's trace id, from ana's local rpc span.
            rpc_spans = [s for t in buf_ana.traces() for s in t.spans
                         if s.name == "net.rpc"
                         and s.attrs.get("verb") == "insert"]
            assert len(rpc_spans) == 1
            trace_id = rpc_spans[0].trace_id

            # Wire envelopes carried it to the server...
            names_at_server = {s.name for t in server_spans.traces()
                               if t.trace_id == trace_id for s in t.spans}
            assert "net.op" in names_at_server
            assert "net.fanout" in names_at_server
            # ...whose own op/txn spans joined the same trace...
            assert "collab.op" in names_at_server
            assert "txn" in names_at_server
            # ...and on to the remote replica's apply.
            applies = [s for t in buf_ben.traces() for s in t.spans
                       if s.name == "net.apply"
                       and s.trace_id == trace_id]
            assert applies, "remote apply did not join the trace"
            # The notification record exposes the same linkage.
            assert any(n.trace_id == trace_id for n in notes)
        finally:
            ana.close()
            ben.close()
