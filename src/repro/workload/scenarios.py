"""Ready-made scenarios: the LAN-party and a populated knowledge base.

:func:`run_lan_party` reproduces the demo's headline: several editors on
different (simulated) operating systems concurrently editing one document,
with layout, copy-paste and undo in the mix — then verifies that every
editor converged to the same text and that the character chain is intact.

:func:`build_knowledge_base` populates a server with a topic corpus,
reading/editing activity and cross-document pastes; it is the shared
fixture for the dynamic-folder, lineage, mining and search demos/benches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..collab.editor import EditorClient
from ..collab.server import CollaborationServer
from .corpus import CorpusSpec, load_corpus
from .typist import SimulatedTypist

#: The demo's editor fleet (§3: Windows XP, Linux, Mac OS X).
DEFAULT_PARTY = (
    ("ana", "windows-xp"),
    ("ben", "linux"),
    ("cleo", "macosx"),
)


@dataclass
class LanPartyReport:
    """Outcome of a LAN-party run."""

    participants: list
    operations: int
    elapsed_seconds: float
    final_length: int
    converged: bool
    chain_intact: bool
    per_user: dict = field(default_factory=dict)
    op_latencies: list = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.operations / self.elapsed_seconds


def run_lan_party(
    *,
    participants=DEFAULT_PARTY,
    rounds: int = 50,
    seed: int = 7,
    server: CollaborationServer | None = None,
    with_styles: bool = True,
    measure_latency: bool = False,
) -> LanPartyReport:
    """Run the word-processing LAN-party scenario.

    ``rounds`` operations per participant are interleaved round-robin
    (the in-process equivalent of concurrent typing).  Returns a report
    with convergence verification.
    """
    server = server or CollaborationServer()
    for user, __ in participants:
        server.register_user(user)
    host_user = participants[0][0]
    host = server.connect(host_user, os_name=participants[0][1])
    shared = host.create_document("lan-party", text="TeNDaX demo. ")

    editors: list[EditorClient] = [EditorClient(host, shared.doc)]
    for i, (user, os_name) in enumerate(participants[1:], start=1):
        session = server.connect(user, os_name=os_name)
        editors.append(EditorClient(session, shared.doc))

    typists = []
    for i, editor in enumerate(editors):
        typist = SimulatedTypist(editor, seed=seed + i)
        if with_styles:
            style = server.styles.define_style(
                f"style-{editor.user}", {"bold": i % 2 == 0,
                                         "italic": i % 2 == 1},
                editor.user,
            )
            typist.add_style(style)
        typists.append(typist)

    latencies: list[float] = []
    start = time.perf_counter()
    for __ in range(rounds):
        for typist in typists:
            if measure_latency:
                t0 = time.perf_counter()
                typist.step()
                latencies.append(time.perf_counter() - t0)
            else:
                typist.step()
    elapsed = time.perf_counter() - start

    texts = {editor.user: editor.text() for editor in editors}
    converged = len(set(texts.values())) == 1
    chain_intact = editors[0].handle.check_integrity() == []
    return LanPartyReport(
        participants=[u for u, __ in participants],
        operations=sum(t.stats.operations for t in typists),
        elapsed_seconds=elapsed,
        final_length=editors[0].handle.length(),
        converged=converged,
        chain_intact=chain_intact,
        per_user={t.editor.user: t.stats for t in typists},
        op_latencies=latencies,
    )


def run_traced_duet(
    *,
    text: str = "causal trace",
    faults=None,
    slow_threshold: float | None = None,
    max_traces: int = 1024,
    wal_path: str | None = None,
):
    """Two editors alternating keystrokes on one document, fully traced.

    The fixed scenario behind ``repro trace``, the trace-export golden
    test and ``tools/trace_smoke.py``: ana and ben type ``text`` one
    character each in turn, every keystroke producing one causal trace
    (editor op → txn commit → WAL fsync → dispatch → remote deliver →
    apply).  Deterministic — same text, same trace/span id sequence —
    except for wall-clock timestamps.  Held notifications (if ``faults``
    holds any) are drained before returning.

    Returns ``(server, buffer)`` where ``buffer`` is the
    :class:`~repro.obs.TraceBuffer` holding every finished trace.
    """
    from ..obs.export import TraceBuffer

    server = CollaborationServer(faults=faults, wal_path=wal_path)
    buffer = TraceBuffer(max_traces=max_traces,
                         slow_threshold=slow_threshold,
                         registry=server.db.obs.registry)
    server.db.obs.tracer.add_sink(buffer)
    server.register_user("ana")
    server.register_user("ben")
    ana = server.connect("ana", os_name="linux")
    shared = ana.create_document("duet", text="")
    ben = server.connect("ben", os_name="macosx")
    editors = [EditorClient(ana, shared.doc), EditorClient(ben, shared.doc)]
    for i, char in enumerate(text):
        editor = editors[i % 2]
        editor.move_end()
        editor.type(char)
    server.delivery.drain()
    return server, buffer


@dataclass
class KnowledgeBase:
    """The populated server of :func:`build_knowledge_base`."""

    server: CollaborationServer
    handles: list
    users: tuple


def build_knowledge_base(
    *,
    n_docs: int = 20,
    seed: int = 7,
    n_reads: int = 40,
    n_pastes: int = 10,
    server: CollaborationServer | None = None,
) -> KnowledgeBase:
    """Populate a server with documents, reads and cross-document pastes."""
    import random
    rng = random.Random(seed)
    server = server or CollaborationServer()
    spec = CorpusSpec(n_docs=n_docs, seed=seed)
    for user in spec.creators:
        server.register_user(user)
    handles = load_corpus(server.documents, spec)

    # Reading activity (drives dynamic folders and "most read").
    for __ in range(n_reads):
        user = rng.choice(spec.creators)
        handle = rng.choice(handles)
        server.documents.open(handle.doc, user).close()

    # Cross-document pastes (drive lineage and "most cited").
    sessions = {user: server.connect(user) for user in spec.creators}
    for __ in range(n_pastes):
        user = rng.choice(spec.creators)
        session = sessions[user]
        src, dst = rng.sample(handles, 2)
        src_handle = session.open(src.doc)
        dst_handle = session.open(dst.doc)
        if src_handle.length() < 10:
            continue
        count = rng.randint(5, min(40, src_handle.length()))
        pos = rng.randint(0, src_handle.length() - count)
        session.copy(src.doc, pos, count)
        session.paste(dst.doc, rng.randint(0, dst_handle.length()))
    return KnowledgeBase(server=server, handles=handles,
                         users=spec.creators)
