"""System soak test: a simulated newsroom running every subsystem at once.

Five journalists and two editors work several articles concurrently
(typing, styling, pasting between articles and from "the wire"), while a
review workflow routes tasks, dynamic folders watch the document space,
and the search index follows along.  After the shift, every
cross-subsystem invariant is checked.

This is deliberately one big scenario: the unit suites prove each part;
this proves they cohabit.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.collab import CollaborationServer, EditorClient
from repro.errors import TendaxError
from repro.folders import (
    AuthoredBy,
    DynamicFolderManager,
    SizeAtLeast,
    StateIs,
)
from repro.lineage import LineageGraph
from repro.meta import MetadataCollector
from repro.search import SearchEngine
from repro.text import dbschema as S
from repro.workload import SimulatedTypist

JOURNALISTS = ("ana", "ben", "cleo", "dan", "eva")
EDITORS = ("frank", "gala")
ARTICLES = 4
OPS_PER_JOURNALIST = 60


def _typist_seed(master: int, user: str, article: int) -> int:
    """Per-typist seed derived from the master seed and the user *name*.

    ``hash(user)`` would be salted per process (PYTHONHASHSEED), silently
    changing the workload between runs; crc32 is stable, so the whole
    soak reproduces from ``--soak-seed`` alone.
    """
    return (master * 1_000_003 + zlib.crc32(user.encode()) + article) % 2**31


@pytest.fixture(scope="module")
def newsroom(request):
    seed = request.config.getoption("--soak-seed")
    # Captured stdout is replayed for failing tests: this line is the
    # reproduction handle.
    print(f"newsroom soak: rerun with --soak-seed {seed}")
    rng = random.Random(seed)
    server = CollaborationServer()
    for user in JOURNALISTS:
        server.register_user(user, roles=("journalists",))
    for user in EDITORS:
        server.register_user(user, roles=("editors",))

    meta = MetadataCollector(server.db)
    folders = DynamicFolderManager(server.db)
    folders.create_folder("publishable", StateIs("final"))
    folders.create_folder("long-reads", SizeAtLeast(800))
    folders.create_folder("ana-bylines", AuthoredBy("ana", 50))

    # Editors create the articles; journalists connect with editors.
    chief = server.connect("frank", os_name="linux")
    articles = [
        chief.create_document(f"article-{i}", text=f"Article {i} draft. ")
        for i in range(ARTICLES)
    ]
    sessions = {user: server.connect(user) for user in JOURNALISTS}
    editors_by_user = {
        user: [EditorClient(session, article.doc)
               for article in articles]
        for user, session in sessions.items()
    }
    typists = {
        user: [SimulatedTypist(editor, seed=_typist_seed(seed, user, i))
               for i, editor in enumerate(editors)]
        for user, editors in editors_by_user.items()
    }

    # The shift: interleaved random work + cross-article pastes + wire
    # copy (external lineage) + workflow churn.
    from repro.process import TaskList, WorkflowManager
    wf = WorkflowManager(server.db, server.principals)
    task_list = TaskList(wf)
    processes = []
    for article in articles:
        process = wf.define_process(article.doc, "review", "frank")
        first = wf.add_task(process, "fact-check", "journalists", "frank")
        second = wf.add_task(process, "sign-off", "editors", "frank",
                             depends_on=[first])
        wf.start_process(process, "frank")
        processes.append((process, first, second))

    for round_no in range(OPS_PER_JOURNALIST):
        for user in JOURNALISTS:
            typist = typists[user][round_no % ARTICLES]
            typist.step()
        if round_no % 10 == 5:
            # Wire copy: external content pasted with lineage.
            user = rng.choice(JOURNALISTS)
            session = sessions[user]
            article = rng.choice(articles)
            session.copy_external(
                f"wire item {round_no} from the agency", "reuters://wire")
            session.paste(article.doc, 0)
        if round_no % 15 == 7:
            # Cross-article paste.
            user = rng.choice(JOURNALISTS)
            session = sessions[user]
            src, dst = rng.sample(articles, 2)
            if src.length() > 20:
                session.copy(src.doc, 5, 10)
                session.paste(dst.doc, min(3, dst.length()))

    # Workflow completion and publication.
    for (process, first, second), article in zip(processes, articles):
        worker = rng.choice(JOURNALISTS)
        wf.start_task(first, worker)
        wf.complete_task(first, worker)
        wf.complete_task(second, "gala")
        server.documents.set_state(article.doc, "final", "gala")

    return {
        "server": server, "articles": articles, "folders": folders,
        "meta": meta, "workflow": wf, "task_list": task_list,
        "sessions": sessions,
    }


class TestNewsroomInvariants:
    def test_all_replicas_converged(self, newsroom):
        for article in newsroom["articles"]:
            texts = set()
            for session in newsroom["sessions"].values():
                texts.add(session.handle(article.doc).text())
            assert len(texts) == 1

    def test_all_chains_intact(self, newsroom):
        for article in newsroom["articles"]:
            assert article.check_integrity() == []

    def test_sizes_consistent(self, newsroom):
        server = newsroom["server"]
        for article in newsroom["articles"]:
            meta_row = server.documents.meta(article.doc)
            assert meta_row["size"] == article.length()

    def test_workflows_completed(self, newsroom):
        wf = newsroom["workflow"]
        for article in newsroom["articles"]:
            for process in wf.processes_in(article.doc):
                assert process["state"] == "completed"

    def test_dynamic_folders_reflect_publication(self, newsroom):
        publishable = newsroom["folders"].folder("publishable")
        docs = {article.doc for article in newsroom["articles"]}
        assert docs <= set(publishable.contents())

    def test_folder_incremental_equals_rescan(self, newsroom):
        for folder in newsroom["folders"].folders():
            incremental = set(folder.contents())
            folder.revalidate()
            assert incremental == set(folder.contents()), folder.name

    def test_lineage_recorded_for_wire_and_cross_pastes(self, newsroom):
        server = newsroom["server"]
        lineage = LineageGraph(server.db)
        graph = lineage.build()
        kinds = {attrs["kind"] for __, attrs in graph.nodes(data=True)}
        assert "external" in kinds
        assert graph.number_of_edges() >= 4

    def test_search_finds_live_content(self, newsroom):
        from repro.mining.features import tokenize
        engine = SearchEngine(newsroom["server"].db, newsroom["meta"])
        # Pick a token that provably survived the shift and find its doc.
        article = max(newsroom["articles"], key=lambda a: a.length())
        tokens = tokenize(article.text())
        assert tokens, "article ended the shift empty"
        needle = max(set(tokens), key=tokens.count)
        hits = engine.search(f"{needle} state:final")
        assert article.doc in {hit.doc for hit in hits}
        # Ranking options all work on the soaked corpus.
        for ranking in ("relevance", "newest", "most_cited", "most_read"):
            assert engine.search(needle, ranking=ranking)

    def test_metadata_profiles_consistent(self, newsroom):
        meta = newsroom["meta"]
        for article in newsroom["articles"]:
            profile = meta.document_profile(article.doc)
            visible = sum(
                c["visible"] for c in profile["contributions"].values())
            assert visible == article.length()
            prov = profile["provenance"]
            assert sum(prov.values()) == article.length()

    def test_recovery_reproduces_the_newsroom(self, newsroom):
        from repro.db import recover
        from repro.text import DocumentStore
        server = newsroom["server"]
        recovered = recover(server.db.wal.records())
        store = DocumentStore(recovered)
        for article in newsroom["articles"]:
            clone = store.handle(article.doc)
            assert clone.text() == article.text()
            assert clone.check_integrity() == []

    def test_no_consumer_errors_leaked(self, newsroom):
        assert newsroom["server"].db.changefeed().errors == []

    def test_undo_still_functional_after_soak(self, newsroom):
        server = newsroom["server"]
        session = newsroom["sessions"]["ana"]
        article = newsroom["articles"][0]
        before = article.text()
        session.insert(article.doc, 0, "LATE EDIT ")
        session.undo(article.doc)
        assert article.text() == before

    def test_metrics_snapshot_covers_every_subsystem(self, newsroom):
        # The acceptance bar for the observability layer: after a full
        # shift, one Database.metrics_snapshot() call reports on every
        # subsystem, and emits only catalogued names.
        from repro.obs import unknown_names

        server = newsroom["server"]
        # Search metrics must not depend on which soak test ran first.
        SearchEngine(server.db).search("article")
        snapshot = server.db.metrics_snapshot()
        prefixes = {name.split(".", 1)[0] for name in snapshot}
        assert {"txn", "wal", "lock", "collab", "search"} <= prefixes
        assert unknown_names(snapshot) == []
        assert snapshot["txn.committed"]["value"] > 0
        assert snapshot["txn.active"]["value"] == 0
        assert snapshot["wal.appends"]["value"] > 0
        assert snapshot["lock.acquired"]["value"] > 0
        assert snapshot["collab.op_seconds"]["count"] > 0
        assert snapshot["collab.notifications"]["value"] > 0
        assert snapshot["search.queries"]["value"] > 0
        assert snapshot["txn.duration_seconds"]["count"] \
            == sum(snapshot[f"txn.{end}"]["value"]
                   for end in ("committed", "aborted", "crashed"))
