"""End-to-end integration: the whole §3 demo in one scenario.

One server, several users, a full day of work: collaborative editing with
layout and objects, a workflow, dynamic folders watching, copy-paste
lineage, search over the result, versioning and a crash-recovery at the
end.  Each stage asserts the cross-subsystem invariants.
"""

import pytest

from repro import (
    CollaborationServer,
    EditorClient,
    LineageGraph,
    MetadataCollector,
    SearchEngine,
    TaskList,
    VersionManager,
    VisualMiner,
    WorkflowManager,
)
from repro.clock import SimulatedClock
from repro.db import recover_file
from repro.folders import AccessedBy, DynamicFolderManager, StateIs
from repro.text import DocumentStore


@pytest.fixture
def world(tmp_path):
    clock = SimulatedClock()
    server = CollaborationServer(clock=clock,
                                 wal_path=str(tmp_path / "wal.jsonl"))
    server.register_user("ana")
    server.register_user("ben")
    server.register_user("cleo", roles=("reviewers",))
    return clock, server


def test_full_document_lifecycle(world):
    clock, server = world
    folders = DynamicFolderManager(server.db)
    finals = folders.create_folder("finals", StateIs("final"))
    cleo_read = folders.create_folder(
        "cleo-read", AccessedBy("cleo", "read"))
    workflow = WorkflowManager(server.db, server.principals)
    tasks = TaskList(workflow)
    versions = VersionManager(server.db)
    meta = MetadataCollector(server.db)

    # --- stage 1: collaborative authoring -----------------------------------
    ana = server.connect("ana", os_name="windows-xp")
    ben = server.connect("ben", os_name="linux")
    report = ana.create_document("annual-report",
                                 text="Annual Report\n\nIntro: ")
    editor_ana = EditorClient(ana, report.doc)
    editor_ben = EditorClient(ben, report.doc)
    editor_ana.move_end()
    editor_ana.type("our systems performed well. ")
    editor_ben.move_end()
    editor_ben.type("Revenue grew substantially. ")
    assert editor_ana.text() == editor_ben.text()

    heading = server.styles.define_style(
        "h1", {"bold": True, "heading_level": 1}, "ana")
    editor_ana.select(0, 13)
    editor_ana.style_selection(heading)
    table = server.objects.insert_table(report, report.length(), "ben",
                                        rows=2, cols=2)
    server.objects.set_cell(table, 0, 0, "Q1", "ben")

    v1 = versions.tag(report, "draft-1", "ana")

    # --- stage 2: the workflow ------------------------------------------------
    process = workflow.define_process(report.doc, "review", "ana")
    review = workflow.add_task(process, "review numbers", "reviewers",
                               "ana")
    workflow.start_process(process, "ana")
    assert tasks.tasks_for("cleo")[0]["name"] == "review numbers"

    cleo = server.connect("cleo", os_name="macosx")
    cleo.open(report.doc)           # logged read -> dynamic folder reacts
    assert report.doc in cleo_read
    server.notes.add_note(report, 20, "verify revenue claim", "cleo")
    workflow.start_task(review, "cleo")
    workflow.complete_task(review, "cleo")
    assert workflow.process_status(process)["state"] == "completed"

    # --- stage 3: lineage via a derived document ------------------------------
    summary = ana.create_document("exec-summary", text="Summary: ")
    ana.open(report.doc)
    ana.copy(report.doc, 15, 25)
    ana.paste(summary.doc, 9)
    lineage = LineageGraph(server.db)
    assert str(report.doc) in lineage.transitive_sources(summary.doc)
    assert lineage.copied_fraction(summary.doc) > 0.5

    # --- stage 4: publishing flips the dynamic folder --------------------------
    assert report.doc not in finals
    server.documents.set_state(report.doc, "final", "ana")
    assert report.doc in finals

    # --- stage 5: search finds it, metadata is consolidated --------------------
    engine = SearchEngine(server.db, meta)
    hits = engine.search("revenue state:final")
    assert [h.name for h in hits] == ["annual-report"]
    profile = meta.document_profile(report.doc)
    assert set(profile["authors"]) == {"ana", "ben"}
    assert "cleo" in profile["readers"]
    assert profile["copies_out"] == 1
    assert profile["notes"] == 1

    # --- stage 6: the document space is minable --------------------------------
    doc_map = VisualMiner(server.db).build_map()
    assert doc_map.stats()["documents"] == 2

    # --- stage 7: versions still reconstruct history ---------------------------
    assert "performed well" in versions.text_at(v1)
    assert "Summary" not in versions.text_at(v1)

    # --- stage 8: crash and recover ---------------------------------------------
    recovered = recover_file(server.db.wal.path)
    recovered_store = DocumentStore(recovered)
    recovered_report = recovered_store.handle(report.doc)
    assert recovered_report.text() == report.text()
    assert recovered_report.check_integrity() == []
    # Metadata tables came back too.
    assert recovered.query("tx_copylog").count() == 1
    assert recovered.query("tx_tasks").count() == 1


def test_concurrent_documents_do_not_interfere(world):
    clock, server = world
    ana = server.connect("ana")
    ben = server.connect("ben")
    doc_a = ana.create_document("a", text="alpha")
    doc_b = ben.create_document("b", text="beta")
    ana.insert(doc_a.doc, 5, "!")
    ben.insert(doc_b.doc, 4, "?")
    assert doc_a.text() == "alpha!"
    assert doc_b.text() == "beta?"
    # Cross-document notifications don't leak.
    assert all(n.doc == doc_a.doc for n in ana.notifications())
    assert all(n.doc == doc_b.doc for n in ben.notifications())


def test_threaded_multi_document_editing(world):
    """Real threads editing separate documents concurrently."""
    import threading
    clock, server = world
    ana = server.connect("ana")
    docs = [ana.create_document(f"doc-{i}", text="seed ")
            for i in range(4)]
    errors = []

    def editor_thread(index):
        try:
            session = server.connect("ben")
            handle = session.open(docs[index].doc)
            for i in range(50):
                session.insert(docs[index].doc, handle.length(), "x")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=editor_thread, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for doc in docs:
        assert doc.length() == 55
        assert doc.check_integrity() == []
