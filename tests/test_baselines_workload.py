"""Tests for the baselines and the workload generators."""

import hashlib
import json
import random
from dataclasses import asdict

import pytest

from benchmarks.baselines import (
    FileLockedError,
    FileWordProcessor,
    OffsetDocumentStore,
)
from repro.db import Database
from repro.errors import InvalidPositionError, TendaxError
from repro.workload import (
    CorpusSpec,
    PortalSpec,
    SimulatedTypist,
    build_knowledge_base,
    build_portal,
    generate_corpus,
    generate_text,
    load_corpus,
    run_lan_party,
)


class TestFileWordProcessor:
    def test_single_writer_lock(self):
        wp = FileWordProcessor()
        wp.create("doc.txt", "content")
        wp.open_for_edit("doc.txt", "ana")
        with pytest.raises(FileLockedError):
            wp.open_for_edit("doc.txt", "ben")
        wp.close("doc.txt", "ana")
        wp.open_for_edit("doc.txt", "ben")

    def test_reopen_by_same_user(self):
        wp = FileWordProcessor()
        wp.create("doc.txt")
        wp.open_for_edit("doc.txt", "ana")
        wp.open_for_edit("doc.txt", "ana")  # re-entrant

    def test_save_requires_lock(self):
        wp = FileWordProcessor()
        wp.create("doc.txt")
        with pytest.raises(FileLockedError):
            wp.save("doc.txt", "ana", "text")

    def test_insert_delete(self):
        wp = FileWordProcessor()
        wp.create("doc.txt", "hello world")
        wp.open_for_edit("doc.txt", "ana")
        wp.insert("doc.txt", "ana", 5, ",")
        wp.delete("doc.txt", "ana", 0, 2)
        assert wp.get("doc.txt").text == "llo, world"

    def test_whole_file_write_accounting(self):
        wp = FileWordProcessor()
        wp.create("doc.txt", "x" * 100)
        wp.open_for_edit("doc.txt", "ana")
        wp.insert("doc.txt", "ana", 50, "y")
        # One keystroke rewrote the whole file.
        assert wp.stats["bytes_written"] == 101

    def test_scan_search(self):
        wp = FileWordProcessor()
        wp.create("a.txt", "the fox")
        wp.create("b.txt", "the dog")
        assert wp.scan_search("FOX") == ["a.txt"]

    def test_duplicate_create(self):
        wp = FileWordProcessor()
        wp.create("a.txt")
        with pytest.raises(TendaxError):
            wp.create("a.txt")

    def test_history(self):
        wp = FileWordProcessor(keep_history=True)
        wp.create("a.txt", "v1")
        wp.open_for_edit("a.txt", "ana")
        wp.save("a.txt", "ana", "v2")
        assert wp.get("a.txt").history == ["v1"]


class TestOffsetBaseline:
    def test_matches_string_semantics(self):
        db = Database("ob")
        store = OffsetDocumentStore(db)
        doc = store.create("d", "ana", "hello world")
        store.insert(doc, 5, ", dear", "ana")
        store.delete(doc, 0, 2, "ana")
        assert store.text(doc) == "llo, dear world"
        assert store.length(doc) == 15

    def test_bounds_checked(self):
        db = Database("ob")
        store = OffsetDocumentStore(db)
        doc = store.create("d", "ana", "abc")
        with pytest.raises(InvalidPositionError):
            store.insert(doc, 4, "x", "ana")
        with pytest.raises(InvalidPositionError):
            store.delete(doc, 2, 5, "ana")

    def test_random_ops_match_model(self):
        rng = random.Random(5)
        db = Database("ob")
        store = OffsetDocumentStore(db)
        doc = store.create("d", "ana", "seed text")
        model = "seed text"
        for __ in range(30):
            if model and rng.random() < 0.3:
                pos = rng.randrange(len(model))
                count = min(rng.randint(1, 4), len(model) - pos)
                store.delete(doc, pos, count, "ana")
                model = model[:pos] + model[pos + count:]
            else:
                pos = rng.randint(0, len(model))
                text = rng.choice(["ab", "x", "zzz"])
                store.insert(doc, pos, text, "ana")
                model = model[:pos] + text + model[pos:]
        assert store.text(doc) == model


class TestCorpusGeneration:
    def test_deterministic(self):
        spec = CorpusSpec(n_docs=5, seed=11)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_different_seeds_differ(self):
        a = generate_corpus(CorpusSpec(n_docs=5, seed=1))
        b = generate_corpus(CorpusSpec(n_docs=5, seed=2))
        assert a != b

    def test_topics_cycled(self):
        docs = generate_corpus(CorpusSpec(n_docs=8))
        assert len({d.topic for d in docs}) == 4

    def test_text_word_count_approx(self):
        rng = random.Random(3)
        text = generate_text(rng, "database", 50)
        assert 40 <= len(text.split()) <= 60

    def test_load_corpus_creates_documents(self):
        db = Database("t")
        from repro.text import DocumentStore
        store = DocumentStore(db)
        handles = load_corpus(store, CorpusSpec(n_docs=4, seed=2))
        assert len(handles) == 4
        assert all(h.length() > 0 for h in handles)
        meta = store.meta(handles[0].doc)
        assert meta["props"]["topic"] in ("database", "editing",
                                          "workflow", "business")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGeneratedOutputsArePinned:
    """The generators' outputs are pinned by SHA: a change to a Zipf
    pick, to the order of ``rng`` calls or to the text layout shows
    here."""

    @pytest.mark.parametrize("seed, sha", [
        (7,
         "691bb9cadef319abfe8eff1ce1962de81c4413ce12b6c23632bcc09fcb7d891f"),
        (11,
         "a2811786b0fd21914cbf8a35df5d5ea82d8057dd8e6ec342b749f3c3e4e85546"),
        (2006,
         "6399eaecde404e0f9a7630c4acafaba5a6bb63f7a173e6d1e3f3234e0b85ef29"),
    ])
    def test_generate_corpus(self, seed, sha):
        docs = generate_corpus(CorpusSpec(n_docs=40, seed=seed))
        assert _sha(json.dumps([asdict(d) for d in docs])) == sha

    def test_portal_archived_texts(self):
        from repro.text import dbschema as S
        portal = build_portal(PortalSpec(n_docs=500))
        try:
            with portal.db.snapshot() as snap:
                texts = [snap.find(S.DOCUMENTS, "doc", doc)["props"]
                         ["archived_text"] for doc in portal.docs[:490]]
        finally:
            portal.close()
        assert _sha("\n".join(texts)) == (
            "57b2caff1412ffe53dd698b91438d4a9baf63381249af2c7110d63c42f19213c")

    def test_typist_text(self):
        from repro.collab import CollaborationServer, EditorClient
        server = CollaborationServer()
        server.register_user("ana")
        session = server.connect("ana")
        handle = session.create_document("pad", text="")
        editor = EditorClient(session, handle.doc)
        SimulatedTypist(editor, seed=5).run(300)
        assert _sha(editor.handle.text()) == (
            "62221f84e95574743d513b0415bad875bd39c679f1d904c8ca1c6d4690e0fa74")


class TestScenarios:
    def test_lan_party_converges(self):
        report = run_lan_party(rounds=15, seed=3)
        assert report.converged
        assert report.chain_intact
        assert report.operations == 45
        assert set(report.per_user) == {"ana", "ben", "cleo"}

    def test_lan_party_deterministic_ops(self):
        r1 = run_lan_party(rounds=10, seed=9)
        r2 = run_lan_party(rounds=10, seed=9)
        assert r1.final_length == r2.final_length

    def test_lan_party_latency_capture(self):
        report = run_lan_party(rounds=5, measure_latency=True)
        assert len(report.op_latencies) == 15
        assert all(lat >= 0 for lat in report.op_latencies)

    def test_knowledge_base_population(self):
        kb = build_knowledge_base(n_docs=8, n_reads=10, n_pastes=4, seed=2)
        assert len(kb.handles) == 8
        from repro.text import dbschema as S
        assert kb.server.db.query(S.COPYLOG).count() >= 1
        reads = kb.server.db.query(S.ACCESS_LOG).count()
        assert reads > 10  # creates + reads + writes
