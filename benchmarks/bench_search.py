"""D6 — Search (§3, bullet 6).

Content / metadata / structure search with the paper's ranking options,
against the file-server baseline (a grep-style full scan).  Expected
shape: the inverted index answers term queries in time governed by the
posting lists, while the scan baseline grows linearly with corpus size;
ranking options reorder identical result sets.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.search import SearchEngine
from repro.text import DocumentStore, StructureManager
from repro.workload import CorpusSpec, generate_corpus, load_corpus

from .baselines import FileWordProcessor

CORPUS_SIZES = [50, 200, 800]

#: Corpora are expensive to build character-by-character; the search
#: benches only read them, so one instance per size is shared.
_CORPUS_CACHE: dict = {}


def _tendax_corpus(n_docs: int):
    if n_docs not in _CORPUS_CACHE:
        db = Database("bench")
        store = DocumentStore(db)
        load_corpus(store, CorpusSpec(n_docs=n_docs, seed=4))
        engine = SearchEngine(db)
        engine.search("warmup")  # build the index outside timed regions
        _CORPUS_CACHE[n_docs] = (db, engine)
    return _CORPUS_CACHE[n_docs]


def _file_corpus(n_docs: int) -> FileWordProcessor:
    wp = FileWordProcessor()
    for doc in generate_corpus(CorpusSpec(n_docs=n_docs, seed=4)):
        wp.create(doc.name, doc.text)
    return wp


@pytest.mark.parametrize("n_docs", CORPUS_SIZES)
def test_indexed_content_search(benchmark, n_docs):
    """TeNDaX: inverted-index term query."""
    db, engine = _tendax_corpus(n_docs)

    def search():
        return engine.search("database transaction")

    benchmark.group = f"D6 content search n={n_docs}"
    benchmark.extra_info["system"] = "tendax-index"
    results = benchmark(search)
    assert results  # the database topic exists in every corpus


@pytest.mark.parametrize("n_docs", CORPUS_SIZES)
def test_scan_baseline_search(benchmark, n_docs):
    """File-server baseline: substring scan over every file."""
    wp = _file_corpus(n_docs)

    def search():
        return wp.scan_search("database")

    benchmark.group = f"D6 content search n={n_docs}"
    benchmark.extra_info["system"] = "file-scan"
    results = benchmark(search)
    assert results


def test_shape_index_beats_scan_at_scale():
    """Index query time grows slower than scan time with corpus size."""
    import time

    def measure_index(n: int) -> float:
        __, engine = _tendax_corpus(n)
        start = time.perf_counter()
        for __ in range(10):
            engine.search("database transaction")
        return (time.perf_counter() - start) / 10

    def measure_scan(n: int) -> float:
        wp = _file_corpus(n)
        start = time.perf_counter()
        for __ in range(10):
            wp.scan_search("database transaction")
        return (time.perf_counter() - start) / 10

    scan_growth = measure_scan(800) / measure_scan(50)
    index_growth = measure_index(800) / measure_index(50)
    assert scan_growth > 2.0
    assert index_growth < scan_growth


def _ranking_engine():
    if "ranking_kb" not in _CORPUS_CACHE:
        from repro.workload import build_knowledge_base
        kb = build_knowledge_base(n_docs=60, n_reads=80, n_pastes=20,
                                  seed=4)
        engine = SearchEngine(kb.server.db)
        engine.search("warmup")
        _CORPUS_CACHE["ranking_kb"] = engine
    return _CORPUS_CACHE["ranking_kb"]


@pytest.mark.parametrize(
    "ranking", ["relevance", "newest", "most_cited", "most_read"])
def test_ranking_options(benchmark, ranking):
    """The demo's ranking options over one result set."""
    engine = _ranking_engine()

    def search():
        return engine.search("database", ranking=ranking)

    benchmark.group = "D6 ranking options"
    benchmark.extra_info["ranking"] = ranking
    results = benchmark(search)
    assert results


def test_metadata_search(benchmark):
    """Creation-process metadata filters (creator + state + reader)."""
    engine = _ranking_engine()

    def search():
        return engine.search("creator:ana state:final")

    benchmark.group = "D6 metadata & structure"
    benchmark(search)


def test_structure_search(benchmark):
    """Finding document parts by structure labels."""
    db = Database("bench")
    store = DocumentStore(db)
    structure = StructureManager(db)
    for i in range(50):
        handle = store.create(f"paper-{i}", "ana", text="body " * 30)
        structure.add_node(handle.doc, "section", "ana",
                           label=f"Evaluation {i}")
        structure.add_node(handle.doc, "section", "ana",
                           label="Introduction")
    engine = SearchEngine(db)

    def search():
        return engine.search_structure("evaluation")

    benchmark.group = "D6 metadata & structure"
    hits = benchmark(search)
    assert len(hits) == 50


def test_incremental_index_maintenance(benchmark):
    """Cost of keeping the index fresh after one document edit."""
    db, engine = _tendax_corpus(200)
    handle = DocumentStore(db).handle(
        db.query("tx_documents").run()[0]["doc"])

    def edit_and_refresh():
        handle.insert_text(0, "fresh ", "ana")
        return engine.index.ensure_fresh()

    benchmark.group = "D6 index maintenance"
    refreshed = benchmark(edit_and_refresh)
    assert refreshed == 1  # only the edited document was re-indexed
