"""Tests for the search engine: content, metadata, structure, ranking."""

import pytest

from repro.clock import SimulatedClock
from repro.collab import CollaborationServer
from repro.db import Database
from repro.errors import QuerySyntaxError, SearchError
from repro.search import InvertedIndex, SearchEngine, parse_query
from repro.text import DocumentStore, StructureManager


@pytest.fixture
def db():
    return Database("t", clock=SimulatedClock())


@pytest.fixture
def store(db):
    return DocumentStore(db)


class TestQueryParsing:
    def test_terms_only(self):
        query = parse_query("Quick Brown foxes")
        assert query.terms == ["quick", "brown", "foxes"]
        assert query.filters == []

    def test_filters(self):
        query = parse_query("budget creator:ana state:final")
        assert query.terms == ["budget"]
        assert query.filters == [("creator", "ana"), ("state", "final")]

    def test_prop_filter(self):
        query = parse_query("prop:project=tendax")
        assert query.filters == [("prop", "project=tendax")]

    def test_unknown_field_is_content(self):
        query = parse_query("http:something")
        assert query.filters == []
        assert "something" in query.terms

    def test_empty_filter_value_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("creator:")

    def test_empty_query(self):
        assert parse_query("").is_empty


class TestInvertedIndex:
    def test_postings(self, db, store):
        store.create("a", "ana", text="database systems for databases")
        index = InvertedIndex(db)
        assert len(index.postings("database")) == 1
        assert index.vocabulary_size() > 0

    def test_incremental_refresh(self, db, store):
        h = store.create("a", "ana", text="alpha")
        index = InvertedIndex(db)
        h.insert_text(5, " omega", "ana")
        assert index.postings("omega") == {}  # not yet refreshed
        assert index.ensure_fresh() == 1
        assert len(index.postings("omega")) == 1

    def test_new_document_picked_up(self, db, store):
        index = InvertedIndex(db)
        store.create("late", "ana", text="latecomer words")
        index.ensure_fresh()
        assert len(index.postings("latecomer")) == 1

    def test_deleted_text_leaves_index(self, db, store):
        h = store.create("a", "ana", text="ephemeral words")
        index = InvertedIndex(db)
        h.delete_range(0, 9, "ana")
        index.ensure_fresh()
        assert index.postings("ephemeral") == {}

    def test_matching_all_vs_any(self, db, store):
        store.create("a", "ana", text="alpha beta")
        store.create("b", "ana", text="beta gamma")
        index = InvertedIndex(db)
        assert len(index.matching_docs(["beta"])) == 2
        assert len(index.matching_docs(["alpha", "beta"])) == 1
        assert len(index.matching_docs(["alpha", "gamma"],
                                       require_all=False)) == 2

    def test_refresh_only_touches_dirty(self, db, store):
        store.create("a", "ana", text="one")
        h2 = store.create("b", "ana", text="two")
        index = InvertedIndex(db)
        before = index.stats["reindexed_docs"]
        h2.insert_text(3, " more", "ana")
        index.ensure_fresh()
        assert index.stats["reindexed_docs"] == before + 1


class TestContentSearch:
    @pytest.fixture
    def engine(self, db, store):
        store.create("fox-doc", "ana",
                     text="the quick brown fox likes databases")
        store.create("dog-doc", "ben", text="lazy dogs sleep all day")
        store.create("both", "ana", text="fox and dog together")
        return SearchEngine(db)

    def test_single_term(self, engine):
        names = {r.name for r in engine.search("fox")}
        assert names == {"fox-doc", "both"}

    def test_conjunctive_terms(self, engine):
        names = {r.name for r in engine.search("fox dog")}
        assert names == {"both"}

    def test_no_hits(self, engine):
        assert engine.search("unicorn") == []

    def test_snippet_contains_term(self, engine):
        (hit,) = [r for r in engine.search("databases")]
        assert "databases" in hit.snippet

    def test_live_index(self, db, store):
        engine = SearchEngine(db)
        h = store.create("d", "ana", text="start")
        h.insert_text(5, " xylophone", "ana")
        assert [r.name for r in engine.search("xylophone")] == ["d"]

    def test_limit(self, engine):
        assert len(engine.search("fox", limit=1)) == 1

    def test_render_results(self, engine):
        text = engine.render_results(engine.search("fox"))
        assert "1." in text
        assert engine.render_results([]) == "(no results)"


class TestMetadataSearch:
    @pytest.fixture
    def engine(self, db, store):
        h1 = store.create("alpha report", "ana", text="shared words here")
        store.set_state(h1.doc, "final", "ana")
        store.set_property(h1.doc, "project", "tendax", "ana")
        store.create("beta notes", "ben", text="shared words here")
        store.open(h1.doc, "cleo")
        return SearchEngine(db)

    def test_creator_filter(self, engine):
        names = [r.name for r in engine.search("shared creator:ana")]
        assert names == ["alpha report"]

    def test_state_filter(self, engine):
        names = [r.name for r in engine.search("state:final")]
        assert names == ["alpha report"]

    def test_name_filter(self, engine):
        names = [r.name for r in engine.search("name:beta")]
        assert names == ["beta notes"]

    def test_reader_filter(self, engine):
        names = [r.name for r in engine.search("reader:cleo")]
        assert names == ["alpha report"]

    def test_author_filter(self, engine):
        names = [r.name for r in engine.search("author:ben")]
        assert names == ["beta notes"]

    def test_prop_filter(self, engine):
        assert [r.name for r in engine.search("prop:project=tendax")] == \
            ["alpha report"]
        assert [r.name for r in engine.search("prop:project")] == \
            ["alpha report"]
        assert engine.search("prop:project=other") == []

    def test_filters_combine_with_terms(self, engine):
        assert engine.search("shared creator:ben")[0].name == "beta notes"
        assert engine.search("unfindable creator:ben") == []


class TestStructureSearch:
    def test_label_match(self, db, store):
        structure = StructureManager(db)
        h = store.create("paper", "ana", text="...")
        structure.add_node(h.doc, "section", "ana", label="Introduction")
        structure.add_node(h.doc, "section", "ana", label="Evaluation")
        engine = SearchEngine(db)
        hits = engine.search_structure("intro")
        assert len(hits) == 1
        assert hits[0]["label"] == "Introduction"
        assert hits[0]["doc_name"] == "paper"

    def test_kind_filter(self, db, store):
        structure = StructureManager(db)
        h = store.create("paper", "ana", text="...")
        structure.add_node(h.doc, "section", "ana", label="Results")
        structure.add_node(h.doc, "heading", "ana", label="Results table")
        engine = SearchEngine(db)
        assert len(engine.search_structure("results")) == 2
        assert len(engine.search_structure("results", kind="heading")) == 1


class TestRanking:
    @pytest.fixture
    def server(self):
        server = CollaborationServer(clock=SimulatedClock())
        server.register_user("ana")
        server.register_user("ben")
        return server

    def test_newest_and_oldest(self, server):
        session = server.connect("ana")
        session.create_document("old", text="common words")
        session.create_document("new", text="common words")
        engine = SearchEngine(server.db)
        newest = [r.name for r in engine.search("common", ranking="newest")]
        assert newest == ["new", "old"]
        oldest = [r.name for r in engine.search("common", ranking="oldest")]
        assert oldest == ["old", "new"]

    def test_most_cited(self, server):
        session = server.connect("ana")
        cited = session.create_document("cited", text="common words source")
        other = session.create_document("other", text="common words too")
        target = session.create_document("target", text="")
        session.copy(cited.doc, 0, 6)
        session.paste(target.doc, 0)
        engine = SearchEngine(server.db)
        results = [r.name for r in engine.search("common",
                                                 ranking="most_cited")]
        assert results[0] == "cited"

    def test_most_read(self, server):
        session = server.connect("ana")
        popular = session.create_document("popular", text="common stuff")
        session.create_document("ignored", text="common stuff")
        server.documents.open(popular.doc, "ben")
        engine = SearchEngine(server.db)
        results = [r.name for r in engine.search("common",
                                                 ranking="most_read")]
        assert results[0] == "popular"

    def test_largest(self, server):
        session = server.connect("ana")
        session.create_document("big", text="common " * 50)
        session.create_document("small", text="common")
        engine = SearchEngine(server.db)
        results = [r.name for r in engine.search("common",
                                                 ranking="largest")]
        assert results[0] == "big"

    def test_relevance_prefers_term_density(self, server):
        session = server.connect("ana")
        session.create_document("dense", text="fox fox fox")
        session.create_document(
            "diluted", text="fox " + "filler " * 60)
        engine = SearchEngine(server.db)
        results = [r.name for r in engine.search("fox")]
        assert results[0] == "dense"

    def test_unknown_ranking(self, server):
        session = server.connect("ana")
        session.create_document("d", text="x words")
        engine = SearchEngine(server.db)
        with pytest.raises(SearchError):
            engine.search("words", ranking="by_vibes")


class TestPhraseSearch:
    @pytest.fixture
    def engine(self, db, store):
        store.create("exact", "ana", text="the quick brown fox runs")
        store.create("scattered", "ana", text="quick dogs and brown cats")
        store.create("reversed", "ana", text="brown quick animals")
        return SearchEngine(db)

    def test_phrase_requires_adjacency(self, engine):
        names = [r.name for r in engine.search('"quick brown"')]
        assert names == ["exact"]

    def test_phrase_requires_order(self, engine):
        names = {r.name for r in engine.search('"brown quick"')}
        assert names == {"reversed"}

    def test_single_word_phrase(self, engine):
        names = {r.name for r in engine.search('"quick"')}
        assert names == {"exact", "scattered", "reversed"}

    def test_phrase_combines_with_terms_and_filters(self, engine):
        assert [r.name for r in
                engine.search('"quick brown" fox creator:ana')] == ["exact"]
        assert engine.search('"quick brown" creator:ben') == []

    def test_phrase_parse(self):
        query = parse_query('alpha "two words" beta')
        assert query.terms == ["alpha", "beta"]
        assert query.phrases == [["two", "words"]]
        assert set(query.all_terms) == {"alpha", "beta", "two", "words"}

    def test_empty_phrase_ignored(self):
        query = parse_query('"" alpha')
        assert query.phrases == []
        assert query.terms == ["alpha"]

    def test_phrase_across_stopwords(self, db, store):
        # Stopwords are dropped by the tokenizer, so "fox and hound"
        # matches as the phrase "fox hound".
        store.create("d", "ana", text="a fox and hound story")
        engine = SearchEngine(db)
        assert len(engine.search('"fox hound"')) == 1


class TestFeedDrivenIndex:
    """Regressions for the changefeed refactor: deletes, archived
    documents, and snapshot pinning."""

    def test_delete_document_purges_postings(self, db, store):
        keep = store.create("keep", "ana", text="alpha shared words")
        gone = store.create("gone", "ana", text="ephemeral shared words")
        index = InvertedIndex(db)
        assert index.doc_count() == 2
        store.delete_document(gone.doc, "ana")
        index.ensure_fresh()
        assert index.postings("ephemeral") == {}
        assert set(index.postings("shared")) == {keep.doc}
        assert index.doc_count() == 1
        assert gone.doc not in index.all_docs()

    def test_delete_document_drops_search_results(self, db, store):
        engine = SearchEngine(db)
        gone = store.create("gone", "ana", text="vanishing act")
        assert [r.doc for r in engine.search("vanishing")] == [gone.doc]
        store.delete_document(gone.doc, "ana")
        assert engine.search("vanishing") == []

    def test_archived_documents_are_searchable(self, db, store):
        doc = store.import_archived(
            "arch", "ana", text="archival lore preserved")
        engine = SearchEngine(db)
        results = engine.search("archival")
        assert [r.doc for r in results] == [doc]
        assert "archival" in results[0].snippet

    def test_ensure_fresh_pinned_to_snapshot(self, db, store):
        store.create("early", "ana", text="early words")
        index = InvertedIndex(db)
        index.ensure_fresh()
        with db.snapshot() as snap:
            # Commits after the snapshot opened must not be absorbed by
            # a refresh pinned to it.
            store.create("late", "ana", text="latecomer words")
            assert index.ensure_fresh(txn=snap) == 0
            assert index.postings("latecomer") == {}
        assert index.ensure_fresh() == 1
        assert len(index.postings("latecomer")) == 1

    def test_search_pinned_against_concurrent_writer(
            self, db, store, monkeypatch):
        """A writer committing between the search snapshot opening and
        the index refresh must not leak into the result set (the old
        code refreshed outside the snapshot and returned a torn view)."""
        store.create("steady", "ana", text="alpha words")
        engine = SearchEngine(db)
        engine.search("alpha")  # warm the index
        original = engine.index.ensure_fresh
        fired = []

        def racy_refresh(txn=None):
            if not fired:
                fired.append(True)
                store.create("intruder", "ben", text="alpha words")
            return original(txn=txn)

        monkeypatch.setattr(engine.index, "ensure_fresh", racy_refresh)
        names = [r.name for r in engine.search("alpha")]
        assert names == ["steady"]
        # The next search opens a later snapshot and sees the intruder.
        names = {r.name for r in engine.search("alpha")}
        assert names == {"steady", "intruder"}

    def test_fast_path_matches_slow_path_ranking(self, db, store):
        for i in range(6):
            text = "needle " * (i + 1) + "hay " * (8 - i)
            store.create(f"d{i}", "ana", text=text)
        engine = SearchEngine(db)
        # A filter forces the full candidate-scan path; without one the
        # single-term query takes the impact-ordered fast path.  Both
        # must produce the identical ranking with identical scores.
        fast = engine.search("needle", limit=4)
        slow = engine.search("needle creator:ana", limit=4)
        assert [(r.doc, r.score) for r in fast] \
            == [(r.doc, r.score) for r in slow]

    def test_fast_and_scan_paths_break_ties_identically(self):
        """A bulk-ingested archive: one timestamp for every document and
        only a handful of distinct densities, so most of the ranking is
        exact (score, last_modified) ties.  Both paths order them by
        document id and therefore return the same list, however the
        limit cuts through a tie group."""
        db = Database("bulk", clock=SimulatedClock(tick=0))
        store = DocumentStore(db)
        with db.batch():
            docs = [store.import_archived(
                        f"bulk-{i:03d}", "ana",
                        text="needle " * (1 + i % 3) + "hay " * (3 - i % 3))
                    for i in range(60)]
        engine = SearchEngine(db)
        assert len({engine.index.doc_values[d].last_modified
                    for d in docs}) == 1
        for limit in (1, 7, 20, 21, 45, 60):
            fast = engine.search("needle", limit=limit)
            slow = engine.search("needle name:bulk", limit=limit)
            assert len(fast) == limit
            assert [(r.doc, r.score) for r in fast] \
                == [(r.doc, r.score) for r in slow]
        # Within a tie group the order is by document id.
        ranked = [r.doc for r in engine.search("needle name:bulk", limit=60)]
        assert ranked[:20] == sorted(ranked[:20])
        assert ranked == [r.doc for r in engine.search("needle", limit=60)]
