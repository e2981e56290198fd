"""Doc-values scan search ≡ the per-candidate profile scan it replaced.

``SearchEngine.search`` filters and ranks candidates from the index's
doc values and reads only the winners from the snapshot.  The algorithm
it replaced — one snapshot profile per candidate, ``_passes_filters``,
a full stable sort, ``[:limit]`` — lives on *here* as the oracle, fed
candidates in document-id order so that its stable sort breaks ties the
way the engine's total order does.

A hypothesis programme interleaves every kind of write that reaches the
index or the collector (create / type / re-upload / archive import /
state / property / delete / read-log / copy-log) with maintenance ticks
at random points, probes single queries mid-stream (index partly
refreshed, partly dirty) and at the end checks every filter field
(plus one matching nothing and two combined) × every ranking × {one
term, a rare term, two terms, a repeated term, a term beside the rare
one, phrases of two and three terms, a term beside a phrase, a phrase
never found, filter-only} × ``limit`` in {0, 1, 3, 50} for identical
documents, scores and profiles — whichever of the top-k list, the
ordered walk, the threshold walk or the candidate heap the engine
picked.  ``InvertedIndex.check()`` then proves doc values, equality
postings and ordered lists ≡ ``tx_documents`` after a drain.

The nightly CI arm re-runs this file at a larger examples budget
(``MVCC_PROPERTY_PROFILE=nightly``).
"""

from __future__ import annotations

import copy
import gc
import math
import os
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.db import Database, col
from repro.feed import MaintenanceWorker
from repro.mining.features import tokenize
from repro.obs.catalogue import unknown_names
from repro.obs.labels import MetricFamily
from repro.search import RANKINGS, SearchEngine, parse_query
from repro.text import DocumentStore
from repro.text import dbschema as S
from repro.workload import PortalSpec, build_portal, upload_version

_NIGHTLY = os.environ.get("MVCC_PROPERTY_PROFILE") == "nightly"
MAX_EXAMPLES = 200 if _NIGHTLY else 30
MAX_OPS = 60 if _NIGHTLY else 30

USERS = ("ana", "ben", "cleo")
STATES = ("draft", "review", "final")
WORDS = ("alpha", "beta", "gamma", "delta")
TOPICS = ("db", "ai")

#: ``omega`` is only in two seed documents and no operation adds it (df
#: <= 2: the walk-or-heap rule must choose the heap under ``newest``).
RARE = "omega"
#: A filter no document passes (an empty equality set).
NO_MATCH = "creator:nobody"

FILTERS = ("", "creator:ana", "state:final", "name:DB", "reader:ben",
           "author:ana", "writer:ben", "prop:topic", "prop:tier=2",
           NO_MATCH, "creator:ana state:final")
#: Every shape meets every filter, so each phrase also meets each
#: equality filter.  ``"gamma omega"``: the one created document holding
#: both reads "gamma alpha omega" and only ever grows at its end, so the
#: terms are never adjacent.
SHAPES = ("alpha", "alpha beta", '"alpha beta"', "", RARE, "alpha alpha",
          '"alpha beta gamma"', 'gamma "alpha beta"', f"alpha {RARE}",
          f'"gamma {RARE}"')
QUERIES = [f"{shape} {flt}".strip() for shape in SHAPES for flt in FILTERS]
LIMITS = (0, 1, 3, 50)


# ---------------------------------------------------------------------------
# The oracle: the replaced algorithm, verbatim but for the candidate order
# ---------------------------------------------------------------------------

def _reference_profile(engine, doc, *, need_readers, need_authors, txn):
    row = txn.query(S.DOCUMENTS).where(col("doc") == doc).first()
    if row is None:
        return None
    profile = dict(row)
    profile["props"] = dict(row["props"] or {})
    if need_readers:
        profile["readers"] = sorted(engine.meta.readers_of(doc, txn=txn))
    if need_authors:
        profile["authors"] = sorted(
            engine.meta.author_contributions(doc, txn=txn))
    return profile


def _reference_passes(profile, filters):
    for fieldname, value in filters:
        if fieldname == "creator":
            if profile["creator"] != value:
                return False
        elif fieldname == "state":
            if profile["state"] != value:
                return False
        elif fieldname == "name":
            if value.lower() not in profile["name"].lower():
                return False
        elif fieldname == "reader":
            if value not in profile["readers"]:
                return False
        elif fieldname in ("author", "writer"):
            if value not in profile["authors"]:
                return False
        elif fieldname == "prop":
            key, sep, expected = value.partition("=")
            props = profile["props"]
            if key not in props:
                return False
            if sep and str(props[key]) != expected:
                return False
    return True


def _reference_has_phrase(index, doc, phrase):
    tokens = tokenize(index.doc_texts[doc])
    width = len(phrase)
    return any(tokens[i:i + width] == phrase
               for i in range(len(tokens) - width + 1))


def _reference_scores(index, terms, docs):
    n = max(index.doc_count(), 1)
    scores = {doc: 0.0 for doc in docs}
    for term in terms:
        postings = index.postings(term)
        if not postings:
            continue
        idf = math.log((1 + n) / (1 + len(postings))) + 1.0
        for doc, tf in postings.items():
            if doc in scores:
                length = max(index.doc_length(doc), 1)
                scores[doc] += (tf / length) * idf
    return scores


def _reference_sort(engine, profiles, ranking, relevance, txn):
    reverse = True
    if ranking == "relevance":
        key = lambda p: (relevance.get(p["doc"], 0.0), p["last_modified"])
    elif ranking == "newest":
        key = lambda p: p["last_modified"]
    elif ranking == "oldest":
        key = lambda p: p["created_at"]
        reverse = False
    elif ranking == "most_cited":
        citations = engine.meta.citation_counts(txn=txn)
        key = lambda p: (citations.get(p["doc"], 0), p["last_modified"])
    elif ranking == "most_read":
        key = lambda p: (len(p.get("readers", ())), p["last_modified"])
    else:
        assert ranking == "largest"
        key = lambda p: p["size"]
    return sorted(profiles, key=key, reverse=reverse)


def reference_search(engine, query, *, ranking, limit):
    """``[(doc, score, profile)]`` by the per-candidate profile scan."""
    query = parse_query(query)
    index = engine.index
    with engine.db.snapshot() as snap:
        index.ensure_fresh(txn=snap)
        if query.terms or query.phrases:
            candidates = index.matching_docs(query.all_terms)
            for phrase in query.phrases:
                candidates = {doc for doc in candidates
                              if _reference_has_phrase(index, doc, phrase)}
        else:
            candidates = index.all_docs()
        fields = {f[0] for f in query.filters}
        need_readers = "reader" in fields or ranking == "most_read"
        need_authors = bool({"author", "writer"} & fields)
        profiles = []
        # Document-id order in, stable sort after: exact ties come out
        # by document id — the engine's total order.
        for doc in sorted(candidates):
            profile = _reference_profile(
                engine, doc, need_readers=need_readers,
                need_authors=need_authors, txn=snap)
            if profile is not None and \
                    _reference_passes(profile, query.filters):
                profiles.append(profile)
        relevance = _reference_scores(index, query.all_terms,
                                      {p["doc"] for p in profiles})
        ordered = _reference_sort(engine, profiles, ranking, relevance,
                                  snap)
    return [(p["doc"], relevance.get(p["doc"], 0.0), p)
            for p in ordered[:limit]]


def reference_snippet(text, terms, radius=30):
    """The window the engine cut before results were built in one pass,
    but cut at the match's own character: ``owner`` maps each code
    point of ``text.lower()`` back to the character of ``text`` it came
    from (``'İ'`` lowers to two)."""
    if not text:
        return ""
    lowered = text.lower()
    owner = [at for at, ch in enumerate(text) for _ in ch.lower()]
    assert len(owner) == len(lowered)
    found = [lowered.find(term) for term in terms]
    found = [pos for pos in found if pos >= 0]
    if not found:
        return text[: 2 * radius].strip()
    best = owner[min(found)]
    start = max(0, best - radius)
    end = min(len(text), best + radius)
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(text) else ""
    return f"{prefix}{text[start:end].strip()}{suffix}"


def assert_same_as_reference(engine, query, ranking, limit):
    results = engine.search(query, ranking=ranking, limit=limit)
    want = reference_search(engine, query, ranking=ranking, limit=limit)
    assert [(r.doc, r.score, r.profile) for r in results] == want, \
        (query, ranking, limit)
    assert all(r.name == r.profile["name"] for r in results)
    terms = parse_query(query).all_terms
    assert [r.snippet for r in results] == [
        reference_snippet(engine.index.doc_texts[r.doc], terms)
        for r in results], (query, ranking, limit)


# ---------------------------------------------------------------------------
# The programme
# ---------------------------------------------------------------------------

class Archive:
    """A small document space with every feed consumer search needs."""

    def __init__(self) -> None:
        # tick=0: timestamps only move on an explicit ``advance`` op, so
        # runs of documents share one (exact last_modified ties).
        self.clock = SimulatedClock(tick=0)
        self.db = Database("dv", clock=self.clock)
        self.store = DocumentStore(self.db)
        self.engine = SearchEngine(self.db)
        self.worker = MaintenanceWorker(self.db)
        self.worker.register("search-index", self.engine.index.ensure_fresh)
        self.live: list = []
        self.deleted: list = []
        self.serial = 0

    def close(self) -> None:
        self.engine.index.close()
        self.engine.meta.close()

    def _name(self, topic: str) -> str:
        self.serial += 1
        return f"{topic.title()}-Report-{self.serial}"

    def _pick(self, where: int):
        return self.live[where % len(self.live)] if self.live else None

    def _archived(self, doc) -> bool:
        return self.store.meta(doc)["begin_char"] is None

    def apply(self, op: tuple) -> None:
        kind, args = op[0], op[1:]
        if kind == "create":
            user, words, topic = args
            props = {"topic": topic} if topic else None
            handle = self.store.create(self._name(topic or "misc"), user,
                                       text=" ".join(words), props=props)
            self.live.append(handle.doc)
            handle.close()
        elif kind == "import":
            user, words, topic = args
            self.live.append(self.store.import_archived(
                self._name(topic), user, text=" ".join(words),
                props={"topic": topic}))
        elif kind == "advance":
            self.clock.advance(1.0)
        elif kind == "tick":
            self.worker.run_once()
        elif kind == "probe":
            query, ranking, limit = args
            assert_same_as_reference(self.engine, query, ranking, limit)
        else:
            doc = self._pick(args[0])
            if doc is None:
                return
            getattr(self, "_" + kind)(doc, *args[1:])

    def _type(self, doc, user, words) -> None:
        if self._archived(doc):
            return
        handle = self.store.handle(doc)
        handle.insert_text(handle.length(), " " + " ".join(words), user)
        handle.close()

    def _upload(self, doc, user, words) -> None:
        if self._archived(doc):
            upload_version(SimpleNamespace(db=self.db), doc,
                           " ".join(words), user)

    def _set_state(self, doc, state, user) -> None:
        self.store.set_state(doc, state, user)

    def _set_property(self, doc, key, value, user) -> None:
        self.store.set_property(doc, key, value, user)

    def _delete(self, doc, user) -> None:
        self.store.delete_document(doc, user)
        self.live.remove(doc)
        self.deleted.append(doc)

    def _read(self, doc, user) -> None:
        self.store.open(doc, user).close()

    def _cite(self, doc, other, user) -> None:
        dst = self._pick(other)
        self.db.insert(S.COPYLOG, {
            "op": self.db.new_oid("copy"), "src_doc": doc,
            "external_source": None, "dst_doc": dst, "n_chars": 3,
            "user": user, "at": self.db.now(),
        })


_user = st.sampled_from(USERS)
_words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)
_where = st.integers(min_value=0, max_value=50)
_limit = st.sampled_from(LIMITS)

OPS = st.one_of(
    st.tuples(st.just("create"), _user, _words,
              st.sampled_from(TOPICS + ("",))),
    st.tuples(st.just("import"), _user, _words, st.sampled_from(TOPICS)),
    st.tuples(st.just("type"), _where, _user, _words),
    st.tuples(st.just("upload"), _where, _user, _words),
    st.tuples(st.just("set_state"), _where, st.sampled_from(STATES), _user),
    st.tuples(st.just("set_property"), _where,
              st.sampled_from(("topic", "tier")),
              st.sampled_from(("db", 2, "2", 3)), _user),
    st.tuples(st.just("delete"), _where, _user),
    st.tuples(st.just("read"), _where, _user),
    st.tuples(st.just("cite"), _where, _where, _user),
    st.tuples(st.just("advance")),
    st.tuples(st.just("tick")),
    st.tuples(st.just("probe"), st.sampled_from(QUERIES),
              st.sampled_from(RANKINGS), _limit),
)

#: Every programme starts from a few documents so that filters, ties
#: and top-k cuts have something to bite on even in short programmes.
SEED_OPS = (
    ("import", "ana", ("alpha", "beta", "gamma"), "db"),
    ("import", "ben", ("alpha", "beta", RARE), "db"),
    ("import", "ana", ("beta", "alpha", "alpha"), "ai"),
    ("create", "ben", ("alpha", "beta", "delta"), "ai"),
    ("create", "ana", ("gamma", "alpha", RARE), ""),
    ("import", "cleo", ("alpha", "beta", "gamma"), "db"),
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(st.lists(OPS, max_size=MAX_OPS), _limit)
def test_scan_search_matches_per_candidate_reference(ops, limit):
    archive = Archive()
    try:
        for op in SEED_OPS:
            archive.apply(op)
        for op in ops:
            archive.apply(op)
        for query in QUERIES:
            for ranking in RANKINGS:
                assert_same_as_reference(archive.engine, query, ranking,
                                         limit)
        archive.worker.drain()
        index = archive.engine.index
        assert index.check() == []
        assert set(index.doc_values) == set(archive.live)
        for doc in archive.deleted:
            assert doc not in index.doc_values
            assert doc not in index.all_docs()
            assert doc not in index.doc_texts
    finally:
        archive.close()


# ---------------------------------------------------------------------------
# Directed cases
# ---------------------------------------------------------------------------

def _small_archive():
    archive = Archive()
    for op in SEED_OPS:
        archive.apply(op)
    return archive


def test_every_filter_ranking_and_shape_on_a_directed_archive():
    """The full matrix on a fixed archive in which every filter both
    accepts and rejects something (``tier`` is 2, "2" and 3; two
    readers; chain and archived authors; a cited document)."""
    archive = _small_archive()
    for op in (("set_property", 0, "tier", 2, "ana"),
               ("set_property", 1, "tier", "2", "ana"),
               ("set_property", 2, "tier", 3, "ana"),
               ("set_state", 0, "final", "ben"),
               ("set_state", 3, "final", "ben"),
               ("advance",),
               ("read", 0, "ben"), ("read", 3, "ben"), ("read", 3, "cleo"),
               ("type", 3, "ana", ("alpha", "beta")),
               ("type", 4, "ben", ("beta",)),
               ("cite", 2, 4, "ana"), ("cite", 2, 3, "ana"),
               ("cite", 5, 4, "ben"),
               ("tick",),
               ("upload", 1, "cleo", ("alpha", "beta", "beta")),
               ("delete", 5, "ana")):
        archive.apply(op)
    engine = archive.engine
    for limit in LIMITS:
        for query in QUERIES:
            for ranking in RANKINGS:
                assert_same_as_reference(engine, query, ranking, limit)
    found = {flt: {r.doc for r in engine.search(flt, limit=50)}
             for flt in FILTERS if flt}
    assert found.pop(NO_MATCH) == set()
    assert all(0 < len(docs) < len(archive.live) for docs in found.values())
    assert found["prop:tier=2"] == set(archive.live[:2])
    assert 0 < engine.index.doc_frequency(RARE) <= 2
    assert engine.index.matching_docs(["gamma", RARE])
    assert engine.search(f'"gamma {RARE}"') == []
    for phrase in (["alpha", "beta"], ["alpha", "beta", "gamma"],
                   ["gamma", RARE], ["beta"]):
        assert engine.index.phrase_docs(phrase) == {
            doc for doc in engine.index.matching_docs(phrase)
            if _reference_has_phrase(engine.index, doc, phrase)}
    archive.close()


def test_doc_values_follow_every_documents_column():
    archive = _small_archive()
    index = archive.engine.index
    doc = archive.live[0]
    index.ensure_fresh()
    assert index.check() == []
    # One field per column of the live table, in its order: a column
    # added to the schema is a doc value, so profiles keep it.
    assert index.doc_values[doc]._fields == tuple(
        archive.db.table(S.DOCUMENTS).schema.column_names())
    # ``last_modified_by``: no filter or ranking reads it, only profiles.
    stale = f"{doc}: doc values stale in ['last_modified_by']"
    with archive.db.transaction() as txn:
        row = txn.find(S.DOCUMENTS, "doc", doc)
        txn.update(S.DOCUMENTS, row.rowid, {"last_modified_by": "zed"})
    assert index.check() == ["1 documents still dirty", stale]
    index.ensure_fresh()
    assert index.doc_values[doc].last_modified_by == "zed"
    assert index.check() == []
    index._doc_values[doc] = index.doc_values[doc]._replace(
        last_modified_by="ana")
    assert index.check() == [stale]
    index.rebuild()
    assert index.check() == []
    archive.store.set_state(doc, "final", "ben")
    archive.store.set_property(doc, "tier", 2, "ben")
    assert index.doc_values[doc].state == "draft"   # deferred consumer
    assert any("stale" in p for p in index.check())
    index.ensure_fresh()
    values = index.doc_values[doc]
    assert values.state == "final" and values.props["tier"] == 2
    assert index.check() == []
    archive.store.delete_document(doc, "ana")
    index.ensure_fresh()
    assert doc not in index.doc_values
    assert index.check() == []
    index.rebuild()
    assert index.check() == []
    archive.close()


def test_doc_values_are_pinned_to_the_search_snapshot():
    """``ensure_fresh(txn=snap)`` absorbs a document dirtied above the
    snapshot at the snapshot's state: doc values, like postings, never
    run ahead of the rows the winners are read from."""
    archive = _small_archive()
    index = archive.engine.index
    doc = archive.live[0]
    index.ensure_fresh()
    with archive.db.snapshot() as snap:
        archive.store.set_state(doc, "final", "ben")
        index.ensure_fresh(txn=snap)
        assert index.doc_values[doc].state == "draft"
        assert index.dirty_count() == 1
    index.ensure_fresh()
    assert index.doc_values[doc].state == "final"
    archive.close()


def test_editing_a_returned_profile_reaches_neither_index_nor_rows():
    """A result's profile and its ``props`` are the caller's own: edits
    to them change neither the index's doc values nor what the next
    search (or the table behind it) returns."""
    archive = _small_archive()
    archive.apply(("set_property", 0, "tier", 2, "ana"))
    engine = archive.engine
    index = engine.index
    query = "alpha creator:ana"
    first = engine.search(query, limit=50)
    before = copy.deepcopy(dict(index.doc_values))
    want = copy.deepcopy([(r.doc, r.score, r.profile, r.snippet)
                          for r in first])
    assert any(r.profile["props"] for r in first)
    for r in first:
        r.profile["props"]["tier"] = 99
        r.profile["props"]["added"] = "x"
        r.profile["state"] = "edited"
        del r.profile["name"]
    assert dict(index.doc_values) == before
    again = engine.search(query, limit=50)
    assert [(r.doc, r.score, r.profile, r.snippet) for r in again] == want
    assert_same_as_reference(engine, query, "relevance", 50)
    archive.close()


@pytest.mark.parametrize("query, ranking, limit, plan", [
    ("alpha state:review", "relevance", 3, "walk"),
    ("state:review", "newest", 3, "walk"),
    ("alpha beta state:review", "relevance", 2, "threshold"),
    ("alpha state:review", "relevance", 50, "heap"),
])
def test_scan_search_pinned_against_concurrent_writer(
        monkeypatch, query, ranking, limit, plan):
    """The scan-path twin of ``test_search_pinned_against_concurrent_
    writer``, for every scan plan: a state and property change to a
    winner committed between the search snapshot opening and the index
    refresh is all-invisible to that search — filter, ranking and the
    whole returned profile, each ``_reference_profile``'s at the
    search's snapshot — and all-visible to the next.
    """
    archive = _small_archive()
    engine, store = archive.engine, archive.store
    for doc in archive.live:
        store.set_state(doc, "review", "ana")
    before = [r.doc for r in engine.search(query, ranking=ranking,
                                           limit=limit)]
    assert 0 < len(before) <= limit
    if plan == "heap":
        assert len(before) == len(archive.live)
    target = before[0]
    original = engine.index.ensure_fresh
    pinned = {}

    def racy_refresh(txn=None):
        if not pinned:
            store.set_state(target, "final", "ben")
            store.set_property(target, "tier", 9, "ben")
            pinned.update(
                (doc, _reference_profile(engine, doc, need_readers=False,
                                         need_authors=False, txn=txn))
                for doc in archive.live)
        return original(txn=txn)

    monkeypatch.setattr(engine.index, "ensure_fresh", racy_refresh)
    planned = _plan_count(engine, plan)
    during = engine.search(query, ranking=ranking, limit=limit)
    assert _plan_count(engine, plan) == planned + 1
    assert [r.doc for r in during] == before
    assert [r.profile for r in during] == [pinned[r.doc] for r in during]
    assert during[0].profile["state"] == "review"
    assert during[0].profile["last_modified_by"] == "ana"
    assert "tier" not in during[0].profile["props"]
    after = engine.search(query, ranking=ranking, limit=limit)
    assert target not in {r.doc for r in after}
    if plan == "heap":
        assert {r.doc for r in after} == set(before) - {target}
    assert [(r.doc, r.score, r.profile) for r in after] == reference_search(
        engine, query, ranking=ranking, limit=limit)
    final = engine.search("state:final", limit=50)
    assert [r.doc for r in final] == [target]
    with archive.db.snapshot() as snap:
        assert final[0].profile == _reference_profile(
            engine, target, need_readers=False, need_authors=False,
            txn=snap)
    assert final[0].profile["last_modified_by"] == "ben"
    assert final[0].profile["props"]["tier"] == 9
    archive.close()


def test_most_cited_pinned_against_concurrent_copy(monkeypatch):
    """The ``most_cited`` twin: a copy committed between the search
    snapshot opening and the index refresh does not reorder that search
    (the copy log used to be read outside the snapshot) and does reorder
    the next one."""
    archive = _small_archive()
    engine = archive.engine
    before = [r.doc for r in
              engine.search("alpha", ranking="most_cited", limit=50)]
    assert len(before) == len(archive.live)
    target, other = before[-1], before[0]
    original = engine.index.ensure_fresh
    fired = []

    def racy_refresh(txn=None):
        if not fired:
            fired.append(True)
            archive.apply(("cite", archive.live.index(target),
                           archive.live.index(other), "ben"))
        return original(txn=txn)

    monkeypatch.setattr(engine.index, "ensure_fresh", racy_refresh)
    during = engine.search("alpha", ranking="most_cited", limit=50)
    assert [r.doc for r in during] == before
    assert fired == [True]
    after = engine.search("alpha", ranking="most_cited", limit=50)
    assert [r.doc for r in after] == [target] + before[:-1]
    archive.close()


def _examined(engine, query, ranking, limit) -> int:
    """``search.index_hits`` spent by one search: documents examined."""
    hits = engine.db.obs.registry.counter("search.index_hits")
    before = hits.value
    results = engine.search(query, ranking=ranking, limit=limit)
    examined = hits.value - before
    assert [(r.doc, r.score, r.profile) for r in results] == \
        reference_search(engine, query, ranking=ranking, limit=limit)
    return examined


def _bulk_archive(n_docs: int) -> SimpleNamespace:
    """``n_docs`` archived documents "filler alpha" with the term
    ``omega`` added to two of them."""
    return _archive_of(
        "filler alpha" + (f" {RARE}" if i in (7, 1500) else "")
        for i in range(n_docs))


def _archive_of(texts) -> SimpleNamespace:
    """Archived documents with ``texts`` in document-id order, one
    timestamp (so ``newest`` is document-id order), states cycling
    draft / review / final."""
    db = Database("bulk", clock=SimulatedClock(tick=0))
    DocumentStore(db)  # creates the schema
    now = db.now()
    with db.transaction() as txn:
        for i, text in enumerate(texts):
            txn.insert(S.DOCUMENTS, {
                "doc": db.new_oid("doc"), "name": f"bulk-{i:05d}",
                "creator": USERS[i % 2], "created_at": now,
                "state": STATES[i % 3], "size": len(text),
                "last_modified": now, "last_modified_by": "ana",
                "props": {"archived_text": text}})
    return SimpleNamespace(db=db, engine=SearchEngine(db))


def test_walk_stops_at_limit_and_rare_terms_take_the_heap():
    """A ranked metadata scan walks the ordered list and stops at
    ``limit`` survivors (``state:final`` is every third document), and a
    term in two documents under ``newest`` heaps those two instead of
    walking 2 000."""
    bulk = _bulk_archive(2000)
    engine = bulk.engine
    for limit in (1, 3, 10, 50):
        for ranking in ("relevance", "newest", "oldest"):
            assert _examined(engine, "state:final", ranking, limit) \
                <= 3 * limit
        # The two longer ``omega`` documents (neither final) lead.
        assert _examined(engine, "state:final", "largest", limit) \
            <= 3 * limit + 2
    assert _examined(engine, "alpha state:final", "relevance", 10) <= 30
    assert engine.index.doc_frequency(RARE) == 2
    for ranking in ("newest", "oldest", "largest", "relevance"):
        assert _examined(engine, RARE, ranking, 10) <= 2
        assert _examined(engine, f"{RARE} state:draft", ranking, 10) <= 2
    # Two equality sets: every sixth document is in both.
    assert _examined(engine, "creator:ana state:final", "newest", 5) <= 30
    bulk.engine.index.close()
    bulk.engine.meta.close()


def _plan_count(engine, plan: str) -> int:
    series = engine.db.obs.registry.get(f"search.plans{{plan={plan}}}")
    return 0 if series is None else series.value


def test_threshold_walk_keeps_the_heaps_tie_order():
    """Every bulk document reads "filler alpha" at one timestamp, so
    two-term and phrase relevance tie on score *and* ``last_modified``
    everywhere but the longer ``omega`` document 7: no bound can stop
    the threshold walk early, and the ties come out in document-id
    order, the heap's."""
    bulk = _bulk_archive(300)
    engine = bulk.engine
    for query in ("filler alpha", '"filler alpha"', "alpha filler",
                  "filler alpha state:final"):
        for limit in (1, 10):
            before = _plan_count(engine, "threshold")
            _examined(engine, query, "relevance", limit)
            assert _plan_count(engine, "threshold") == before + 1
    by_id = sorted(engine.index.doc_values)
    assert [r.doc for r in engine.search("filler alpha", limit=10)] \
        == by_id[:7] + by_id[8:11]
    engine.index.close()
    engine.meta.close()


def test_threshold_walk_stops_only_strictly_above_the_bound():
    """Six tokens each, idf 1: S ("alpha" ×3, "beta" ×2) heads alpha's
    list and T ("beta" ×3) beta's; U ("alpha" ×2, "beta" ×3) is next in
    both.  After the first round the best score, S's 1/2 + 1/3, equals
    the bound exactly, and U — unseen, same score, lower id — wins the
    tie: the walk must read one more round."""
    archive = _archive_of(("alpha beta beta beta filler filler",
                           "alpha alpha beta beta beta filler",
                           "alpha alpha alpha beta beta filler"))
    engine = archive.engine
    t_doc, u_doc, s_doc = sorted(engine.index.doc_values)
    assert _examined(engine, "alpha beta", "relevance", 1) == 3
    assert _plan_count(engine, "threshold") == 1
    hits = engine.search("alpha beta", limit=3)
    assert [r.doc for r in hits] == [u_doc, s_doc, t_doc]
    assert hits[0].score == hits[1].score
    engine.index.close()
    engine.meta.close()


def test_threshold_walk_examines_a_fraction_of_the_heaps_pool():
    """At ``limit`` 10 two-term and phrase relevance stop long before
    the heap's pool (``matching_docs`` of the terms).  Measured on this
    2 000-document portal: 83 documents examined for the two terms and
    89 for the phrase, against a pool of 438; gated at a quarter of the
    pool."""
    portal = build_portal(PortalSpec(n_docs=2000, seed=1))
    engine = portal.search
    try:
        pool = len(engine.index.matching_docs(["database", "transaction"]))
        assert pool > 400
        for query in ("database transaction", '"database transaction"'):
            assert _examined(engine, query, "relevance", 10) <= pool // 4
        assert _plan_count(engine, "threshold") == 2
        assert _plan_count(engine, "heap") == 0
    finally:
        portal.close()


def test_every_plan_is_counted_without_a_label_lookup(monkeypatch):
    """``search.plans{plan=…}`` names the plan each search took, and a
    warm engine counts it without resolving a label per query."""
    bulk = _bulk_archive(300)
    engine = bulk.engine
    queries = {"top_docs": ("alpha", "relevance"),
               "walk": ("state:final", "newest"),
               "threshold": ("filler alpha", "relevance"),
               "heap": (RARE, "newest")}
    for query, ranking in queries.values():
        engine.search(query, ranking=ranking, limit=10)
    calls = []
    original = MetricFamily.labels

    def counted(family, **labels):
        calls.append((family.name, labels))
        return original(family, **labels)

    monkeypatch.setattr(MetricFamily, "labels", counted)
    for query, ranking in queries.values():
        engine.search(query, ranking=ranking, limit=10)
    assert calls == []
    assert {plan: _plan_count(engine, plan) for plan in queries} \
        == dict.fromkeys(queries, 2)
    assert unknown_names(engine.db.metrics_snapshot()) == []
    engine.index.close()
    engine.meta.close()


def test_check_names_corrupt_postings_and_ordered_lists():
    """``check()`` holds the equality postings to a rebuild from doc
    values and each built ordered list to ``sorted()`` of its keys;
    ``rebuild()`` drops both (they come back lazily)."""
    archive = _small_archive()
    index = archive.engine.index
    gone = archive.live[5]
    index.ensure_fresh()
    drafts = index.equal_docs("state", "draft")
    newest = index.ordered_docs("newest")
    archive.apply(("delete", 5, "ana"))
    index.ensure_fresh()
    assert gone not in drafts and all(key[-1] != gone for key in newest)
    assert index.check() == []
    drafts.add(gone)
    newest.reverse()
    problems = index.check()
    assert f"{gone}: stale in state postings" in problems
    assert "state postings != doc values" in problems
    assert "newest list != sorted doc values" in problems
    newest.reverse()
    newest.insert(0, (float("-inf"), gone))
    assert f"{gone}: stale in newest list" in index.check()
    index.rebuild()
    assert index.check() == []
    assert gone not in index.equal_docs("state", "draft")
    assert [key[-1] for key in index.ordered_docs("newest")] \
        == [r.doc for r in archive.engine.search("", ranking="newest",
                                                 limit=50)]
    archive.close()


def test_check_names_a_mutable_posting_and_an_uninterned_term():
    """A posting is a tuple and a term is its interned string in the
    postings and the impact lists; ``check()`` names each departure, so
    every programme that calls it guards both."""
    archive = _small_archive()
    index = archive.engine.index
    index.ensure_fresh()
    index.top_docs("alpha", 3)
    assert index.check() == []
    doc = next(iter(index.postings("alpha")))
    bucket = index._postings["alpha"]
    bucket[doc] = list(bucket[doc])
    index._postings["".join("beta")] = index._postings.pop("beta")
    index._impact["".join("alpha")] = index._impact.pop("alpha")
    problems = index.check()
    assert f"{doc}: 'alpha' posting is a list" in problems
    assert "posted term 'beta' is not interned" in problems
    assert "impact term 'alpha' is not interned" in problems
    index.rebuild()
    assert index.check() == []
    archive.close()


def test_check_retokenizes_every_cached_text():
    """The postings and lengths are checked against a re-tokenization
    of each document's cached text, the only record of its terms:
    ``check()`` names a text edited without a re-index, a posting for a
    term the text lacks, a term of the text with no posting and a wrong
    length, each on its own."""
    archive = _small_archive()
    index = archive.engine.index
    index.ensure_fresh()
    doc = archive.live[0]
    assert index.doc_texts[doc] == "alpha beta gamma"
    assert index.check() == []

    def planted(fault) -> list[str]:
        fault()
        problems = index.check()
        index.rebuild()
        assert index.check() == []
        return problems

    def edit_text():
        index._doc_text[doc] = "alpha gamma beta"

    def post_absent_term():
        index._postings["delta"][doc] = (7,)

    def unpost_term():
        del index._postings["gamma"][doc]

    def miscount():
        index._doc_len[doc] += 1

    assert planted(edit_text) == [
        f"{doc}: 'beta' posted at 1, where its text does not have it",
        f"{doc}: 'gamma' posted at 2, where its text does not have it",
        f"{doc}: 'gamma' at 1 of its text is not posted",
        f"{doc}: 'beta' at 2 of its text is not posted"]
    assert f"{doc}: 'delta' posted at 7, where its text does not have it" \
        in planted(post_absent_term)
    assert f"{doc}: 'gamma' at 2 of its text is not posted" \
        in planted(unpost_term)
    assert f"{doc}: length 4 != 3 tokens in its text" in planted(miscount)
    archive.close()


def test_impact_lists_are_kept_only_for_posted_terms():
    """A search for a term no document contains leaves no impact list
    behind, and a warmed term's list goes with its last document; the
    term re-added ranks exactly like the scan path, and ``check()``
    names an impact list of a term that is not posted."""
    archive = _small_archive()
    engine, index = archive.engine, archive.engine.index
    assert_same_as_reference(engine, RARE, "relevance", 3)
    warmed = set(index._impact)
    assert RARE in warmed
    for n in range(200):
        engine.search(f"absent{n}")
        engine.search(f"absent{n} alpha", ranking="newest")
        assert index.top_docs(f"absent{n}", 3) == []
    assert set(index._impact) == warmed
    for doc in list(index.postings(RARE)):
        archive.apply(("delete", archive.live.index(doc), "ana"))
    index.ensure_fresh()
    assert RARE not in index._impact and index.check() == []
    archive.apply(("import", "ben", (RARE, "alpha", RARE), "db"))
    archive.apply(("advance",))
    archive.apply(("create", "cleo", ("beta", RARE), "ai"))
    for query in (RARE, f"alpha {RARE}", f"{RARE} state:draft"):
        for ranking in RANKINGS:
            for limit in (1, 3, 50):
                assert_same_as_reference(engine, query, ranking, limit)
    assert index.check() == []
    index._impact[sys.intern("nowhere")] = []
    assert "impact list of unposted term 'nowhere'" in index.check()
    archive.close()


def test_index_bytes_per_archived_document():
    """The index of a 1 000-document portal, rebuilt with its warmed
    impact lists under tracemalloc, holds each term once and each
    posting as a tuple.  Measured: 4 475 B/doc with a fresh string per
    token and a list per posting, 2 740 B/doc with interned terms and
    tuple postings; gated halfway between."""
    portal = build_portal(PortalSpec(n_docs=1000))
    index = portal.search.index
    try:
        warmed = list(index._impact)
        gc.collect()
        tracemalloc.start()
        try:
            index.rebuild()
            for term in warmed:
                index.top_docs(term, 10)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(warmed) == 69
        assert held / index.doc_count() <= 3_600
        assert index.check() == []
    finally:
        portal.close()


def test_filter_only_and_meta_filters_touch_survivors_only(monkeypatch):
    """Collector lookups (access log, character rows) run after the
    column filters, on the documents that survived them."""
    archive = _small_archive()
    engine = archive.engine
    archive.store.open(archive.live[3], "cleo").close()
    asked = []
    readers_of = engine.meta.readers_of

    def counting(doc, **kwargs):
        asked.append(doc)
        return readers_of(doc, **kwargs)

    monkeypatch.setattr(engine.meta, "readers_of", counting)
    hits = engine.search("creator:ben reader:cleo")
    assert [r.doc for r in hits] == [archive.live[3]]
    assert hits[0].profile["readers"] == ["cleo"]
    by_ben = {archive.live[1], archive.live[3]}
    assert set(asked) == by_ben
    archive.close()
