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
refreshed, partly dirty) and at the end checks every filter field ×
every ranking × {one term, two terms, phrase, filter-only} for
identical documents, scores and profiles.  ``InvertedIndex.check()``
then proves doc values ≡ ``tx_documents`` after a drain.

The nightly CI arm re-runs this file at a larger examples budget
(``MVCC_PROPERTY_PROFILE=nightly``).
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.db import Database, col
from repro.feed import MaintenanceWorker
from repro.search import RANKINGS, SearchEngine, parse_query
from repro.text import DocumentStore
from repro.text import dbschema as S
from repro.workload import upload_version

_NIGHTLY = os.environ.get("MVCC_PROPERTY_PROFILE") == "nightly"
MAX_EXAMPLES = 200 if _NIGHTLY else 30
MAX_OPS = 60 if _NIGHTLY else 30

USERS = ("ana", "ben", "cleo")
STATES = ("draft", "review", "final")
WORDS = ("alpha", "beta", "gamma", "delta")
TOPICS = ("db", "ai")

FILTERS = ("", "creator:ana", "state:final", "name:DB", "reader:ben",
           "author:ana", "writer:ben", "prop:topic", "prop:tier=2")
SHAPES = ("alpha", "alpha beta", '"alpha beta"', "")
QUERIES = [f"{shape} {flt}".strip() for shape in SHAPES for flt in FILTERS]


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


def _reference_sort(engine, profiles, ranking, relevance):
    reverse = True
    if ranking == "relevance":
        key = lambda p: (relevance.get(p["doc"], 0.0), p["last_modified"])
    elif ranking == "newest":
        key = lambda p: p["last_modified"]
    elif ranking == "oldest":
        key = lambda p: p["created_at"]
        reverse = False
    elif ranking == "most_cited":
        citations = engine.meta.citation_counts()
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
                candidates &= index.phrase_docs(phrase)
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
    ordered = _reference_sort(engine, profiles, ranking, relevance)
    return [(p["doc"], relevance.get(p["doc"], 0.0), p)
            for p in ordered[:limit]]


def assert_same_as_reference(engine, query, ranking, limit):
    results = engine.search(query, ranking=ranking, limit=limit)
    want = reference_search(engine, query, ranking=ranking, limit=limit)
    assert [(r.doc, r.score, r.profile) for r in results] == want, \
        (query, ranking, limit)
    assert all(r.name == r.profile["name"] for r in results)


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
        self.worker.register("search-index", self.engine.index.maintain,
                             sub=self.engine.index.subscription)
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
_limit = st.sampled_from((1, 3, 50))

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
    ("import", "ben", ("alpha", "beta"), "db"),
    ("import", "ana", ("beta", "alpha", "alpha"), "ai"),
    ("create", "ben", ("alpha", "beta", "delta"), "ai"),
    ("create", "ana", ("gamma", "alpha"), ""),
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
            assert index.cached_text(doc) == ""
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
    for limit in (1, 3, 50):
        for query in QUERIES:
            for ranking in RANKINGS:
                assert_same_as_reference(engine, query, ranking, limit)
    found = {flt: {r.doc for r in engine.search(flt, limit=50)}
             for flt in FILTERS if flt}
    assert all(0 < len(docs) < len(archive.live) for docs in found.values())
    assert found["prop:tier=2"] == set(archive.live[:2])
    archive.close()


def test_doc_values_follow_every_documents_column():
    archive = _small_archive()
    index = archive.engine.index
    doc = archive.live[0]
    index.ensure_fresh()
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


def test_scan_search_pinned_against_concurrent_writer(monkeypatch):
    """The scan-path twin of ``test_search_pinned_against_concurrent_
    writer``: a state change committed between the search snapshot
    opening and the index refresh is all-invisible to that search —
    filter, ranking and returned profiles — and all-visible to the next.
    """
    archive = _small_archive()
    engine, store = archive.engine, archive.store
    for doc in archive.live:
        store.set_state(doc, "review", "ana")
    target = archive.live[1]
    before = {r.doc for r in engine.search("alpha state:review", limit=50)}
    assert target in before and len(before) == len(archive.live)
    original = engine.index.ensure_fresh
    fired = []

    def racy_refresh(txn=None):
        if not fired:
            fired.append(True)
            store.set_state(target, "final", "ben")
        return original(txn=txn)

    monkeypatch.setattr(engine.index, "ensure_fresh", racy_refresh)
    during = engine.search("alpha state:review", limit=50)
    assert {r.doc for r in during} == before
    assert all(r.profile["state"] == "review" for r in during)
    assert fired == [True]
    after = engine.search("alpha state:review", limit=50)
    assert {r.doc for r in after} == before - {target}
    final = engine.search("alpha state:final", limit=50)
    assert [r.doc for r in final] == [target]
    assert final[0].profile["state"] == "final"
    assert final[0].profile["last_modified_by"] == "ben"
    archive.close()


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
