"""The index's scores ≡ a forward map built from the documents' text.

The index keeps no ``doc -> term -> tf`` map: a term's frequency in a
document is the length of its posting, and un-indexing reads the
document's terms back from its cached text.  The reference here keeps
that forward map, built from ``tokenize`` of the text the programme
itself wrote, and scores with :func:`~repro.search.index.tf_idf` over
it — the sum the index took before.  A hypothesis programme interleaves
chain creates, typing, archive imports, re-uploads, state changes,
deletes, clock moves, full rebuilds and warmed impact lists with probes;
each probe asks for ``weights``, ``score``, ``scores`` and ``top_docs``,
and runs its query (a repeated term, a phrase, a filter) through the
threshold walk, the heap and the ordered walk, each forced.  Documents
and scores must be equal by ``==``: not one rounding may differ.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.db import Database
from repro.mining.features import tokenize
from repro.search import SearchEngine, parse_query
from repro.search.index import DocValues, tf_idf
from repro.search.ranking import KEYS
from repro.text import DocumentStore
from repro.text import dbschema as S
from repro.workload import upload_version

USERS = ("ana", "ben")
STATES = ("draft", "final")
WORDS = ("alpha", "beta", "gamma", "delta", "omega")
FILTERS = ("", "creator:ana", "state:final")
LIMITS = (0, 1, 3, 50)


class Programme:
    """A small archive and the text the programme gave each document."""

    def __init__(self) -> None:
        self.clock = SimulatedClock(tick=0)
        self.db = Database("oracle", clock=self.clock)
        self.store = DocumentStore(self.db)
        self.engine = SearchEngine(self.db)
        self.index = self.engine.index
        #: doc -> its text, as written (chain and archived alike).
        self.texts: dict = {}
        self.chain: set = set()

    def close(self) -> None:
        self.index.close()
        self.engine.meta.close()

    def _pick(self, where: int):
        docs = list(self.texts)
        return docs[where % len(docs)] if docs else None

    def apply(self, op: tuple) -> None:
        kind, args = op[0], op[1:]
        if kind == "create":
            user, words = args
            text = " ".join(words)
            handle = self.store.create(f"doc-{len(self.texts)}", user,
                                       text=text)
            self.texts[handle.doc] = text
            self.chain.add(handle.doc)
            handle.close()
        elif kind == "import":
            user, words = args
            text = " ".join(words)
            self.texts[self.store.import_archived(
                f"doc-{len(self.texts)}", user, text=text)] = text
        elif kind == "advance":
            self.clock.advance(1.0)
        elif kind == "rebuild":
            self.index.rebuild()
        elif kind == "warm":
            self.index.top_docs(args[0], 3)
        elif kind == "probe":
            self.probe(*args)
        else:
            doc = self._pick(args[0])
            if doc is not None:
                getattr(self, "_" + kind)(doc, *args[1:])

    def _type(self, doc, user, words) -> None:
        if doc not in self.chain:
            return
        added = " " + " ".join(words)
        handle = self.store.handle(doc)
        handle.insert_text(handle.length(), added, user)
        handle.close()
        self.texts[doc] += added

    def _reupload(self, doc, user, words) -> None:
        if doc in self.chain:
            return
        text = " ".join(words)
        upload_version(self, doc, text, user)
        self.texts[doc] = text

    def _state(self, doc, state, user) -> None:
        self.store.set_state(doc, state, user)

    def _delete(self, doc, user) -> None:
        self.store.delete_document(doc, user)
        del self.texts[doc]
        self.chain.discard(doc)

    # ------------------------------------------------------------------
    # The reference: a forward map from the written text
    # ------------------------------------------------------------------

    def reference(self) -> "Reference":
        with self.db.snapshot() as snap:
            values = {row["doc"]: DocValues.of(row)
                      for row in snap.query(S.DOCUMENTS).run()}
        assert values.keys() == self.texts.keys()
        return Reference(self.texts, values)

    def probe(self, query: str, limit: int) -> None:
        engine, index = self.engine, self.index
        index.ensure_fresh()
        ref = self.reference()
        parsed = parse_query(query)
        terms = parsed.all_terms
        weights = ref.weights(terms)
        assert index.weights(terms) == weights
        docs = sorted(ref.tokens)
        assert [index.score(doc, weights) for doc in docs] == \
            [ref.score(doc, weights) for doc in docs]
        assert index.scores(terms, docs) == \
            [ref.score(doc, weights) for doc in docs]
        for term in dict.fromkeys(terms):
            assert index.top_docs(term, limit) == ref.top_docs(term, limit)
        for ranking, plans in (("relevance", ("threshold", "heap")),
                               ("newest", ("walk", "heap"))):
            want = ref.search(parsed, ranking, limit)
            for plan in plans:
                assert _forced(engine, plan, query, ranking, limit) \
                    == want, (plan, query, ranking, limit)


class Reference:
    """Scores, top-k lists and searches from ``doc -> term -> tf``."""

    def __init__(self, texts: dict, values: dict) -> None:
        self.values = values
        self.tokens = {doc: tokenize(text) for doc, text in texts.items()}
        self.forward = {doc: Counter(tokens)
                        for doc, tokens in self.tokens.items()}

    def _idf(self, term: str) -> float:
        df = sum(term in tfs for tfs in self.forward.values())
        n = max(len(self.forward), 1)
        return math.log((1 + n) / (1 + df)) + 1.0

    def weights(self, terms: list) -> list:
        return [(term, self._idf(term)) for term in terms
                if any(term in tfs for tfs in self.forward.values())]

    def score(self, doc, weights: list) -> float:
        return tf_idf(weights, self.forward[doc],
                      max(len(self.tokens[doc]), 1))

    def top_docs(self, term: str, k: int) -> list:
        holders = sorted(
            KEYS["relevance"](doc, self.values[doc],
                              tfs[term] / max(len(self.tokens[doc]), 1))
            for doc, tfs in self.forward.items() if term in tfs)
        idf = self._idf(term)
        return [(doc, -neg_impact * idf)
                for neg_impact, __, doc in holders[:k]]

    def _passes(self, doc, query) -> bool:
        tokens = self.tokens[doc]
        if not set(query.all_terms) <= set(tokens):
            return False
        for phrase in query.phrases:
            width = len(phrase)
            if not any(tokens[i:i + width] == phrase
                       for i in range(len(tokens) - width + 1)):
                return False
        values = self.values[doc]
        return all(getattr(values, fieldname) == value
                   for fieldname, value in query.filters)

    def search(self, query, ranking: str, limit: int) -> list:
        weights = self.weights(query.all_terms)
        ranked = sorted(
            KEYS[ranking](doc, self.values[doc], self.score(doc, weights))
            for doc in self.forward if self._passes(doc, query))
        return [(key[-1], self.score(key[-1], weights))
                for key in ranked[:limit]]


def _forced(engine, plan: str, query: str, ranking: str,
            limit: int) -> list:
    """``(doc, score)`` of a search whose scan takes ``plan`` (a
    filterless one-term relevance query takes ``top_docs`` instead)."""
    walk = engine.index.ordered_docs(ranking) if plan == "walk" else []
    engine._plan = lambda *args: (plan, walk)
    try:
        return [(r.doc, r.score)
                for r in engine.search(query, ranking=ranking, limit=limit)]
    finally:
        del engine._plan


_user = st.sampled_from(USERS)
_words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)
_where = st.integers(min_value=0, max_value=50)


@st.composite
def _queries(draw) -> str:
    """One to three terms (a term may repeat), an optional two-term
    phrase and an optional filter."""
    parts = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    if draw(st.booleans()):
        first, second = draw(st.lists(st.sampled_from(WORDS), min_size=2,
                                      max_size=2))
        parts.append(f'"{first} {second}"')
    parts.append(draw(st.sampled_from(FILTERS)))
    return " ".join(parts).strip()


OPS = st.one_of(
    st.tuples(st.just("create"), _user, _words),
    st.tuples(st.just("import"), _user, _words),
    st.tuples(st.just("type"), _where, _user, _words),
    st.tuples(st.just("reupload"), _where, _user, _words),
    st.tuples(st.just("state"), _where, st.sampled_from(STATES), _user),
    st.tuples(st.just("delete"), _where, _user),
    st.tuples(st.just("advance")),
    st.tuples(st.just("rebuild")),
    st.tuples(st.just("warm"), st.sampled_from(WORDS)),
    st.tuples(st.just("probe"), _queries(), st.sampled_from(LIMITS)),
)

#: Every programme starts with chain and archived documents, a term
#: repeated inside one, and ``alpha`` warmed before any write.
SEED_OPS = (
    ("import", "ana", ("alpha", "beta", "gamma")),
    ("import", "ben", ("alpha", "alpha", "omega")),
    ("create", "ana", ("beta", "alpha", "delta")),
    ("create", "ben", ("gamma", "alpha", "beta", "alpha")),
    ("warm", "alpha"),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(OPS, max_size=25), st.lists(_queries(), min_size=1,
                                            max_size=3))
def test_scores_from_postings_equal_a_forward_map(ops, queries):
    programme = Programme()
    try:
        for op in SEED_OPS + tuple(ops):
            programme.apply(op)
        for query in queries + ["alpha alpha beta", '"alpha beta" alpha']:
            for limit in LIMITS:
                programme.probe(query, limit)
        index = programme.index
        assert index.check() == []
        for doc, text in programme.texts.items():
            assert index.doc_texts.get(doc, "") == text
    finally:
        programme.close()
