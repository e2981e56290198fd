"""The search engine facade.

§3: "Documents and parts of documents can either be found based on the
document content, or structure, or document creation process meta data."

* **content** — terms against the incrementally maintained inverted index;
* **metadata** — ``field:value`` filters evaluated on document profiles
  (creator, state, name, readers, authors, user-defined properties);
* **structure** — :meth:`SearchEngine.search_structure` matches structure
  node labels and returns the node's text context.

Results are document profiles ranked by any of the paper's options.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from operator import itemgetter
from time import perf_counter
from typing import Callable, Iterable

from ..db import Database
from ..errors import SearchError
from ..ids import Oid
from ..meta import MetadataCollector
from ..obs.labels import SeriesCache
from ..text import dbschema as S
from .index import EQUALITY_FIELDS, DocValues, InvertedIndex, tf_idf
from .query import SearchQuery, parse_query
from .ranking import KEYS, ORDERED, RANKINGS, Ranker


@dataclass(slots=True)
class SearchResult:
    """One hit."""

    doc: Oid
    name: str
    score: float
    profile: dict = field(default_factory=dict, repr=False)
    snippet: str = ""


def _passing(docs: Iterable[Oid], tests: list[Callable[[Oid], bool]],
             limit: int) -> tuple[list[Oid], int]:
    """The first ``limit`` of ``docs`` that pass every test, and how
    many documents were examined to find them."""
    kept: list[Oid] = []
    examined = 0
    for doc in docs:
        if len(kept) == limit:
            break
        examined += 1
        for test in tests:
            if not test(doc):
                break
        else:
            kept.append(doc)
    return kept, examined


#: A fresh ``{column: value}`` dict of a :class:`DocValues` row: one dict
#: display with the columns as constant keys, compiled once from
#: ``DocValues._fields``.  It is faster than ``dict(zip(DocValues._fields,
#: row))`` or ``_asdict()``, which pair every value with its name first.
_profile = eval("lambda row: {%s}" % ", ".join(
    f"{name!r}: row[{at}]" for at, name in enumerate(DocValues._fields)))


def _snippet(text: str, terms: list, radius: int = 30) -> str:
    """A window of ``text`` around the first match of any of ``terms``
    (lowercase) in the lowercased text.

    The match is found in ``text.lower()``, which is longer than
    ``text`` when a character lowers to more than one (``'İ'`` lowers to
    two code points); only then is the match's offset mapped back to the
    character of ``text`` it lies in."""
    lowered = text.lower()
    if len(terms) == 1:
        best = lowered.find(terms[0])
    else:
        best = min([pos for pos in map(lowered.find, terms) if pos >= 0],
                   default=-1)
    if best < 0:
        return text[: 2 * radius].strip()
    if len(lowered) != len(text):
        for at, ch in enumerate(text):
            best -= len(ch.lower())
            if best < 0:
                best = at
                break
    start = best - radius
    end = best + radius
    suffix = "..." if end < len(text) else ""
    if start > 0:
        return "..." + text[start:end].strip() + suffix
    return text[:end].strip() + suffix


class SearchEngine:
    """Content + structure + metadata search with pluggable ranking."""

    def __init__(self, db: Database,
                 meta: MetadataCollector | None = None) -> None:
        self.db = db
        self.meta = meta or MetadataCollector(db)
        self.index = InvertedIndex(db)
        self.ranker = Ranker(self.meta)
        registry = db.obs.registry
        self._m_queries = registry.counter("search.queries")
        self._m_query_seconds = registry.histogram("search.query_seconds")
        self._m_index_hits = registry.counter("search.index_hits")
        self._m_structure = registry.counter("search.structure_queries")
        self._m_plans = SeriesCache(
            registry.family("search.plans", "counter"), "plan")

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def search(self, query: str | SearchQuery, *,
               ranking: str = "relevance",
               limit: int = 20) -> list[SearchResult]:
        """Run a query; returns ranked results.

        Raises :class:`~repro.errors.SearchError` for an unknown
        ``ranking`` or a negative ``limit``, before any index work.
        """
        if ranking not in RANKINGS:
            raise SearchError(f"unknown ranking {ranking!r}")
        if limit < 0:
            raise SearchError(f"limit must be >= 0, not {limit}")
        started = perf_counter()
        self._m_queries.inc()
        if isinstance(query, str):
            query = parse_query(query)
        filter_fields = {f[0] for f in query.filters}
        need_readers = "reader" in filter_fields or ranking == "most_read"
        need_authors = bool({"author", "writer"} & filter_fields)

        # The whole query runs inside one snapshot transaction, and the
        # index refresh is pinned to the *same* snapshot: postings and
        # doc values (the winners' profiles) describe one commit point,
        # and readers, authors and the copy log are read at it, so a
        # typist committing halfway through can neither stall the
        # search (no locks) nor make its parts disagree.
        # Single-term relevance queries without filters take the
        # impact-ordered fast path: the index hands back the exact
        # top-k in the ranker's own total order — cost independent of
        # how many documents contain the term.
        fast_single = (ranking == "relevance" and not query.filters
                       and len(query.terms) == 1 and not query.phrases)
        with self.db.snapshot() as snap:
            self.index.ensure_fresh(txn=snap)
            if fast_single:
                scored = self.index.top_docs(query.terms[0], limit)
                self._m_index_hits.inc(len(scored))
                self._m_plans["top_docs"].inc()
            else:
                scored = self._scan(query, ranking, limit, snap)
            return self._materialise(
                scored, query, started, txn=snap,
                need_readers=need_readers, need_authors=need_authors)

    def _materialise(self, scored: list[tuple[Oid, float]],
                     query: SearchQuery, started: float, *, txn,
                     need_readers: bool,
                     need_authors: bool) -> list[SearchResult]:
        """Build the ranked winners' results.

        A profile is the winner's doc values — its whole
        ``tx_documents`` row as of the search snapshot — with derived
        fields read through ``txn`` only on demand.  (The full
        consolidated profile scans every character row of a document.)
        Callers who want the complete creation-process record should use
        :meth:`~repro.meta.collector.MetadataCollector.document_profile`.

        One pass per winner: its profile is a fresh dict (``props`` a
        fresh copy too, so a caller editing it reaches neither the index
        nor the table) and its snippet is cut from the index's cached
        text.
        """
        terms = query.all_terms
        values = self.index.doc_values
        texts = self.index.doc_texts
        results = []
        for doc, score in scored:
            row = values[doc]
            profile = _profile(row)
            profile["props"] = dict(row.props or {})
            if need_readers:
                profile["readers"] = sorted(
                    self.meta.readers_of(doc, txn=txn))
            if need_authors:
                profile["authors"] = sorted(
                    self.meta.author_contributions(doc, txn=txn))
            results.append(SearchResult(
                doc, row.name, score, profile,
                _snippet(texts[doc], terms)))
        self._m_query_seconds.observe(perf_counter() - started)
        return results

    def _scan(self, query: SearchQuery, ranking: str, limit: int,
              snap) -> list[tuple[Oid, float]]:
        """The ``limit`` best ``(doc, relevance)`` of any query shape.

        Equality filters are candidate *sets*; phrases and every other
        filter are per-document *tests*.  Then one of three plans:

        * **walk** an ordered list in rank order — the ranking's own
          (relevance without terms orders as ``newest``), or for
          one-term relevance that term's impact list — and stop at
          ``limit`` documents that are in every set and pass every test;
        * **threshold**: for relevance with two or more terms, walk the
          terms' impact lists side by side (:meth:`_threshold`) and stop
          once no unseen document can enter the top ``limit``;
        * **heap** the candidates (the terms' postings ∩ every set) that
          pass every test by the ranker's key.

        A walk is taken when ``limit`` × the length of the (shortest)
        list it walks is below the square of the smallest candidate set
        (an equality set or a term's postings; the corpus when there is
        none) — a walk finds ``limit`` survivors after about ``limit`` ×
        list ÷ set entries, the heap examines about the set: a rare term
        under ``newest`` heaps its few documents instead of walking the
        corpus.  Only the winners are scored, except that the heap needs
        every candidate's relevance to rank by it and the threshold walk
        every examined document's.
        """
        index = self.index
        terms = query.all_terms
        readers: dict[Oid, set] = {}

        def readers_of(doc: Oid) -> set:
            found = readers.get(doc)
            if found is None:
                found = readers[doc] = self.meta.readers_of(doc, txn=snap)
            return found

        sets, tests = self._filters(query, snap, readers_of)
        smallest = min([len(docs) for docs in sets]
                       + [index.doc_frequency(term) for term in terms],
                       default=index.doc_count())
        if not limit or not smallest:
            return []
        plan, walk = self._plan(ranking, terms, limit, smallest)
        self._m_plans[plan].inc()
        if plan == "heap":
            winners, examined = self._heap(
                ranking, limit, terms, sets, tests, readers_of, snap)
        else:
            checks = [docs.__contains__ for docs in sets] + tests
            if plan == "threshold" or (terms and ranking in ORDERED):
                # A ranking's list holds every document, an impact list
                # only its term's: a document must be in each term's
                # posting, the rarest asked first.
                postings = sorted(map(index.positions, set(terms)), key=len)
                checks[:0] = [posting.__contains__ for posting in postings]
            if plan == "threshold":
                winners, examined = self._threshold(terms, limit, checks)
            else:
                winners, examined = _passing(
                    map(itemgetter(-1), walk), checks, limit)
        self._m_index_hits.inc(examined)
        return list(zip(winners, index.scores(terms, winners)))

    def _plan(self, ranking: str, terms: list, limit: int,
              smallest: int) -> tuple[str, list]:
        """``walk`` with the list to walk, ``threshold`` or ``heap``, by
        the rule in :meth:`_scan`."""
        index = self.index
        if ranking == "relevance" and terms:
            shortest = min(map(index.doc_frequency, terms))
            if limit * shortest < smallest * smallest:
                if len(terms) > 1:
                    return "threshold", []
                return "walk", index.impact_entries(terms[0])
        elif ranking in ORDERED or ranking == "relevance":
            if limit * index.doc_count() < smallest * smallest:
                # Without terms every relevance is 0.0: newest order.
                return "walk", index.ordered_docs(
                    ranking if ranking in ORDERED else "newest")
        return "heap", []

    def _threshold(self, terms: list, limit: int,
                   checks: list[Callable[[Oid], bool]]
                   ) -> tuple[list[Oid], int]:
        """The ``limit`` best documents by relevance that pass every
        check, and how many documents were examined.

        Fagin, Lotem and Naor's threshold algorithm over the terms'
        impact lists (ascending ``-tf/len``), read one entry each per
        round.  A document is examined the first time any list yields
        it: checked, then scored exactly.  After a round no unseen
        document scores above the bound Σ idf × (each list's next
        ``tf/len``), summed in the score's own term order by the score's
        own expression (:func:`~repro.search.index.tf_idf`), so the walk
        stops once the ``limit``-th best score is strictly above it — a
        document tied with the bound could still win on the tie-break.
        It also stops when the shortest list runs out: a document
        holding every term is in that list, so it has been seen.  The
        result is the heap's, documents, scores and ties alike.
        """
        index = self.index
        weights = index.weights(terms)
        distinct = list(dict.fromkeys(terms))
        lists = [index.impact_entries(term) for term in distinct]
        values = index.doc_values
        key = KEYS["relevance"]
        best: list[tuple] = []
        seen: set[Oid] = set()
        rounds = min(map(len, lists))
        for depth in range(rounds):
            for entries in lists:
                doc = entries[depth][-1]
                if doc in seen:
                    continue
                seen.add(doc)
                for check in checks:
                    if not check(doc):
                        break
                else:
                    entry = key(doc, values[doc], index.score(doc, weights))
                    if len(best) < limit:
                        insort(best, entry)
                    elif entry < best[-1]:
                        insort(best, entry)
                        del best[-1]
            if len(best) == limit and depth + 1 < rounds:
                bound = tf_idf(weights, {
                    term: -entries[depth + 1][0]
                    for term, entries in zip(distinct, lists)}, 1)
                if -best[-1][0] > bound:
                    break
        return [entry[-1] for entry in best], len(seen)

    def _filters(self, query: SearchQuery, snap,
                 readers_of: Callable[[Oid], set]
                 ) -> tuple[list, list[Callable[[Oid], bool]]]:
        """The query's candidate sets (equality postings) and
        per-document tests: phrase adjacency and column predicates over
        doc values first, then what only the access log or the
        character rows know (readers, authors), asked of the collector
        last.  A document reaches the tests only once it is known to
        hold every term."""
        index = self.index
        values = index.doc_values
        sets: list = []
        columns: list[Callable[[Oid], bool]] = [
            lambda doc, phrase=phrase: index.has_phrase(doc, phrase)
            for phrase in query.phrases]
        collector: list[Callable[[Oid], bool]] = []
        for fieldname, value in query.filters:
            key, sep, expected = value.partition("=")
            if fieldname in EQUALITY_FIELDS and not (
                    fieldname == "prop" and sep):
                sets.append(index.equal_docs(fieldname, value))
            elif fieldname == "name":
                columns.append(lambda doc, needle=value.lower():
                               needle in values[doc].name.lower())
            elif fieldname == "prop":
                columns.append(
                    lambda doc, key=key, expected=expected:
                    key in (props := values[doc].props or {})
                    and str(props[key]) == expected)
            elif fieldname == "reader":
                collector.append(
                    lambda doc, user=value: user in readers_of(doc))
            else:  # author / writer
                collector.append(
                    lambda doc, user=value: user in
                    self.meta.author_contributions(doc, txn=snap))
        return sets, columns + collector

    def _heap(self, ranking: str, limit: int, terms: list, sets: list,
              tests: list, readers_of: Callable[[Oid], set],
              snap) -> tuple[list[Oid], int]:
        """The ``limit`` best candidates by the ranker's key, and how
        many candidates were examined."""
        index = self.index
        values = index.doc_values
        by_size = sorted(sets, key=len)
        if terms:
            pool = index.matching_docs(terms)
        elif by_size:
            pool = set(by_size.pop(0))
        else:
            pool = index.all_docs()
        for docs in by_size:
            pool &= docs
        survivors = list(pool)
        for test in tests:
            survivors = [doc for doc in survivors if test(doc)]
        scores = (index.scores(terms, survivors) if ranking == "relevance"
                  else [0.0] * len(survivors))
        key = self.ranker.key(ranking, readers_of, txn=snap)
        best = heapq.nsmallest(limit, [
            key(doc, values[doc], score)
            for doc, score in zip(survivors, scores)])
        return [entry[-1] for entry in best], len(pool)

    # ------------------------------------------------------------------
    # Structure search
    # ------------------------------------------------------------------

    def search_structure(self, term: str, *,
                         kind: str | None = None) -> list[dict]:
        """Find structure nodes whose label contains ``term``.

        Returns node rows augmented with their document name — "parts of
        documents can ... be found based on ... structure".
        """
        self._m_structure.inc()
        needle = term.lower()
        with self.db.snapshot() as snap:
            rows = snap.query(S.STRUCTURE).run()
            names = {
                r["doc"]: r["name"] for r in snap.query(S.DOCUMENTS).run()
            }
        hits = []
        for row in rows:
            if kind is not None and row["kind"] != kind:
                continue
            if needle in row["label"].lower():
                hit = dict(row)
                hit["doc_name"] = names.get(row["doc"], str(row["doc"]))
                hits.append(hit)
        hits.sort(key=lambda r: (r["doc_name"], r["pos"]))
        return hits

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def rankings(self) -> tuple:
        """The supported ranking option names."""
        return RANKINGS

    def render_results(self, results: list) -> str:
        """Printable result list (demo output)."""
        if not results:
            return "(no results)"
        lines = []
        for i, result in enumerate(results, 1):
            lines.append(
                f"{i:>2}. {result.name}  [score {result.score:.3f}] "
                f"— {result.snippet}"
            )
        return "\n".join(lines)
