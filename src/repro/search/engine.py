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
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from ..db import Database, col
from ..ids import Oid
from ..meta import MetadataCollector
from ..mining.features import FeatureExtractor
from ..text import dbschema as S
from .index import DocValues, InvertedIndex
from .query import SearchQuery, parse_query
from .ranking import RANKINGS, Ranker


@dataclass
class SearchResult:
    """One hit."""

    doc: Oid
    name: str
    score: float
    profile: dict = field(default_factory=dict, repr=False)
    snippet: str = ""


def _column_predicates(
        filters: list) -> list[Callable[[DocValues], bool]]:
    """One test over doc values per ``tx_documents``-column filter."""
    predicates: list[Callable[[DocValues], bool]] = []
    for fieldname, value in filters:
        if fieldname == "creator":
            predicates.append(lambda v, value=value: v.creator == value)
        elif fieldname == "state":
            predicates.append(lambda v, value=value: v.state == value)
        elif fieldname == "name":
            predicates.append(
                lambda v, needle=value.lower(): needle in v.name.lower())
        elif fieldname == "prop":
            key, sep, expected = value.partition("=")
            predicates.append(
                lambda v, key=key, sep=sep, expected=expected:
                key in (props := v.props or {})
                and (not sep or str(props[key]) == expected))
    return predicates


class SearchEngine:
    """Content + structure + metadata search with pluggable ranking."""

    def __init__(self, db: Database,
                 meta: MetadataCollector | None = None) -> None:
        self.db = db
        self.meta = meta or MetadataCollector(db)
        self.index = InvertedIndex(db)
        self.ranker = Ranker(self.meta)
        self.extractor = FeatureExtractor(db)
        registry = db.obs.registry
        self._m_queries = registry.counter("search.queries")
        self._m_query_seconds = registry.histogram("search.query_seconds")
        self._m_index_hits = registry.counter("search.index_hits")
        self._m_structure = registry.counter("search.structure_queries")

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def search(self, query: str | SearchQuery, *,
               ranking: str = "relevance",
               limit: int = 20) -> list[SearchResult]:
        """Run a query; returns ranked results."""
        started = perf_counter()
        self._m_queries.inc()
        if isinstance(query, str):
            query = parse_query(query)
        filter_fields = {f[0] for f in query.filters}
        need_readers = "reader" in filter_fields or ranking == "most_read"
        need_authors = bool({"author", "writer"} & filter_fields)

        # The whole query runs inside one snapshot transaction, and the
        # index refresh is pinned to the *same* snapshot: postings, doc
        # values and the winners' profile rows all come from one commit
        # point, so a typist committing halfway through can neither
        # stall the search (no locks) nor make its parts disagree.
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
            else:
                scored = self._scan(query, ranking, limit, snap,
                                    need_readers=need_readers)
            return self._materialise(
                scored, query, started, txn=snap,
                need_readers=need_readers, need_authors=need_authors)

    def _materialise(self, scored: list[tuple[Oid, float]],
                     query: SearchQuery, started: float, *, txn,
                     need_readers: bool,
                     need_authors: bool) -> list[SearchResult]:
        """Read the ranked winners' profiles and build result objects."""
        results = []
        for doc, score in scored:
            profile = self._light_profile(
                doc, need_readers=need_readers, need_authors=need_authors,
                txn=txn)
            if profile is not None:
                results.append(SearchResult(
                    doc=doc, name=profile["name"], score=score,
                    profile=profile,
                    snippet=self._snippet(doc, query.all_terms)))
        self._m_query_seconds.observe(perf_counter() - started)
        return results

    def _scan(self, query: SearchQuery, ranking: str, limit: int, snap, *,
              need_readers: bool) -> list[tuple[Oid, float]]:
        """The ``limit`` best ``(doc, relevance)`` of any query shape.

        Candidates come from the postings; column filters and sort keys
        from the index's doc values, so no candidate costs a snapshot
        read and each candidate id is hashed once.  What only the
        access log or the character rows know (readers, authors) is
        asked of the collector last, for the survivors alone.
        """
        values = self.index.doc_values
        if query.terms or query.phrases:
            candidates = self.index.matching_docs(query.all_terms)
            for phrase in query.phrases:
                candidates &= self.index.phrase_docs(phrase)
            self._m_index_hits.inc(len(candidates))
            rows = [(doc, values[doc]) for doc in candidates]
        else:
            # Metadata-only query: the just-refreshed index knows the
            # full corpus — no DOCUMENTS rescan on this path.
            rows = list(values.items())
        for passes in _column_predicates(query.filters):
            rows = [row for row in rows if passes(row[1])]
        readers = None
        if need_readers:
            readers = {doc: self.meta.readers_of(doc, txn=snap)
                       for doc, __ in rows}
        for fieldname, value in query.filters:
            if fieldname == "reader":
                rows = [row for row in rows if value in readers[row[0]]]
            elif fieldname in ("author", "writer"):
                rows = [row for row in rows if value in
                        self.meta.author_contributions(row[0], txn=snap)]
        scores = self.index.scores(query.all_terms,
                                   [doc for doc, __ in rows])
        hits = heapq.nsmallest(
            limit,
            [(doc, v, score) for (doc, v), score in zip(rows, scores)],
            key=self.ranker.key(ranking, readers))
        return [(doc, score) for doc, __, score in hits]

    def _light_profile(self, doc: Oid, *, need_readers: bool,
                       need_authors: bool, txn=None) -> dict | None:
        """Document-row metadata, with derived fields only on demand.

        (The full consolidated profile scans every character row of a
        document.)  Callers who want the complete creation-process
        record should use
        :meth:`~repro.meta.collector.MetadataCollector.document_profile`.
        """
        reader = txn if txn is not None else self.db
        row = reader.query(S.DOCUMENTS).where(col("doc") == doc).first()
        if row is None:
            return None
        profile = dict(row)
        profile["props"] = dict(row["props"] or {})
        if need_readers:
            profile["readers"] = sorted(self.meta.readers_of(doc, txn=txn))
        if need_authors:
            profile["authors"] = sorted(
                self.meta.author_contributions(doc, txn=txn))
        return profile

    def _snippet(self, doc: Oid, terms: list, *, radius: int = 30) -> str:
        """A text window around the first matching term."""
        text = self.index.cached_text(doc)
        if not text:
            return ""
        lowered = text.lower()
        best = -1
        for term in terms:
            pos = lowered.find(term)
            if pos >= 0 and (best < 0 or pos < best):
                best = pos
        if best < 0:
            return text[: 2 * radius].strip()
        start = max(0, best - radius)
        end = min(len(text), best + radius)
        prefix = "..." if start > 0 else ""
        suffix = "..." if end < len(text) else ""
        return f"{prefix}{text[start:end].strip()}{suffix}"

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
