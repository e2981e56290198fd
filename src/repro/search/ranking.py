"""Result ranking options.

§3: "The search result can be ranked according to different ranking
options, e.g. 'most cited', 'newest' etc."  Citation here is TeNDaX's own
notion: a document is cited when content is copied *out of* it into
another document (the copy log), which only a database-backed editor can
know.

Every ranking is an *ascending* sort key ending in the document id, so
each is a total order: equal-ranked documents come out by id on every
path and every run.  The keys are written once, in :data:`KEYS`, and
both the ranker and the index's ordered lists use them — a walk down an
ordered list and a heap over candidates therefore agree on every tie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import SearchError
from ..ids import Oid
from ..meta import MetadataCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import DocValues

RANKINGS = ("relevance", "newest", "oldest", "most_cited", "most_read",
            "largest")

#: ranking -> ascending key over ``(doc, doc values, score)``.
#: ``relevance`` is "higher score first, then newer": ``most_cited`` and
#: ``most_read`` rank by it with a count for the score, and the index's
#: impact-ordered lists with ``tf/len``, which orders a term's documents
#: exactly as ``tf/len * idf`` does.  With no terms every score is 0.0
#: and ``relevance`` orders as ``newest``.
KEYS: dict[str, Callable[[Oid, "DocValues", float], tuple]] = {
    "relevance": lambda doc, v, score: (-score, -v.last_modified, doc),
    "newest": lambda doc, v, score: (-v.last_modified, doc),
    "oldest": lambda doc, v, score: (v.created_at, doc),
    "largest": lambda doc, v, score: (-v.size, doc),
}

#: The rankings a document's doc values alone decide: the index keeps
#: each as a sorted list (built on first use) for the engine to walk.
ORDERED = ("newest", "oldest", "largest")


class Ranker:
    """Produces sort keys for each ranking option."""

    def __init__(self, meta: MetadataCollector) -> None:
        self.meta = meta

    def key(self, ranking: str,
            readers_of: Callable[[Oid], set] | None = None, *, txn=None
            ) -> Callable[[Oid, "DocValues", float], tuple]:
        """Sort key over ``(doc, doc values, relevance)``.

        ``readers_of`` (doc -> users who read it) is only consulted by
        ``most_read``; ``most_cited`` reads the copy log through ``txn``
        (the search's snapshot), so a copy committed mid-search cannot
        reorder it.
        """
        if ranking in KEYS:
            return KEYS[ranking]
        by_score = KEYS["relevance"]
        if ranking == "most_cited":
            citations = self.meta.citation_counts(txn=txn)
            return lambda doc, v, score: by_score(
                doc, v, citations.get(doc, 0))
        if ranking == "most_read":
            return lambda doc, v, score: by_score(
                doc, v, len(readers_of(doc)))
        raise SearchError(f"unknown ranking {ranking!r}")
