"""Result ranking options.

§3: "The search result can be ranked according to different ranking
options, e.g. 'most cited', 'newest' etc."  Citation here is TeNDaX's own
notion: a document is cited when content is copied *out of* it into
another document (the copy log), which only a database-backed editor can
know.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..errors import SearchError
from ..ids import Oid
from ..meta import MetadataCollector
from .index import DocValues

RANKINGS = ("relevance", "newest", "oldest", "most_cited", "most_read",
            "largest")


class Ranker:
    """Produces sort keys for each ranking option."""

    def __init__(self, meta: MetadataCollector) -> None:
        self.meta = meta

    def key(self, ranking: str, readers: Mapping[Oid, set] | None = None
            ) -> Callable[[tuple[Oid, DocValues, float]], tuple]:
        """Sort key over ``(doc, doc values, relevance)`` hits.

        *Ascending* key order is best hit first, and every key ends in
        the document id, so it is a total order: equal-ranked documents
        come out by id on every path and every run (the index's
        impact-ordered lists break ties the same way).  The id is
        spelled ``node, seq`` — the :class:`~repro.ids.Oid` order — so
        that the many exact ties of a bulk-ingested archive compare as
        plain strings and ints rather than through the dataclass's
        Python-level ``__lt__``.  ``readers`` (doc -> users who read
        it) is only consulted by ``most_read``.
        """
        if ranking == "relevance":
            return lambda hit: (-hit[2], -hit[1].last_modified,
                                hit[0].node, hit[0].seq)
        if ranking == "newest":
            return lambda hit: (-hit[1].last_modified,
                                hit[0].node, hit[0].seq)
        if ranking == "oldest":
            return lambda hit: (hit[1].created_at, hit[0].node, hit[0].seq)
        if ranking == "most_cited":
            citations = self.meta.citation_counts()
            return lambda hit: (-citations.get(hit[0], 0),
                                -hit[1].last_modified,
                                hit[0].node, hit[0].seq)
        if ranking == "most_read":
            return lambda hit: (-len(readers[hit[0]]),
                                -hit[1].last_modified,
                                hit[0].node, hit[0].seq)
        if ranking == "largest":
            return lambda hit: (-hit[1].size, hit[0].node, hit[0].seq)
        raise SearchError(f"unknown ranking {ranking!r}")
