"""Inverted index over document content, maintained from the changefeed.

Documents are indexed from their reconstructed text.  The index is a
*deferred* changefeed consumer: the feed handler only records which
documents a committed batch touched (insert/update/delete alike — a
delete event's before-image names the vanished document, so deleted
docs are un-indexed instead of lingering as stale postings), and
:meth:`InvertedIndex.ensure_fresh` absorbs the recorded work when a
query actually needs freshness (or the maintenance worker ticks).
Maintenance cost is therefore proportional to what changed, never to
corpus size: the refresh does one indexed key lookup per dirty document
and **zero** full ``tx_documents`` rescans.

The postings are one map, ``term -> {doc: positions}``, updated in
place by every re-index.  A posting is an immutable tuple of the term's
token positions in the document, replaced whole when the document is
re-indexed and never mutated, and a term is one string object wherever
it appears — postings, impact lists, parsed queries — because
:func:`~repro.mining.features.tokenize` interns its tokens: the
vocabulary is held once, not once per document.  No per-document term
map is kept: a document's frequency of a term is the length of its
posting, and its terms are the tokens of its cached text, which
un-indexing tokenizes again.  Equal small values are held once too:
each index keeps a memo of at most :attr:`InvertedIndex.MEMO_CAP`
entries, emptied when full and by a rebuild, through which every
posting of at most :attr:`~InvertedIndex.SHARED_RUN` positions and
every non-zero float of a stored ranking key passes, so thousands of
documents whose word sits at position 3, or that share one timestamp,
hold one object.

Every refresh reads at one pinned snapshot — the caller's, or one it
opens — and a document dirtied by a commit the snapshot does not cover
stays dirty for the next refresh.

For single-term relevance queries the index additionally keeps
*impact-ordered* posting lists (:meth:`top_docs`): per-term entries
sorted by exact single-term tf-idf order, built lazily on a term's
first top-k query and maintained incrementally on every re-index.
Serving the top *k* is then O(k) regardless of how many documents
contain the term — which is what keeps hot-term search latency flat
from 1k to 100k documents.  The engine walks the same lists for
filtered one-term queries and, side by side, for multi-term relevance
(its threshold walk bounds unseen documents with :func:`tf_idf`, the
sum every score is taken with).

Beside the postings the index keeps *doc values*: one
:class:`DocValues` tuple per indexed document, the whole
``tx_documents`` row image the (re-)index reads anyway.  They travel
the same changefeed path as the postings — a DOCUMENTS event dirties
the doc, the refresh replaces both — so ``ensure_fresh(txn=snap)`` pins
them to the same commit point, and the engine answers column filters,
sort keys and the winners' result profiles without one snapshot read.

Two more structures ride the same path, each built lazily on first use
(a workload that never filters or ranks by them pays no memory) and
maintained by ``_index_doc`` / ``_unindex_doc`` afterwards: *equality
postings* (``creator``, ``state`` and property-key filters -> doc set,
:meth:`equal_docs`) and *ordered lists* (``newest`` / ``oldest`` /
``largest``: every document's ranking key, ascending,
:meth:`ordered_docs`).  The keys come from :mod:`.ranking`'s one table.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..db import Database
from ..ids import Oid
from ..mining.features import tokenize
from ..text import chars as C
from ..text import dbschema as S
from .ranking import KEYS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..feed.changefeed import CommitBatch

#: Filter fields answered by equality postings.  ``prop:key`` files a
#: document under each of its property keys; ``prop:key=value`` and
#: ``name:`` stay per-document predicates.
EQUALITY_FIELDS = ("creator", "state", "prop")

_NO_DOCS: frozenset = frozenset()


def tf_idf(weights: list[tuple[str, float]], tfs: Mapping[str, float],
           length: float) -> float:
    """The one relevance sum: ``(tf / length) * idf`` over ``weights``
    in their order, a term listed twice counted twice, a term missing
    from ``tfs`` adding nothing.

    :meth:`InvertedIndex.score` takes it over a document's posting
    lengths and ``max(len, 1)``; the threshold walk passes each impact
    list's current ``tf/len`` and ``1`` for its bound (``x / 1`` is
    ``x`` exactly).  IEEE rounding is monotone, so two sums taken this
    way keep the order of their terms: no document scores above the
    bound of impacts at least its own.
    """
    score = 0.0
    for term, idf in weights:
        tf = tfs.get(term)
        if tf:
            score += (tf / length) * idf
    return score


def _interned(term: str) -> bool:
    """Whether ``term`` is the interned object for its text: interning a
    fresh copy returns the interned one, or the copy when none exists."""
    return sys.intern("".join(term)) is term


def _sharable(value: Any) -> bool:
    """Whether a ranking key's element may be swapped for an equal
    object: a float other than a zero (``0.0 == -0.0`` but their signs
    differ) or NaN (equal to nothing).  Ints, which compare equal to
    floats and ``True``, keep their own objects."""
    return type(value) is float and value != 0.0 and value == value


class DocValues(namedtuple(
        "DocValues", [c.name for c in S.DOCUMENT_COLUMNS])):
    """A document's whole ``tx_documents`` row, one field per
    :data:`~repro.text.dbschema.DOCUMENT_COLUMNS` entry in schema order:
    what search filters and ranks by, and the profile of a result.

    ``props`` is the row's own (immutable by convention) JSON value,
    shared with the table — never a per-document copy.
    """

    __slots__ = ()

    @classmethod
    def of(cls, row: Mapping[str, Any]) -> "DocValues":
        """Cut the doc values out of a ``tx_documents`` row."""
        return cls(*(row[column] for column in cls._fields))

    def filed_under(self, fieldname: str) -> Iterable[Any]:
        """The values equality postings file this document under."""
        if fieldname == "prop":
            return self.props or ()
        return (getattr(self, fieldname),)


class InvertedIndex:
    """term -> {doc: token positions}, with incremental refresh.

    Postings store token *positions* (a tuple per posting), so term
    frequency (their count) and phrase adjacency queries both come from
    one structure.
    """

    #: Feed consumer name.
    CONSUMER = "search-index"
    #: Most entries the value memo holds; it is emptied when full.
    MEMO_CAP = 4096
    #: Postings of at most this many positions are shared: a longer run
    #: is rarely repeated, and would fill the memo with one-off tuples.
    SHARED_RUN = 2

    def __init__(self, db: Database) -> None:
        self.db = db
        self._postings: dict[str, dict[Oid, tuple[int, ...]]] = \
            defaultdict(dict)
        self._doc_len: dict[Oid, int] = {}
        self._doc_values: dict[Oid, DocValues] = {}
        self._doc_text: dict[Oid, str] = {}
        #: term -> impact-ordered entries ``(-tf/len, -mtime, doc)``,
        #: built lazily on first :meth:`top_docs` call for a term and
        #: maintained incrementally afterwards (see module docstring).
        self._impact: dict[str, list[tuple]] = {}
        #: field -> value -> docs, built lazily per field (EQUALITY_FIELDS).
        self._equal: dict[str, dict[Any, set[Oid]]] = {}
        #: ranking -> every document's ``KEYS[ranking]`` key, ascending;
        #: built lazily per ranking (``ranking.ORDERED``).
        self._orders: dict[str, list[tuple]] = {}
        #: value -> the one object the index stores for it: short
        #: postings and key floats (:meth:`_shared`), at most MEMO_CAP.
        self._memo: dict[Any, Any] = {}
        #: Whether the memo was emptied for room since the last rebuild
        #: (values stored before then are no longer the memo's objects).
        self._memo_spilled = False
        #: doc -> (seq, lsn) of the newest batch that dirtied it.
        self._pending: dict[Oid, tuple[int, int]] = {}
        self._sub = db.changefeed().subscribe(
            self.CONSUMER, self._on_batch,
            tables=(S.CHARS, S.DOCUMENTS), deferred=True)
        self.stats = {"reindexed_docs": 0, "removed_docs": 0,
                      "full_builds": 0}
        self.rebuild()

    @property
    def subscription(self):
        """The index's feed subscription (lag inspection)."""
        return self._sub

    def close(self) -> None:
        """Stop tracking commits (the index goes stale)."""
        self._sub.close()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _on_batch(self, batch: "CommitBatch") -> None:
        """Record the documents a commit touched; nothing is read here."""
        mark = (batch.seq, batch.lsn)
        for event in batch.events:
            row = event.row if event.row is not None else event.before
            if row is None:
                continue
            if event.table == S.CHARS:
                if row.get("ch"):
                    self._pending[row["doc"]] = mark
            else:  # DOCUMENTS: birth, metadata/archive update, or purge
                self._pending[row["doc"]] = mark

    def dirty_count(self) -> int:
        """Documents recorded dirty but not yet absorbed."""
        return len(self._pending)

    def rebuild(self) -> None:
        """Index every document from scratch (the only full scan)."""
        self._postings.clear()
        self._doc_len.clear()
        self._doc_values.clear()
        self._doc_text.clear()
        self._impact.clear()
        self._equal.clear()
        self._orders.clear()
        self._memo.clear()
        self._memo_spilled = False
        with self.db.snapshot() as snap:
            for row in snap.query(S.DOCUMENTS).run():
                self._index_doc(row["doc"], snap, row)
        self._pending.clear()
        self._sub.ack(self._sub.delivered_seq)
        self.stats["full_builds"] += 1

    def ensure_fresh(self, txn=None) -> int:
        """Absorb recorded changes; returns how many docs were refreshed.

        Every re-index reads document text at one snapshot's commit
        point: ``txn`` (a snapshot transaction, so index candidates and
        rows read inside the same snapshot can never disagree)
        or, without it, a snapshot pinned here — the maintenance
        worker's tick.  A document dirtied by a commit *above* that
        snapshot (committed after it opened, or pinned out of it by
        another committer's commit-intent window) is refreshed to the
        snapshot's state but stays dirty, and the subscription is acked
        only below the first batch left dirty: the next refresh catches
        it up.

        Deleted documents are un-indexed: their postings, cached text
        and ``doc_count()`` contribution all vanish.
        """
        if not self._pending:
            self._sub.ack(self._sub.delivered_seq)
            return 0
        if txn is not None:
            return self._refresh(txn)
        with self.db.snapshot() as snap:
            return self._refresh(snap)

    def _refresh(self, txn) -> int:
        upto = self._sub.delivered_seq
        snap_lsn = txn.snapshot_lsn
        refreshed = 0
        for doc, mark in dict(self._pending).items():
            self._unindex_doc(doc)
            row = txn.find(S.DOCUMENTS, "doc", doc)
            if row is not None:
                self._index_doc(doc, txn, row)
                refreshed += 1
            else:
                self.stats["removed_docs"] += 1
            if snap_lsn is None or mark[1] <= snap_lsn:
                if self._pending.get(doc) == mark:
                    del self._pending[doc]
            else:
                upto = min(upto, mark[0] - 1)
        self._sub.ack(upto)
        return refreshed

    def compact(self) -> None:
        """Nothing to fold: the postings are one map.  ``bench/trace.py``
        times this name, so it stays until that file drops it."""

    def _index_doc(self, doc: Oid, txn, row: dict) -> None:
        if row["begin_char"] is None:
            # Archived document: whole text stored in the props blob.
            text = str((row["props"] or {}).get("archived_text", ""))
        else:
            text = C.chain_text(self.db, doc, row["begin_char"], txn=txn)
        self._doc_text[doc] = text
        tokens = tokenize(text)
        positions: dict[str, list[int]] = defaultdict(list)
        for i, token in enumerate(tokens):
            positions[token].append(i)
        length = self._doc_len[doc] = len(tokens)
        values = self._doc_values[doc] = DocValues.of(row)
        for term, pos_list in positions.items():
            run = tuple(pos_list)
            if len(run) <= self.SHARED_RUN:
                run = self._shared(run)
            self._postings[term][doc] = run
            entries = self._impact.get(term)
            if entries is not None:
                insort(entries, self._shared_key(self._impact_key(
                    len(pos_list), length, values, doc)))
        for fieldname, postings in self._equal.items():
            for value in values.filed_under(fieldname):
                postings[value].add(doc)
        for ranking, entries in self._orders.items():
            insort(entries, self._shared_key(KEYS[ranking](doc, values, 0.0)))
        self.stats["reindexed_docs"] += 1

    def _shared(self, value: Any) -> Any:
        """The memo's object equal to ``value``, which becomes it on
        first sight.  Only interchangeable values may come here: position
        runs (tuples of ints) and :func:`_sharable` floats — never a
        value equal to one of another type or sign."""
        memo = self._memo
        held = memo.get(value)
        if held is None:
            if len(memo) >= self.MEMO_CAP:
                memo.clear()
                self._memo_spilled = True
            held = memo[value] = value
        return held

    def _shared_key(self, key: tuple) -> tuple:
        """``key`` (built by ``ranking.KEYS``) with each sharable float
        swapped for the memo's equal object: same values, same order."""
        memo = self._memo
        shared = []
        for x in key:
            # _sharable(x), inlined: this runs once per stored key.
            if type(x) is float and x != 0.0 and x == x:
                held = memo.get(x)
                x = held if held is not None else self._shared(x)
            shared.append(x)
        return tuple(shared)

    def _unindex_doc(self, doc: Oid) -> None:
        values = self._doc_values.pop(doc, None)
        if values is None:
            return  # never indexed: no per-document structure holds it
        length = self._doc_len.pop(doc)
        for term in set(tokenize(self._doc_text.pop(doc))):
            bucket = self._postings[term]
            tf = len(bucket.pop(doc))
            if not bucket:
                del self._postings[term]
                self._impact.pop(term, None)
                continue
            entries = self._impact.get(term)
            if entries is not None:
                self._sorted_remove(entries, self._impact_key(
                    tf, length, values, doc))
        for fieldname, postings in self._equal.items():
            for value in values.filed_under(fieldname):
                docs = postings.get(value)
                if docs is not None:
                    docs.discard(doc)
                    if not docs:
                        del postings[value]
        for ranking, entries in self._orders.items():
            self._sorted_remove(entries, KEYS[ranking](doc, values, 0.0))

    # ------------------------------------------------------------------
    # Self-check (tests, debugging)
    # ------------------------------------------------------------------

    def check(self) -> list[str]:
        """Compare the absorbed index with ``tx_documents`` as committed
        now; empty list = healthy.

        Meaningful once the feed is drained (nothing pending): every
        live document then has doc values equal to its row, every
        per-document structure covers exactly the live documents (a
        deleted document leaves no entry anywhere), each document's
        postings and length equal a re-tokenization of its cached text
        (so a text cache edited without a re-index shows too), every
        posting is a tuple and every term (posted or impact) its
        interned string, every impact list belongs to a posted term,
        every built equality posting and ordered list equals a rebuild
        from the doc values, and the value memo keeps to its cap and
        holds the object of every short posting and key float
        (:meth:`_sharing_problems`).
        """
        problems: list[str] = []
        if self._pending:
            problems.append(f"{len(self._pending)} documents still dirty")
        with self.db.snapshot() as snap:
            rows = {row["doc"]: DocValues.of(row)
                    for row in snap.query(S.DOCUMENTS).run()}
        for doc in rows.keys() - self._doc_values.keys():
            problems.append(f"{doc} is live but not indexed")
        for doc, values in self._doc_values.items():
            if doc not in rows:
                problems.append(f"{doc} is indexed but not in the table")
            elif values != rows[doc]:
                stale = [name for name, have, want in zip(
                    DocValues._fields, values, rows[doc]) if have != want]
                problems.append(f"{doc}: doc values stale in {stale}")
        for label, per_doc in (("length", self._doc_len),
                               ("text", self._doc_text)):
            if per_doc.keys() != self._doc_values.keys():
                problems.append(f"{label} map out of sync with doc values")
        posted: dict[Oid, set[tuple[int, str]]] = defaultdict(set)
        for term, bucket in self._postings.items():
            if not _interned(term):
                problems.append(f"posted term {term!r} is not interned")
            for doc, run in bucket.items():
                posted[doc].update((i, term) for i in run)
                if type(run) is not tuple:
                    problems.append(f"{doc}: {term!r} posting is a "
                                    f"{type(run).__name__}")
        for doc in posted.keys() - self._doc_text.keys():
            problems.append(f"{doc}: stale postings")
        for doc, text in self._doc_text.items():
            want = set(enumerate(tokenize(text)))
            if self._doc_len.get(doc) != len(want):
                problems.append(f"{doc}: length {self._doc_len.get(doc)} "
                                f"!= {len(want)} tokens in its text")
            have = posted.get(doc, set())
            for i, term in sorted(have - want):
                problems.append(f"{doc}: {term!r} posted at {i}, where "
                                f"its text does not have it")
            for i, term in sorted(want - have):
                problems.append(f"{doc}: {term!r} at {i} of its text is "
                                f"not posted")
        for term in self._impact:
            if not _interned(term):
                problems.append(f"impact term {term!r} is not interned")
            if term not in self._postings:
                problems.append(f"impact list of unposted term {term!r}")
        for fieldname, postings in self._equal.items():
            for docs in postings.values():
                for doc in docs - self._doc_values.keys():
                    problems.append(f"{doc}: stale in {fieldname} postings")
            if postings != self._equal_postings(fieldname):
                problems.append(f"{fieldname} postings != doc values")
        for ranking, entries in self._orders.items():
            for key in entries:
                if key[-1] not in self._doc_values:
                    problems.append(f"{key[-1]}: stale in {ranking} list")
            if entries != self._ordered_entries(ranking):
                problems.append(f"{ranking} list != sorted doc values")
        return problems + self._sharing_problems()

    def _sharing_problems(self) -> list[str]:
        """The memo over its cap, and — unless it was emptied for room
        since the last rebuild — a short posting or a key float that is
        not the memo's object."""
        memo = self._memo
        if len(memo) > self.MEMO_CAP:
            return [f"value memo holds {len(memo)} entries, over its cap "
                    f"of {self.MEMO_CAP}"]
        if self._memo_spilled:
            return []
        problems = []
        for term, bucket in self._postings.items():
            for doc, run in bucket.items():
                if (type(run) is tuple and len(run) <= self.SHARED_RUN
                        and memo.get(run) is not run):
                    problems.append(f"{doc}: {term!r} posting {run} is not "
                                    f"shared")
        for label, lists in (("impact", self._impact),
                             ("ordered", self._orders)):
            for name, entries in lists.items():
                for key in entries:
                    if any(_sharable(x) and memo.get(x) is not x
                           for x in key):
                        problems.append(f"{label} key {key} of {name!r} "
                                        f"holds an unshared float")
        return problems

    # ------------------------------------------------------------------
    # Impact-ordered postings (top-k without scoring every candidate)
    # ------------------------------------------------------------------

    @staticmethod
    def _impact_key(tf: int, length: int, values: DocValues,
                    doc: Oid) -> tuple:
        """Ascending sort key = exact single-term relevance descending.

        ``tf/len * idf`` orders by ``tf/len`` for a fixed term, so the
        ranker's own relevance key over ``tf/len`` is the list's order:
        :meth:`top_docs` can return the first *k* entries verbatim.
        """
        return KEYS["relevance"](doc, values, tf / max(length, 1))

    @staticmethod
    def _sorted_remove(entries: list, key: tuple) -> None:
        pos = bisect_left(entries, key)
        if pos < len(entries) and entries[pos] == key:
            del entries[pos]

    def impact_entries(self, term: str) -> list:
        """``term``'s documents in relevance order: ascending
        ``(-tf/len, -last_modified, doc)``, built on first use.  Do not
        mutate.  Only a posted term's list is kept: a term no document
        contains gets a fresh empty list and leaves nothing behind."""
        entries = self._impact.get(term)
        if entries is None:
            bucket = self._postings.get(term)
            if not bucket:
                return []
            entries = sorted(
                self._shared_key(self._impact_key(
                    len(pos), self._doc_len[doc], self._doc_values[doc], doc))
                for doc, pos in bucket.items()
            )
            self._impact[sys.intern(term)] = entries
        return entries

    def doc_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (an O(1)-ish count)."""
        return len(self._postings.get(term, ()))

    def top_docs(self, term: str, k: int) -> list[tuple[Oid, float]]:
        """The ``k`` best documents for one term with exact tf-idf scores.

        Served from the term's impact-ordered posting list: cost is
        O(k) after an amortised per-term build, independent of how many
        documents contain the term — the flat-latency search path the
        archival-portal benchmarks gate on.
        """
        entries = self.impact_entries(term)
        if not entries:
            return []
        idf = self._idf(len(entries))
        return [(doc, -neg_impact * idf)
                for neg_impact, __, doc in entries[:k]]

    # ------------------------------------------------------------------
    # Equality postings and ordered lists (metadata filters and rankings)
    # ------------------------------------------------------------------

    def _equal_postings(self, fieldname: str) -> dict[Any, set[Oid]]:
        postings: dict[Any, set[Oid]] = defaultdict(set)
        for doc, values in self._doc_values.items():
            for value in values.filed_under(fieldname):
                postings[value].add(doc)
        return postings

    def equal_docs(self, fieldname: str,
                   value: Any) -> set[Oid] | frozenset[Oid]:
        """Documents whose ``fieldname`` equals ``value`` (for ``prop``:
        that have the property ``value``).  The live set: do not mutate.
        """
        postings = self._equal.get(fieldname)
        if postings is None:
            postings = self._equal[fieldname] = \
                self._equal_postings(fieldname)
        return postings.get(value, _NO_DOCS)

    def _ordered_entries(self, ranking: str) -> list[tuple]:
        key = KEYS[ranking]
        return sorted(key(doc, values, 0.0)
                      for doc, values in self._doc_values.items())

    def ordered_docs(self, ranking: str) -> list[tuple]:
        """Every document's ``KEYS[ranking]`` key, ascending (best first;
        the document is each key's last element), for a ranking in
        ``ORDERED``.  Do not mutate."""
        entries = self._orders.get(ranking)
        if entries is None:
            entries = self._orders[ranking] = [
                self._shared_key(key)
                for key in self._ordered_entries(ranking)]
        return entries

    def _idf(self, df: int) -> float:
        return math.log((1 + max(self.doc_count(), 1)) / (1 + df)) + 1.0

    def weights(self, terms: list[str]) -> list[tuple[str, float]]:
        """``(term, idf)`` for each of the query ``terms`` some document
        holds, in query order (a repeated term repeats)."""
        return [(term, self._idf(df)) for term in terms
                if (df := self.doc_frequency(term))]

    def score(self, doc: Oid, weights: list[tuple[str, float]]) -> float:
        """tf-idf of ``doc`` under :meth:`weights` of the query terms.

        :func:`tf_idf`'s sum, in its order and by its expression, with
        each term's tf the length of ``doc``'s posting: one dict lookup
        per term, so the cost does not follow the terms' document
        frequencies.  Every weighted term is posted (:meth:`weights`).
        """
        postings, length = self._postings, max(self._doc_len[doc], 1)
        score = 0.0
        for term, idf in weights:
            if run := postings[term].get(doc):
                score += (len(run) / length) * idf
        return score

    def scores(self, terms: list[str], docs: list[Oid]) -> list[float]:
        """tf-idf of each of ``docs`` against the query ``terms``."""
        weights = self.weights(terms)
        if not weights:
            return [0.0] * len(docs)
        return [self.score(doc, weights) for doc in docs]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def positions(self, term: str) -> Mapping[Oid, tuple[int, ...]]:
        """doc -> ``term``'s token positions in it: the live posting
        (empty when no document holds ``term``).  Do not mutate."""
        return self._postings.get(term, {})

    def postings(self, term: str) -> dict[Oid, int]:
        """Documents containing ``term`` with term frequencies."""
        return {doc: len(run) for doc, run in self.positions(term).items()}

    def has_phrase(self, doc: Oid, phrase_terms: list[str]) -> bool:
        """Whether ``doc`` holds the terms *adjacently, in order*.

        ``doc`` must hold every one of them (be one of
        :meth:`matching_docs` of the phrase).
        """
        starts = self._postings[phrase_terms[0]][doc]
        for offset, term in enumerate(phrase_terms[1:], start=1):
            run = self._postings[term][doc]
            starts = [s for s in starts if s + offset in run]
            if not starts:
                return False
        return True

    def phrase_docs(self, phrase_terms: list[str]) -> set[Oid]:
        """Documents containing the terms *adjacently, in order*."""
        if not phrase_terms:
            return set()
        return {doc for doc in self.matching_docs(phrase_terms)
                if self.has_phrase(doc, phrase_terms)}

    @property
    def doc_values(self) -> Mapping[Oid, DocValues]:
        """doc -> :class:`DocValues` as of the last refresh (read-only)."""
        return self._doc_values

    @property
    def doc_texts(self) -> Mapping[Oid, str]:
        """doc -> its text as of the last (re)index, the snippet source
        (read-only)."""
        return self._doc_text

    def all_docs(self) -> set[Oid]:
        """Every indexed document (the corpus, post-refresh)."""
        return set(self._doc_len)

    def doc_count(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_len)

    def doc_length(self, doc: Oid) -> int:
        """Token count of one document (0 if unindexed)."""
        return self._doc_len.get(doc, 0)

    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._postings)

    def matching_docs(self, terms: list[str]) -> set[Oid]:
        """Documents containing all of the terms."""
        if not terms:
            return set(self._doc_len)
        result = set(self._postings.get(terms[0], ()))
        for term in terms[1:]:
            result.intersection_update(self._postings.get(term, ()))
        return result
