"""The index holds each equal small value once, through a capped memo.

``InvertedIndex`` passes every posting of at most ``SHARED_RUN``
positions and every float of a stored ranking key through one memo of
at most ``MEMO_CAP`` entries, emptied when full and by a rebuild.  These
tests pin that equal runs are one object, that the memo never outgrows
its cap however many new timestamps flow in, that no shared value
changes type or sign (``0.0 == -0.0``, ``1 == 1.0 == True``), that
``check()`` names each departure, and what the sharing saves per
archived document.
"""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from itertools import permutations

from repro.clock import SimulatedClock
from repro.db import Database
from repro.search import InvertedIndex, SearchEngine
from repro.search.ranking import KEYS, ORDERED
from repro.text import DocumentStore
from repro.text import dbschema as S
from repro.workload import PortalSpec, build_portal, upload_version
from repro.workload.corpus import generate_text


def _archive(texts_and_times) -> tuple[InvertedIndex, list]:
    """An index over archived documents, one per ``(text, created_at,
    last_modified)``."""
    db = Database("share", clock=SimulatedClock())
    DocumentStore(db)
    docs = []
    with db.transaction() as txn:
        for i, (text, created, modified) in enumerate(texts_and_times):
            doc = db.new_oid("doc")
            txn.insert(S.DOCUMENTS, {
                "doc": doc, "name": f"d{i}", "creator": "ana",
                "created_at": created, "state": "final", "size": len(text),
                "last_modified": modified, "last_modified_by": "ana",
                "props": {"archived_text": text},
            })
            docs.append(doc)
    return SearchEngine(db).index, docs


def test_equal_short_runs_are_one_object():
    index, docs = _archive([
        ("alpha beta gamma", 1.0, 2.0),
        ("alpha delta beta", 1.0, 3.0),
        ("gamma gamma gamma", 1.0, 4.0),
        ("gamma gamma gamma", 1.0, 5.0),
    ])
    first, second, third, fourth = docs
    alpha = index._postings["alpha"]
    assert alpha[first] == (0,) and alpha[first] is alpha[second]
    beta = index._postings["beta"]
    assert beta[first] == (1,) and beta[second] == (2,)
    assert beta[first] is index._postings["delta"][second]
    gamma = index._postings["gamma"]
    assert gamma[first] == (2,) and gamma[first] is beta[second]
    # A run longer than SHARED_RUN is stored as it came.
    assert gamma[third] == gamma[fourth] == (0, 1, 2)
    assert (0, 1, 2) not in index._memo
    assert index.check() == []


def test_memo_stays_under_its_cap_across_10000_uploads():
    """Every upload stamps a new ``last_modified``: the impact lists and
    the ``newest``/``oldest`` lists each store a float never seen
    before, so the memo fills and empties, and never exceeds its cap."""
    portal = build_portal(PortalSpec(n_docs=200, live_docs=0))
    index = portal.search.index
    clock = SimulatedClock(tick=0.0)
    portal.db.clock = clock
    try:
        for ranking in ORDERED:
            index.ordered_docs(ranking)
        rng = random.Random(5)
        texts = [generate_text(rng, "database", rng.randint(6, 20))
                 for __ in range(50)]
        largest = 0
        for i in range(10_000):
            clock.advance(0.25)
            upload_version(portal, portal.docs[i % len(portal.docs)],
                           texts[i % len(texts)], "ana")
            if i % 50 == 49:
                portal.worker.drain(max_rounds=50)
                largest = max(largest, len(index._memo))
        assert largest <= InvertedIndex.MEMO_CAP
        assert index._memo_spilled, "the memo never filled"
        assert index.check() == []
        index.rebuild()
        assert not index._memo_spilled and index.check() == []
    finally:
        portal.close()


def _same_form(have: tuple, want: tuple) -> bool:
    """Element for element the same type, and for a float the same sign."""
    return len(have) == len(want) and all(
        type(a) is type(b) and (not isinstance(b, float)
                                or math.copysign(1, a) == math.copysign(1, b))
        for a, b in zip(have, want))


def test_sharing_never_changes_a_key_values_type_or_sign():
    """Equal values of another type or sign never meet in the memo: a
    key comes back element for element identical in type and sign to
    the one ``KEYS`` built, whichever value the memo saw first."""
    index, __ = _archive([])
    colliders = (0.0, -0.0, 1, 1.0, True, -1.0, -1, float("nan"))
    for order in permutations(colliders, 4):
        index._memo.clear()
        for value in order:
            assert _same_form(index._shared_key((value,)), (value,))
        assert len(index._memo) <= 2  # 1.0 and -1.0 only
    # The real path: zero timestamps of both signs, ints beside floats.
    index, __ = _archive([
        ("alpha", 0.0, 0.0), ("alpha", -0.0, -0.0),
        ("alpha beta", 3.0, 3.0), ("beta", -3.0, 7.0)])
    for ranking in ORDERED:
        index.ordered_docs(ranking)
    values, checked = index.doc_values, 0
    for ranking, entries in index._orders.items():
        for key in entries:
            built = KEYS[ranking](key[-1], values[key[-1]], 0.0)
            assert key == built and _same_form(key, built)
            checked += 1
    for term in ("alpha", "beta"):
        for key in index.impact_entries(term):
            doc = key[-1]
            built = index._impact_key(len(index.positions(term)[doc]),
                                      index.doc_length(doc), values[doc], doc)
            assert key == built and _same_form(key, built)
            checked += 1
    assert checked == 3 * 4 + 3 + 2
    signs = {math.copysign(1, key[0])
             for key in index._orders["newest"] if key[0] == 0.0}
    assert signs == {1.0, -1.0}
    assert index.check() == []


def test_check_names_an_unshared_run_a_float_and_a_memo_over_its_cap():
    index, docs = _archive([("alpha beta", 1.0, 2.0),
                            ("alpha gamma", 1.0, 2.0)])
    index.top_docs("alpha", 3)
    assert index.check() == []
    first = docs[0]
    index._postings["alpha"][first] = tuple([0])
    entries = index._impact["alpha"]
    neg_impact, neg_mtime, doc = entries[0]
    entries[0] = (neg_impact, float(str(neg_mtime)), doc)
    problems = index.check()
    assert f"{first}: 'alpha' posting (0,) is not shared" in problems
    assert f"impact key {entries[0]} of 'alpha' holds an unshared float" \
        in problems
    index.rebuild()
    assert index.check() == []
    for i in range(InvertedIndex.MEMO_CAP):
        index._memo[(-1 - i,)] = (-1 - i,)
    assert (f"value memo holds {len(index._memo)} entries, over its cap "
            f"of {InvertedIndex.MEMO_CAP}") in index.check()


def test_index_bytes_per_archived_document_shared():
    """The 1 000-document portal of
    ``test_index_bytes_per_archived_document`` with equal short postings
    and key floats shared: 2 738 B/doc without the memo, 1 941 with it,
    1 437 once the index kept no forward map; gated halfway between the
    last two."""
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
        assert held / index.doc_count() <= 1_690
        assert len(index._memo) <= InvertedIndex.MEMO_CAP
        assert index.check() == []
    finally:
        portal.close()
