"""D9 — Changefeed-driven derived data at archival-portal scale.

The portal workload (:mod:`repro.workload.portal`) holds up to 100k
archived documents whose inverted index, dynamic folders and metadata
counters are all maintained through the commit changefeed.  Expected
shape: query-path latency is governed by the *result* size and the
*change* rate, never the corpus size — search and folder-listing p50
stay flat from 1k to 100k documents, and the consumers' own counters
prove that no query fell back to a full DOCUMENTS rescan.

Scan-class searches (anything but the single-term top-k) do grow with
the corpus — their candidates do — but at ~1 µs per candidate: filters
and sort keys come from the index's doc values, and only the top
``limit`` hits are read from the snapshot (``test_portal_scan_search``).
"""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from repro.workload import (
    PortalSpec,
    build_portal,
    run_portal_traffic,
    upload_version,
)
from repro.workload.corpus import generate_text

PORTAL_SIZES = [1000, 100000]

#: Portals are expensive to ingest (the 100k corpus flows through the
#: changefeed batch by batch); the benches only read them, so one
#: instance per size is shared across the module.
_PORTAL_CACHE: dict = {}


def _portal(n_docs: int):
    if n_docs not in _PORTAL_CACHE:
        _PORTAL_CACHE[n_docs] = build_portal(PortalSpec(n_docs=n_docs))
    return _PORTAL_CACHE[n_docs]


@pytest.mark.parametrize("n_docs", PORTAL_SIZES)
def test_portal_search(benchmark, n_docs):
    """Warmed single-term search: impact-ordered top-k, flat in corpus."""
    portal = _portal(n_docs)
    portal.search.search("database", limit=10)  # warm outside the timer

    def search():
        return portal.search.search("database", limit=10)

    benchmark.group = f"D9 portal search n={n_docs}"
    benchmark.extra_info["system"] = "tendax-portal"
    results = benchmark(search)
    assert len(results) == 10


@pytest.mark.parametrize("n_docs", PORTAL_SIZES)
def test_portal_folder_listing(benchmark, n_docs):
    """First page of a dynamic folder: O(limit), not O(members)."""
    portal = _portal(n_docs)
    folder = portal.folders.folder("finals")

    def listing():
        return folder.contents(limit=50)

    benchmark.group = f"D9 folder listing n={n_docs}"
    benchmark.extra_info["system"] = "tendax-portal"
    page = benchmark(listing)
    assert len(page) == 50


#: The five scan-class query shapes of the repo benchmark's
#: ``portal_query`` workload (``bench/workloads.py``), on the two hottest
#: terms of the hottest topic — the dearest instance of each.
SCAN_QUERIES = (
    ("database transaction", "relevance"),       # two terms
    ("database state:final", "relevance"),       # term + column filter
    ('"database transaction"', "relevance"),     # phrase
    ("database", "newest"),                      # non-relevance ranking
    ("state:final", "relevance"),                # filter only: all docs
)


@pytest.mark.parametrize("n_docs", [10000], ids=["10k"])
def test_portal_scan_search(benchmark, n_docs):
    """One cycle of the five scan kinds: candidates ∝ corpus, top 10 out.

    Shape gate: the filter-only query — every document a candidate —
    stays under 10 ms at 10k documents (it took ~190 ms when each
    candidate cost a snapshot profile), and no scan triggers an index
    rebuild or a folder rescan.
    """
    portal = _portal(n_docs)
    search = portal.search.search

    def full_passes():
        return (portal.search.index.stats["full_builds"],
                sum(f.stats["full_scans"] for f in portal.folders.folders()))

    before = full_passes()

    def cycle():
        return [search(query, ranking=ranking, limit=10)
                for query, ranking in SCAN_QUERIES]

    benchmark.group = f"D9 portal scan search n={n_docs}"
    benchmark.extra_info["system"] = "tendax-portal"
    results = benchmark(cycle)
    assert [len(r) for r in results] == [10] * len(SCAN_QUERIES)
    assert all(r.profile["state"] == "final"
               for r in results[1] + results[4])
    assert full_passes() == before

    samples = []
    for __ in range(7):
        started = perf_counter()
        search("state:final", limit=10)
        samples.append(perf_counter() - started)
    filter_only = sorted(samples)[len(samples) // 2]
    benchmark.extra_info["filter_only_ms"] = round(filter_only * 1e3, 3)
    assert filter_only <= 10e-3, (
        f"filter-only scan over {n_docs} docs: {filter_only * 1e3:.1f} ms")


def test_index_apply_throughput(benchmark):
    """One versioned re-upload absorbed end to end by the feed consumers.

    Upload + background drain against the 100k corpus: the apply cost is
    the changed document's, independent of the other 99 999.
    """
    portal = _portal(PORTAL_SIZES[-1])
    docs = portal.docs
    state = {"i": 0}

    def upload_and_drain():
        state["i"] += 1
        doc = docs[state["i"] % 500]
        text = generate_text(random.Random(state["i"]), "database", 20)
        upload_version(portal, doc, text, "ana")
        portal.worker.drain(max_rounds=50)

    benchmark.group = "D9 index apply"
    benchmark.extra_info["system"] = "tendax-portal"
    benchmark(upload_and_drain)
    assert portal.db.changefeed().max_lag() == 0


def test_shape_flat_latency_and_no_rescans():
    """The D9 acceptance shape, asserted from the consumers' counters.

    Zipf traffic against the 1k and 100k portals: search and listing
    p50 must stay within 2x across the 100x corpus growth (with a small
    absolute floor so µs-scale timer noise cannot fail the gate), no
    query may trigger an index rebuild or a folder rescan, and the feed
    must drain to zero lag afterwards.
    """
    small = run_portal_traffic(_portal(PORTAL_SIZES[0]), seed=11)
    large = run_portal_traffic(_portal(PORTAL_SIZES[-1]), seed=11)
    for report in (small, large):
        assert report.index_rebuilds == 0
        assert report.folder_rescans == 0
    assert large.search_p50 <= max(2 * small.search_p50, 500e-6), (
        f"search p50 not flat: {small.search_p50 * 1e6:.0f}us -> "
        f"{large.search_p50 * 1e6:.0f}us")
    assert large.listing_p50 <= max(2 * small.listing_p50, 50e-6), (
        f"listing p50 not flat: {small.listing_p50 * 1e6:.0f}us -> "
        f"{large.listing_p50 * 1e6:.0f}us")
    for n_docs in (PORTAL_SIZES[0], PORTAL_SIZES[-1]):
        assert _portal(n_docs).db.changefeed().max_lag() == 0
