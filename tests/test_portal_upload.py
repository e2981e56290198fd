"""A re-upload reaches the search index, whichever document it lands on.

The portal's live tail is chain-backed: its text lives in the character
chain, not in ``props["archived_text"]``.  An upload writes only the
props blob, so it must archive the document it lands on — otherwise the
index keeps reading the old chain and the uploaded text is never found,
and the old chain's typists still pass for the uploaded text's authors.
"""

from __future__ import annotations

from repro.workload import PortalSpec, build_portal, upload_version


def test_upload_to_a_live_tail_document_is_searchable():
    portal = build_portal(PortalSpec(n_docs=30, live_docs=3, seed=5))
    try:
        doc = portal.docs[-1]
        assert portal.store.meta(doc)["begin_char"] is not None, \
            "not a chain-backed document"
        creator = portal.store.meta(doc)["creator"]
        assert creator in portal.search.meta.author_contributions(doc)
        upload_version(portal, doc, "a fresh upload zqxmarker", "ana")
        portal.worker.drain(max_rounds=200)
        hits = portal.search.search("zqxmarker", limit=10)
        assert [hit.doc for hit in hits] == [doc]
        meta = portal.store.meta(doc)
        assert (meta["begin_char"], meta["end_char"]) == (None, None)
        assert portal.search.meta.author_contributions(doc) == {}
        assert portal.search.search(f"zqxmarker author:{creator}") == []
        assert portal.search.index.check() == []
    finally:
        portal.close()
