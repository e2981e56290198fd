"""Cross-subsystem consistency properties (oracle tests).

Two event-driven caches power the paper's headline features: dynamic
folder membership and the search index.  Both must stay *equivalent to
recomputing from scratch* under arbitrary editing histories — these
hypothesis suites check exactly that.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.folders import (
    AuthoredBy,
    CreatorIs,
    DynamicFolderManager,
    NameContains,
    SizeAtLeast,
    StateIs,
)
from repro.mining.features import tokenize
from repro.search import InvertedIndex
from repro.text import DocumentStore

# An event programme: each entry mutates the corpus somehow.
events = st.lists(
    st.tuples(
        st.sampled_from(["create", "insert", "delete", "state", "rename"]),
        st.integers(0, 5),          # document selector
        st.integers(0, 100),        # position seed
        st.text(alphabet="abcdef xyz", min_size=1, max_size=10),
    ),
    min_size=1, max_size=25,
)


def _apply_events(store: DocumentStore, handles: list, event_list) -> None:
    creators = ["ana", "ben"]
    states = ["draft", "review", "final"]
    for kind, selector, pos_seed, payload in event_list:
        if kind == "create" or not handles:
            handles.append(store.create(
                payload.strip() or "doc", creators[selector % 2],
                text=payload))
            continue
        handle = handles[selector % len(handles)]
        if kind == "insert":
            pos = pos_seed % (handle.length() + 1)
            handle.insert_text(pos, payload,
                               creators[pos_seed % 2])
        elif kind == "delete":
            if handle.length() == 0:
                continue
            pos = pos_seed % handle.length()
            count = min(len(payload), handle.length() - pos)
            if count:
                handle.delete_range(pos, count, creators[pos_seed % 2])
        elif kind == "state":
            store.set_state(handle.doc, states[pos_seed % 3], "ana")
        elif kind == "rename":
            # Renaming is modelled as a property change + state churn.
            store.set_property(handle.doc, "label", payload, "ana")


class TestDynamicFolderEquivalence:
    """Incremental membership == full revalidation, always."""

    CONDITIONS = [
        ("creator-ana", CreatorIs("ana")),
        ("finals", StateIs("final")),
        ("big", SizeAtLeast(8)),
        ("xyz-docs", NameContains("xyz")),
        ("ben-wrote", AuthoredBy("ben", 2)),
        ("combo", CreatorIs("ana") & SizeAtLeast(4)),
        ("either", StateIs("review") | SizeAtLeast(20)),
        ("negated", ~CreatorIs("ben")),
    ]

    @settings(max_examples=40, deadline=None)
    @given(events)
    def test_incremental_matches_rescan(self, event_list):
        db = Database("prop")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        manager = DynamicFolderManager(db)
        folders = [manager.create_folder(name, cond)
                   for name, cond in self.CONDITIONS]
        handles: list = []
        _apply_events(store, handles, event_list)
        for folder in folders:
            incremental = set(folder.contents())
            folder.revalidate()
            assert incremental == set(folder.contents()), folder.name


class TestSearchIndexEquivalence:
    """Incrementally maintained postings == indexing from scratch."""

    @settings(max_examples=40, deadline=None)
    @given(events)
    def test_dirty_refresh_matches_rebuild(self, event_list):
        db = Database("prop")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        index = InvertedIndex(db)
        handles: list = []
        _apply_events(store, handles, event_list)
        index.ensure_fresh()
        incremental = {
            term: index.postings(term)
            for handle in handles
            for term in tokenize(handle.text())
        }
        fresh = InvertedIndex(db)
        for term, postings in incremental.items():
            assert fresh.postings(term) == postings, term
        assert fresh.doc_count() == index.doc_count()
        for handle in handles:
            assert fresh.doc_texts.get(handle.doc) == \
                index.doc_texts.get(handle.doc)

    @settings(max_examples=25, deadline=None)
    @given(events, st.text(alphabet="abcdef xyz", min_size=1, max_size=6))
    def test_matching_docs_agree_with_scan(self, event_list, needle):
        db = Database("prop")
        store = DocumentStore(db, log_reads=False, log_writes=False)
        index = InvertedIndex(db)
        handles: list = []
        _apply_events(store, handles, event_list)
        index.ensure_fresh()
        terms = tokenize(needle)
        if not terms:
            return
        expected = {
            handle.doc for handle in handles
            if all(term in tokenize(handle.text()) for term in terms)
        }
        assert index.matching_docs(terms) == expected
