"""Tests for DocumentStore / DocumentHandle: edits, caches, propagation."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.db import Database, col
from repro.errors import InvalidPositionError, UnknownDocumentError
from repro.text import DocumentStore
from repro.text import dbschema as S


@pytest.fixture
def db():
    return Database("t")


@pytest.fixture
def store(db):
    return DocumentStore(db)


class TestLifecycle:
    def test_create_with_text(self, store):
        h = store.create("d", "ana", text="hello")
        assert h.text() == "hello"
        assert h.length() == 5

    def test_create_records_metadata(self, db, store):
        h = store.create("d", "ana", props={"project": "tendax"})
        meta = store.meta(h.doc)
        assert meta["creator"] == "ana"
        assert meta["state"] == "draft"
        assert meta["props"] == {"project": "tendax"}

    def test_open_unknown_raises(self, db, store):
        with pytest.raises(UnknownDocumentError):
            store.open(db.new_oid("doc"), "ana")

    def test_open_logs_read(self, db, store):
        h = store.create("d", "ana")
        store.open(h.doc, "ben")
        reads = (db.query(S.ACCESS_LOG)
                 .where((col("action") == "read") & (col("user") == "ben"))
                 .run())
        assert len(reads) == 1

    def test_find_by_name_and_list(self, store):
        store.create("alpha", "ana")
        store.create("alpha", "ben")
        store.create("beta", "ana")
        assert len(store.find_by_name("alpha")) == 2
        assert len(store.list_documents()) == 3

    def test_set_state(self, store):
        h = store.create("d", "ana")
        store.set_state(h.doc, "review", "ben")
        meta = store.meta(h.doc)
        assert meta["state"] == "review"
        assert meta["last_modified_by"] == "ben"

    def test_set_property_merges(self, store):
        h = store.create("d", "ana", props={"a": 1})
        store.set_property(h.doc, "b", 2, "ana")
        assert store.meta(h.doc)["props"] == {"a": 1, "b": 2}

    def test_set_property_unknown_doc_raises(self, db, store):
        with pytest.raises(UnknownDocumentError):
            store.set_property(db.new_oid("doc"), "k", 1, "ana")


class TestReadModifyWriteRaces:
    """Regression: set_property/set_state read the row *outside* the
    transaction, so two concurrent read-modify-writes merged into the
    same stale snapshot and one update was silently lost."""

    def test_concurrent_set_property_keeps_every_key(self, store):
        import threading

        h = store.create("d", "ana")
        keys = [f"k{i}" for i in range(8)]
        barrier = threading.Barrier(len(keys))
        errors = []

        def worker(key):
            try:
                barrier.wait()
                store.set_property(h.doc, key, key.upper(), "ana")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        props = store.meta(h.doc)["props"]
        assert props == {k: k.upper() for k in keys}

    def test_concurrent_state_and_property(self, store):
        import threading

        h = store.create("d", "ana")
        barrier = threading.Barrier(2)

        def set_prop():
            barrier.wait()
            store.set_property(h.doc, "a", 1, "ana")

        def set_state():
            barrier.wait()
            store.set_state(h.doc, "review", "ben")

        threads = [threading.Thread(target=set_prop),
                   threading.Thread(target=set_state)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        meta = store.meta(h.doc)
        assert meta["props"] == {"a": 1}
        assert meta["state"] == "review"


class TestEditing:
    def test_insert_at_positions(self, store):
        h = store.create("d", "ana", text="ad")
        h.insert_text(1, "bc", "ana")
        assert h.text() == "abcd"
        h.insert_text(0, ">", "ana")
        assert h.text() == ">abcd"
        h.insert_text(5, "<", "ana")
        assert h.text() == ">abcd<"

    def test_insert_out_of_range(self, store):
        h = store.create("d", "ana", text="ab")
        with pytest.raises(InvalidPositionError):
            h.insert_text(3, "x", "ana")
        with pytest.raises(InvalidPositionError):
            h.insert_text(-1, "x", "ana")

    def test_delete_range(self, store):
        h = store.create("d", "ana", text="abcdef")
        h.delete_range(1, 3, "ana")
        assert h.text() == "aef"

    def test_delete_out_of_range(self, store):
        h = store.create("d", "ana", text="ab")
        with pytest.raises(InvalidPositionError):
            h.delete_range(1, 5, "ana")
        with pytest.raises(InvalidPositionError):
            h.delete_range(0, -1, "ana")

    def test_delete_then_undelete(self, store):
        h = store.create("d", "ana", text="abcdef")
        oids = h.delete_range(1, 3, "ana")
        h.undelete_chars(oids, "ana")
        assert h.text() == "abcdef"

    def test_size_maintained(self, store):
        h = store.create("d", "ana", text="hello")
        h.insert_text(5, " world", "ana")
        h.delete_range(0, 2, "ana")
        assert store.meta(h.doc)["size"] == 9
        assert h.length() == 9

    def test_empty_insert_noop(self, store):
        h = store.create("d", "ana", text="x")
        assert h.insert_text(0, "", "ana") == []
        assert h.text() == "x"

    def test_last_modified_tracked(self, db, store):
        h = store.create("d", "ana")
        before = store.meta(h.doc)["last_modified"]
        h.insert_text(0, "x", "ben")
        meta = store.meta(h.doc)
        assert meta["last_modified"] > before
        assert meta["last_modified_by"] == "ben"

    def test_write_access_logged(self, db, store):
        h = store.create("d", "ana")
        h.insert_text(0, "x", "ben")
        writes = (db.query(S.ACCESS_LOG)
                  .where((col("action") == "write") & (col("user") == "ben"))
                  .run())
        assert len(writes) == 1

    def test_write_logging_can_be_disabled(self, db):
        store = DocumentStore(db, log_writes=False)
        h = store.create("d", "ana")
        h.insert_text(0, "x", "ana")
        writes = db.query(S.ACCESS_LOG).where(col("action") == "write").run()
        assert writes == []


class TestPositionApi:
    def test_char_oid_roundtrip(self, store):
        h = store.create("d", "ana", text="abc")
        oid = h.char_oid_at(1)
        assert h.position_of(oid) == 1

    def test_position_of_deleted_is_none(self, store):
        h = store.create("d", "ana", text="abc")
        (oid,) = h.delete_range(1, 1, "ana")
        assert h.position_of(oid) is None

    def test_char_oid_at_out_of_range(self, store):
        h = store.create("d", "ana", text="a")
        with pytest.raises(InvalidPositionError):
            h.char_oid_at(1)

    def test_anchor_for_zero_is_begin(self, store):
        h = store.create("d", "ana", text="a")
        assert h.anchor_for(0) == h.begin_char
        assert h.anchor_for(1) == h.char_oid_at(0)

    def test_char_meta(self, store):
        h = store.create("d", "ana", text="a")
        meta = h.char_meta(0)
        assert meta["ch"] == "a"
        assert meta["author"] == "ana"


class TestMultiHandlePropagation:
    def test_remote_edit_appears(self, store):
        h1 = store.create("d", "ana", text="shared")
        h2 = store.open(h1.doc, "ben")
        h2.insert_text(6, "!", "ben")
        assert h1.text() == "shared!"
        assert h2.text() == "shared!"

    def test_remote_delete_appears(self, store):
        h1 = store.create("d", "ana", text="shared")
        h2 = store.open(h1.doc, "ben")
        h1.delete_range(0, 3, "ana")
        assert h2.text() == "red"

    def test_interleaved_edits_converge(self, store):
        h1 = store.create("d", "ana", text="__")
        h2 = store.open(h1.doc, "ben")
        h1.insert_text(1, "a", "ana")
        h2.insert_text(1, "b", "ben")
        h1.insert_text(0, "c", "ana")
        assert h1.text() == h2.text()
        assert h1.check_integrity() == []

    def test_last_closed_handle_stops_updating(self, store):
        """Handles of one document share one replica: it stays live while
        any of them is open and detaches when the last one closes."""
        h1 = store.create("d", "ana", text="x")
        h2 = store.open(h1.doc, "ben")
        h2.close()
        h1.insert_text(1, "y", "ana")
        assert h1.length() == 2
        h1.close()
        writer = DocumentStore(store.db).handle(h1.doc)  # another replica
        writer.insert_text(2, "z", "ana")
        assert h1.length() == h2.length() == 2  # stale by design after close
        h2.refresh()
        assert h2.length() == 3

    def test_refresh_matches_incremental(self, store):
        h1 = store.create("d", "ana", text="abcdef")
        h2 = store.open(h1.doc, "ben")
        h1.delete_range(2, 2, "ana")
        h1.insert_text(2, "XY", "ana")
        incremental = h2.char_oids()
        h2.refresh()
        assert h2.char_oids() == incremental


class TestRendering:
    def test_styled_runs_grouping(self, db, store):
        h = store.create("d", "ana", text="aabbb")
        style = db.new_oid("style")
        h.apply_style(2, 3, style, "ana")
        runs = h.styled_runs()
        assert runs == [("aa", None), ("bbb", style)]

    def test_authors_counts_visible_only(self, store):
        h = store.create("d", "ana", text="aaa")
        h.insert_text(3, "bb", "ben")
        h.delete_range(0, 1, "cleo")  # deletes one of ana's chars
        assert h.authors() == {"ana": 2, "ben": 2}


class TestArchivedAndPurge:
    """Regressions for the changefeed refactor: archived documents and
    physical document deletion."""

    def test_import_archived_roundtrip(self, db, store):
        doc = store.import_archived("arch", "ana", text="whole blob",
                                    props={"topic": "db"})
        meta = store.meta(doc)
        assert meta["begin_char"] is None
        assert meta["size"] == len("whole blob")
        assert meta["props"]["archived_text"] == "whole blob"
        assert meta["props"]["topic"] == "db"

    def test_archived_handle_renders_empty(self, db, store):
        doc = store.import_archived("arch", "ana", text="whole blob")
        h = store.handle(doc)
        assert h.text() == ""
        assert h.length() == 0
        h.close()

    def test_delete_document_purges_all_rows(self, db, store):
        h = store.create("d", "ana", text="abc")
        removed = store.delete_document(h.doc, "ana")
        # 3 chars + the create access-log row + the DOCUMENTS row.
        assert removed >= 5
        with pytest.raises(UnknownDocumentError):
            store.meta(h.doc)
        for table in (S.CHARS, S.ACCESS_LOG, S.VERSIONS):
            rows = db.query(table).where(col("doc") == h.doc).run()
            assert rows == []

    def test_delete_unknown_document_raises(self, db, store):
        with pytest.raises(UnknownDocumentError):
            store.delete_document(db.new_oid("doc"), "ana")

    def test_handle_close_unsubscribes_doc_cache(self, db, store):
        h = store.create("d", "ana", text="abc")
        feed = db.changefeed()
        assert any(s.name.startswith("doc-cache:")
                   for s in feed.subscriptions())
        h.close()
        assert not any(s.name.startswith("doc-cache:")
                       for s in feed.subscriptions())

    def test_open_handles_survive_concurrent_purge(self, db, store):
        # Another session deletes the document while a handle is open;
        # the handle's cache drains through the delete before-images
        # instead of serving stale characters.
        h = store.create("d", "ana", text="abc")
        store.delete_document(h.doc, "ana")
        assert h.text() == ""
        assert h.length() == 0
        h.close()


class SharedReplicaMachine(RuleBasedStateMachine):
    """N handles of one document, opened and closed in any order while
    it is edited, against a single-handle oracle on an engine of its own.

    Every open handle reads the document's one shared replica, so all of
    them must equal the oracle after every step; there is exactly one
    ``doc-cache:`` subscription while any handle is open and none after
    the last close; a handle opened into a live replica costs no chain
    walk.
    """

    def __init__(self):
        super().__init__()
        self.db = Database("shared")
        self.store = DocumentStore(self.db, log_reads=False)
        first = self.store.create("d", "ana", text="seed text")
        self.doc = first.doc
        self.handles = [first]
        self.oracle = DocumentStore(
            Database("shared"), log_reads=False).create(
                "d", "ana", text="seed text")
        self.style = self.db.new_oid("style")

    def _subscriptions(self) -> list[str]:
        return [s.name for s in self.db.changefeed().subscriptions()
                if s.name.startswith("doc-cache:")]

    def _scans(self) -> int:
        return self.db.metrics_snapshot()["doc.full_scans"]["value"]

    @rule()
    def open_handle(self):
        scans = self._scans()
        self.handles.append(self.store.handle(self.doc))
        if len(self.handles) > 1:
            assert self._scans() == scans     # joined the live replica

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 10 ** 6))
    def close_handle(self, pick):
        self.handles.pop(pick % len(self.handles)).close()

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 10 ** 6), where=st.integers(0, 10 ** 6),
          text=st.text(alphabet="abc ", min_size=1, max_size=5))
    def insert(self, pick, where, text):
        handle = self.handles[pick % len(self.handles)]
        pos = where % (handle.length() + 1)
        handle.insert_text(pos, text, "ana")
        self.oracle.insert_text(pos, text, "ana")

    @precondition(lambda self: self.handles and self.oracle.length())
    @rule(pick=st.integers(0, 10 ** 6), where=st.integers(0, 10 ** 6),
          count=st.integers(1, 4), restyle=st.booleans())
    def delete_or_style(self, pick, where, count, restyle):
        handle = self.handles[pick % len(self.handles)]
        pos = where % handle.length()
        count = min(count, handle.length() - pos)
        if restyle:
            handle.apply_style(pos, count, self.style, "ben")
            self.oracle.apply_style(pos, count, self.style, "ben")
        else:
            handle.delete_range(pos, count, "ben")
            self.oracle.delete_range(pos, count, "ben")

    @invariant()
    def open_handles_equal_the_oracle(self):
        for handle in self.handles:
            assert handle.text() == self.oracle.text()
            assert handle.styled_runs() == self.oracle.styled_runs()
            assert handle.authors() == self.oracle.authors()
            assert handle._cache.check() == []
        assert len({id(h._cache) for h in self.handles}) <= 1

    @invariant()
    def one_subscription_while_open_none_after(self):
        assert self._subscriptions() == (
            [f"doc-cache:{self.doc}"] if self.handles else [])

    def teardown(self):
        probe = self.store.handle(self.doc)
        assert probe.check_integrity() == []
        assert probe.text() == self.oracle.text()
        probe.close()
        for handle in self.handles:
            handle.close()
        assert self._subscriptions() == []
        assert self.store._replicas == {}


TestSharedReplica = SharedReplicaMachine.TestCase
TestSharedReplica.settings = settings(max_examples=40,
                                      stateful_step_count=30, deadline=None)
