"""Tests for the metadata collector and property manager."""

import pytest

from repro.clock import SimulatedClock
from repro.collab import CollaborationServer
from repro.db import Database
from repro.errors import UnknownDocumentError
from repro.meta import MetadataCollector, PropertyManager
from repro.text import DocumentStore


@pytest.fixture
def db():
    return Database("t", clock=SimulatedClock())


@pytest.fixture
def store(db):
    return DocumentStore(db)


@pytest.fixture
def meta(db):
    return MetadataCollector(db)


class TestCounters:
    def test_insert_delete_counters(self, db, store, meta):
        h = store.create("d", "ana", text="abc")
        h.delete_range(0, 1, "ana")
        counters = meta.edit_counters(h.doc)
        assert counters["inserts"] == 3
        assert counters["deletes"] == 1
        assert counters["commits"] == 2

    def test_counters_zero_for_unedited(self, db, meta):
        assert meta.edit_counters(db.new_oid("doc"))["inserts"] == 0

    def test_reading_counters_and_profiles_adds_no_entry(self, db, store,
                                                         meta):
        edited = store.create("d", "ana", text="abc")
        edited.delete_range(0, 1, "ana")
        want = meta.edit_counters(edited.doc)
        archived = [store.import_archived(f"a{i}", "ben", text="old text")
                    for i in range(20)]
        size = len(meta._counters)
        for doc in archived:
            assert meta.document_profile(doc)["edit_counters"] == \
                dict.fromkeys(want, 0)
            meta.edit_counters(doc)["inserts"] = 99
            assert meta.edit_counters(doc)["inserts"] == 0
        assert meta.edit_counters(db.new_oid("doc"))["commits"] == 0
        assert len(meta._counters) == size
        assert meta.edit_counters(edited.doc) == want
        assert want["inserts"] == 3 and want["deletes"] == 1

    def test_close_stops_counting(self, db, store, meta):
        h = store.create("d", "ana")
        meta.close()
        h.insert_text(0, "xyz", "ana")
        assert meta.edit_counters(h.doc)["inserts"] == 0


class TestContributions:
    def test_author_contributions(self, db, store, meta):
        h = store.create("d", "ana", text="aaaa")
        h.insert_text(4, "bb", "ben")
        h.delete_range(0, 1, "ben")  # deletes one of ana's chars
        contributions = meta.author_contributions(h.doc)
        assert contributions["ana"] == {
            "written": 4, "visible": 3, "deleted": 1,
        }
        assert contributions["ben"]["written"] == 2

    def test_char_provenance_typed_vs_pasted(self):
        server = CollaborationServer()
        server.register_user("ana")
        session = server.connect("ana")
        src = session.create_document("src", text="0123456789")
        dst = session.create_document("dst", text="typed")
        session.copy(src.doc, 0, 4)
        session.paste(dst.doc, 5)
        session.copy_external("ext", "mail")
        session.paste(dst.doc, 0)
        meta = MetadataCollector(server.db)
        prov = meta.char_provenance(dst.doc)
        assert prov == {"typed": 5, "pasted_internal": 4,
                        "pasted_external": 3}


class TestAccessQueries:
    def test_readers_and_writers(self, db, store, meta):
        h = store.create("d", "ana", text="x")
        store.open(h.doc, "ben")
        h.insert_text(0, "y", "cleo")
        assert meta.readers_of(h.doc) == {"ben"}
        assert "cleo" in meta.writers_of(h.doc)

    def test_readers_since(self, db, store, meta):
        h = store.create("d", "ana")
        store.open(h.doc, "ben")
        cutoff = db.now()
        store.open(h.doc, "cleo")
        assert meta.readers_of(h.doc, since=cutoff) == {"cleo"}

    def test_documents_touched_by(self, db, store, meta):
        h1 = store.create("d1", "ana", text="x")
        h2 = store.create("d2", "ben")
        store.open(h2.doc, "ana")
        docs_created = meta.documents_touched_by("ana", action="create")
        assert docs_created == {h1.doc}
        docs_read = meta.documents_touched_by("ana", action="read")
        assert docs_read == {h2.doc}

    def test_user_activity(self, db, store, meta):
        h = store.create("d", "ana", text="x")
        store.open(h.doc, "ana")
        activity = meta.user_activity("ana")
        assert activity["created"] == 1
        assert activity["read"] == 1
        assert activity["edited"] == 1  # the initial text insert


class TestCitations:
    def test_citation_counts(self):
        server = CollaborationServer()
        server.register_user("ana")
        session = server.connect("ana")
        src = session.create_document("src", text="0123456789")
        dst = session.create_document("dst", text="")
        session.copy(src.doc, 0, 3)
        session.paste(dst.doc, 0)
        session.copy(src.doc, 4, 3)
        session.paste(dst.doc, 0)
        meta = MetadataCollector(server.db)
        assert meta.citation_counts() == {src.doc: 2}

    def test_self_paste_not_a_citation(self):
        server = CollaborationServer()
        server.register_user("ana")
        session = server.connect("ana")
        doc = session.create_document("d", text="0123456789")
        session.copy(doc.doc, 0, 3)
        session.paste(doc.doc, 5)
        meta = MetadataCollector(server.db)
        assert meta.citation_counts() == {}


class TestProfile:
    def test_profile_shape(self, db, store, meta):
        h = store.create("report", "ana", text="hello",
                         props={"topic": "db"})
        store.open(h.doc, "ben")
        profile = meta.document_profile(h.doc)
        assert profile["name"] == "report"
        assert profile["creator"] == "ana"
        assert profile["size"] == 5
        assert profile["readers"] == ["ben"]
        assert profile["authors"] == ["ana"]
        assert profile["props"] == {"topic": "db"}
        assert profile["provenance"]["typed"] == 5

    def test_profile_unknown_doc(self, db, meta):
        with pytest.raises(UnknownDocumentError):
            meta.document_profile(db.new_oid("doc"))


class TestProperties:
    def test_char_property_roundtrip(self, db, store):
        props = PropertyManager(db)
        h = store.create("d", "ana", text="abc")
        oid = h.char_oid_at(1)
        props.set_char_property(oid, "reviewed", True, "ben")
        assert props.get_char_property(oid, "reviewed") is True
        assert props.get_char_property(oid, "missing", 42) == 42

    def test_chars_with_property(self, db, store):
        props = PropertyManager(db)
        h = store.create("d", "ana", text="abc")
        props.set_char_property(h.char_oid_at(0), "mark", "x", "ana")
        props.set_char_property(h.char_oid_at(2), "mark", "y", "ana")
        assert len(props.chars_with_property(h.doc, "mark")) == 2
        assert props.chars_with_property(h.doc, "mark", "y") == \
            [h.char_oid_at(2)]

    def test_documents_with_property(self, db, store):
        props = PropertyManager(db)
        h1 = store.create("d1", "ana", props={"project": "x"})
        store.create("d2", "ana", props={"project": "y"})
        store.create("d3", "ana")
        assert set(props.documents_with_property("project")) == \
            {h1.doc} | {d["doc"] for d in store.find_by_name("d2")}
        assert props.documents_with_property("project", "x") == [h1.doc]

    def test_get_document_property(self, db, store):
        props = PropertyManager(db)
        h = store.create("d", "ana", props={"a": 1})
        assert props.get_document_property(h.doc, "a") == 1
        assert props.get_document_property(h.doc, "b", "dflt") == "dflt"


class TestFeedDrivenCollector:
    """Regressions for the changefeed refactor: the collector counts
    physical purges through delete before-images."""

    def test_delete_document_counts_purged_chars(self, db, store, meta):
        h = store.create("d", "ana", text="abc")
        assert meta.edit_counters(h.doc)["purged_chars"] == 0
        store.delete_document(h.doc, "ana")
        assert meta.edit_counters(h.doc)["purged_chars"] == 3

    def test_logical_deletes_do_not_count_as_purges(self, db, store, meta):
        h = store.create("d", "ana", text="abc")
        h.delete_range(0, 1, "ana")  # tombstone, row survives
        counters = meta.edit_counters(h.doc)
        assert counters["deletes"] == 1
        assert counters["purged_chars"] == 0

    def test_collector_close_unsubscribes(self, db, store, meta):
        names = {s.name for s in db.changefeed().subscriptions()}
        assert any(n.startswith("meta-collector") for n in names)
        meta.close()
        names = {s.name for s in db.changefeed().subscriptions()}
        assert not any(n.startswith("meta-collector") for n in names)
        h = store.create("after", "ana", text="x")  # must not reach it
        assert meta.edit_counters(h.doc)["inserts"] == 0
