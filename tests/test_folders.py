"""Tests for static folders and dynamic folders."""

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import FolderError
from repro.folders import (
    AccessedBy,
    AuthoredBy,
    CreatorIs,
    DynamicFolderManager,
    HasProperty,
    ModifiedWithin,
    NameContains,
    SizeAtLeast,
    StateIs,
    StaticFolderManager,
)
from repro.text import DocumentStore
from repro.text import dbschema as S

DAY = 86400.0


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def db(clock):
    return Database("t", clock=clock)


@pytest.fixture
def store(db):
    return DocumentStore(db)


class TestStaticFolders:
    def test_tree_and_paths(self, db, store):
        sfm = StaticFolderManager(db)
        root = sfm.create_folder("projects", "ana")
        sub = sfm.create_folder("tendax", "ana", parent=root)
        assert sfm.path_of(sub) == "/projects/tendax"
        assert [c["name"] for c in sfm.children(root)] == ["tendax"]

    def test_place_and_remove(self, db, store):
        sfm = StaticFolderManager(db)
        folder = sfm.create_folder("inbox", "ana")
        h = store.create("d", "ana")
        sfm.place(h.doc, folder)
        sfm.place(h.doc, folder)  # idempotent
        assert sfm.contents(folder) == [h.doc]
        sfm.remove(h.doc, folder)
        assert sfm.contents(folder) == []

    def test_document_in_multiple_folders(self, db, store):
        sfm = StaticFolderManager(db)
        f1 = sfm.create_folder("a", "ana")
        f2 = sfm.create_folder("b", "ana")
        h = store.create("d", "ana")
        sfm.place(h.doc, f1)
        sfm.place(h.doc, f2)
        assert sfm.folders_of(h.doc) == sorted([f1, f2])

    def test_unknown_folder(self, db, store):
        sfm = StaticFolderManager(db)
        with pytest.raises(FolderError):
            sfm.contents(db.new_oid("folder"))

    def test_tree_text(self, db, store):
        sfm = StaticFolderManager(db)
        root = sfm.create_folder("top", "ana")
        sfm.create_folder("sub", "ana", parent=root)
        text = sfm.tree_text()
        assert "top/" in text and "  sub/" in text


class TestDynamicFolderConditions:
    def test_creator_and_state(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder(
            "ana-finals", CreatorIs("ana") & StateIs("final"))
        h1 = store.create("d1", "ana")
        store.create("d2", "ben")
        assert len(folder) == 0
        store.set_state(h1.doc, "final", "ana")
        assert folder.contents() == [h1.doc]

    def test_name_and_size(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder(
            "big-reports", NameContains("report") & SizeAtLeast(5))
        store.create("summary", "ana", text="0123456789")
        h = store.create("Q3 Report", "ana", text="12")
        assert len(folder) == 0
        h.insert_text(2, "3456", "ana")  # crosses the size threshold
        assert folder.contents() == [h.doc]

    def test_has_property(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("tendax", HasProperty("project", "tendax"))
        h = store.create("d", "ana")
        assert len(folder) == 0
        store.set_property(h.doc, "project", "tendax", "ana")
        assert h.doc in folder

    def test_negation(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("not-ana", ~CreatorIs("ana"))
        store.create("d1", "ana")
        h2 = store.create("d2", "ben")
        assert folder.contents() == [h2.doc]

    def test_or_condition(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder(
            "either", CreatorIs("ana") | CreatorIs("ben"))
        h1 = store.create("d1", "ana")
        h2 = store.create("d2", "ben")
        store.create("d3", "cleo")
        assert folder.contents() == sorted([h1.doc, h2.doc])

    def test_authored_by(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("ben-wrote", AuthoredBy("ben", 3))
        h = store.create("d", "ana", text="base ")
        assert len(folder) == 0
        h.insert_text(5, "ben text", "ben")
        assert h.doc in folder
        # Deleting ben's visible characters drops the document out.
        h.delete_range(5, 8, "ana")
        assert h.doc not in folder


class TestPaperExample:
    """'All documents a certain user has read within the last week.'"""

    def test_read_within_last_week(self, clock, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder(
            "ben-read-last-week", AccessedBy("ben", "read", within=7 * DAY))
        h1 = store.create("d1", "ana", text="x")
        h2 = store.create("d2", "ana", text="y")
        store.open(h1.doc, "ben")
        assert folder.contents() == [h1.doc]
        # Eight days pass; the read ages out (visible after revalidate).
        clock.advance(8 * DAY)
        store.open(h2.doc, "ben")
        assert h2.doc in folder
        folder.revalidate()
        assert folder.contents() == [h2.doc]

    def test_modified_within(self, clock, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("fresh", ModifiedWithin(DAY))
        h = store.create("d", "ana", text="x")
        assert h.doc in folder
        clock.advance(2 * DAY)
        folder.revalidate()
        assert h.doc not in folder
        h.insert_text(0, "y", "ana")   # touching it brings it back
        assert h.doc in folder


class TestManager:
    def test_duplicate_name_rejected(self, db):
        dfm = DynamicFolderManager(db)
        dfm.create_folder("f", CreatorIs("ana"))
        with pytest.raises(FolderError):
            dfm.create_folder("f", CreatorIs("ben"))

    def test_drop_folder(self, db):
        dfm = DynamicFolderManager(db)
        dfm.create_folder("f", CreatorIs("ana"))
        dfm.drop_folder("f")
        with pytest.raises(FolderError):
            dfm.folder("f")

    def test_membership_listener(self, db, store):
        dfm = DynamicFolderManager(db)
        events = []
        dfm.create_folder("ana-docs", CreatorIs("ana"))
        dfm.on_membership_change(
            lambda name, doc, member: events.append((name, member)))
        store.create("d", "ana")
        assert ("ana-docs", True) in events

    def test_close_stops_refresh(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("ana-docs", CreatorIs("ana"))
        dfm.close()
        store.create("d", "ana")
        assert len(folder) == 0

    def test_contents_fresh_within_one_commit(self, db, store):
        """The paper's freshness claim: membership reflects the edit
        without any polling or re-scan in between."""
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("big", SizeAtLeast(10))
        h = store.create("d", "ana", text="123456789")
        before = folder.stats["full_scans"]
        h.insert_text(0, "0", "ana")
        assert h.doc in folder
        assert folder.stats["full_scans"] == before  # no rescan happened


class TestFolderPersistence:
    def test_spec_roundtrip(self):
        from repro.folders import condition_from_spec, condition_to_spec
        condition = ((CreatorIs("ana") & SizeAtLeast(5))
                     | ~StateIs("draft")
                     | AccessedBy("ben", "read", within=3600.0)
                     | AuthoredBy("cleo", 2)
                     | HasProperty("topic", "db")
                     | NameContains("x")
                     | ModifiedWithin(60.0))
        spec = condition_to_spec(condition)
        rebuilt = condition_from_spec(spec)
        assert condition_to_spec(rebuilt) == spec

    def test_unserialisable_condition_rejected(self):
        from repro.folders import condition_to_spec
        from repro.folders.dynamic import Condition

        class Custom(Condition):
            def matches(self, ctx, doc):
                return True

        with pytest.raises(FolderError):
            condition_to_spec(Custom())

    def test_save_and_load(self, db, store):
        dfm = DynamicFolderManager(db)
        dfm.create_folder("ana-docs", CreatorIs("ana"))
        dfm.save_folder("ana-docs", "ana")
        # A fresh manager (e.g. after restart) reloads the definition.
        dfm2 = DynamicFolderManager(db)
        assert dfm2.load_folders() == ["ana-docs"]
        store.create("d", "ana")
        assert len(dfm2.folder("ana-docs")) == 1

    def test_definitions_survive_recovery(self, clock, tmp_path):
        from repro.db import recover_file
        path = str(tmp_path / "wal.jsonl")
        db = Database("t", clock=clock, wal_path=path)
        store = DocumentStore(db)
        dfm = DynamicFolderManager(db)
        dfm.create_folder("finals", StateIs("final"))
        dfm.save_folder("finals", "ana")
        h = store.create("d", "ana")
        store.set_state(h.doc, "final", "ana")

        recovered = recover_file(path)
        dfm2 = DynamicFolderManager(recovered)
        assert dfm2.load_folders() == ["finals"]
        assert h.doc in dfm2.folder("finals")

    def test_save_overwrites(self, db):
        dfm = DynamicFolderManager(db)
        dfm.create_folder("f", CreatorIs("ana"))
        dfm.save_folder("f", "ana")
        dfm.drop_folder("f")
        dfm.create_folder("f", CreatorIs("ben"))
        dfm.save_folder("f", "ana")
        dfm2 = DynamicFolderManager(db)
        dfm2.load_folders()
        spec_rows = db.query(DynamicFolderManager.DEFINITIONS).run()
        assert len(spec_rows) == 1
        assert spec_rows[0]["spec"]["user"] == "ben"

    def test_load_skips_existing(self, db):
        dfm = DynamicFolderManager(db)
        dfm.create_folder("f", CreatorIs("ana"))
        dfm.save_folder("f", "ana")
        assert dfm.load_folders() == []


class TestFeedDrivenFolders:
    """Regressions for the changefeed refactor: deletes reach dynamic
    membership and listings stay ordered and pageable."""

    def test_delete_document_drops_membership(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("finals", StateIs("final"))
        h = store.create("d", "ana")
        store.set_state(h.doc, "final", "ana")
        assert h.doc in folder
        before = folder.stats["full_scans"]
        store.delete_document(h.doc, "ana")
        assert h.doc not in folder
        assert folder.contents() == []
        assert folder.stats["full_scans"] == before  # no rescan needed

    def test_archived_documents_are_folder_eligible(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("shelf", HasProperty("topic", "db"))
        doc = store.import_archived("arch", "ana", text="whole blob",
                                    props={"topic": "db"})
        assert doc in folder
        store.delete_document(doc, "ana")
        assert doc not in folder

    @pytest.mark.parametrize("start, then, member", [
        ("draft", "final", True), ("final", "draft", False)])
    def test_rescan_below_an_inflight_commit_keeps_the_live_decision(
            self, db, store, start, then, member):
        """A rescan pinned below a commit still between its COMMIT record
        and its apply must not undo what the feed consumer applied from a
        commit above that snapshot: neither drop a membership it added
        nor restore one it removed."""
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("finals", StateIs("final"))
        h = store.create("d", "ana")
        store.set_state(h.doc, start, "ana")
        inflight = 10 ** 9
        db.register_commit_intent(inflight)
        try:
            store.set_state(h.doc, then, "ana")
            assert (h.doc in folder) is member
            folder.revalidate()
            assert (h.doc in folder) is member
            assert folder.contents() == ([h.doc] if member else [])
        finally:
            db.clear_commit_intent(inflight)
        folder.revalidate()
        assert folder.contents() == ([h.doc] if member else [])

    def test_contents_paging_is_ordered(self, db, store):
        dfm = DynamicFolderManager(db)
        folder = dfm.create_folder("all", SizeAtLeast(0))
        docs = [store.create(f"d{i}", "ana").doc for i in range(5)]
        full = folder.contents()
        assert full == sorted(docs)
        assert folder.contents(limit=2) == full[:2]
        store.delete_document(docs[0], "ana")
        assert folder.contents(limit=2) == sorted(docs[1:])[:2]

    def test_a_batch_reads_each_document_row_once(self, db, monkeypatch):
        """One commit touching N documents under F folders reads N
        document rows, not N x F, and membership equals a rescan."""
        dfm = DynamicFolderManager(db)
        conditions = {
            "finals": StateIs("final"),
            "ana": CreatorIs("ana"),
            "shelf": HasProperty("topic", "db"),
            "ana's finals": StateIs("final") & CreatorIs("ana"),
        }
        folders = [dfm.create_folder(name, condition)
                   for name, condition in conditions.items()]
        reads = []
        find = db.find

        def counting_find(table, column, key):
            if table == S.DOCUMENTS:
                reads.append(key)
            return find(table, column, key)

        monkeypatch.setattr(db, "find", counting_find)
        docs = []
        with db.transaction() as txn:
            for i in range(6):
                doc = db.new_oid("doc")
                creator = ("ana", "ben")[i % 2]
                txn.insert(S.DOCUMENTS, {
                    "doc": doc, "name": f"arch-{i}", "creator": creator,
                    "created_at": db.now(),
                    "state": ("draft", "final", "final")[i % 3],
                    "size": 4, "last_modified": db.now(),
                    "last_modified_by": creator,
                    "props": {"archived_text": "blob",
                              "topic": ("db", "ui")[i % 2]},
                })
                docs.append(doc)
        assert sorted(reads) == sorted(docs)
        live = [folder.contents() for folder in folders]
        assert [len(members) for members in live] == [4, 3, 3, 2]
        for folder, members in zip(folders, live):
            folder.revalidate()
            assert folder.contents() == members
