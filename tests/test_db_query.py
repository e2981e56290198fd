"""Tests for the query builder/executor and its index selection."""

import pytest

from repro.db import Database, col, column
from repro.db.predicate import Lambda
from repro.errors import UnknownColumnError, UnknownTableError


class TestBasicQueries:
    def test_full_scan_returns_all(self, people_db):
        assert people_db.query("people").count() == 5

    def test_where_eq(self, people_db):
        rows = people_db.query("people").where(col("city") == "zurich").run()
        assert {r["name"] for r in rows} == {"ana", "cleo"}

    def test_where_combined(self, people_db):
        pred = (col("city") == "zurich") & (col("age") > 35)
        rows = people_db.query("people").where(pred).run()
        assert [r["name"] for r in rows] == ["cleo"]

    def test_chained_where_is_and(self, people_db):
        rows = (people_db.query("people")
                .where(col("city") == "zurich")
                .where(col("age") > 35)
                .run())
        assert [r["name"] for r in rows] == ["cleo"]

    def test_order_by_asc_desc(self, people_db):
        asc = people_db.query("people").order_by("age").run()
        assert [r["age"] for r in asc] == [27, 27, 34, 41, 55]
        desc = people_db.query("people").order_by("age", desc=True).run()
        assert [r["age"] for r in desc] == [55, 41, 34, 27, 27]

    def test_order_by_with_nulls(self, people_db):
        rows = people_db.query("people").order_by("city").run()
        assert rows[0]["city"] is None  # nulls sort first

    def test_limit(self, people_db):
        rows = people_db.query("people").order_by("age").limit(2).run()
        assert len(rows) == 2

    def test_limit_zero(self, people_db):
        assert people_db.query("people").limit(0).run() == []

    def test_negative_limit_rejected(self, people_db):
        with pytest.raises(ValueError):
            people_db.query("people").limit(-1)

    def test_select_projection(self, people_db):
        rows = (people_db.query("people")
                .where(col("name") == "ana")
                .select("name", "age").run())
        assert rows == [{"name": "ana", "age": 34}]

    def test_select_unknown_column_raises(self, people_db):
        with pytest.raises(UnknownColumnError):
            people_db.query("people").select("nope").run()

    def test_first(self, people_db):
        row = people_db.query("people").where(col("name") == "ben").first()
        assert row["age"] == 27
        assert people_db.query("people").where(col("name") == "zz").first() is None

    def test_first_does_not_mutate_builder(self, people_db):
        # Regression: first() used to call self.limit(1), leaving
        # _limit = 1 on the builder so a later run() silently returned
        # one row instead of every match.
        q = people_db.query("people")
        assert q.first() is not None
        assert len(q.run()) == 5
        assert q._limit is None

    def test_first_keeps_explicit_limit(self, people_db):
        q = people_db.query("people").limit(0)
        assert q.first() is None          # limit 0 means no rows
        assert q._limit == 0

    def test_first_restores_limit_on_error(self, people_db):
        q = people_db.query("people").order_by("age")
        q._order = ("no_such_column", False)  # force run() to raise
        with pytest.raises(UnknownColumnError):
            q.first()
        assert q._limit is None

    def test_iteration(self, people_db):
        names = {r["name"] for r in people_db.query("people")}
        assert len(names) == 5

    def test_unknown_table(self, people_db):
        with pytest.raises(UnknownTableError):
            people_db.query("nope").run()

    def test_rowids_exposed(self, people_db):
        rows = people_db.query("people").run()
        assert len({r.rowid for r in rows}) == 5

    def test_lambda_predicate(self, people_db):
        rows = people_db.query("people").where(
            Lambda(lambda r: r["age"] % 2 == 1, label="odd age")).run()
        assert {r["name"] for r in rows} == {"ben", "cleo", "dan", "eva"}


class TestPlanning:
    def test_key_equality_uses_index(self, people_db):
        plan = people_db.query("people").where(col("name") == "ana").plan()
        assert plan.kind == "index"
        assert plan.hint.column == "name"

    def test_range_uses_ordered_index(self, people_db):
        plan = people_db.query("people").where(col("age") >= 30).plan()
        assert plan.kind == "index"
        assert plan.hint.op == "range"

    def test_unindexed_column_scans(self, people_db):
        plan = people_db.query("people").where(col("city") == "zurich").plan()
        assert plan.kind == "scan"

    def test_or_predicate_scans(self, people_db):
        pred = (col("name") == "ana") | (col("name") == "ben")
        assert people_db.query("people").where(pred).plan().kind == "scan"

    def test_isin_uses_index(self, people_db):
        plan = people_db.query("people").where(
            col("name").isin(["ana", "ben"])).plan()
        assert plan.kind == "index"
        rows = people_db.query("people").where(
            col("name").isin(["ana", "ben"])).run()
        assert {r["name"] for r in rows} == {"ana", "ben"}

    def test_eq_preferred_over_range(self, people_db):
        pred = (col("age") >= 20) & (col("name") == "ana")
        plan = people_db.query("people").where(pred).plan()
        assert plan.hint.op == "eq"

    def test_index_and_scan_agree(self, people_db):
        pred = col("age").between(27, 41)
        via_index = people_db.query("people").where(pred).run()
        # Force a scan by ordering on an unindexed shape.
        scan_rows = [
            r for r in people_db.query("people").run() if 27 <= r["age"] <= 41
        ]
        assert {r["name"] for r in via_index} == {r["name"] for r in scan_rows}


class TestPendingOverlay:
    def test_txn_sees_pending_through_index_plan(self):
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.insert("kv", {"k": "b", "v": 2})
        rows = txn.query("kv").where(col("k") == "b").run()
        assert len(rows) == 1 and rows[0]["v"] == 2
        txn.abort()

    def test_txn_pending_update_replaces_committed(self):
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.update("kv", rid, {"v": 99})
        rows = txn.query("kv").run()
        assert rows[0]["v"] == 99
        # committed view unchanged
        assert db.query("kv").run()[0]["v"] == 1
        txn.abort()

    def test_txn_pending_delete_hides_row(self):
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.delete("kv", rid)
        assert txn.query("kv").count() == 0
        assert db.query("kv").count() == 1
        txn.commit()
        assert db.query("kv").count() == 0

    def test_pending_update_found_by_new_value_probe(self):
        """An index probe for the *new* value must surface the pending row."""
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        rid = db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.update("kv", rid, {"k": "z"})
        rows = txn.query("kv").where(col("k") == "z").run()
        assert len(rows) == 1
        # And the old value must no longer match for the owner.
        assert txn.query("kv").where(col("k") == "a").count() == 0
        txn.abort()


class TestPendingPerTransaction:
    """A query's pending overlay is the querying transaction's own
    writes: another writer's staged rows are neither seen nor paid for."""

    @pytest.fixture
    def db(self):
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        self.committed = db.insert("kv", {"k": "base", "v": 0})
        return db

    def test_two_writers_see_only_their_own_pending_rows(self, db):
        ana, ben = db.begin(), db.begin()
        for i in range(30):
            ana.insert("kv", {"k": f"a{i}", "v": i})
        ben_row = ben.insert("kv", {"k": "b0", "v": 100})
        ben.update("kv", self.committed, {"v": 7})
        table = db.table("kv")
        assert len(table.pending_of(ana.txn_id)) == 30
        assert table.pending_of(ben.txn_id).keys() == \
            {ben_row, self.committed}
        assert table.pending_of(10 ** 9) == {}
        assert ana.query("kv").where(col("k") == "b0").count() == 0
        assert ana.query("kv").where(col("k") == "base").first()["v"] == 0
        assert ben.query("kv").where(col("k") == "base").first()["v"] == 7
        assert ben.query("kv").where(col("k") == "a3").count() == 0
        assert ana.query("kv").count() == 31
        assert ben.query("kv").count() == 2
        ana.abort()
        assert table.pending_of(ana.txn_id) == {}
        assert len(table.pending_of(ben.txn_id)) == 2
        ben.commit()
        assert table._pending == {} and table._pending_images == {}
        assert db.query("kv").count() == 2

    def test_overlay_is_a_snapshot_and_tracks_restaging(self, db):
        txn = db.begin()
        rid = txn.insert("kv", {"k": "x", "v": 1})
        table = db.table("kv")
        overlay = table.pending_of(txn.txn_id)
        txn.update("kv", rid, {"v": 2})
        txn.insert("kv", {"k": "y", "v": 3})
        assert list(overlay) == [rid]           # unaffected by later writes
        assert overlay[rid][1] == 1
        assert table.pending_of(txn.txn_id)[rid][1] == 2
        txn.delete("kv", rid)
        assert txn.query("kv").where(col("k") == "x").count() == 0
        txn.commit()
        assert table._pending_images == {}


class TestAggregates:
    def test_sum_min_max(self, people_db):
        query = people_db.query("people")
        assert query.sum("age") == 34 + 27 + 41 + 27 + 55
        assert people_db.query("people").min("age") == 27
        assert people_db.query("people").max("age") == 55

    def test_avg(self, people_db):
        assert people_db.query("people").avg("age") == pytest.approx(36.8)

    def test_aggregates_respect_predicate(self, people_db):
        query = people_db.query("people").where(col("city") == "zurich")
        assert query.sum("age") == 34 + 41

    def test_empty_aggregates(self, people_db):
        query = people_db.query("people").where(col("name") == "nobody")
        assert query.sum("age") == 0
        assert query.min("age") is None
        assert query.max("age") is None
        assert query.avg("age") is None

    def test_nulls_skipped(self, people_db):
        # `city` is NULL for dan.
        assert len(people_db.query("people").distinct("city")) == 3

    def test_distinct(self, people_db):
        assert people_db.query("people").distinct("age") == {27, 34, 41, 55}

    def test_group_count(self, people_db):
        counts = people_db.query("people").group_count("city")
        assert counts == {"zurich": 2, "bolzano": 1, "geneva": 1, None: 1}

    def test_aggregate_unknown_column(self, people_db):
        with pytest.raises(UnknownColumnError):
            people_db.query("people").sum("nope")

    def test_aggregate_sees_txn_pending(self):
        db = Database("t")
        db.create_table("kv", [column("k", "str"), column("v", "int")],
                        key="k")
        db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.insert("kv", {"k": "b", "v": 10})
        assert txn.query("kv").sum("v") == 11
        assert db.query("kv").sum("v") == 1
        txn.abort()


class TestExplain:
    def test_explain_scan(self, people_db):
        plan = people_db.query("people").where(
            col("city") == "zurich").explain()
        assert plan["access"]["path"] == "scan"
        assert plan["access"]["estimated_candidates"] == 5
        assert "city" in plan["filter"]

    def test_explain_index_probe(self, people_db):
        plan = people_db.query("people").where(
            col("name") == "ana").explain()
        assert plan["access"]["path"] == "index"
        assert plan["access"]["column"] == "name"
        assert plan["access"]["probe"] == "eq"
        assert plan["access"]["estimated_candidates"] == 1

    def test_explain_range_probe(self, people_db):
        plan = people_db.query("people").where(col("age") >= 40).explain()
        assert plan["access"]["probe"] == "range"
        assert plan["access"]["estimated_candidates"] == 2

    def test_explain_early_stop_flag(self, people_db):
        plan = people_db.query("people").limit(1).explain()
        assert plan["early_stop"] is True
        plan = people_db.query("people").order_by("age").limit(1).explain()
        assert plan["early_stop"] is False


class TestSnapshotOverlayMemo:
    """Index probes inside a snapshot resolve rows that carry a version
    chain through an overlay; it is built once per (snapshot LSN,
    history generation), not once per query."""

    N, H = 40, 25

    @pytest.fixture
    def db(self):
        db = Database("overlay")
        db.create_table("t", [column("k", "int"), column("v", "int")],
                        key="k")
        self.rowids = {k: db.insert("t", {"k": k, "v": 0})
                       for k in range(100)}
        return db

    def _history(self, db, keys):
        for k in keys:
            db.update("t", self.rowids[k], {"v": 1})

    def test_point_reads_cost_n_plus_h_version_reads(self, db, monkeypatch):
        with db.snapshot() as pin:  # keeps GC from dropping the chains
            self._history(db, range(self.H))
            table = db.table("t")
            assert len(table.snapshot_history_rows(pin.snapshot_lsn)) == self.H
            reads = []
            original = type(table)._snapshot_read_locked

            def counting(self_, rowid, lsn):
                reads.append(rowid)
                return original(self_, rowid, lsn)

            monkeypatch.setattr(type(table), "_snapshot_read_locked",
                                counting)
            with db.snapshot() as snap:
                for k in range(self.N):
                    row = snap.query("t").where(col("k") == k).first()
                    assert row["v"] == (1 if k < self.H else 0)
            # One overlay build (H reads) plus one read per probed row
            # outside the overlay; the parent did H reads per query.
            assert len(reads) <= self.N + self.H

    def test_later_commits_stay_invisible_after_memo_built(self, db):
        self._history(db, range(5))
        with db.snapshot() as snap:
            def value_of(k):
                row = snap.query("t").where(col("k") == k).first()
                return None if row is None else row["v"]

            assert value_of(1) == 1 and value_of(50) == 0  # memo built
            # A key-changing update, a plain update and a delete, on rows
            # with and without history, all committed after the memo.
            db.update("t", self.rowids[1], {"k": 1001})
            db.update("t", self.rowids[50], {"k": 1050, "v": 7})
            db.update("t", self.rowids[2], {"v": 9})
            db.delete("t", self.rowids[3])
            db.delete("t", self.rowids[60])
            assert value_of(1) == 1 and value_of(1001) is None
            assert value_of(50) == 0 and value_of(1050) is None
            assert value_of(2) == 1
            assert value_of(3) == 1
            assert value_of(60) == 0
            assert snap.query("t").where(col("k") < 1000).count() == 100
        with db.snapshot() as later:
            seen = {r["k"]: r["v"] for r in later.query("t").run()}
        assert seen[1001] == 1 and seen[1050] == 7 and seen[2] == 9
        assert 1 not in seen and 3 not in seen and 60 not in seen

    def test_gc_between_queries_rebuilds_the_overlay(self, db):
        with db.snapshot() as snap:
            self._history(db, range(5))
            assert snap.query("t").where(col("k") == 0).first()["v"] == 0
            assert db.gc_versions() == 0  # pinned: nothing droppable
        self._history(db, range(5))  # second version of the same rows
        with db.snapshot() as snap:
            assert snap.query("t").where(col("k") == 0).first()["v"] == 1
            assert db.gc_versions() > 0
            assert snap.query("t").where(col("k") == 0).first()["v"] == 1
