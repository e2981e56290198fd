"""Span lifecycle tests: balance under commits, aborts and crashes.

The tracer's contract is *balance*: every span started is ended exactly
once — by commit, by abort, or by the ``CrashSignal`` guard when a fault
plan kills the process mid-transaction.  The crash-point tests reuse the
fault injector's named points so a span leak on any death path fails
here, not in production triage.
"""

from __future__ import annotations

import pytest

from repro.db import Database, column
from repro.errors import CrashSignal
from repro.faults import FaultInjector, FaultPlan
from repro.obs import NULL_SPAN, Tracer


def make_db(tmp_path, plan: FaultPlan | None = None) -> Database:
    path = str(tmp_path / "wal.jsonl")
    faults = FaultInjector(plan) if plan is not None else None
    db = Database("trc", wal_path=path, faults=faults)
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    return db


def recording(db: Database) -> list:
    """Attach a sink so the tracer records; returns the finished spans."""
    finished: list = []
    db.obs.tracer.add_sink(finished.append)
    return finished


# ---------------------------------------------------------------------------
# Tracer basics
# ---------------------------------------------------------------------------

class TestTracerBasics:
    def test_no_sink_means_null_span_fast_path(self, tmp_path):
        db = make_db(tmp_path)
        assert db.obs.tracer.start("txn") is NULL_SPAN
        db.insert("kv", {"k": "a", "v": 1})
        # Nothing recorded, nothing leaked.
        assert db.obs.registry.get("trace.spans_started").value == 0
        assert db.obs.tracer.open_spans() == []

    def test_commit_and_abort_close_spans_with_outcome(self, tmp_path):
        db = make_db(tmp_path)
        finished = recording(db)
        db.insert("kv", {"k": "a", "v": 1})
        txn = db.begin()
        txn.insert("kv", {"k": "b", "v": 2})
        txn.abort()
        statuses = [s.status for s in finished if s.name == "txn"]
        assert statuses == ["commit", "abort"]
        assert db.obs.tracer.open_spans() == []
        assert db.obs.registry.get("trace.active_spans").value == 0

    def test_scoped_span_parents_detached_spans(self):
        tracer = Tracer()
        finished = []
        tracer.add_sink(finished.append)
        with tracer.span("outer") as outer:
            child = tracer.start("inner")
            assert child.parent_id == outer.span_id
            child.end("ok")
        assert [s.name for s in finished] == ["inner", "outer"]
        assert finished[1].status == "ok"

    def test_scoped_span_closes_as_error_on_exception(self):
        tracer = Tracer()
        finished = []
        tracer.add_sink(finished.append)
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        assert finished[0].status == "error"
        assert tracer.open_spans() == []

    def test_end_is_idempotent(self):
        tracer = Tracer()
        finished = []
        tracer.add_sink(finished.append)
        span = tracer.start("once")
        span.end("commit")
        span.end("abort")
        assert len(finished) == 1
        assert finished[0].status == "commit"


# ---------------------------------------------------------------------------
# Span balance across injected crashes
# ---------------------------------------------------------------------------

#: (crash point, hit) pairs chosen so the crash lands inside a live
#: transaction.  File appends go CREATE_TABLE(1), then per insert
#: BEGIN, INSERT, COMMIT — so e.g. hit 6 is the second txn's INSERT.
CRASH_SITES = [
    ("wal.before_append", 2),    # BEGIN append: span just started
    ("wal.before_append", 6),    # INSERT append mid-transaction
    ("wal.mid_record", 7),       # torn COMMIT record
    ("wal.before_fsync", 2),     # second commit's fsync
    ("txn.pre_commit", 2),
    ("txn.post_commit", 2),
]


class TestSpanBalanceUnderCrashes:
    @pytest.mark.parametrize("point,hit", CRASH_SITES,
                             ids=[f"{p}@{h}" for p, h in CRASH_SITES])
    def test_crash_closes_exactly_one_span_as_crash(self, tmp_path,
                                                    point, hit):
        db = make_db(tmp_path, FaultPlan.crash_once(point, hit=hit))
        finished = recording(db)
        tracer = db.obs.tracer
        with pytest.raises(CrashSignal):
            db.insert("kv", {"k": "a", "v": 1})
            db.insert("kv", {"k": "b", "v": 2})
        # Balance: no span left open, and the doomed transaction's span
        # closed exactly once, with the crash outcome winning even though
        # the post-mortem context manager still ran abort().
        assert tracer.open_spans() == []
        assert db.obs.registry.get("trace.active_spans").value == 0
        crashed = [s for s in finished if s.status == "crash"]
        assert len(crashed) == 1
        started = db.obs.registry.get("trace.spans_started").value
        assert started == len(finished)

    def test_ddl_crash_leaks_no_spans(self, tmp_path):
        # Appends: CREATE_TABLE(1), BEGIN(2) INSERT(3) COMMIT(4), then
        # the CREATE_INDEX, which dies outside any transaction's span.
        plan = FaultPlan.crash_once("wal.before_append", hit=5)
        db = make_db(tmp_path, plan)
        finished = recording(db)
        db.insert("kv", {"k": "a", "v": 1})
        with pytest.raises(CrashSignal):
            db.create_index("kv", "v")
        assert db.obs.tracer.open_spans() == []
        assert [s.status for s in finished if s.name == "txn"] == ["commit"]

    def test_random_schedules_never_leak_spans(self, tmp_path, crash_seed):
        """Torture-style: wherever the seeded crash lands, spans balance."""
        plan = FaultPlan.random(crash_seed, max_hit=12)
        path = str(tmp_path / "wal.jsonl")
        db = Database("trc", wal_path=path, faults=FaultInjector(plan))
        finished = recording(db)
        try:
            # The crash may land anywhere — even the CREATE_TABLE append.
            db.create_table("kv", [column("k", "str"), column("v", "int")],
                            key="k")
            for i in range(6):
                db.insert("kv", {"k": f"k{i}", "v": i})
        except CrashSignal:
            pass
        assert db.obs.tracer.open_spans() == []
        assert db.obs.registry.get("trace.active_spans").value == 0
        started = db.obs.registry.get("trace.spans_started").value
        assert started == len(finished)
        assert len([s for s in finished if s.status == "crash"]) <= 1
