"""Crash/concurrency torture: recovery equivalence over seeded schedules.

Every test here is driven by integer seeds.  One seed deterministically
generates the fault plan (which crash point, which hit, torn or power
lost), the workload (every operation), and — for the collab tests — the
typist interleaving.  A failure therefore reproduces exactly:

    pytest tests/test_crash_torture.py -k seed17
    pytest tests/test_crash_torture.py --torture-schedules 500   # nightly

The ``crash_seed`` fixture is parameterised over ``--torture-schedules``
(default 25).  The ``*_floor`` test additionally pins one hundred fixed
seeds so the acceptance bar — recovery equivalence on >= 100 distinct
crash schedules — holds no matter how the option is set.

Properties under torture:

* **Recovery equivalence** (engine): the database recovered from the
  surviving WAL file equals the committed prefix applied to an
  independent plain-dict model (:mod:`repro.faults.harness`).
* **Convergence** (collab): once notification delivery drains, every
  session's replica equals the shared plain-text model, and the document
  recovered from the WAL matches one of the two legal outcomes around an
  in-flight operation (the WAL says which).
"""

from __future__ import annotations

import random

import pytest

from repro.collab import CollaborationServer
from repro.db import Database, column, recover_file
from repro.db.wal import WriteAheadLog, committed_txn_ids
from repro.faults import (
    CrashSignal,
    DeterministicScheduler,
    FaultInjector,
    FaultPlan,
    check_recovery_equivalence,
    run_engine_schedule,
)
from repro.text import DocumentStore
from repro.workload import ModelTypist, SharedText

pytestmark = [
    pytest.mark.torture,
    # Torn tails are the *point* of many schedules; the recovery-side
    # warning is expected noise here.
    pytest.mark.filterwarnings("ignore:skipping torn trailing WAL record"),
]


# ---------------------------------------------------------------------------
# Engine-level crash schedules
# ---------------------------------------------------------------------------

class TestEngineCrashTorture:
    def test_recovery_equivalence(self, crash_seed, tmp_path):
        outcome = run_engine_schedule(crash_seed,
                                      str(tmp_path / "wal.jsonl"))
        recovered = check_recovery_equivalence(outcome)
        # The recovered engine is live, not a husk: it accepts new work.
        if recovered.has_table("kv"):
            rowid = recovered.insert("kv", {"k": f"post-{crash_seed}",
                                            "v": -1})
            assert recovered.get("kv", rowid)["v"] == -1

    def test_recovery_equivalence_with_lock_faults(self, crash_seed,
                                                   tmp_path):
        # Same property with injected lock timeouts in the mix: a txn the
        # injector kills is just another uncommitted txn to recovery.
        plan = FaultPlan.random(crash_seed + 500_000, with_locks=True)
        outcome = run_engine_schedule(crash_seed + 500_000,
                                      str(tmp_path / "wal.jsonl"),
                                      plan=plan)
        check_recovery_equivalence(outcome)

    def test_recovery_equivalence_floor_100_schedules(self, tmp_path):
        """The acceptance bar: >= 100 distinct seeded crash schedules.

        Runs regardless of ``--torture-schedules`` so the guarantee can't
        be configured away.  Each failure message carries its seed.
        """
        crashed = 0
        points = set()
        for seed in range(1000, 1100):
            outcome = run_engine_schedule(seed,
                                          str(tmp_path / f"wal-{seed}.jsonl"))
            check_recovery_equivalence(outcome)
            if outcome.crashed:
                crashed += 1
                points.add(outcome.crash_point)
        # The schedule space must actually exercise crashes, not dodge
        # them, and across several distinct crash points.
        assert crashed >= 60
        assert len(points) >= 4


# ---------------------------------------------------------------------------
# Snapshot readers held open across crash points
# ---------------------------------------------------------------------------

def _run_snapshot_schedule(seed: int, wal_path: str, plan: FaultPlan):
    """Seeded crashing workload with a snapshot reader pinned mid-run.

    Commits a few transactions with faults disarmed, pins a snapshot,
    freezes its expected view, then keeps committing (and possibly
    crashing).  Returns everything the assertions need.
    """
    faults = FaultInjector(plan, armed=False)
    db = Database("torture", wal_path=wal_path, faults=faults)
    rng = random.Random(seed * 6151 + 3)
    db.create_table("kv", [column("k", "str"), column("v", "int")], key="k")
    live: dict[int, dict] = {}
    attempts: dict[int, list] = {}

    def one_txn(t: int) -> None:
        txn = db.begin()
        ops: list = []
        attempts[txn.txn_id] = ops
        touched: set[int] = set()
        for j in range(rng.randint(1, 4)):
            candidates = [r for r in live if r not in touched]
            kind = rng.choices(
                ("insert", "update", "delete"),
                weights=(5, 3 if candidates else 0,
                         2 if candidates else 0))[0]
            if kind == "insert":
                row = {"k": f"s{seed}-t{t}-o{j}", "v": rng.randrange(1000)}
                rowid = txn.insert("kv", row)
                ops.append(("put", rowid, row))
            elif kind == "update":
                rowid = rng.choice(candidates)
                row = dict(live[rowid], v=rng.randrange(1000))
                txn.update("kv", rowid, {"v": row["v"]})
                ops.append(("put", rowid, row))
            else:
                rowid = rng.choice(candidates)
                txn.delete("kv", rowid)
                ops.append(("del", rowid, None))
            touched.add(rowid)
        txn.commit()
        for op, rowid, row in ops:
            if op == "put":
                live[rowid] = row
            else:
                live.pop(rowid, None)

    for t in range(6):                  # fixture prefix, no faults yet
        one_txn(t)
    snap = db.begin(read_only=True)
    frozen = {r.rowid: dict(r) for r in snap.query("kv").run()}
    assert frozen == live

    faults.arm()
    crashed = False
    try:
        for t in range(6, 30):
            one_txn(t)
            # The reader keeps reading between writers' transactions;
            # every read must return the pinned state.
            assert {r.rowid: dict(r)
                    for r in snap.query("kv").run()} == frozen, \
                f"seed {seed}: snapshot drifted mid-schedule"
    except CrashSignal:
        crashed = True
    return {
        "db": db, "snap": snap, "frozen": frozen, "attempts": attempts,
        "crashed": crashed, "faults": faults, "wal_path": wal_path,
        "seed": seed,
    }


class TestSnapshotCrashTorture:
    """MVCC pins vs crashes: frozen views and collapsed chains."""

    #: The two points that stress the snapshot machinery hardest: a
    #: commit record written but its group barrier never entered, and a
    #: crash inside the commit-intent window (COMMIT durable, its images
    #: not yet applied).
    POINTS = ("wal.after_write", "txn.post_commit")

    def test_snapshot_frozen_across_crash(self, crash_seed, tmp_path):
        """The pinned view survives the crash signal itself.

        Even when the crash interrupts a commit half-applied, the
        interrupted transaction's versions are stamped with a commit LSN
        above the pin, so the reader held open across the crash must
        still see exactly its frozen view — uncommitted or torn state
        is never visible through a snapshot.
        """
        point = self.POINTS[crash_seed % len(self.POINTS)]
        plan = FaultPlan.crash_once(
            point, hit=1 + crash_seed % 4,
            tear=0.1 + (crash_seed % 9) / 10.0,
            power_loss=crash_seed % 3 == 0)
        run = _run_snapshot_schedule(crash_seed,
                                     str(tmp_path / "snap.jsonl"), plan)
        snap, frozen, seed = run["snap"], run["frozen"], run["seed"]
        view = {r.rowid: dict(r) for r in snap.query("kv").run()}
        assert view == frozen, (
            f"seed {seed}: snapshot view changed across crash "
            f"(crashed={run['crashed']}, "
            f"point={run['faults'].crash_point_fired})")
        for rowid, row in frozen.items():
            assert snap.get("kv", rowid) == row, f"seed {seed}"

    def test_recovery_equivalence_with_collapsed_chains(self, crash_seed,
                                                        tmp_path):
        """Recovery ignores version chains and still lands on the
        committed prefix; the recovered engine starts with zero live
        versions (chains collapse to a single committed image)."""
        plan = FaultPlan.random(crash_seed + 900_000)
        run = _run_snapshot_schedule(crash_seed + 900_000,
                                     str(tmp_path / "snapc.jsonl"), plan)
        if not run["crashed"]:
            run["snap"].commit()
            run["db"].close()
        # Ground truth from the surviving file, exactly as the engine
        # torture does it.
        records = WriteAheadLog.load_file(run["wal_path"])
        committed = committed_txn_ids(records)
        expected: dict[int, dict] = {}
        for txn_id in sorted(run["attempts"]):
            if txn_id not in committed:
                continue
            for op, rowid, row in run["attempts"][txn_id]:
                if op == "put":
                    expected[rowid] = row
                else:
                    expected.pop(rowid, None)
        recovered = recover_file(run["wal_path"])
        table = recovered.table("kv")
        got = {rowid: table.schema.row_dict(row)
               for rowid, row in table.committed_items()}
        assert got == expected, f"seed {run['seed']}"
        assert recovered.live_versions() == 0, (
            f"seed {run['seed']}: version chains survived recovery")
        # And the recovered engine serves fresh snapshots immediately.
        with recovered.snapshot() as post:
            assert {r.rowid: dict(r)
                    for r in post.query("kv").run()} == expected


# ---------------------------------------------------------------------------
# Collab-level torture: seeded typist interleavings
# ---------------------------------------------------------------------------

USERS = ("ana", "ben", "cleo")


def _build_party(wal_path: str, faults: FaultInjector):
    """Server + three sessions on one shared document (fixture phase)."""
    server = CollaborationServer(node="torture", wal_path=wal_path,
                                 faults=faults)
    for user in USERS:
        server.register_user(user)
    sessions = [server.connect(user) for user in USERS]
    handle = sessions[0].create_document("torture-doc",
                                         text="the quick brown fox. ")
    for session in sessions[1:]:
        session.open(handle.doc)
    return server, sessions, handle


def _run_typist_schedule(seed: int, wal_path: str, plan: FaultPlan,
                         n_steps: int = 40):
    """Drive one seeded multi-typist schedule; returns the evidence."""
    faults = FaultInjector(plan, armed=False)
    server, sessions, handle = _build_party(wal_path, faults)
    model = SharedText(handle.text())
    typists = [
        ModelTypist(session, handle.doc, seed=seed * 100 + i, model=model)
        for i, session in enumerate(sessions)
    ]
    sched = DeterministicScheduler(seed)
    for user, typist in zip(USERS, typists):
        sched.add_actor(user, typist.step)

    setup_committed = committed_txn_ids(WriteAheadLog.load_file(wal_path))
    faults.arm()                       # fixture built; open the blast radius
    crashed = False
    try:
        sched.run(n_steps)
    except CrashSignal:
        crashed = True
    return {
        "server": server, "sessions": sessions, "handle": handle,
        "model": model, "typists": typists, "sched": sched,
        "setup_committed": setup_committed, "crashed": crashed,
        "seed": seed, "wal_path": wal_path,
    }


def _recovered_text(run) -> tuple[str, "DocumentStore"]:
    recovered = recover_file(run["wal_path"])
    store = DocumentStore(recovered)
    clone = store.handle(run["handle"].doc)
    assert clone.check_integrity() == [], f"seed {run['seed']}"
    return clone.text(), store


class TestCollabCrashTorture:
    def test_typist_schedule_crash_and_recover(self, crash_seed, tmp_path):
        """Crash a seeded 3-typist interleaving; recovery must land on one
        of the two legal texts, and the surviving WAL says which."""
        plan = FaultPlan.random(crash_seed, with_delivery=True)
        run = _run_typist_schedule(crash_seed,
                                   str(tmp_path / "collab.jsonl"), plan)
        seed = crash_seed
        model = run["model"]
        ops_done = sum(t.ops_done for t in run["typists"])

        if not run["crashed"]:
            # Plan never triggered (e.g. a hit number past the schedule's
            # last commit): behave exactly like a healthy run.
            server = run["server"]
            server.delivery.drain()
            for session in run["sessions"]:
                assert session.handle(run["handle"].doc).text() == model.text, \
                    f"seed {seed}: replica diverged"
            # One editing operation == one transaction: the mapping the
            # crashed branch relies on to count in-flight commits.
            committed_now = committed_txn_ids(
                WriteAheadLog.load_file(run["wal_path"]))
            assert len(committed_now) - len(run["setup_committed"]) == ops_done
            server.db.close()
            text, __ = _recovered_text(run)
            assert text == model.text, f"seed {seed}"
            return

        # Crashed mid-step: exactly one typist has an op in flight.
        inflight = [t.pending for t in run["typists"] if t.pending is not None]
        assert len(inflight) == 1, f"seed {seed}: trace {run['sched'].trace}"
        file_committed = committed_txn_ids(
            WriteAheadLog.load_file(run["wal_path"]))
        n_new = len(file_committed - run["setup_committed"])
        text, __ = _recovered_text(run)
        if n_new == ops_done:
            # The in-flight op's COMMIT never became durable.
            assert text == model.text, (
                f"seed {seed}: recovered text != model without in-flight op "
                f"(crash at {run['server'].faults.crash_point_fired})"
            )
        elif n_new == ops_done + 1:
            # Crash after the commit point (e.g. txn.post_commit): the
            # in-flight op is durable and recovery must surface it.
            assert text == model.applied(inflight[0]), (
                f"seed {seed}: recovered text != model + in-flight op "
                f"(crash at {run['server'].faults.crash_point_fired})"
            )
        else:
            pytest.fail(
                f"seed {seed}: {n_new} new committed txns for {ops_done} "
                f"completed ops — the 1-op-1-txn invariant broke"
            )

    def test_delivery_faults_converge_after_drain(self, crash_seed, tmp_path):
        """No crashes — only held/reordered notifications.  After drain,
        inboxes are complete and every replica equals the model."""
        plan = FaultPlan.delivery_only(crash_seed)
        run = _run_typist_schedule(crash_seed,
                                   str(tmp_path / "delivery.jsonl"), plan,
                                   n_steps=30)
        assert not run["crashed"]
        server = run["server"]
        seed = crash_seed
        server.delivery.drain()
        assert server.delivery.pending == 0

        # Convergence: every replica, the shared model, a refreshed view,
        # and the recovered document all agree.
        doc = run["handle"].doc
        model_text = run["model"].text
        for session in run["sessions"]:
            handle = session.handle(doc)
            assert handle.text() == model_text, f"seed {seed}"
            handle.refresh()
            assert handle.text() == model_text, f"seed {seed} post-refresh"
        # Inboxes: drained delivery lost nothing — the union of received
        # sequence numbers covers every notification the server sent.
        received = set()
        for session in run["sessions"]:
            received.update(n.seq for n in session.inbox)
        sent = server.statistics()["notifications"]
        held = server.delivery.stats["held"]
        assert server.delivery.stats["delivered"] >= held
        assert len(received) > 0 and sent > 0
        server.db.close()
        text, __ = _recovered_text(run)
        assert text == model_text, f"seed {seed}"
