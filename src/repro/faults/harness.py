"""Torture harness: seeded crash schedules + the recovery-equivalence check.

The property under test ("recovery equivalence"): for *every* crash
schedule, the database recovered from the surviving WAL file equals the
state produced by applying exactly the transactions whose COMMIT record
survived on disk — the committed prefix — to an independent, trivially
correct model (a plain dict).  The model shares no code with the engine's
staging/replay machinery, so agreement is evidence, not tautology.

:func:`run_engine_schedule` drives one seeded schedule against a
file-backed :class:`~repro.db.engine.Database` with a
:class:`~repro.faults.plan.FaultPlan` derived from the same seed;
:func:`check_recovery_equivalence` recovers and compares.  Both are used
by ``tests/test_crash_torture.py`` and the recovery benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..db import Database, column, recover_file
from ..db.wal import WriteAheadLog, committed_txn_ids
from ..errors import LockTimeoutError
from .injector import FaultInjector
from .plan import CrashSignal, FaultPlan

#: The torture table: a unique string key and an integer payload.
TABLE = "kv"


@dataclass
class ScheduleOutcome:
    """What one seeded crash schedule did and what must survive it."""

    seed: int
    wal_path: str
    crashed: bool
    crash_point: str | None
    #: txn id -> ops attempted, each ("put", rowid, row) or ("del", rowid, None).
    attempts: dict[int, list] = field(default_factory=dict)
    #: Ground truth: rowid -> row for every txn committed *on disk*.
    expected_rows: dict[int, dict] = field(default_factory=dict)
    committed_txns: int = 0


def run_engine_schedule(
    seed: int,
    wal_path: str,
    *,
    n_txns: int = 30,
    max_ops_per_txn: int = 4,
    plan: FaultPlan | None = None,
) -> ScheduleOutcome:
    """Run one seeded, possibly-crashing workload against a fresh engine.

    The fault plan defaults to ``FaultPlan.random(seed)``; the workload
    RNG is derived from the same seed, so the whole schedule — every
    operation and the crash — reproduces from one integer.
    """
    plan = FaultPlan.random(seed) if plan is None else plan
    faults = FaultInjector(plan)
    db = Database("torture", wal_path=wal_path, faults=faults)
    rng = random.Random(seed * 7919 + 17)
    outcome = ScheduleOutcome(seed, wal_path, crashed=False, crash_point=None)
    live_rows: dict[int, dict] = {}   # committed state, for picking targets

    try:
        db.create_table(
            TABLE,
            [column("k", "str"), column("v", "int")],
            key="k",
        )
        for t in range(n_txns):
            txn = db.begin()
            ops: list = []
            outcome.attempts[txn.txn_id] = ops
            touched: set[int] = set()
            try:
                for j in range(rng.randint(1, max_ops_per_txn)):
                    candidates = [r for r in live_rows if r not in touched]
                    kind = rng.choices(
                        ("insert", "update", "delete"),
                        weights=(5, 3 if candidates else 0,
                                 2 if candidates else 0),
                    )[0]
                    if kind == "insert":
                        row = {"k": f"s{seed}-t{t}-o{j}",
                               "v": rng.randrange(1000)}
                        rowid = txn.insert(TABLE, row)
                        ops.append(("put", rowid, row))
                    elif kind == "update":
                        rowid = rng.choice(candidates)
                        row = dict(live_rows[rowid], v=rng.randrange(1000))
                        txn.update(TABLE, rowid, {"v": row["v"]})
                        ops.append(("put", rowid, row))
                    else:
                        rowid = rng.choice(candidates)
                        txn.delete(TABLE, rowid)
                        ops.append(("del", rowid, None))
                    touched.add(rowid)
                txn.commit()
            except LockTimeoutError:
                # An injected lock fault chose this txn as a casualty:
                # roll it back and carry on — recovery must then treat it
                # exactly like any other uncommitted transaction.
                if txn.is_active:
                    txn.abort()
                continue
            # commit() returned: the txn is durably on disk — fold it into
            # the committed model future ops pick their targets from.
            for op, rowid, row in ops:
                if op == "put":
                    live_rows[rowid] = row
                else:
                    live_rows.pop(rowid, None)
    except CrashSignal:
        outcome.crashed = True
        outcome.crash_point = faults.crash_point_fired
    else:
        db.close()

    # Ground truth from the *surviving* file: a txn counts as committed
    # iff its COMMIT record made it to disk (torn/unsynced tails did not).
    records = WriteAheadLog.load_file(wal_path)
    committed = committed_txn_ids(records)
    outcome.committed_txns = len(committed)
    for txn_id in sorted(outcome.attempts):    # single-threaded: id order
        if txn_id not in committed:
            continue
        for op, rowid, row in outcome.attempts[txn_id]:
            if op == "put":
                outcome.expected_rows[rowid] = row
            else:
                outcome.expected_rows.pop(rowid, None)
    return outcome


def recovered_rows(db: Database) -> dict[int, dict]:
    """The torture table's committed rows of a recovered engine."""
    if not db.has_table(TABLE):
        return {}
    table = db.table(TABLE)
    return {rowid: table.schema.row_dict(row)
            for rowid, row in table.committed_items()}


def check_recovery_equivalence(outcome: ScheduleOutcome) -> Database:
    """Recover the schedule's WAL file and assert equivalence.

    Returns the recovered database (so callers can pile on more checks).
    Assertion messages always carry the seed — the reproduction handle.
    """
    recovered = recover_file(outcome.wal_path)
    got = recovered_rows(recovered)
    assert got == outcome.expected_rows, (
        f"recovery-equivalence violated for seed {outcome.seed} "
        f"(crash_point={outcome.crash_point}, "
        f"committed={outcome.committed_txns}): recovered "
        f"{len(got)} rows != expected {len(outcome.expected_rows)}; "
        f"reproduce with run_engine_schedule({outcome.seed}, ...)"
    )
    return recovered


# ---------------------------------------------------------------------------
# Replicated schedules: leader torture + follower tailing + promotion
# ---------------------------------------------------------------------------

@dataclass
class ReplScheduleOutcome:
    """One replicated crash schedule: who died where, what must match."""

    seed: int
    leader: ScheduleOutcome
    follower_wal: str
    #: Follower deaths while tailing (CrashSignal from its fault plan);
    #: each one was followed by a restart-and-resume from its own file.
    follower_crashes: int = 0
    follower_crash_points: list = field(default_factory=list)
    promoted_lsn: int = 0


def run_replicated_schedule(
    seed: int,
    leader_wal: str,
    follower_wal: str,
    *,
    n_txns: int = 30,
    max_ops_per_txn: int = 4,
    leader_plan: FaultPlan | None = None,
    follower_plan: FaultPlan | None = None,
    max_follower_restarts: int = 10,
):
    """Torture a leader, tail its surviving WAL into a follower, promote.

    The leader runs :func:`run_engine_schedule` under its (seed-derived)
    crash plan — covering death mid-group-commit, torn records, power
    loss.  A follower with its *own* seed-derived plan (over
    :data:`~repro.faults.plan.REPL_CRASH_POINTS`) then tails the
    leader's surviving file — exactly the prefix leader recovery reads.
    Every follower death is answered by a restart over the follower's
    own mirror (resume-from-last-applied-LSN) with the same injector, so
    hit counters carry across restarts and the schedule stays
    deterministic.  When the stream is drained the follower is promoted.

    Returns ``(outcome, promoted)`` where ``promoted`` is the follower's
    now-writable :class:`~repro.db.engine.Database` (caller closes it).
    """
    from ..repl import FollowerEngine, WalTailer
    from .plan import REPL_CRASH_POINTS

    leader = run_engine_schedule(
        seed, leader_wal, n_txns=n_txns,
        max_ops_per_txn=max_ops_per_txn, plan=leader_plan)
    if follower_plan is None:
        follower_plan = FaultPlan.random(seed * 31 + 7,
                                         points=REPL_CRASH_POINTS)
    faults = FaultInjector(follower_plan)
    outcome = ReplScheduleOutcome(seed, leader, follower_wal)
    follower = FollowerEngine(follower_wal, node="torture-replica",
                              faults=faults)
    for _ in range(max_follower_restarts + 1):
        try:
            WalTailer(leader_wal, follower).poll()
            break
        except CrashSignal:
            outcome.follower_crashes += 1
            outcome.follower_crash_points.append(faults.crash_point_fired)
            # Restart over the follower's own (possibly torn) mirror;
            # the injector's hit counters persist, so the fired crash
            # does not re-fire on the re-applied suffix.
            follower = FollowerEngine(follower_wal,
                                      node="torture-replica",
                                      faults=faults)
    else:  # pragma: no cover - a runaway plan, not a real schedule
        raise AssertionError(
            f"seed {seed}: follower still crashing after "
            f"{max_follower_restarts} restarts")
    promoted = follower.promote()
    outcome.promoted_lsn = follower.applied_lsn
    return outcome, promoted


def check_promotion_equivalence(outcome: ReplScheduleOutcome,
                                promoted: Database) -> None:
    """Promoted-follower state must equal a freshly recovered leader.

    The acceptance property of WAL shipping: across any seeded crash
    schedule (leader and follower plans combined), the database a
    promoted follower serves equals the one leader recovery would have
    rebuilt — before *and* after collapsing the follower's MVCC version
    chains, so the equivalence is about durable state, not about how
    many historical versions each side happens to carry.
    """
    recovered = check_recovery_equivalence(outcome.leader)
    try:
        detail = (
            f"seed {outcome.seed} (leader crash_point="
            f"{outcome.leader.crash_point}, follower crashes="
            f"{outcome.follower_crashes} at "
            f"{outcome.follower_crash_points}, promoted_lsn="
            f"{outcome.promoted_lsn}); reproduce with "
            f"run_replicated_schedule({outcome.seed}, ...)")
        got = recovered_rows(promoted)
        assert got == outcome.leader.expected_rows, (
            f"promotion-equivalence violated for {detail}: promoted "
            f"follower has {len(got)} rows != expected "
            f"{len(outcome.leader.expected_rows)}")
        promoted.gc_versions()
        collapsed = recovered_rows(promoted)
        assert collapsed == outcome.leader.expected_rows, (
            f"promotion-equivalence violated after version-chain GC "
            f"for {detail}")
        assert promoted.wal.last_lsn() >= recovered.wal.last_lsn(), (
            f"promoted follower's log ends before the recovered "
            f"leader's for {detail}")
    finally:
        recovered.close()
