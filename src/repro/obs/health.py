"""Health verdict over the live telemetry.

:func:`evaluate_health` folds a registry snapshot (and, when available,
the windowed rates of a :class:`~repro.obs.timeseries.TelemetryStore`)
into a single ``ok`` / ``degraded`` / ``unhealthy`` verdict with
per-check detail — the payload behind the ``HEALTH`` wire verb and the
``repro dash`` status line.

Checks prefer *windowed* rates over cumulative counters so the verdict
recovers once a fault clears: a burst of dropped frames degrades the
server only while drops still fall inside the trailing window.  Without
a store (point-in-time snapshot only) the cumulative fallbacks are
conservative and sticky — documented, and only used by offline tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

OK = "ok"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_RANK = {OK: 0, DEGRADED: 1, UNHEALTHY: 2}


@dataclass(frozen=True)
class HealthThresholds:
    """Tunable limits for :func:`evaluate_health`."""

    #: WAL fsync p99 (seconds) over the window: stall / dead limits.
    fsync_stall_p99: float = 0.25
    fsync_dead_p99: float = 1.0
    #: Send-queue occupancy fraction that counts as saturation.
    queue_ratio: float = 0.8
    #: Live superseded versions awaiting GC: backlog / dead limits.
    gc_backlog: int = 50_000
    gc_backlog_dead: int = 500_000
    #: Accepted handshakes per minute that count as connection churn.
    churn_per_minute: float = 120.0
    #: Injected-fault events per second tolerated before degrading.
    fault_rate: float = 0.0
    #: Follower apply lag in LSNs: degraded / dead limits (the check
    #: only runs when the node exposes ``repl.apply_lag_lsn``, so
    #: leaders are unaffected).
    repl_lag_lsn: int = 10_000
    repl_lag_lsn_dead: int = 100_000
    #: Follower apply lag p99 (seconds) over the window that degrades.
    repl_lag_p99: float = 1.0
    #: Changefeed consumer lag in batches: degraded / dead limits (the
    #: check only runs when the node exposes ``feed.lag`` series, so
    #: engines without derived-data consumers are unaffected).
    feed_lag: int = 64
    feed_lag_dead: int = 4096
    #: Trailing window (seconds) for all rate/quantile checks.
    window: float = 60.0


DEFAULT_THRESHOLDS = HealthThresholds()

#: A full (generation-2) collector pause longer than this, in seconds,
#: degrades the verdict: every thread stops for it, so it is an editor
#: freeze — longer than the 100 ms a keystroke may take to feel instant.
GC_PAUSE_DEGRADED = 0.1


def _value(snapshot: Mapping[str, dict], name: str, default=0):
    entry = snapshot.get(name)
    if entry is None:
        return default
    return entry.get("value", default)


def _windowed_rate(store, snapshot, name: str, window: float) -> float:
    """Events/second over the window; cumulative>0 counts as 1.0/s stand-in
    when no store is available (sticky, documented)."""
    if store is not None:
        rate = store.rate(name, window)
        return rate if rate is not None else 0.0
    return 1.0 if _value(snapshot, name) else 0.0


def _windowed_count(store, name: str, window: float) -> float:
    """Counter delta over the window (0.0 without a store).

    Unlike :func:`_windowed_rate` this never extrapolates: dividing the
    count by the *configured* window means a freshly started server
    with two seconds of history cannot alarm on a rate it has not
    actually sustained.
    """
    if store is None:
        return 0.0
    agg = store.window(name, window)
    if agg is None:
        return 0.0
    return float(agg.get("delta") or 0.0)


def _windowed_p99(store, snapshot, name: str, window: float):
    if store is not None:
        agg = store.window(name, window)
        if agg is not None and agg.get("p99") is not None:
            return agg["p99"]
        if agg is not None:
            return None
    entry = snapshot.get(name)
    if entry is not None:
        return entry.get("p99")
    return None


def evaluate_health(snapshot: Mapping[str, dict], store=None, *,
                    thresholds: HealthThresholds = DEFAULT_THRESHOLDS,
                    context: Mapping | None = None) -> dict:
    """Fold metrics into ``{"status": ..., "checks": [...]}``."""
    t = thresholds
    ctx = dict(context or {})
    checks: list[dict] = []

    def add(check: str, status: str, value, detail: str) -> None:
        checks.append({"check": check, "status": status,
                       "value": value, "detail": detail})

    # WAL fsync stall: durable keystrokes stop being real-time.
    p99 = _windowed_p99(store, snapshot, "wal.fsync_seconds", t.window)
    if p99 is None:
        add("wal.fsync_stall", OK, None, "no fsyncs in window")
    elif p99 > t.fsync_dead_p99:
        add("wal.fsync_stall", UNHEALTHY, p99,
            f"fsync p99 {p99:.3f}s > {t.fsync_dead_p99:.2f}s")
    elif p99 > t.fsync_stall_p99:
        add("wal.fsync_stall", DEGRADED, p99,
            f"fsync p99 {p99:.3f}s > {t.fsync_stall_p99:.2f}s")
    else:
        add("wal.fsync_stall", OK, p99, f"fsync p99 {p99:.6f}s")

    # Send-queue saturation: sheds are unhealthy, high occupancy degrades.
    shed_rate = _windowed_rate(store, snapshot, "net.backpressure_closes",
                               t.window)
    limit = int(ctx.get("send_queue_limit", 0))
    depth = 0.0
    for name, entry in snapshot.items():
        if name.startswith("net.send_queue_depth"):
            depth = max(depth, entry.get("value", 0.0))
    if shed_rate > 0:
        add("net.send_queue", UNHEALTHY, shed_rate,
            f"shedding slow consumers ({shed_rate:.2f}/s)")
    elif limit and depth >= t.queue_ratio * limit:
        add("net.send_queue", DEGRADED, depth,
            f"queue depth {depth:.0f} of {limit} "
            f"(>= {t.queue_ratio:.0%})")
    else:
        add("net.send_queue", OK, depth, f"max queue depth {depth:.0f}")

    # GC backlog: version chains growing faster than the sweeper.
    live = _value(snapshot, "txn.versions_live", 0)
    if live > t.gc_backlog_dead:
        add("gc.backlog", UNHEALTHY, live,
            f"{live:.0f} live versions > {t.gc_backlog_dead}")
    elif live > t.gc_backlog:
        add("gc.backlog", DEGRADED, live,
            f"{live:.0f} live versions > {t.gc_backlog}")
    else:
        add("gc.backlog", OK, live, f"{live:.0f} live versions")

    # Connection churn: reconnect storms.  Counted over the configured
    # window (not the observed span) so short uptimes don't extrapolate
    # a handful of handshakes into a storm.
    churn = _windowed_count(store, "net.connects",
                            t.window) * (60.0 / t.window)
    if churn > t.churn_per_minute:
        add("net.churn", DEGRADED, churn,
            f"{churn:.0f} handshakes/min > {t.churn_per_minute:.0f}")
    else:
        add("net.churn", OK, churn, f"{churn:.1f} handshakes/min")

    # Replica apply lag: only meaningful on a node that follows a
    # leader (the gauge exists iff a FollowerEngine runs here).
    if "repl.apply_lag_lsn" in snapshot:
        lag = _value(snapshot, "repl.apply_lag_lsn", 0)
        lag_p99 = _windowed_p99(store, snapshot, "repl.apply_lag_seconds",
                                t.window)
        if lag > t.repl_lag_lsn_dead:
            add("repl.lag", UNHEALTHY, lag,
                f"apply lag {lag:.0f} LSNs > {t.repl_lag_lsn_dead}")
        elif lag > t.repl_lag_lsn:
            add("repl.lag", DEGRADED, lag,
                f"apply lag {lag:.0f} LSNs > {t.repl_lag_lsn}")
        elif lag_p99 is not None and lag_p99 > t.repl_lag_p99:
            add("repl.lag", DEGRADED, lag_p99,
                f"apply lag p99 {lag_p99:.3f}s > {t.repl_lag_p99:.2f}s")
        else:
            add("repl.lag", OK, lag, f"apply lag {lag:.0f} LSNs")

    # Derived-data staleness: changefeed consumers falling behind the
    # commit stream (stale search results / folder listings).  Only
    # meaningful where consumers exist — the gauge family is labelled
    # per consumer; the worst one decides.
    feed_series = {name: entry for name, entry in snapshot.items()
                   if name.startswith("feed.lag")}
    if feed_series:
        worst_name, worst = max(
            feed_series.items(), key=lambda kv: kv[1].get("value", 0.0))
        lag = worst.get("value", 0.0)
        who = worst_name[len("feed.lag"):] or "{}"
        if lag > t.feed_lag_dead:
            add("feed.lag", UNHEALTHY, lag,
                f"consumer {who} lags {lag:.0f} batches "
                f"> {t.feed_lag_dead}")
        elif lag > t.feed_lag:
            add("feed.lag", DEGRADED, lag,
                f"consumer {who} lags {lag:.0f} batches > {t.feed_lag}")
        else:
            add("feed.lag", OK, lag, f"max consumer lag {lag:.0f} batches")

    # Failing feed consumers: a handler raised, so some derived state
    # or some editor missed a commit.  The commit itself is unharmed
    # (the feed isolates its consumers); degraded while failures still
    # fall inside the window, like ``net.faults``.
    if "feed.consumer_errors" in snapshot:
        failures = _windowed_rate(store, snapshot, "feed.consumer_errors",
                                  t.window)
        if failures > 0:
            add("feed.consumers", DEGRADED, failures,
                f"{failures:.2f} consumer failures per second")
        else:
            add("feed.consumers", OK, failures,
                "no consumer failures in window")

    # Collector pauses: a full collection walks the whole live heap
    # with every thread stopped, and no layer's latency metric sees it.
    full = "runtime.gc_pause_seconds{generation=2}"
    if full in snapshot:
        pause = _windowed_p99(store, snapshot, full, t.window)
        if store is None:
            pause = snapshot[full].get("max")
        if pause is None:
            add("gc.pause", OK, None, "no full collection in window")
        elif pause > GC_PAUSE_DEGRADED:
            add("gc.pause", DEGRADED, pause,
                f"full collection paused {pause * 1e3:.0f} ms "
                f"> {GC_PAUSE_DEGRADED * 1e3:.0f} ms")
        else:
            add("gc.pause", OK, pause,
                f"full collections pause {pause * 1e3:.1f} ms")

    # Injected / observed socket faults.
    fault_rate = (
        _windowed_rate(store, snapshot, "net.frames_dropped", t.window)
        + _windowed_rate(store, snapshot, "net.frames_delayed", t.window))
    if fault_rate > t.fault_rate:
        add("net.faults", DEGRADED, fault_rate,
            f"{fault_rate:.2f} dropped/delayed frames per second")
    else:
        add("net.faults", OK, fault_rate, "no socket faults in window")

    status = OK
    for check in checks:
        if _RANK[check["status"]] > _RANK[status]:
            status = check["status"]
    return {"status": status, "checks": checks}
