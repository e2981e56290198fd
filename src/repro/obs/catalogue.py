"""The metric catalogue: every name the engine may emit, with meaning.

The catalogue is a contract in both directions: instrumented code must
only emit names listed here (the bench snapshot validator rejects
unknown names, so adding a metric forces a catalogue + docs update), and
renaming or dropping a name here fails the smoke-bench's regression
check.  ``docs/OBSERVABILITY.md`` is the human-readable mirror.
"""

from __future__ import annotations

from .labels import split_labelled

#: name -> (kind, description).  Kind is "counter" | "gauge" | "histogram".
METRIC_CATALOGUE: dict[str, tuple[str, str]] = {
    # -- transactions (repro/db/transaction.py) -----------------------------
    "txn.committed": ("counter", "transactions committed"),
    "txn.aborted": ("counter", "transactions rolled back"),
    "txn.crashed": ("counter",
                    "transactions ended by an injected CrashSignal"),
    "txn.active": ("gauge", "transactions currently in flight"),
    "txn.duration_seconds": ("histogram",
                             "begin-to-end transaction lifetime; its "
                             "count plus txn.active is the number of "
                             "transactions started"),
    "txn.commit_seconds": ("histogram",
                           "commit call latency (log + apply + publish)"),
    "txn.ops": ("histogram", "distinct rows staged per transaction"),
    "txn.batched_ops": ("histogram",
                        "editing operations coalesced into one batched "
                        "transaction (Database.batch)"),
    "txn.snapshot_reads": ("counter",
                           "version-chain reads by snapshot (read-only) "
                           "transactions — point reads and query "
                           "executions; always lock-free"),
    "txn.versions_live": ("gauge",
                          "superseded row versions retained for open "
                          "snapshots (version-chain entries)"),
    "txn.version_gc_truncated": ("counter",
                                 "row versions dropped by version-chain "
                                 "GC below the snapshot watermark"),
    # -- write-ahead log (repro/db/wal.py) ----------------------------------
    "wal.appends": ("counter", "WAL records appended"),
    "wal.append_seconds": ("histogram", "WAL append latency"),
    "wal.appended_bytes": ("counter",
                           "bytes written to the mirrored WAL file"),
    "wal.fsyncs": ("counter", "physical commit-boundary fsyncs"),
    "wal.fsync_seconds": ("histogram", "flush+fsync latency"),
    "wal.group_commit_size": ("histogram",
                              "commits made durable per fsync (group "
                              "commit barrier)"),
    "wal.sync_wait_seconds": ("histogram",
                              "time a committer waited at the group-commit "
                              "barrier for its durable-LSN ack"),
    "wal.torn_tail_recoveries": ("counter",
                                 "recoveries that skipped a torn trailing "
                                 "record"),
    "wal.missing_base_rows": ("counter",
                              "redo stopped at an UPDATE whose base row "
                              "the replayed history does not contain "
                              "(replica apply, feed catch-up; recovery "
                              "just fails)"),
    # -- lock manager (repro/db/locks.py) -----------------------------------
    "lock.acquired": ("counter", "lock grants (including upgrades)"),
    "lock.waits": ("counter", "acquires that had to wait"),
    "lock.wait_seconds": ("histogram",
                          "time spent waiting for contended locks"),
    "lock.timeouts": ("counter", "lock waits that timed out"),
    "lock.deadlocks": ("counter", "deadlock victims"),
    "lock.injected": ("counter", "faults injected into lock acquires"),
    # -- engine (repro/db/engine.py) ----------------------------------------
    "db.checkpoints": ("counter", "checkpoints written"),
    "db.checkpoint_seconds": ("histogram", "checkpoint snapshot duration"),
    # -- document order cache (repro/text/document.py) ----------------------
    "doc.cache_splice_seconds": (
        "histogram",
        "order-cache splice latency per commit that changed the visible "
        "sequence (its inserts/deletes/undeletes applied, run by run, to "
        "an open handle's view)"),
    "doc.cache_lookup_seconds": (
        "histogram",
        "order-cache positional lookup latency (char_oid_at, "
        "position_of, range resolution)"),
    "doc.full_scans": (
        "counter",
        "full chain traversals to (re)build a handle's order cache — "
        "expected only on open and refresh(), never on text()/keystrokes"),
    # -- collaboration (repro/collab) ---------------------------------------
    "collab.op_seconds": ("histogram",
                          "operation dispatch latency (verb to commit "
                          "fan-out); its count is the number of editing "
                          "operations dispatched"),
    "collab.notifications": ("counter", "change notifications produced"),
    "collab.deliveries": ("counter", "notifications delivered to inboxes"),
    "collab.held": ("counter", "notifications held back by the fault plan"),
    "collab.drains": ("counter", "delivery backlog drains"),
    "collab.queue_depth": ("gauge", "notifications held, awaiting drain"),
    "collab.sessions": ("gauge", "connected editing sessions"),
    "collab.replication_seconds": (
        "histogram",
        "end-to-end replication latency: editor keystroke start to the "
        "notification landing in each remote replica's inbox (the paper's "
        "real-time number; held delivery counts its backlog time)"),
    "collab.held_seconds": (
        "histogram",
        "time held notifications spent in the delivery-bus backlog "
        "before drain released them"),
    # -- network server (repro/net/server.py) -------------------------------
    "net.connections": ("gauge", "TCP connections currently authenticated"),
    "net.connects": ("counter", "handshakes accepted since server start"),
    "net.frames_in": ("counter", "wire frames received from clients"),
    "net.frames_out": ("counter", "wire frames written to clients"),
    "net.bytes_in": ("counter", "payload bytes received from clients"),
    "net.bytes_out": ("counter", "payload bytes written to clients"),
    "net.ops": ("counter", "RPC operations served (OP envelopes)"),
    "net.op_seconds": ("histogram",
                       "server-side OP service time (decode to ACK "
                       "enqueue, durable LSN included)"),
    "net.notifies": ("counter",
                     "NOTIFY envelopes enqueued for fan-out (before any "
                     "socket fault)"),
    "net.protocol_errors": ("counter",
                            "connections closed for wire-protocol "
                            "violations"),
    "net.backpressure_closes": ("counter",
                                "slow consumers shed by send-queue "
                                "overflow"),
    "net.frames_dropped": ("counter",
                           "faultable frames lost to the injected net "
                           "fault plan"),
    "net.frames_delayed": ("counter",
                           "faultable frames delayed in band by the "
                           "injected net fault plan"),
    "net.resyncs": ("counter",
                    "anti-entropy snapshot fetches served (client mirror "
                    "detected a sequence gap)"),
    "net.missing_base_rows": ("counter",
                              "resyncs a client asked for because a row "
                              "patch found no row to merge into (its "
                              "mirror missed the row's history)"),
    "net.send_queue_depth": ("gauge",
                             "per-connection send-queue depth at last "
                             "enqueue (labelled by conn)"),
    "net.scrapes": ("counter",
                    "STATS/HEALTH telemetry scrapes served over the wire"),
    # -- replication (repro/repl, repro/net/replica.py) ---------------------
    "repl.apply_lag_lsn": ("gauge",
                           "leader durable LSN minus the follower's "
                           "applied LSN (0 = caught up)"),
    "repl.apply_lag_seconds": ("histogram",
                               "leader send stamp to follower apply "
                               "completion, per shipped segment"),
    "repl.segments_shipped": ("counter",
                              "non-empty WAL_SEGMENT frames served to "
                              "subscribed followers (leader side)"),
    "repl.records_applied": ("counter",
                             "shipped WAL records applied by the "
                             "follower (duplicates excluded)"),
    "repl.promotions": ("counter",
                        "follower promotions to writable leader"),
    # -- changefeed (repro/feed) --------------------------------------------
    "feed.events": ("counter", "row-change events carried by those batches"),
    "feed.dispatch_seconds": ("histogram",
                              "per-batch fan-out latency across all "
                              "subscribed consumers; its count is the "
                              "number of commit batches published, i.e. "
                              "the feed head's sequence number"),
    "feed.consumer_errors": ("counter",
                             "consumer handler exceptions isolated by the "
                             "feed (the batch still counts as delivered)"),
    "feed.checkpoints": ("counter",
                         "consumer cursors durably checkpointed to "
                         "tx_feed_cursors"),
    "feed.catchup_batches": ("counter",
                             "batches replayed to consumers from the WAL "
                             "after a restart (cursor catch-up)"),
    "feed.retention_evictions": ("counter",
                                 "batches dropped from the in-memory "
                                 "retention window"),
    "feed.staleness_seconds": ("histogram",
                               "commit-to-ack age of each batch when a "
                               "deferred consumer absorbed it (derived-"
                               "data staleness, the paper's 'within "
                               "seconds'; sync consumers ack inside the "
                               "dispatch that feed.dispatch_seconds times)"),
    "feed.lag": ("gauge",
                 "batches published but not yet acked, per consumer "
                 "(labelled by consumer; 0 = fully fresh)"),
    "feed.worker_runs": ("counter",
                         "background maintenance-worker ticks executed"),
    "feed.worker_seconds": ("histogram",
                            "maintenance-worker tick duration"),
    # -- search (repro/search/engine.py) ------------------------------------
    "search.queries": ("counter", "content/metadata searches run"),
    "search.query_seconds": ("histogram", "end-to-end search latency"),
    "search.index_hits": ("counter",
                          "candidate documents produced by the inverted "
                          "index"),
    "search.structure_queries": ("counter", "structure searches run"),
    # -- tracing (repro/obs/tracing.py, repro/obs/export.py) ----------------
    "trace.active_spans": ("gauge", "spans started but not yet ended"),
    "trace.spans_started": ("counter", "spans handed out by the tracer"),
    "trace.slow_ops": ("counter",
                       "traces whose end-to-end extent exceeded the "
                       "slow-op threshold"),
    # -- observability self-metrics (repro/obs/labels.py, slo.py) -----------
    "obs.label_evictions": ("counter",
                            "labelled series evicted by a family's LRU "
                            "cardinality cap"),
    "obs.samples": ("counter",
                    "registry samples taken into the telemetry rings"),
    # -- interpreter runtime (repro/obs/runtime.py) -------------------------
    "runtime.gc_pause_seconds": ("histogram",
                                 "stop-the-world time of one cyclic-GC "
                                 "collection (labelled by generation)"),
    "runtime.gc_collections": ("counter",
                               "cyclic-GC collections run (labelled by "
                               "generation)"),
    "slo.burn_rate": ("gauge",
                      "error-budget burn rate per SLO spec and window "
                      "(labelled by slo, window)"),
    "slo.error_rate": ("gauge",
                       "bad-event fraction per SLO over its slow window "
                       "(labelled by slo)"),
    "slo.breached": ("gauge",
                     "1 when both burn windows exceed the spec threshold "
                     "(labelled by slo)"),
}

#: Families that may fan out into labelled children, with the label keys
#: each is allowed to carry.  A labelled series whose base name is not
#: listed here — or that uses a key outside its allowance — is rejected
#: by :func:`unknown_names` just like an uncatalogued plain name.
LABELLED_FAMILIES: dict[str, tuple[str, ...]] = {
    "collab.op_seconds": ("verb",),
    "collab.notifications": ("doc",),
    "net.op_seconds": ("verb",),
    "net.notifies": ("doc",),
    "net.send_queue_depth": ("conn",),
    "wal.group_commit_size": ("role",),
    "feed.lag": ("consumer",),
    "runtime.gc_pause_seconds": ("generation",),
    "runtime.gc_collections": ("generation",),
    "slo.burn_rate": ("slo", "window"),
    "slo.error_rate": ("slo",),
    "slo.breached": ("slo",),
}

#: Core names every instrumented engine run must produce; the smoke
#: bench fails if any is missing from a BENCH_obs.json union.
REQUIRED_METRICS: frozenset[str] = frozenset({
    "txn.committed",
    "txn.commit_seconds",
    "txn.duration_seconds",
    "wal.appends",
    "wal.append_seconds",
    "lock.acquired",
    # The paper's headline number: the bench trajectory must always
    # carry keystroke→remote-visibility latency (emitted by any bench
    # with >= 2 editors on one document).
    "collab.replication_seconds",
})


def unknown_names(names) -> list[str]:
    """Names not in the catalogue (a regression or a missing entry).

    Labelled series validate against their base family: the base must be
    catalogued *and* listed in :data:`LABELLED_FAMILIES`, and every label
    key must be in the family's allowance.
    """
    bad = set()
    for name in set(names):
        base, labels = split_labelled(name)
        if base not in METRIC_CATALOGUE:
            bad.add(name)
        elif labels is not None:
            allowed = LABELLED_FAMILIES.get(base)
            if allowed is None or set(labels) - set(allowed):
                bad.add(name)
    return sorted(bad)


def missing_required(names) -> list[str]:
    """Required core names absent from ``names``."""
    return sorted(REQUIRED_METRICS - set(names))
