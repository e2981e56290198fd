"""Dynamic folders: metadata-defined virtual folders with live refresh.

§3: "Dynamic folders are virtual folders that are based on meta data.  A
dynamic folder can contain all documents a certain user has read within
the last week.  Its content is fluent and may change within seconds (e.g.
as soon as a document changes)."

A folder is a :class:`Condition` over document metadata.  The manager
keeps folder membership up to date *event-driven*: a changefeed
subscription over the document table, the access log and the character
table re-evaluates exactly the affected documents — delete events carry
before-images, so purged documents drop out of membership too.
Membership reflects an edit in the same commit that made it —
the "within seconds" of the paper becomes "within the same transaction
boundary".  A full :meth:`DynamicFolder.revalidate` pass exists for
time-window decay (a document leaving "read within the last week" purely
because time passed) and is what the re-query baseline in the benchmarks
does on every read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..db import Database, RowView, col
from ..errors import FolderError
from ..ids import Oid
from ..text import dbschema as S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..feed.changefeed import CommitBatch


# ---------------------------------------------------------------------------
# Condition DSL
# ---------------------------------------------------------------------------

class Condition:
    """A predicate over a document's metadata; composable with ``& | ~``."""

    def matches(self, ctx: "FolderContext", doc: Oid) -> bool:
        """Does document ``doc`` satisfy this condition now?"""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return AllOf((self, other))

    def __or__(self, other: "Condition") -> "Condition":
        return AnyOf((self, other))

    def __invert__(self) -> "Condition":
        return NotCond(self)


@dataclass(frozen=True)
class AllOf(Condition):
    parts: tuple

    def matches(self, ctx, doc):
        """True when every part matches."""
        return all(p.matches(ctx, doc) for p in self.parts)


@dataclass(frozen=True)
class AnyOf(Condition):
    parts: tuple

    def matches(self, ctx, doc):
        """True when any part matches."""
        return any(p.matches(ctx, doc) for p in self.parts)


@dataclass(frozen=True)
class NotCond(Condition):
    part: Condition

    def matches(self, ctx, doc):
        """Invert the wrapped condition."""
        return not self.part.matches(ctx, doc)


@dataclass(frozen=True)
class CreatorIs(Condition):
    user: str

    def matches(self, ctx, doc):
        """Document was created by the given user."""
        row = ctx.doc_row(doc)
        return row is not None and row["creator"] == self.user


@dataclass(frozen=True)
class StateIs(Condition):
    state: str

    def matches(self, ctx, doc):
        """Document is in the given lifecycle state."""
        row = ctx.doc_row(doc)
        return row is not None and row["state"] == self.state


@dataclass(frozen=True)
class NameContains(Condition):
    needle: str

    def matches(self, ctx, doc):
        """Document name contains the needle (case-insensitive)."""
        row = ctx.doc_row(doc)
        return (row is not None
                and self.needle.lower() in row["name"].lower())


@dataclass(frozen=True)
class SizeAtLeast(Condition):
    size: int

    def matches(self, ctx, doc):
        """Document has at least ``size`` visible characters."""
        row = ctx.doc_row(doc)
        return row is not None and row["size"] >= self.size


@dataclass(frozen=True)
class HasProperty(Condition):
    key: str
    value: object = None

    def matches(self, ctx, doc):
        """Document carries the property (optionally a value)."""
        row = ctx.doc_row(doc)
        if row is None:
            return False
        props = row["props"] or {}
        if self.key not in props:
            return False
        return self.value is None or props[self.key] == self.value


@dataclass(frozen=True)
class AccessedBy(Condition):
    """User performed ``action`` on the document within ``within`` seconds.

    ``within=None`` means "ever".  This is the paper's example condition
    ("all documents a certain user has read within the last week").
    ``write`` entries are logged once per ``ACCESS_LOG_RESOLUTION``, so
    their window reaches that much further back: a document still being
    written is never missed.
    """

    user: str
    action: str = "read"
    within: float | None = None

    def matches(self, ctx, doc):
        """User performed the action on the document (within a window)."""
        since = None if self.within is None else ctx.now() - self.within
        if since is not None and self.action == "write":
            since -= S.ACCESS_LOG_RESOLUTION
        query = ctx.query(S.ACCESS_LOG).where(
            (col("doc") == doc) & (col("user") == self.user)
            & (col("action") == self.action))
        if since is not None:
            query = query.where(col("at") >= since)
        return query.count() > 0


@dataclass(frozen=True)
class ModifiedWithin(Condition):
    seconds: float

    def matches(self, ctx, doc):
        """Document was modified within the last ``seconds``."""
        row = ctx.doc_row(doc)
        return (row is not None
                and row["last_modified"] >= ctx.now() - self.seconds)


@dataclass(frozen=True)
class AuthoredBy(Condition):
    """User wrote at least ``min_chars`` still-visible characters."""

    user: str
    min_chars: int = 1

    def matches(self, ctx, doc):
        """User wrote at least ``min_chars`` visible characters."""
        rows = ctx.query(S.CHARS).where(
            (col("doc") == doc) & (col("author") == self.user)).run()
        visible = sum(1 for r in rows if r["ch"] and not r["deleted"])
        return visible >= self.min_chars


# ---------------------------------------------------------------------------
# Evaluation context and folders
# ---------------------------------------------------------------------------

class FolderContext:
    """Metadata lookups shared by condition evaluation.

    Normally reads committed state directly; :meth:`with_reader` binds a
    copy to a transaction (a snapshot for full rescans), so every
    condition a pass evaluates sees one commit point, and
    :meth:`for_batch` gives one commit batch a copy that reads each
    document's row once for every folder.
    """

    def __init__(self, db: Database, reader=None) -> None:
        self.db = db
        self._reader = reader if reader is not None else db
        #: doc -> its row (or ``None``) as first read, in a
        #: :meth:`for_batch` context; ``None`` reads every time.
        self._rows: dict[Oid, RowView | None] | None = None

    def query(self, table_name: str):
        """Start a query through the bound reader (or the database)."""
        return self._reader.query(table_name)

    def with_reader(self, txn) -> "FolderContext":
        """A context whose lookups run inside ``txn``."""
        return FolderContext(self.db, reader=txn)

    def for_batch(self) -> "FolderContext":
        """A context for one commit batch: each document's row is read
        once, however many folders re-evaluate it."""
        ctx = FolderContext(self.db, reader=self._reader)
        ctx._rows = {}
        return ctx

    def doc_row(self, doc: Oid) -> RowView | None:
        """The document's metadata row (read-only), or ``None``."""
        rows = self._rows
        if rows is None:
            return self._reader.find(S.DOCUMENTS, "doc", doc)
        if doc not in rows:
            rows[doc] = self._reader.find(S.DOCUMENTS, "doc", doc)
        return rows[doc]

    def now(self) -> float:
        """Current time from the database clock."""
        return self.db.now()

    def all_docs(self) -> list[Oid]:
        """OIDs of every document in the database."""
        return [r["doc"] for r in
                self.query(S.DOCUMENTS).select("doc").run()]


class DynamicFolder:
    """One virtual folder: a name, a condition, and a live member set."""

    def __init__(self, name: str, condition: Condition,
                 ctx: FolderContext) -> None:
        self.name = name
        self.condition = condition
        self._ctx = ctx
        self._members: set[Oid] = set()
        #: Members kept in sorted order incrementally (bisect insert /
        #: remove on membership change), so listings never re-sort.
        self._ordered: list[Oid] = []
        #: doc -> LSN of a commit re-evaluated while a rescan could still
        #: be pinned below it (see :meth:`revalidate`).
        self._touched: dict[Oid, int] = {}
        self.stats = {"evaluations": 0, "full_scans": 0}
        self.revalidate()

    def contents(self, limit: int | None = None) -> list[Oid]:
        """Current members in sorted order (event-fresh).

        ``limit`` returns just the first page — O(limit), independent
        of folder size; without it the full copy is O(members).
        """
        if limit is not None:
            return self._ordered[:limit]
        return list(self._ordered)

    def __contains__(self, doc: Oid) -> bool:
        return doc in self._members

    def __len__(self) -> int:
        return len(self._members)

    def reevaluate_doc(self, doc: Oid, lsn: int | None,
                       ctx: FolderContext) -> bool:
        """Re-check one document for the commit at ``lsn`` (``None``
        when no rescan can be pinned below it), reading through the
        batch's ``ctx``; returns True if membership changed."""
        self.stats["evaluations"] += 1
        if lsn is not None:
            self._touched[doc] = lsn
        matches = self.condition.matches(ctx, doc)
        if matches and doc not in self._members:
            self._members.add(doc)
            insort(self._ordered, doc)
            return True
        if not matches and doc in self._members:
            self._members.discard(doc)
            pos = bisect_left(self._ordered, doc)
            if pos < len(self._ordered) and self._ordered[pos] == doc:
                del self._ordered[pos]
            return True
        return False

    def revalidate(self) -> None:
        """Full rescan (used for time-decay and by the re-query baseline).

        Runs inside one snapshot transaction: membership of every
        document is decided against the same commit point, and the scan
        never contends with typists for locks.  A document the feed
        consumer re-evaluated for a commit above that point keeps its
        live decision.
        """
        self.stats["full_scans"] += 1
        with self._ctx.db.snapshot() as snap:
            ctx = self._ctx.with_reader(snap)
            docs = ctx.all_docs()
            self._touched = {doc: lsn for doc, lsn in self._touched.items()
                             if lsn > snap.snapshot_lsn}
            self._members = {
                doc for doc in docs
                if doc not in self._touched
                and self.condition.matches(ctx, doc)
            } | (self._members & self._touched.keys())
        self._ordered = sorted(self._members)
        self.stats["evaluations"] += len(docs)


class DynamicFolderManager:
    """Creates dynamic folders and keeps their membership event-fresh."""

    #: Tables whose commits can change folder membership.
    _WATCHED = (S.DOCUMENTS, S.ACCESS_LOG, S.CHARS)

    #: Feed consumer name.
    CONSUMER = "dynamic-folders"

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)
        self._ctx = FolderContext(db)
        self._folders: dict[str, DynamicFolder] = {}
        self._listeners: list[Callable[[str, Oid, bool], None]] = []
        # One table-filtered feed subscription rather than one trigger
        # per table: a commit touching chars + access log + document row
        # re-evaluates each affected document once, not three times.
        self._sub = db.changefeed().subscribe(
            self.CONSUMER, self._on_batch, tables=self._WATCHED)

    @property
    def subscription(self):
        """The manager's feed subscription (lag inspection)."""
        return self._sub

    def close(self) -> None:
        """Stop reacting to commits (folders go stale)."""
        self._sub.close()

    # -- folder management ---------------------------------------------------

    def create_folder(self, name: str, condition: Condition) -> DynamicFolder:
        """Create a folder; membership is evaluated immediately."""
        if name in self._folders:
            raise FolderError(f"dynamic folder {name!r} already exists")
        folder = DynamicFolder(name, condition, self._ctx)
        self._folders[name] = folder
        return folder

    def drop_folder(self, name: str) -> None:
        """Remove a folder by name."""
        if name not in self._folders:
            raise FolderError(f"no dynamic folder {name!r}")
        del self._folders[name]

    def folder(self, name: str) -> DynamicFolder:
        """Look up a folder by name (raises if absent)."""
        try:
            return self._folders[name]
        except KeyError:
            raise FolderError(f"no dynamic folder {name!r}") from None

    def folders(self) -> list[DynamicFolder]:
        """All folders managed here."""
        return list(self._folders.values())

    def on_membership_change(
        self, callback: Callable[[str, Oid, bool], None]
    ) -> None:
        """Register ``callback(folder_name, doc, now_member)``."""
        self._listeners.append(callback)

    # -- event-driven refresh ----------------------------------------------------

    def _on_batch(self, batch: "CommitBatch") -> None:
        docs: set[Oid] = set()
        for event in batch.events:
            # A delete event's row is None; the before-image names the
            # vanished document — without it, purged documents would
            # linger in folder membership forever.
            row = event.row if event.row is not None else event.before
            if row is not None and "doc" in row and row["doc"] is not None:
                docs.add(row["doc"])
        if not docs:
            return
        # A rescan can be pinned below this commit only while a snapshot
        # or another commit in flight holds the watermark below it.
        lsn = batch.lsn if batch.lsn > self.db.gc_watermark() else None
        ctx = self._ctx.for_batch()
        for folder in self._folders.values():
            for doc in docs:
                changed = folder.reevaluate_doc(doc, lsn, ctx)
                if changed:
                    for listener in self._listeners:
                        listener(folder.name, doc, doc in folder)

    # -- persistence --------------------------------------------------------

    DEFINITIONS = "tx_dynamic_folders"

    def _install_definition_table(self) -> None:
        from ..db import column
        if not self.db.has_table(self.DEFINITIONS):
            self.db.create_table(self.DEFINITIONS, [
                column("name", "str"),
                column("spec", "json"),
                column("created_by", "str"),
                column("created_at", "timestamp"),
            ], key="name")

    def save_folder(self, name: str, user: str) -> None:
        """Persist a folder's definition (it survives crash recovery)."""
        from .specs import condition_to_spec
        folder = self.folder(name)
        self._install_definition_table()
        existing = (self.db.query(self.DEFINITIONS)
                    .where(col("name") == name).first())
        spec = condition_to_spec(folder.condition)
        if existing is not None:
            self.db.update(self.DEFINITIONS, existing.rowid,
                           {"spec": spec})
        else:
            self.db.insert(self.DEFINITIONS, {
                "name": name, "spec": spec, "created_by": user,
                "created_at": self.db.now(),
            })

    def load_folders(self) -> list[str]:
        """Recreate folders from persisted definitions; returns names.

        Folders that already exist in this manager are left untouched.
        """
        from .specs import condition_from_spec
        if not self.db.has_table(self.DEFINITIONS):
            return []
        loaded = []
        for row in self.db.query(self.DEFINITIONS).run():
            if row["name"] in self._folders:
                continue
            self.create_folder(row["name"],
                               condition_from_spec(row["spec"]))
            loaded.append(row["name"])
        return loaded
