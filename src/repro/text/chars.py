"""Character-level primitives: the neighbour-linked text representation.

These are the low-level transactional operations the paper's "real-time
transactions" consist of.  A keystroke becomes:

* one ``tx_chars`` INSERT (the new character, pointing at its neighbours),
* two ``tx_chars`` UPDATEs (the neighbours' ``next``/``prev`` pointers,
  their rows locked as one set),

— a constant amount of work however large the document is.  Deletion is
*logical*: the row stays in the chain with ``deleted = True`` so undo,
lineage and versioning can resurrect or inspect it; traversal skips it.

All functions here operate inside a caller-provided transaction so that
higher layers (editor operations, copy-paste, undo) can compose several
primitives into one atomic edit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from ..db import Database, Transaction, col
from ..errors import InvalidPositionError, UnknownCharacterError
from ..ids import Oid
from . import dbschema as S

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


#: Characters inserted (and locked) as one statement group: a paste is
#: one, a whole imported text a bounded few hundred mappings at a time.
_RUN = 512


def char_row(db: Database, char_oid: Oid,
             txn: Transaction | None = None) -> "tuple[int, dict]":
    """Return ``(rowid, row)`` for a character by its OID (a key read)."""
    result = (txn if txn is not None else db).find(S.CHARS, "char", char_oid)
    if result is None:
        raise UnknownCharacterError(f"no character {char_oid}")
    return result.rowid, result


def create_anchors(txn: Transaction, db: Database, doc: Oid, author: str,
                   now: float) -> tuple[Oid, Oid]:
    """Create the BEGIN/END sentinel rows for a new document."""
    begin_oid = db.new_oid("char")
    end_oid = db.new_oid("char")
    txn.insert(S.CHARS, {
        "char": begin_oid, "doc": doc, "ch": S.BEGIN_MARK,
        "prev": None, "next": end_oid,
        "author": author, "created_at": now,
    })
    txn.insert(S.CHARS, {
        "char": end_oid, "doc": doc, "ch": S.END_MARK,
        "prev": begin_oid, "next": None,
        "author": author, "created_at": now,
    })
    return begin_oid, end_oid


def insert_chars(
    txn: Transaction,
    db: Database,
    doc: Oid,
    after: Oid,
    text: str,
    author: str,
    now: float,
    *,
    style: Oid | None = None,
    copy_srcs: Sequence[Oid | None] | None = None,
    copy_op: Oid | None = None,
) -> list[Oid]:
    """Insert ``text`` after character ``after``; returns the new OIDs.

    ``copy_srcs`` (parallel to ``text``) records, per character, the OID of
    the source character it was copied from — the per-character lineage
    reference of the paper.  ``copy_op`` ties all characters of one paste
    to its ``tx_copylog`` entry.
    """
    if not text:
        return []
    if copy_srcs is not None and len(copy_srcs) != len(text):
        raise ValueError("copy_srcs must parallel text")
    anchor_rowid, anchor = char_row(db, after, txn)
    if anchor["doc"] != doc:
        raise InvalidPositionError(
            f"character {after} belongs to {anchor['doc']}, not {doc}"
        )
    successor = anchor["next"]
    if successor is None:
        raise InvalidPositionError("cannot insert after the END sentinel")
    succ_rowid, __ = char_row(db, successor, txn)
    # The two chain neighbours are relinked below: one lock set.
    txn.lock_rows(S.CHARS, (anchor_rowid, succ_rowid))

    oids = [db.new_oid("char") for __ in text]
    rows = []
    prev_oid = after
    for i, ch in enumerate(text):
        next_oid = oids[i + 1] if i + 1 < len(oids) else successor
        rows.append({
            "char": oids[i], "doc": doc, "ch": ch,
            "prev": prev_oid, "next": next_oid,
            "author": author, "created_at": now,
            "style": style,
            "copy_src": copy_srcs[i] if copy_srcs else None,
            "copy_op": copy_op,
        })
        prev_oid = oids[i]
        if len(rows) == _RUN:
            txn.insert_many(S.CHARS, rows)
            rows = []
    if rows:
        txn.insert_many(S.CHARS, rows)

    txn.update(S.CHARS, anchor_rowid, {"next": oids[0]})
    txn.update(S.CHARS, succ_rowid, {"prev": oids[-1]})
    return oids


def logical_delete(txn: Transaction, db: Database, char_oids: Sequence[Oid],
                   user: str, now: float) -> int:
    """Mark characters deleted (kept in the chain for undo/lineage).

    Idempotent: characters that are already deleted (e.g. an undo of an
    insert whose characters another user deleted meanwhile) are skipped.
    Returns the number of characters actually flipped, which is what
    document size accounting must use.
    """
    pairs = _resolve_and_lock(txn, db, char_oids)
    flipped = 0
    for rowid, row in pairs:
        if not row["ch"]:
            raise InvalidPositionError("cannot delete a sentinel")
        if row["deleted"]:
            continue
        txn.update(S.CHARS, rowid, {
            "deleted": True, "deleted_by": user, "deleted_at": now,
            "version": row["version"] + 1,
        })
        flipped += 1
    return flipped


def undelete(txn: Transaction, db: Database, char_oids: Sequence[Oid],
             user: str) -> int:
    """Clear the deleted flag (the undo of a delete).

    Idempotent like :func:`logical_delete`; returns the number of
    characters actually resurrected.
    """
    flipped = 0
    for rowid, row in _resolve_and_lock(txn, db, char_oids):
        if not row["deleted"]:
            continue
        txn.update(S.CHARS, rowid, {
            "deleted": False, "deleted_by": None, "deleted_at": None,
            "version": row["version"] + 1,
        })
        flipped += 1
    return flipped


def set_style(txn: Transaction, db: Database, char_oids: Sequence[Oid],
              style: Oid | None) -> None:
    """Point characters at a style definition (collaborative layout)."""
    for rowid, row in _resolve_and_lock(txn, db, char_oids):
        txn.update(S.CHARS, rowid, {
            "style": style, "version": row["version"] + 1,
        })


def _resolve_and_lock(txn: Transaction, db: Database,
                      char_oids: Sequence[Oid]) -> list[tuple[int, dict]]:
    """Resolve a range of characters and lock their rows in one batch.

    Range operations know every row they will touch up front, so one
    :meth:`~repro.db.transaction.Transaction.lock_rows` call amortises
    the lock-manager round-trip across the range instead of paying it
    inside each per-character update.
    """
    pairs = [char_row(db, oid, txn) for oid in char_oids]
    txn.lock_rows(S.CHARS, [rowid for rowid, _ in pairs])
    return pairs


def doc_char_rows(db: Database, doc: Oid,
                  txn: Transaction | None = None) -> dict[Oid, dict]:
    """All character rows of a document, keyed by char OID."""
    query = txn.query(S.CHARS) if txn is not None else db.query(S.CHARS)
    rows = query.where(col("doc") == doc).run()
    return {row["char"]: row for row in rows}


def traverse(
    db: Database,
    doc: Oid,
    begin_char: Oid,
    *,
    txn: Transaction | None = None,
    include_deleted: bool = False,
) -> Iterator[dict]:
    """Yield character rows in document order (sentinels excluded).

    Walks the neighbour chain starting at the BEGIN sentinel.  Raises
    :class:`~repro.errors.UnknownCharacterError` if the chain is broken.
    """
    rows = doc_char_rows(db, doc, txn)
    try:
        current = rows[begin_char]["next"]
    except KeyError:
        raise UnknownCharacterError(f"no BEGIN sentinel {begin_char}") from None
    hops = 0
    limit = len(rows) + 1
    while current is not None:
        try:
            row = rows[current]
        except KeyError:
            raise UnknownCharacterError(
                f"broken chain in {doc}: missing {current}"
            ) from None
        if row["next"] is None:       # END sentinel
            return
        if include_deleted or not row["deleted"]:
            yield row
        current = row["next"]
        hops += 1
        if hops > limit:
            raise UnknownCharacterError(f"cycle in character chain of {doc}")


def chain_text(db: Database, doc: Oid, begin_char: Oid,
               txn: Transaction | None = None) -> str:
    """The document's visible text, reconstructed from the chain."""
    return "".join(
        row["ch"] for row in traverse(db, doc, begin_char, txn=txn)
    )


def check_chain_integrity(db: Database, doc: Oid, begin_char: Oid,
                          end_char: Oid) -> list[str]:
    """Validate the doubly-linked invariants; returns a list of problems.

    Used by tests and by the recovery bench to show the chain survives
    crash replay intact.
    """
    problems: list[str] = []
    rows = doc_char_rows(db, doc)
    if begin_char not in rows:
        return [f"missing BEGIN sentinel {begin_char}"]
    if end_char not in rows:
        return [f"missing END sentinel {end_char}"]
    seen: set[Oid] = set()
    current: Oid | None = begin_char
    prev: Oid | None = None
    while current is not None:
        row = rows.get(current)
        if row is None:
            problems.append(f"chain references missing char {current}")
            break
        if current in seen:
            problems.append(f"cycle at {current}")
            break
        seen.add(current)
        if row["prev"] != prev:
            problems.append(
                f"{current}: prev is {row['prev']}, expected {prev}"
            )
        prev = current
        current = row["next"]
    if prev != end_char:
        problems.append(f"chain ends at {prev}, expected END {end_char}")
    unreached = set(rows) - seen
    if unreached:
        problems.append(f"{len(unreached)} characters unreachable")
    return problems
