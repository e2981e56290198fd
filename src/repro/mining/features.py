"""Document feature extraction for mining.

The visual-mining plug-in of the paper navigates "the document and meta
data dimensions".  This module turns each document into (a) a bag of
content tokens and (b) a metadata feature record, both consumed by the
text miner and the document-space layout.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from ..db import Database, col
from ..ids import Oid
from ..text import chars as C
from ..text import dbschema as S

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to be informative (tiny, domain-neutral list).
STOPWORDS = frozenset("""
a an and are as at be but by for from has have if in into is it its not of
on or s t that the their there these they this to was were will with
""".split())


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, stopwords removed.

    Each token is the interpreter's interned string for its word
    (``sys.intern``), so every token of one word, from any text, is one
    object: an index keyed by tokens holds each vocabulary term once,
    however many documents contain it.
    """
    return [sys.intern(t) for t in _TOKEN_RE.findall(text.lower())
            if t not in STOPWORDS and len(t) > 1]


@dataclass
class DocumentFeatures:
    """Everything the miners need to know about one document."""

    doc: Oid
    name: str
    creator: str
    state: str
    size: int
    created_at: float
    last_modified: float
    n_authors: int
    tokens: list[str] = field(default_factory=list)

    @property
    def term_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for token in self.tokens:
            counts[token] = counts.get(token, 0) + 1
        return counts


class FeatureExtractor:
    """Extract :class:`DocumentFeatures` for documents in a database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)

    def document_text(self, doc: Oid, txn=None) -> str:
        """A document's visible text: chain walk, or the archived blob.

        Documents without a character chain (``begin_char is None``) are
        *archived*: their whole text lives in ``props["archived_text"]``
        — the archival-portal fast path that skips per-character rows.
        """
        reader = txn if txn is not None else self.db
        row = reader.find(S.DOCUMENTS, "doc", doc)
        if row is None:
            return ""
        if row["begin_char"] is None:
            return str((row["props"] or {}).get("archived_text", ""))
        return C.chain_text(self.db, doc, row["begin_char"], txn=txn)

    def extract(self, doc: Oid, txn=None) -> DocumentFeatures:
        """Features (metadata + tokens) for one document.

        Without an explicit ``txn``, the document row, the chain walk and
        the author sweep all run inside one snapshot transaction — a
        commit landing between the text reconstruction and the CHARS scan
        cannot yield a token bag and an author set from different states.
        """
        if txn is None:
            with self.db.snapshot() as snap:
                return self.extract(doc, txn=snap)
        row = txn.find(S.DOCUMENTS, "doc", doc)
        if row is None:
            from ..errors import UnknownDocumentError
            raise UnknownDocumentError(f"no document {doc}")
        text = self.document_text(doc, txn=txn)
        char_rows = txn.query(S.CHARS).where(col("doc") == doc).run()
        authors = {r["author"] for r in char_rows if r["ch"]}
        return DocumentFeatures(
            doc=doc,
            name=row["name"],
            creator=row["creator"],
            state=row["state"],
            size=row["size"],
            created_at=row["created_at"],
            last_modified=row["last_modified"],
            n_authors=len(authors),
            tokens=tokenize(text),
        )

    def extract_all(self) -> list[DocumentFeatures]:
        """Features for every document, in creation order.

        One snapshot covers the whole corpus sweep, so the features of
        document N and document 1 describe the same database state.
        """
        with self.db.snapshot() as snap:
            rows = sorted(snap.query(S.DOCUMENTS).run(),
                          key=lambda r: r["created_at"])
            return [self.extract(r["doc"], txn=snap) for r in rows]
