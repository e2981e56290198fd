"""Data lineage: document provenance from copy-paste metadata.

§3 / Fig. 1: "We can display document content provenance.  Meta data about
all editing and all copy- and paste actions is stored with the document.
This includes information about the source of the new document part, e.g.
from which other document a text has been copied (either internal or
external sources)."

Two granularities are reconstructed here:

* the **document-level lineage graph** — a directed multigraph over
  documents and external sources, one edge per copy operation
  (``tx_copylog``), and
* **character-level ancestry** — each pasted character points at its
  source character (``copy_src``), so a character's full provenance chain
  (through any number of paste generations) can be walked.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..db import Database, col
from ..ids import Oid
from ..text import chars as C
from ..text import dbschema as S


@dataclass(frozen=True)
class AncestryStep:
    """One hop in a character's provenance chain."""

    char: Oid
    doc: Oid | None
    author: str
    created_at: float


class LineageGraph:
    """The document-level provenance graph of one database."""

    #: Node kind attribute values.
    DOCUMENT = "document"
    EXTERNAL = "external"

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def build(self, *, include_unlinked: bool = True) -> nx.MultiDiGraph:
        """Build the full lineage graph.

        Nodes are document OID strings (kind="document") and external
        source labels (kind="external"); one edge per copy operation
        carrying ``n_chars``, ``user`` and ``at``.

        The whole construction runs inside one snapshot transaction: the
        document sweep, the copy-log sweep and every node-label lookup
        see the same commit point, so a copy operation committed mid-
        build can never appear as an edge without its endpoint.
        """
        graph = nx.MultiDiGraph()
        with self.db.snapshot() as snap:
            if include_unlinked:
                for row in snap.query(S.DOCUMENTS).run():
                    graph.add_node(str(row["doc"]), kind=self.DOCUMENT,
                                   name=row["name"], creator=row["creator"])
            for op in snap.query(S.COPYLOG).run():
                dst = str(op["dst_doc"])
                if dst not in graph:
                    self._add_doc_node(graph, op["dst_doc"], snap)
                if op["src_doc"] is not None:
                    src = str(op["src_doc"])
                    if src not in graph:
                        self._add_doc_node(graph, op["src_doc"], snap)
                else:
                    src = op["external_source"] or "external"
                    graph.add_node(src, kind=self.EXTERNAL, name=src)
                graph.add_edge(src, dst, op=str(op["op"]),
                               n_chars=op["n_chars"], user=op["user"],
                               at=op["at"])
        return graph

    def _add_doc_node(self, graph: nx.MultiDiGraph, doc: Oid, snap) -> None:
        row = snap.find(S.DOCUMENTS, "doc", doc)
        name = row["name"] if row is not None else str(doc)
        creator = row["creator"] if row is not None else "?"
        graph.add_node(str(doc), kind=self.DOCUMENT, name=name,
                       creator=creator)

    # ------------------------------------------------------------------
    # Document-level queries
    # ------------------------------------------------------------------

    def sources_of(self, doc: Oid) -> list[dict]:
        """Copy operations that brought content *into* ``doc``."""
        rows = self.db.query(S.COPYLOG).where(col("dst_doc") == doc).run()
        return sorted((dict(r) for r in rows), key=lambda r: r["at"])

    def derivatives_of(self, doc: Oid) -> list[dict]:
        """Copy operations that took content *out of* ``doc``."""
        rows = self.db.query(S.COPYLOG).where(col("src_doc") == doc).run()
        return sorted((dict(r) for r in rows), key=lambda r: r["at"])

    def transitive_sources(self, doc: Oid) -> set[str]:
        """Every document/external source ``doc`` transitively draws on."""
        graph = self.build(include_unlinked=False)
        node = str(doc)
        if node not in graph:
            return set()
        return set(nx.ancestors(graph, node))

    def transitive_derivatives(self, doc: Oid) -> set[str]:
        """Every document that transitively draws on ``doc``."""
        graph = self.build(include_unlinked=False)
        node = str(doc)
        if node not in graph:
            return set()
        return set(nx.descendants(graph, node))

    def copied_fraction(self, doc: Oid) -> float:
        """Fraction of the document's visible characters that were pasted."""
        with self.db.snapshot() as snap:
            rows = snap.query(S.CHARS).where(col("doc") == doc).run()
        visible = [r for r in rows if r["ch"] and not r["deleted"]]
        if not visible:
            return 0.0
        copied = sum(1 for r in visible if r["copy_src"] is not None
                     or r["copy_op"] is not None)
        return copied / len(visible)

    # ------------------------------------------------------------------
    # Character-level ancestry
    # ------------------------------------------------------------------

    def char_ancestry(self, char_oid: Oid,
                      txn=None) -> list[AncestryStep]:
        """The provenance chain of one character, oldest last.

        Walks ``copy_src`` links through paste generations (a paste of a
        paste of a paste ...).  The first entry is the character itself.
        One query per hop, so the whole walk runs inside one snapshot
        transaction (or the caller's ``txn``): a paste committed between
        two hops cannot splice a half-written generation into the chain.
        """
        if txn is None:
            with self.db.snapshot() as snap:
                return self.char_ancestry(char_oid, txn=snap)
        steps: list[AncestryStep] = []
        current: Oid | None = char_oid
        seen: set[Oid] = set()
        while current is not None and current not in seen:
            seen.add(current)
            __, row = C.char_row(self.db, current, txn)
            steps.append(AncestryStep(
                char=current, doc=row["doc"], author=row["author"],
                created_at=row["created_at"],
            ))
            current = row["copy_src"]
        return steps

    def origin_of(self, char_oid: Oid, txn=None) -> AncestryStep:
        """The ultimate origin of a character (end of the ancestry chain)."""
        return self.char_ancestry(char_oid, txn=txn)[-1]

    def range_origins(self, doc: Oid, char_oids: list[Oid]) -> dict:
        """Group a character range by originating document.

        Returns ``origin_doc_str -> count`` with ``"(typed here)"`` for
        characters born in ``doc`` itself.  One snapshot covers every
        ancestry walk in the range — N characters used to mean N
        independent read-committed walks.
        """
        counts: dict[str, int] = {}
        with self.db.snapshot() as snap:
            for oid in char_oids:
                origin = self.origin_of(oid, txn=snap)
                if origin.doc == doc and origin.char == oid:
                    key = "(typed here)"
                else:
                    key = str(origin.doc)
                counts[key] = counts.get(key, 0) + 1
        return counts
