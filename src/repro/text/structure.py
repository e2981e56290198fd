"""Document structure: a tree of sections, headings, paragraphs and lists.

Structure in TeNDaX is stored relationally (``tx_structure``): each node
has a kind, a parent, a sibling position and optionally a character range
(``start_char``/``end_char`` anchor OIDs).  Because ranges are anchored at
character OIDs rather than offsets, structure survives concurrent editing:
inserting text inside a section never invalidates the section's bounds.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..db import Database, col
from ..errors import StructureError
from ..ids import Oid
from . import dbschema as S
from .document import DocumentHandle

#: Node kinds the outline may contain, in "can contain" order.
KINDS = ("document", "section", "heading", "paragraph", "list", "list_item")


class StructureManager:
    """Create and query the structure tree of documents."""

    def __init__(self, db: Database) -> None:
        self.db = db
        S.install_text_schema(db)

    # -- creation -----------------------------------------------------------

    def add_node(
        self,
        doc: Oid,
        kind: str,
        author: str,
        *,
        parent: Oid | None = None,
        label: str = "",
        pos: int | None = None,
        start_char: Oid | None = None,
        end_char: Oid | None = None,
    ) -> Oid:
        """Add a structure node; returns its OID.

        ``pos`` defaults to "after the last sibling".
        """
        if kind not in KINDS:
            raise StructureError(f"unknown structure kind {kind!r}")
        if parent is not None:
            parent_row = self._node_row(parent)
            if parent_row["doc"] != doc:
                raise StructureError("parent belongs to a different document")
        if pos is None:
            siblings = self.children(doc, parent)
            pos = (siblings[-1]["pos"] + 1) if siblings else 0
        node = self.db.new_oid("node")
        self.db.insert(S.STRUCTURE, {
            "node": node, "doc": doc, "kind": kind, "parent": parent,
            "pos": pos, "label": label, "start_char": start_char,
            "end_char": end_char, "author": author,
            "created_at": self.db.now(),
        })
        return node

    def instantiate_outline(self, doc: Oid, outline: Iterable[dict],
                            author: str, *, parent: Oid | None = None) -> list[Oid]:
        """Create nodes from a nested outline (template instantiation).

        Each outline entry is ``{"kind", "label", "children": [...]}``.
        """
        created: list[Oid] = []
        for entry in outline:
            node = self.add_node(
                doc, entry["kind"], author,
                parent=parent, label=entry.get("label", ""),
            )
            created.append(node)
            children = entry.get("children") or ()
            created.extend(
                self.instantiate_outline(doc, children, author, parent=node)
            )
        return created

    # -- mutation ------------------------------------------------------------

    def set_range(self, node: Oid, start_char: Oid | None,
                  end_char: Oid | None) -> None:
        """Anchor (or clear) the character range a node spans."""
        row = self._node_view(node)
        self.db.update(S.STRUCTURE, row.rowid, {
            "start_char": start_char, "end_char": end_char,
        })

    def move_node(self, node: Oid, new_parent: Oid | None,
                  pos: int) -> None:
        """Re-parent/re-order a node; rejects cycles."""
        view = self._node_view(node)
        if new_parent is not None:
            ancestor: Oid | None = new_parent
            while ancestor is not None:
                if ancestor == node:
                    raise StructureError("move would create a cycle")
                ancestor = self._node_row(ancestor)["parent"]
        self.db.update(S.STRUCTURE, view.rowid, {
            "parent": new_parent, "pos": pos,
        })

    def remove_node(self, node: Oid, *, recursive: bool = False) -> int:
        """Delete a node (and optionally its subtree); returns count."""
        children = [r["node"] for r in self._children_rows(node)]
        if children and not recursive:
            raise StructureError(f"node {node} has children")
        removed = 0
        for child in children:
            removed += self.remove_node(child, recursive=True)
        view = self._node_view(node)
        self.db.delete(S.STRUCTURE, view.rowid)
        return removed + 1

    # -- queries --------------------------------------------------------------

    def _node_view(self, node: Oid):
        row = self.db.query(S.STRUCTURE).where(col("node") == node).first()
        if row is None:
            raise StructureError(f"no structure node {node}")
        return row

    def _node_row(self, node: Oid) -> dict:
        return dict(self._node_view(node))

    def _children_rows(self, parent: Oid | None) -> list[dict]:
        rows = (self.db.query(S.STRUCTURE)
                .where(col("parent") == parent).run())
        return sorted((dict(r) for r in rows), key=lambda r: r["pos"])

    def node(self, node: Oid) -> dict:
        """Fetch a node row by OID (raises if absent)."""
        return self._node_row(node)

    def children(self, doc: Oid, parent: Oid | None) -> list[dict]:
        """Ordered children of ``parent`` (top-level nodes for ``None``)."""
        return [r for r in self._children_rows(parent) if r["doc"] == doc]

    def roots(self, doc: Oid) -> list[dict]:
        """Top-level nodes of a document, in order."""
        return self.children(doc, None)

    def walk(self, doc: Oid, parent: Oid | None = None,
             depth: int = 0) -> Iterator[tuple[int, dict]]:
        """Depth-first traversal yielding ``(depth, node_row)``."""
        for row in self.children(doc, parent):
            yield depth, row
            yield from self.walk(doc, row["node"], depth + 1)

    def outline_text(self, doc: Oid) -> str:
        """A printable outline of the structure tree."""
        lines = []
        for depth, row in self.walk(doc):
            label = f" {row['label']}" if row["label"] else ""
            lines.append(f"{'  ' * depth}- {row['kind']}{label}")
        return "\n".join(lines)

    def node_text(self, handle: DocumentHandle, node: Oid) -> str:
        """The text currently spanned by a node's character range."""
        row = self._node_row(node)
        start, end = row["start_char"], row["end_char"]
        if start is None or end is None:
            return ""
        start_pos = handle.position_of(start)
        end_pos = handle.position_of(end)
        if start_pos is None or end_pos is None or end_pos < start_pos:
            return ""
        oids = handle.char_oids()[start_pos:end_pos + 1]
        from . import chars as C
        rows = C.doc_char_rows(self.db, row["doc"])
        return "".join(rows[oid]["ch"] for oid in oids)

    def containing_nodes(self, handle: DocumentHandle, pos: int) -> list[dict]:
        """Structure nodes whose range contains document position ``pos``."""
        out = []
        for __, row in self.walk(handle.doc):
            start, end = row["start_char"], row["end_char"]
            if start is None or end is None:
                continue
            start_pos = handle.position_of(start)
            end_pos = handle.position_of(end)
            if (start_pos is not None and end_pos is not None
                    and start_pos <= pos <= end_pos):
                out.append(row)
        return out
