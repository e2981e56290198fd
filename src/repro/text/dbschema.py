"""The TeNDaX relational schema: text stored natively in database tables.

This is the heart of the paper.  A document is not a blob: every character
is one row in ``tx_chars`` carrying the full character-level metadata the
paper lists (author, roles, date and time, copy-paste references, undo/redo
state, security settings, version, user-defined properties).  Characters
are linked by ``prev``/``next`` neighbour references — *not* byte offsets —
so concurrent inserts never invalidate each other's positions, and a
keystroke is a constant number of row operations regardless of document
size.

Tables
------
``tx_documents``
    One row per document (document-level metadata from §2 of the paper).
``tx_chars``
    One row per character, including two sentinel rows (BEGIN/END) per
    document that anchor the linked list.  Characters are never physically
    removed while the document lives: deletion sets ``deleted`` so that
    undo, lineage and versioning keep working.
``tx_styles`` / ``tx_templates``
    Named layout definitions; characters reference a style by OID.
``tx_structure``
    The document structure tree (sections, paragraphs, headings ...).
``tx_objects``
    Embedded non-character objects (images, tables) anchored at characters.
``tx_notes``
    Margin notes anchored at characters.
``tx_copylog``
    One row per copy-paste action (range level); together with per-char
    ``copy_src`` references this drives the data-lineage graph of Fig. 1.
``tx_access_log``
    Who read/wrote which document when — the raw feed for dynamic folders
    and the metadata-based search of §3.
``tx_versions``
    Named document versions (snapshots of the live character sequence).
"""

from __future__ import annotations

from ..db import Database, column

#: Sentinel rows anchoring each document's linked list store an empty
#: string as their "character": real characters always have length 1, so
#: ``row["ch"] == ""`` identifies a sentinel unambiguously.
BEGIN_MARK = ""
END_MARK = ""

DOCUMENTS = "tx_documents"
CHARS = "tx_chars"
STYLES = "tx_styles"
TEMPLATES = "tx_templates"
STRUCTURE = "tx_structure"
OBJECTS = "tx_objects"
NOTES = "tx_notes"
COPYLOG = "tx_copylog"
ACCESS_LOG = "tx_access_log"
VERSIONS = "tx_versions"

#: Granularity of ``write`` entries in :data:`ACCESS_LOG`, in seconds of
#: ``db.now()``: a user's edits of one document append one entry per this
#: much time, not one per keystroke.  The log answers "did this user
#: write this document since *t*"; readers with a time cut widen it by
#: the resolution for ``write`` entries, so they never miss a writer and
#: may include one who stopped up to this long before the cut.
ACCESS_LOG_RESOLUTION = 1.0

#: The columns of one character row.  Named here, outside
#: :func:`install_text_schema`, because the wire protocol sends a row as
#: the columns that differ from these defaults (``repro.net.protocol``).
CHAR_COLUMNS = (
    column("char", "oid"),            # character OID (the key)
    column("doc", "oid"),             # owning document
    column("ch", "str"),              # the character itself (len 1)
    column("prev", "oid", nullable=True),
    column("next", "oid", nullable=True),
    column("author", "str"),
    column("created_at", "timestamp"),
    column("deleted", "bool", default=False),
    column("deleted_by", "str", nullable=True),
    column("deleted_at", "timestamp", nullable=True),
    column("style", "oid", nullable=True),
    column("copy_src", "oid", nullable=True),   # lineage: source char
    column("copy_op", "oid", nullable=True),    # lineage: copylog row
    column("version", "int", default=0),
    column("props", "json", nullable=True),
)

ALL_TABLES = (
    DOCUMENTS, CHARS, STYLES, TEMPLATES, STRUCTURE, OBJECTS, NOTES,
    COPYLOG, ACCESS_LOG, VERSIONS,
)


def install_text_schema(db: Database) -> None:
    """Create the TeNDaX tables and indexes in ``db``.

    Idempotent: does nothing for tables that already exist.
    """
    if not db.has_table(DOCUMENTS):
        db.create_table(DOCUMENTS, [
            column("doc", "oid"),
            column("name", "str"),
            column("creator", "str"),
            column("created_at", "timestamp"),
            column("state", "str", default="draft"),
            column("template", "oid", nullable=True),
            column("size", "int", default=0),
            column("last_modified", "timestamp"),
            column("last_modified_by", "str"),
            column("begin_char", "oid", nullable=True),
            column("end_char", "oid", nullable=True),
            column("props", "json", nullable=True),
        ], key="doc")
        db.create_index(DOCUMENTS, "name")
        db.create_index(DOCUMENTS, "creator")
        db.create_index(DOCUMENTS, "last_modified", kind="ordered")

    if not db.has_table(CHARS):
        db.create_table(CHARS, CHAR_COLUMNS, key="char")
        db.create_index(CHARS, "doc")

    if not db.has_table(STYLES):
        db.create_table(STYLES, [
            column("style", "oid"),
            column("doc", "oid", nullable=True),  # NULL = global/template
            column("name", "str"),
            column("attrs", "json"),
            column("author", "str"),
            column("created_at", "timestamp"),
        ], key="style")
        db.create_index(STYLES, "doc")
        db.create_index(STYLES, "name")

    if not db.has_table(TEMPLATES):
        db.create_table(TEMPLATES, [
            column("template", "oid"),
            column("name", "str"),
            column("styles", "json"),        # list of style definitions
            column("structure", "json"),     # default structure outline
            column("author", "str"),
            column("created_at", "timestamp"),
        ], key="template")
        db.create_index(TEMPLATES, "name")

    if not db.has_table(STRUCTURE):
        db.create_table(STRUCTURE, [
            column("node", "oid"),
            column("doc", "oid"),
            column("kind", "str"),           # section/heading/paragraph/list
            column("parent", "oid", nullable=True),
            column("pos", "int", default=0),
            column("label", "str", default=""),
            column("start_char", "oid", nullable=True),
            column("end_char", "oid", nullable=True),
            column("author", "str"),
            column("created_at", "timestamp"),
            column("props", "json", nullable=True),
        ], key="node")
        db.create_index(STRUCTURE, "doc")
        db.create_index(STRUCTURE, "parent")

    if not db.has_table(OBJECTS):
        db.create_table(OBJECTS, [
            column("obj", "oid"),
            column("doc", "oid"),
            column("kind", "str"),           # "image" | "table"
            column("anchor", "oid"),         # character the object follows
            column("data", "json"),
            column("author", "str"),
            column("created_at", "timestamp"),
            column("deleted", "bool", default=False),
        ], key="obj")
        db.create_index(OBJECTS, "doc")

    if not db.has_table(NOTES):
        db.create_table(NOTES, [
            column("note", "oid"),
            column("doc", "oid"),
            column("anchor", "oid"),
            column("author", "str"),
            column("body", "str"),
            column("created_at", "timestamp"),
            column("resolved", "bool", default=False),
        ], key="note")
        db.create_index(NOTES, "doc")

    if not db.has_table(COPYLOG):
        db.create_table(COPYLOG, [
            column("op", "oid"),
            column("src_doc", "oid", nullable=True),  # NULL for external
            column("external_source", "str", nullable=True),
            column("dst_doc", "oid"),
            column("n_chars", "int"),
            column("user", "str"),
            column("at", "timestamp"),
        ], key="op")
        db.create_index(COPYLOG, "dst_doc")
        db.create_index(COPYLOG, "src_doc")

    if not db.has_table(ACCESS_LOG):
        db.create_table(ACCESS_LOG, [
            column("entry", "oid"),
            column("doc", "oid"),
            column("user", "str"),
            column("action", "str"),         # "create" | "read" | "write"
            column("at", "timestamp"),
        ], key="entry")
        db.create_index(ACCESS_LOG, "doc")
        db.create_index(ACCESS_LOG, "user")
        db.create_index(ACCESS_LOG, "at", kind="ordered")

    if not db.has_table(VERSIONS):
        db.create_table(VERSIONS, [
            column("version", "oid"),
            column("doc", "oid"),
            column("name", "str"),
            column("author", "str"),
            column("created_at", "timestamp"),
            column("char_oids", "json"),     # live character oids, in order
            column("text", "str"),           # denormalised text snapshot
        ], key="version")
        db.create_index(VERSIONS, "doc")
