"""Fine-grained access control: document ACLs and character-range guards.

Two granularities, matching the paper's "fine-grained security":

* **Document permissions** (``tx_acl``): READ / WRITE / LAYOUT / STRUCTURE /
  GRANT / WORKFLOW per document, granted to users or roles.  A document
  with no grant for a permission is *open* for that permission (the demo's
  LAN-party default); as soon as one grant exists, the permission is
  restricted to grantees (plus the creator, who always retains everything).
* **Range protections** (``tx_char_protection``): a set of character OIDs
  can be locked against editing, so a reviewer can freeze a paragraph while
  the rest of the document stays editable.  Because the protection names
  character OIDs, it survives any amount of concurrent editing elsewhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..db import Database, col, column
from ..errors import AccessDenied, SecurityError
from ..ids import Oid
from ..text import dbschema as S
from ..text.document import DocumentHandle
from .principals import PrincipalRegistry

ACL = "tx_acl"
CHAR_PROTECTION = "tx_char_protection"

#: Grantable document permissions.
PERMISSIONS = ("read", "write", "layout", "structure", "grant", "workflow")


def install_acl_schema(db: Database) -> None:
    """Create the ACL tables (idempotent)."""
    if not db.has_table(ACL):
        db.create_table(ACL, [
            column("entry", "oid"),
            column("doc", "oid"),
            column("principal", "str"),     # user or role name
            column("perm", "str"),
            column("granted_by", "str"),
            column("at", "timestamp"),
        ], key="entry")
        db.create_index(ACL, "doc")
    if not db.has_table(CHAR_PROTECTION):
        db.create_table(CHAR_PROTECTION, [
            column("protection", "oid"),
            column("doc", "oid"),
            column("char_oids", "json"),    # list of protected char OIDs
            column("exempt", "json"),       # principals allowed through
            column("mode", "str", default="write"),  # "write" | "read"
            column("created_by", "str"),
            column("at", "timestamp"),
            column("active", "bool", default=True),
        ], key="protection")
        db.create_index(CHAR_PROTECTION, "doc")


class AccessController:
    """Grant, revoke and enforce document and range permissions."""

    def __init__(self, db: Database, principals: PrincipalRegistry) -> None:
        self.db = db
        self.principals = principals
        install_acl_schema(db)
        S.install_text_schema(db)

    # ------------------------------------------------------------------
    # Document-level ACL
    # ------------------------------------------------------------------

    def grant(self, doc: Oid, principal: str, perm: str,
              granted_by: str) -> Oid:
        """Grant ``perm`` on ``doc`` to a user or role.

        Requires the grantor to hold ``grant`` (or be the creator).
        """
        self._check_perm_name(perm)
        self.require(doc, granted_by, "grant")
        entry = self.db.new_oid("acl")
        self.db.insert(ACL, {
            "entry": entry, "doc": doc, "principal": principal,
            "perm": perm, "granted_by": granted_by, "at": self.db.now(),
        })
        return entry

    def revoke(self, doc: Oid, principal: str, perm: str,
               revoked_by: str) -> int:
        """Remove matching grants; returns how many were removed."""
        self._check_perm_name(perm)
        self.require(doc, revoked_by, "grant")
        rows = (self.db.query(ACL)
                .where((col("doc") == doc)
                       & (col("principal") == principal)
                       & (col("perm") == perm))
                .run())
        for row in rows:
            self.db.delete(ACL, row.rowid)
        return len(rows)

    def grants_for(self, doc: Oid) -> list[dict]:
        """All ACL entries of a document."""
        return [dict(r) for r in
                self.db.query(ACL).where(col("doc") == doc).run()]

    def allowed(self, doc: Oid, user: str, perm: str) -> bool:
        """Does ``user`` hold ``perm`` on ``doc``?

        The creator always does.  If nobody has been granted ``perm``, the
        document is open for it; otherwise the user (or one of their
        roles) must appear among the grantees.
        """
        self._check_perm_name(perm)
        creator = self._creator_of(doc)
        if creator is not None and user == creator:
            return True
        grants = self.db.query(ACL).where(
            (col("doc") == doc) & (col("perm") == perm))
        if not grants.count():
            return True
        principals = self.principals.principals_of(user)
        return any(g["principal"] in principals for g in grants.run())

    def require(self, doc: Oid, user: str, perm: str) -> None:
        """Raise :class:`~repro.errors.AccessDenied` unless allowed."""
        if not self.allowed(doc, user, perm):
            raise AccessDenied(
                f"user {user!r} lacks {perm!r} on document {doc}"
            )

    def _creator_of(self, doc: Oid) -> str | None:
        row = self.db.find(S.DOCUMENTS, "doc", doc)
        return None if row is None else row["creator"]

    @staticmethod
    def _check_perm_name(perm: str) -> None:
        if perm not in PERMISSIONS:
            raise SecurityError(f"unknown permission {perm!r}")

    # ------------------------------------------------------------------
    # Character-range protections
    # ------------------------------------------------------------------

    def protect_range(self, handle: DocumentHandle, pos: int, count: int,
                      created_by: str, *, exempt: Iterable[str] = (),
                      mode: str = "write") -> Oid:
        """Guard ``count`` characters at ``pos``.

        ``mode="write"`` locks the characters against edits;
        ``mode="read"`` additionally *hides* them from non-exempt readers
        (see :meth:`redacted_text`) — the paper's character-level security
        settings.  ``exempt`` principals (users or roles) — and the
        protector — pass through.  Requires ``grant`` on the document.
        """
        if mode not in ("write", "read"):
            raise SecurityError(f"unknown protection mode {mode!r}")
        self.require(handle.doc, created_by, "grant")
        oids = handle.char_oids()[pos:pos + count]
        if len(oids) != count:
            raise SecurityError("protection range outside document")
        protection = self.db.new_oid("prot")
        self.db.insert(CHAR_PROTECTION, {
            "protection": protection, "doc": handle.doc,
            "char_oids": [str(oid) for oid in oids],
            "exempt": sorted({created_by, *exempt}), "mode": mode,
            "created_by": created_by, "at": self.db.now(),
        })
        return protection

    def release_protection(self, protection: Oid, released_by: str) -> None:
        """Deactivate a range protection."""
        row = (self.db.query(CHAR_PROTECTION)
               .where(col("protection") == protection).first())
        if row is None:
            raise SecurityError(f"no protection {protection}")
        self.require(row["doc"], released_by, "grant")
        self.db.update(CHAR_PROTECTION, row.rowid, {"active": False})

    def protections_for(self, doc: Oid) -> list[dict]:
        """Active range protections of a document."""
        rows = (self.db.query(CHAR_PROTECTION)
                .where(col("doc") == doc).run())
        return [dict(r) for r in rows if r["active"]]

    def protected_oids(self, doc: Oid, user: str) -> set[Oid]:
        """Character OIDs ``user`` may *not* edit in ``doc``.

        Read protection implies write protection.
        """
        principals = self.principals.principals_of(user)
        locked: set[Oid] = set()
        for row in self.protections_for(doc):
            if principals & set(row["exempt"]):
                continue
            locked.update(Oid.parse(s) for s in row["char_oids"])
        return locked

    def hidden_oids(self, doc: Oid, user: str) -> set[Oid]:
        """Character OIDs ``user`` may not even *see* (mode="read")."""
        principals = self.principals.principals_of(user)
        hidden: set[Oid] = set()
        for row in self.protections_for(doc):
            if row["mode"] != "read":
                continue
            if principals & set(row["exempt"]):
                continue
            hidden.update(Oid.parse(s) for s in row["char_oids"])
        return hidden

    def redacted_text(self, handle: DocumentHandle, user: str,
                      mask: str = "\u2588") -> str:
        """The document text as ``user`` is allowed to see it.

        Characters under a read protection the user is not exempt from
        render as ``mask``.
        """
        hidden = self.hidden_oids(handle.doc, user)
        if not hidden:
            return handle.text()
        from ..text import chars as C
        rows = C.doc_char_rows(self.db, handle.doc)
        return "".join(
            mask if oid in hidden else rows[oid]["ch"]
            for oid in handle.char_oids()
        )

    def check_chars_editable(self, doc: Oid, user: str,
                             char_oids: Sequence[Oid]) -> None:
        """Raise if any of ``char_oids`` is protected against ``user``."""
        locked = self.protected_oids(doc, user)
        if locked:
            blocked = [oid for oid in char_oids if oid in locked]
            if blocked:
                raise AccessDenied(
                    f"user {user!r} may not edit {len(blocked)} protected "
                    f"character(s) in document {doc}"
                )
