"""Exception hierarchy for the TeNDaX reproduction.

All library errors derive from :class:`TendaxError` so callers can catch one
base class.  Subsystem errors derive from intermediate classes mirroring the
package layout (database, text, collaboration, security, process, search).
"""

from __future__ import annotations


class TendaxError(Exception):
    """Base class for every error raised by this library."""


class CrashSignal(BaseException):
    """Simulated process death (see :mod:`repro.faults.plan`).

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so it
    flies through ``except Exception`` / ``except TendaxError`` handlers —
    a dead process does not run error handling.  Defined here (not in
    :mod:`repro.faults`) so the engine's instrumented hot paths can close
    spans on crash without importing the fault package.
    """


# ---------------------------------------------------------------------------
# Database engine errors
# ---------------------------------------------------------------------------

class DatabaseError(TendaxError):
    """Base class for errors raised by the relational engine."""


class SchemaError(DatabaseError):
    """A table or column definition is invalid or violated."""


class DuplicateTableError(SchemaError):
    """A table with the same name already exists."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the table schema."""


class TypeMismatchError(SchemaError):
    """A value does not match the declared column type."""


class NotNullViolation(SchemaError):
    """A NULL was supplied for a non-nullable column."""


class UniqueViolation(DatabaseError):
    """A uniqueness constraint (primary key or unique index) was violated."""


class RowNotFoundError(DatabaseError):
    """A row id referenced a row that does not exist (or is deleted)."""


class TransactionError(DatabaseError):
    """Base class for transaction lifecycle errors."""


class TransactionStateError(TransactionError):
    """Operation attempted on a transaction in the wrong state."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (explicitly or by the engine)."""


class ReadOnlyTransactionError(TransactionError):
    """A write was attempted through a read-only (snapshot) transaction."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired within the configured timeout."""


class DeadlockError(TransactionError):
    """The lock manager detected a deadlock and chose this victim."""


class WalError(DatabaseError):
    """The write-ahead log is corrupt or was misused."""


class RecoveryError(DatabaseError):
    """Crash recovery could not be completed."""


class ReplicationError(DatabaseError):
    """The replication stream or follower apply path was violated
    (gap in the shipped LSN sequence, apply after promotion, ...)."""


# ---------------------------------------------------------------------------
# Text extension errors
# ---------------------------------------------------------------------------

class TextError(TendaxError):
    """Base class for errors in the native text extension."""


class UnknownDocumentError(TextError):
    """A referenced document does not exist."""


class UnknownCharacterError(TextError):
    """A referenced character tuple does not exist in the document."""


class InvalidPositionError(TextError):
    """An index or range lies outside the document."""


class StructureError(TextError):
    """The structure tree (sections, paragraphs) was manipulated invalidly."""


class LayoutError(TextError):
    """A style or template operation is invalid."""


# ---------------------------------------------------------------------------
# Collaboration errors
# ---------------------------------------------------------------------------

class CollaborationError(TendaxError):
    """Base class for collaboration-server errors."""


class SessionError(CollaborationError):
    """A session operation is invalid (closed session, unknown session...)."""


class OperationError(CollaborationError):
    """An editing operation could not be applied."""


class UndoError(CollaborationError):
    """Nothing to undo/redo, or the undo target is no longer undoable."""


class ClipboardError(CollaborationError):
    """Copy/paste failed (empty clipboard, bad source range...)."""


class NetError(CollaborationError):
    """Network-layer failure: transport loss, handshake or RPC problems."""


class ProtocolError(NetError):
    """A wire frame violated the protocol (malformed, oversized,
    unknown envelope type, or out-of-contract fields).  Fatal for the
    connection that produced it — the peer answers with an ERROR
    envelope and closes."""


class BackpressureError(NetError):
    """A session's bounded send queue overflowed; the server sheds the
    slow consumer by closing its connection."""


# ---------------------------------------------------------------------------
# Security errors
# ---------------------------------------------------------------------------

class SecurityError(TendaxError):
    """Base class for security subsystem errors."""


class AccessDenied(SecurityError):
    """The acting user lacks the required permission."""


class UnknownPrincipalError(SecurityError):
    """A referenced user or role does not exist."""


# ---------------------------------------------------------------------------
# Business process errors
# ---------------------------------------------------------------------------

class ProcessError(TendaxError):
    """Base class for in-document workflow errors."""


class TaskStateError(ProcessError):
    """A task transition is not allowed from its current state."""


class RoutingError(ProcessError):
    """A task could not be routed to a user or role."""


# ---------------------------------------------------------------------------
# Folders / search / mining errors
# ---------------------------------------------------------------------------

class FolderError(TendaxError):
    """Base class for folder subsystem errors."""


class SearchError(TendaxError):
    """Base class for search subsystem errors."""


class QuerySyntaxError(SearchError):
    """A search query string could not be parsed."""


class MiningError(TendaxError):
    """Base class for visual/text mining errors."""
