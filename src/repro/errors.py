"""Exception hierarchy for the PRIMA reproduction.

Every layer raises subclasses of :class:`PrimaError`.  The hierarchy mirrors
the three-layer architecture of the kernel (Fig. 3.1 of the paper) plus the
language front end, so callers can catch at the granularity they care about.
"""

from __future__ import annotations


class PrimaError(Exception):
    """Base class for all errors raised by the PRIMA reproduction."""


# --------------------------------------------------------------------------
# Storage system (segments, pages, page sequences, buffer)
# --------------------------------------------------------------------------

class StorageError(PrimaError):
    """Base class for storage-system failures."""


class PageSizeError(StorageError):
    """An unsupported page/block size was requested.

    The storage system supports exactly five page sizes (1/2, 1, 2, 4 and
    8 KByte) because the underlying file manager supports exactly these
    block sizes (paper, section 3.3).
    """


class PageOverflowError(StorageError):
    """An item does not fit into the free space of a page."""


class BufferFullError(StorageError):
    """The buffer cannot make room because too many pages are fixed."""


class PageNotFoundError(StorageError):
    """A referenced page does not exist in its segment."""


class SegmentError(StorageError):
    """Segment-level failure (unknown segment, duplicate name, ...)."""


# --------------------------------------------------------------------------
# Access system (records, addressing, atoms, tuning structures, scans)
# --------------------------------------------------------------------------

class AccessError(PrimaError):
    """Base class for access-system failures."""


class RecordNotFoundError(AccessError):
    """A physical record id does not resolve to a stored record."""


class AtomNotFoundError(AccessError):
    """A logical address (surrogate) does not resolve to an atom."""


class IntegrityError(AccessError):
    """A system-enforced structural-integrity rule would be violated.

    Raised e.g. for dangling REFERENCE values, cardinality violations on
    SET attributes, or duplicate key values.
    """


class CardinalityError(IntegrityError):
    """A SET attribute left its declared (min, max) cardinality bounds."""


class DuplicateKeyError(IntegrityError):
    """A KEYS_ARE constraint would be violated by an insert or modify."""


class ScanStateError(AccessError):
    """A scan was used in an illegal state (exhausted, closed, ...)."""


class StructureExistsError(AccessError):
    """A tuning structure (access path, sort order, ...) already exists."""


class StructureNotFoundError(AccessError):
    """A referenced tuning structure does not exist."""


# --------------------------------------------------------------------------
# MAD model / catalog
# --------------------------------------------------------------------------

class SchemaError(PrimaError):
    """Base class for schema / catalog violations."""


class UnknownTypeError(SchemaError):
    """An atom type, molecule type, or attribute does not exist."""


class TypeMismatchError(SchemaError):
    """A value does not conform to its declared attribute type."""


# --------------------------------------------------------------------------
# Language front ends (MQL and LDL)
# --------------------------------------------------------------------------

class LanguageError(PrimaError):
    """Base class for MQL/LDL front-end errors."""


class LexerError(LanguageError):
    """Invalid token in an MQL or LDL source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """Syntactically invalid MQL or LDL statement."""


class ValidationError(LanguageError):
    """Semantically invalid statement (unknown names, bad structure, ...)."""


# --------------------------------------------------------------------------
# Data system (planning and execution)
# --------------------------------------------------------------------------

class DataSystemError(PrimaError):
    """Base class for planner/executor failures."""


class ExecutionError(DataSystemError):
    """A processing plan failed during evaluation."""


class CursorStateError(DataSystemError):
    """A result-set cursor was used in an illegal state.

    Raised e.g. when ``reopen()`` is called on a result set whose
    pipeline was explicitly closed before it was fully fetched — the
    truncated fetch cache must not be presented as the complete set.
    """


# --------------------------------------------------------------------------
# Transactions
# --------------------------------------------------------------------------

class TransactionError(PrimaError):
    """Base class for transaction-management failures."""


class TransactionStateError(TransactionError):
    """Operation illegal in the transaction's current state."""


class LockConflictError(TransactionError):
    """A lock request conflicts with a lock held by another transaction."""


# --------------------------------------------------------------------------
# Parallel processing and coupling
# --------------------------------------------------------------------------

class DecompositionError(PrimaError):
    """A user operation could not be decomposed into units of work."""


class CouplingError(PrimaError):
    """Workstation-host coupling failure (bad checkout/checkin state)."""


# --------------------------------------------------------------------------
# Serving layer (sessions and remote cursors)
# --------------------------------------------------------------------------

class SessionError(PrimaError):
    """Base class for serving-layer (session/remote cursor) failures."""


class SessionLimitError(SessionError):
    """Admission control rejected a session: the server is at its
    ``max_sessions`` capacity (and the ``reject`` policy is in force, or
    a ``queue`` wait timed out)."""


class SubscriptionLimitError(SessionLimitError):
    """A session hit its live-query admission budget: it already holds
    ``max_subscriptions`` registered subscriptions."""


class SessionStateError(SessionError):
    """A session or remote cursor was used in an illegal state
    (closed session, unknown cursor id, double close, ...)."""


class SessionExpiredError(SessionStateError):
    """A session, cursor, or statement handle was reclaimed by the
    server's resource hygiene before this use: the session lease ran
    out, or an idle-cursor / idle-statement timeout returned the
    pipeline resources.  The client must reconnect (or re-open)."""


class ProtocolError(SessionError):
    """A malformed or out-of-order message on the serving wire
    (undecodable frame, oversized length prefix, a request before
    HELLO, ...)."""
