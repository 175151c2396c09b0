"""Exception hierarchy for the XNF reproduction.

Each layer of the system raises its own exception family so callers can
distinguish, say, a parse error (user's fault) from an executor invariant
violation (our fault).  Everything derives from :class:`ReproError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class StorageError(ReproError):
    """Problems in the storage layer (tables, rows, indexes)."""


class TypeCheckError(ReproError):
    """A value does not conform to its declared SQL type."""


class CatalogError(ReproError):
    """Unknown or duplicate catalog objects (tables, views, indexes)."""


class TransactionError(ReproError):
    """Misuse of the transaction API (commit without begin, etc.)."""


class InterfaceError(ReproError):
    """Operation on a closed handle (engine, session, or cursor), or a
    cursor misused against the DB-API-flavored contract."""


class LexerError(ReproError):
    """The tokenizer hit an unrecognized character sequence."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(ReproError):
    """The parser could not derive a statement from the token stream."""


class SemanticError(ReproError):
    """Name resolution or type checking failed while building QGM."""


class RewriteError(ReproError):
    """A rewrite rule produced or encountered an inconsistent QGM graph."""


class PlanningError(ReproError):
    """The optimizer could not produce a plan for a QGM graph."""


class ExecutionError(ReproError):
    """Runtime failure while evaluating a query plan."""


class XNFError(ReproError):
    """Violations of XNF-specific semantics (schema graphs, reachability)."""


class CacheError(ReproError):
    """Misuse of the CO cache / workspace API."""


class UpdateError(ReproError):
    """An update through a view or cache cannot be applied."""


class ViewUpdateError(UpdateError):
    """A DML statement against a view has no sound base-table
    translation, or its put-back failed the well-definedness check.

    Carries the offending QGM box label, the column (when one is at
    fault) and a reason string, so rejections always name *what* in the
    view's derivation blocks the write and *why*.
    """

    def __init__(self, message: str, box: str = "", column: str = "",
                 reason: str = ""):
        parts = [message]
        if column:
            parts.append(f"column {column!r}")
        if box:
            parts.append(f"box {box!r}")
        if reason:
            parts.append(reason)
        super().__init__(": ".join(parts))
        self.box = box
        self.column = column
        self.reason = reason


class NotUpdatableError(ViewUpdateError):
    """The view, component, column or relationship is read-only per the
    static updatability analysis: the write is rejected before it
    touches a row."""
