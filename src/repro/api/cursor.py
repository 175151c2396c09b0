"""DB-API-2.0-flavored cursors streaming from the batch executor.

The paper's client interface is cursor-shaped (Sect. 2: "the
application program ... fetches the tuples of the CO through a set of
cursors"), and its transport argument (Sect. 5.3) is about shipping
result *blocks* rather than tuples.  A :class:`Cursor` is exactly
that: ``execute`` compiles the statement but materializes nothing;
each ``fetchone``/``fetchmany``/``fetchall`` pulls batches from the
executor on demand, so the first row of a million-row scan costs one
batch, not a full result.

Streaming reads are *read-committed per fetch call*: each
``fetchone``/``fetchmany``/``fetchall`` takes the engine's shared
statement latch once and observes the committed database state at that
moment (plus the session's own open transaction).  A ``fetchall``
drains the rest of the stream under that one hold, so a writer arriving
meanwhile waits for the call to finish; ``fetchmany(n)`` pulls batches
under one hold until it has ``n`` rows; ``fetchone`` pulls at most one
batch.  Operators that began scanning under one state keep their
iteration position; rows already delivered are not retracted.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.api.frontend import statement_of
from repro.errors import InterfaceError
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Session


#: DB-API description entry: (name, type_code, display_size,
#: internal_size, precision, scale, null_ok) — only the name is known.
def _describe(columns: list[str]) -> list[tuple]:
    return [(name, None, None, None, None, None, None)
            for name in columns]


class Cursor:
    """One statement-at-a-time handle over a session.

    Supports the DB-API core: ``execute``/``executemany``,
    ``fetchone``/``fetchmany``/``fetchall``, ``description``,
    ``rowcount``, ``arraysize``, iteration, ``close()`` and the
    context-manager protocol.
    """

    def __init__(self, session: "Session"):
        self.session = session
        self.arraysize = session.arraysize
        self._closed = False
        self._stream = None
        self._exhausted = False
        self._buffer: deque = deque()
        self._description: Optional[list[tuple]] = None
        self._rowcount = -1
        self._delivered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._discard()
        self._closed = True
        self.session._forget_cursor(self)

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("operation on a closed cursor")
        self.session._check_open()

    def __enter__(self) -> "Cursor":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _discard(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self._exhausted = False
        self._buffer.clear()
        self._description = None
        self._rowcount = -1
        self._delivered = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, operation: str, params=None) -> "Cursor":
        """Run one statement; SELECTs open a lazy result stream."""
        self._check_open()
        self._discard()
        statement = self.session.engine.parse(operation)
        if isinstance(statement_of(statement), ast.SelectStatement):
            self._stream = self.session._stream_select(statement, params)
            self._description = _describe(self._stream.columns)
            return self
        if isinstance(statement_of(statement), ast.XNFQuery):
            raise InterfaceError(
                "cursors deliver homogeneous row streams; run XNF "
                "queries through Session.xnf() / open_cache() instead"
            )
        result = self.session.execute_statement(statement, params=params)
        self._rowcount = result if isinstance(result, int) else -1
        return self

    def executemany(self, operation: str, seq_of_params) -> "Cursor":
        """Run a DML statement once per parameter set.

        ``rowcount`` accumulates across the whole sequence.
        """
        self._check_open()
        statement = self.session.engine.parse(operation)
        if isinstance(statement_of(statement),
                      (ast.SelectStatement, ast.XNFQuery)):
            raise InterfaceError(
                "executemany() is for DML; use execute() for queries")
        self._discard()
        total = 0
        counted = False
        for params in seq_of_params:
            result = self.session.execute_statement(statement,
                                                    params=params)
            if isinstance(result, int):
                total += result
                counted = True
        self._rowcount = total if counted else -1
        return self

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[list[tuple]]:
        return self._description

    @property
    def rowcount(self) -> int:
        """DML: affected rows.  SELECT: -1 until the stream is
        exhausted, then the number of rows delivered."""
        return self._rowcount

    @property
    def counters(self) -> Optional[dict]:
        """The live execution counters of the current result stream
        (rows scanned/joined, index lookups, ...) — observability for
        streaming behavior."""
        if self._stream is None:
            return None
        return dict(self._stream.ctx.counters)

    def _require_result(self) -> None:
        if self._description is None:
            raise InterfaceError(
                "no result set; execute a SELECT on this cursor first")

    def _fill(self, want: Optional[int]) -> None:
        """Buffer at least ``want`` rows (``None``: the rest of the
        stream) with one pull, i.e. one shared latch hold."""
        if self._exhausted:
            return
        if want is not None:
            want -= len(self._buffer)
            if want <= 0:
                return
        rows, ended = self.session._pull(self._stream, want)
        self._buffer.extend(rows)
        if ended:
            # The stream is kept (its counters remain readable);
            # everything is known now: rows already delivered plus the
            # buffered tail that will be.
            self._exhausted = True
            self._rowcount = self._delivered + len(self._buffer)

    def fetchone(self) -> Optional[tuple]:
        self._check_open()
        self._require_result()
        self._fill(1)
        if not self._buffer:
            return None
        self._delivered += 1
        return self._buffer.popleft()

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        self._check_open()
        self._require_result()
        size = self.arraysize if size is None else size
        if size <= 0:
            return []
        self._fill(size)
        out = [self._buffer.popleft()
               for _ in range(min(size, len(self._buffer)))]
        self._delivered += len(out)
        return out

    def fetchall(self) -> list[tuple]:
        self._check_open()
        self._require_result()
        self._fill(None)
        out = list(self._buffer)
        self._buffer.clear()
        self._delivered += len(out)
        return out

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"<Cursor of {self.session.label} ({state})>"
