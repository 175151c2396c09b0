"""Simulated client/server shipping (Sect. 5.3).

The paper's related-work discussion compares shipping disciplines:

* RDBMS-style **tuple-at-a-time** — one request/response round trip per
  tuple ("a call for each tuple of the CO ... unnecessary crossing of
  process boundaries");
* XNF-style **block shipping** — "there is only one call (or only few
  calls) instead of a call for each tuple";
* OODB-style **object/page shipping** — whole objects or pages cross,
  dragging unrequested attributes/objects along (the security/integrity
  trade-off the paper describes).

Since the engine is in-process, the transport is a cost-accounting
simulator: it charges per-message overhead and per-value payload bytes
and reports message/byte totals, which is precisely the quantity the
paper argues about ("often increases the traffic ... by an order of
magnitude").

A :class:`COResult` is priced stream by stream, a column at a time: the
sizes of a column whose values share one fixed-size type are one
constant, and a column of ASCII strings costs its lengths.  The totals
are the ones :func:`tuple_size` gives for each tuple of
:meth:`COResult.wire_tuples`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator, Union

from repro.xnf.result import COResult

#: Rough wire sizes (bytes) — absolute values only matter relatively.
MESSAGE_OVERHEAD = 64
NULL_SIZE = 1
INTEGER_SIZE = 4
FLOAT_SIZE = 8
BOOLEAN_SIZE = 1
PAGE_SIZE = 4096


#: Sizes of the fixed-size types, by exact type: ``bool`` is an ``int``
#: subclass but ships in one byte.
_FIXED_SIZES = {type(None): NULL_SIZE, bool: BOOLEAN_SIZE,
                int: INTEGER_SIZE, float: FLOAT_SIZE}


def value_size(value) -> int:
    size = _FIXED_SIZES.get(type(value))
    if size is not None:
        return size
    if isinstance(value, int):  # int subclasses (bool cannot be one)
        return INTEGER_SIZE
    if isinstance(value, float):
        return FLOAT_SIZE
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, tuple):
        return sum(value_size(v) for v in value)
    return 8


def tuple_size(values: tuple) -> int:
    return sum(value_size(v) for v in values) + 2 * max(len(values), 1)


def _column_sizes(column: tuple) -> Union[int, list[int]]:
    """Wire sizes of one column's values: one int when they all cost
    the same, else a list."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        kind = kinds.pop()
        size = _FIXED_SIZES.get(kind)
        if size is not None:
            return size
        if kind is str:
            if "".join(column).isascii():
                return list(map(len, column))
            return [len(value.encode("utf-8")) for value in column]
    return list(map(value_size, column))


def _tuple_sizes(rows: list[tuple], extra: list = None) -> list[int]:
    """:func:`tuple_size` of every row (with ``extra[i]`` appended to
    row ``i`` when given), priced a column at a time."""
    if len(set(map(len, rows))) > 1:  # ragged: price tuple by tuple
        if extra is not None:
            rows = [row + (value,) for row, value in zip(rows, extra)]
        return [tuple_size(row) for row in rows]
    columns = list(zip(*rows))
    if extra is not None:
        columns.append(extra)
    fixed = 2 * max(len(columns), 1)
    totals = None
    for column in columns:
        sizes = _column_sizes(column)
        if isinstance(sizes, int):
            fixed += sizes
        else:
            totals = sizes if totals is None else list(map(add, totals,
                                                           sizes))
    if totals is None:
        return [fixed] * len(rows)
    return [fixed + size for size in totals]


def _wire_sizes(result: COResult) -> Iterator[list[int]]:
    """The :func:`tuple_size` of every tuple the server ships, one list
    per stream in wire order (the order of :meth:`COResult.wire_tuples`):
    component rows carry their embedded parent identity when the output
    optimization applied; reconstructed connection streams never cross
    the wire."""
    for stream in result.components.values():
        if stream.rows:
            yield _tuple_sizes(stream.rows, stream.embedded_parent_oids)
    for stream in result.relationships.values():
        if stream.connections and not stream.reconstructed:
            yield _tuple_sizes(stream.connections)


@dataclass
class TransportStats:
    """Accounted traffic of one extraction (down) or write-back (up)."""

    mode: str
    messages: int = 0
    tuples: int = 0
    payload_bytes: int = 0
    #: write traffic: update/insert/delete operations shipped to the
    #: server and their request payload, accounted separately from the
    #: read direction so a CRUD gateway's up-traffic is visible.
    updates_shipped: int = 0
    payload_bytes_up: int = 0

    @property
    def total_bytes(self) -> int:
        return (self.payload_bytes + self.payload_bytes_up
                + self.messages * MESSAGE_OVERHEAD)

    def __str__(self) -> str:
        text = (f"{self.mode}: {self.messages} messages, "
                f"{self.tuples} tuples, {self.total_bytes} bytes")
        if self.updates_shipped:
            text += (f" ({self.updates_shipped} updates, "
                     f"{self.payload_bytes_up} bytes up)")
        return text


def entry_size(entry) -> int:
    """Wire size of one workspace log entry (a write-back operation)."""
    payload = entry.payload
    size = len(entry.target) + 8  # target name + object identity
    values = payload.get("values")
    if isinstance(values, dict):
        size += sum(value_size(v) for v in values.values())
    elif "new" in payload:
        size += len(payload.get("column", "")) \
            + value_size(payload["new"])
    else:
        size += 8  # connect/disconnect: partner identities
    return size


class TransportSimulator:
    """Charges a COResult's delivery under different disciplines."""

    def tuple_at_a_time(self, result: COResult) -> TransportStats:
        """One fetch request + one reply per tuple (2 crossings each)."""
        stats = TransportStats(mode="tuple-at-a-time")
        for sizes in _wire_sizes(result):
            stats.tuples += len(sizes)
            stats.payload_bytes += sum(sizes)
        # request + response per tuple, then the final fetch returning
        # end-of-stream
        stats.messages += 2 * stats.tuples + 2
        return stats

    def block_shipping(self, result: COResult,
                       block_bytes: int = 32 * 1024) -> TransportStats:
        """The XNF discipline: the whole CO in few, large messages."""
        stats = TransportStats(mode="block")
        stats.messages += 1  # the single request
        current = 0
        open_block = False
        for sizes in _wire_sizes(result):
            stats.tuples += len(sizes)
            total = sum(sizes) + 6 * len(sizes)  # component tag + id
            stats.payload_bytes += total
            if open_block and current + total <= block_bytes:
                current += total  # the whole stream fits the open block
                continue
            for size in sizes:
                size += 6
                if not open_block or current + size > block_bytes:
                    stats.messages += 1
                    open_block = True
                    current = 0
                current += size
        if not open_block:
            stats.messages += 1  # empty result still answers
        return stats

    def object_shipping(self, result: COResult) -> TransportStats:
        """OODB-style: one message per object, all attributes cross.

        Identical tuple counts to block shipping, but per-object message
        overhead — the "order of magnitude" traffic increase of Sect. 5.3.
        """
        stats = TransportStats(mode="object")
        for sizes in _wire_sizes(result):
            stats.tuples += len(sizes)
            stats.payload_bytes += sum(sizes) + 6 * len(sizes)
        stats.messages = stats.tuples
        return stats

    def cursor_stream(self, cursor, block_rows: int = 0) -> TransportStats:
        """Charge a streaming :class:`~repro.api.cursor.Cursor`'s
        delivery: one request, then one message per ``fetchmany``
        block — the paper's "shipped result blocks" discipline applied
        to the session API's cursors.

        ``block_rows`` defaults to the cursor's ``arraysize``.  The
        cursor must hold an un-fetched result set; it is drained.
        """
        stats = TransportStats(mode="cursor-block")
        stats.messages += 1  # the single request
        size = block_rows or cursor.arraysize
        while True:
            block = cursor.fetchmany(size)
            if not block:
                break
            stats.messages += 1
            stats.tuples += len(block)
            stats.payload_bytes += sum(tuple_size(row) for row in block)
        stats.messages += 1  # end-of-stream reply
        return stats

    def update_round_trips(self, entries) -> TransportStats:
        """Write-through CRUD: one request + one ack per operation —
        the up-direction analogue of tuple-at-a-time."""
        stats = TransportStats(mode="update-round-trips")
        for entry in entries:
            stats.updates_shipped += 1
            stats.messages += 2  # request + acknowledgement
            stats.payload_bytes_up += entry_size(entry)
        return stats

    def update_block_shipping(self, entries,
                              block_bytes: int = 32 * 1024
                              ) -> TransportStats:
        """Deferred write-back: the whole update log ships in few
        large messages, answered by one acknowledgement."""
        stats = TransportStats(mode="update-block")
        current = 0
        open_block = False
        for entry in entries:
            size = entry_size(entry)
            if not open_block or current + size > block_bytes:
                stats.messages += 1
                open_block = True
                current = 0
            current += size
            stats.updates_shipped += 1
            stats.payload_bytes_up += size
        stats.messages += 1  # the acknowledgement (or empty commit)
        return stats

    def page_shipping(self, result: COResult,
                      page_fill: float = 0.5) -> TransportStats:
        """OODB-style page server: whole pages cross; only ``page_fill``
        of each page is data the client asked for."""
        stats = TransportStats(mode="page")
        stats.messages += 1
        wanted = 0
        for sizes in _wire_sizes(result):
            stats.tuples += len(sizes)
            wanted += sum(sizes) + 6 * len(sizes)
        pages = max(1, round(wanted / (PAGE_SIZE * page_fill)))
        stats.messages += pages
        stats.payload_bytes = pages * PAGE_SIZE
        return stats
