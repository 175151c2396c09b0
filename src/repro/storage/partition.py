"""Horizontal partitioning schemes for heap tables.

A partitioning scheme maps a row's partition-key values to a partition
id.  Routing must be *stable across processes*: WAL replay puts rows
back at their logged RIDs, which encode the partition chosen when they
were written, and replays repartitions, so Python's seeded ``hash()``
is off limits.  Hash routing therefore runs CRC-32 over the ``repr`` of
the key tuple, which is deterministic for the SQL value types we store
(ints, floats, strings, None).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Union

from repro.errors import StorageError

__all__ = ["HashPartitioning", "RangePartitioning", "Partitioning"]


def stable_hash(values: tuple) -> int:
    """Deterministic hash of a key tuple (PYTHONHASHSEED-independent)."""
    return zlib.crc32(repr(values).encode("utf-8"))


@dataclass(frozen=True)
class HashPartitioning:
    """``PARTITION BY HASH (cols) PARTITIONS n``."""

    columns: tuple[str, ...]
    partitions: int

    def __post_init__(self) -> None:
        if not self.columns:
            raise StorageError("hash partitioning needs at least one column")
        if self.partitions < 1:
            raise StorageError(
                f"hash partitioning needs >= 1 partition, got {self.partitions}"
            )

    def route(self, key: tuple) -> int:
        """Partition id for a partition-key tuple; NULL keys hash like
        any other value (``repr(None)`` is stable)."""
        return stable_hash(key) % self.partitions

    def describe(self) -> str:
        return f"HASH({', '.join(self.columns)}) PARTITIONS {self.partitions}"


@dataclass(frozen=True)
class RangePartitioning:
    """``PARTITION BY RANGE (col) VALUES LESS THAN (b1, ..., bk)``.

    ``k`` upper bounds define ``k + 1`` partitions: partition ``i < k``
    holds rows with ``value < bounds[i]`` (and ``>= bounds[i-1]``); the
    final partition is the overflow for everything at or above the last
    bound.  NULL routes to partition 0 (NULLs sort low here).
    """

    column: str
    bounds: tuple

    def __post_init__(self) -> None:
        if not self.bounds:
            raise StorageError("range partitioning needs at least one bound")
        for a, b in zip(self.bounds, self.bounds[1:]):
            if not a < b:
                raise StorageError(
                    f"range partition bounds must be strictly increasing: "
                    f"{a!r} !< {b!r}"
                )

    @property
    def columns(self) -> tuple[str, ...]:
        return (self.column,)

    @property
    def partitions(self) -> int:
        return len(self.bounds) + 1

    def route(self, key: tuple) -> int:
        value = key[0]
        if value is None:
            return 0
        return bisect_right(self.bounds, value)

    def describe(self) -> str:
        bounds = ", ".join(repr(b) for b in self.bounds)
        return f"RANGE({self.column}) VALUES LESS THAN ({bounds})"


Partitioning = Union[HashPartitioning, RangePartitioning]
