"""Indexes over heap tables.

Two access methods, mirroring what Starburst's CORE offered the optimizer:

* :class:`HashIndex` — equality lookups, the workhorse for join and
  foreign-key navigation (the paper's "parent/child links" reduce to
  equality access on the child's foreign key).
* :class:`OrderedIndex` — a sorted structure (binary search over a sorted
  key list, the in-memory stand-in for a B-tree) supporting equality and
  range scans in key order.

A table's primary key is a :class:`PrimaryKeyIndex`, a unique hash
index the table creates itself: it is the one key-lookup mechanism for
constraint checks, point reads and index nested-loop probes alike.

Indexes are maintained eagerly by the owning :class:`~repro.storage.table.Table`
through the ``on_insert`` / ``on_update`` / ``on_delete`` notifications.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import StorageError, TypeCheckError

if TYPE_CHECKING:  # the table module imports this one
    from repro.storage.table import Rid, Row, Table


#: Rows fetched per heap batch while an index is (re)built.
_REBUILD_BATCH = 4096


class Index:
    """Common behaviour for all index types."""

    def __init__(self, name: str, table: Table, column_names: Sequence[str],
                 unique: bool = False):
        if not column_names:
            raise StorageError(f"index {name!r} must cover at least one column")
        self.name = name
        self.table_name = table.name
        self.column_names = tuple(column_names)
        self.positions = tuple(table.column_position(c) for c in column_names)
        self.unique = unique
        # Key extraction runs on every mutation and index rebuild; an
        # itemgetter returns a bare value for one position, hence the
        # single-column case.
        self._single = self.positions[0] if len(self.positions) == 1 \
            else None
        self._getter = itemgetter(*self.positions)

    def key_of(self, row: Row) -> tuple:
        if self._single is not None:
            return (row[self._single],)
        return self._getter(row)

    # -- maintenance hooks (called by Table) ---------------------------
    def on_insert(self, rid: Rid, row: Row) -> None:
        raise NotImplementedError

    def on_delete(self, rid: Rid, row: Row) -> None:
        raise NotImplementedError

    def on_update(self, rid: Rid, old: Row, new: Row) -> None:
        old_key, new_key = self.key_of(old), self.key_of(new)
        if old_key == new_key:
            return
        self.on_delete(rid, old)
        self.on_insert(rid, new)

    def rebuild(self, table: Table) -> None:
        raise NotImplementedError

    # -- lookups --------------------------------------------------------
    def lookup(self, key: tuple) -> list[Rid]:
        raise NotImplementedError

    def _check_unique(self, key: tuple, existing: Sequence[Rid]) -> None:
        if self.unique and existing and None not in key:
            cols = ", ".join(self.column_names)
            raise TypeCheckError(
                f"unique index {self.name!r} violated: ({cols}) = {key!r}"
            )


class HashIndex(Index):
    """Equality index: dict from key tuple to list of RIDs."""

    def __init__(self, name: str, table: Table, column_names: Sequence[str],
                 unique: bool = False):
        super().__init__(name, table, column_names, unique)
        self._buckets: dict[tuple, list[Rid]] = {}

    def rebuild(self, table: Table) -> None:
        self._buckets = {}
        for chunk in table.scan_batches(_REBUILD_BATCH):
            for rid, row in chunk:
                self.on_insert(rid, row)

    def on_insert(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.setdefault(key, [])
        self._check_unique(key, bucket)
        bucket.append(rid)

    def on_delete(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None or rid not in bucket:
            raise StorageError(
                f"index {self.name!r} out of sync: rid {rid} missing for {key!r}"
            )
        bucket.remove(rid)
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: tuple) -> list[Rid]:
        """RIDs of rows whose indexed columns equal ``key`` (NULL never matches)."""
        key = tuple(key)
        if None in key:
            return []
        return list(self._buckets.get(key, ()))

    def distinct_keys(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (f"<HashIndex {self.name} on {self.table_name}"
                f"({', '.join(self.column_names)})>")


class PrimaryKeyIndex(HashIndex):
    """A table's primary key as a unique hash index named ``PK_<table>``.

    Owned by the table and implied by its schema: it is never a catalog
    object, never logged as DDL and never listed in a snapshot.  Each
    key maps straight to its one RID (``_buckets`` holds RIDs, not RID
    lists), so the index costs no more memory than a plain dict.
    """

    def __init__(self, table: Table):
        super().__init__(f"PK_{table.name}", table, table.primary_key,
                         unique=True)

    def check_available(self, row: Row) -> None:
        """Raise if another row already holds ``row``'s key."""
        key = self.key_of(row)
        if key in self._buckets:
            cols = ", ".join(self.column_names)
            raise TypeCheckError(
                f"duplicate primary key ({cols}) = {key!r} in table "
                f"{self.table_name!r}"
            )

    def on_insert(self, rid: Rid, row: Row) -> None:
        self.check_available(row)
        self._buckets[self.key_of(row)] = rid

    def on_delete(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if self._buckets.get(key) != rid:
            raise StorageError(
                f"index {self.name!r} out of sync: rid {rid} missing for {key!r}"
            )
        del self._buckets[key]

    def lookup(self, key: tuple) -> list[Rid]:
        rid = self._buckets.get(tuple(key))
        return [] if rid is None else [rid]

    def __repr__(self) -> str:
        return (f"<PrimaryKeyIndex {self.name} on {self.table_name}"
                f"({', '.join(self.column_names)})>")


class _KeyWrapper:
    """Total order over key tuples that may contain NULLs or mixed types.

    NULLs sort low; values compare within their Python type, and distinct
    types order by type name so that sorting never raises.  Range lookups
    only make sense over homogeneous keys, which the planner guarantees.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def _rank(self):
        return tuple(
            (0, "", "") if v is None else (1, type(v).__name__, v)
            for v in self.key
        )

    def __lt__(self, other: "_KeyWrapper") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _KeyWrapper) and self.key == other.key


class OrderedIndex(Index):
    """Sorted index supporting equality and range scans.

    Keeps a sorted list of (key, rid) wrappers; binary search gives
    O(log n) positioning and ordered iteration gives range scans, which is
    the behaviour the optimizer relies on from a B-tree.
    """

    def __init__(self, name: str, table: Table, column_names: Sequence[str],
                 unique: bool = False):
        super().__init__(name, table, column_names, unique)
        self._keys: list[_KeyWrapper] = []
        self._rids: list[Rid] = []

    def rebuild(self, table: Table) -> None:
        pairs = sorted(
            ((_KeyWrapper(self.key_of(row)), rid) for rid, row in table.scan()),
            key=lambda p: (p[0]._rank(), p[1]),
        )
        self._keys = [p[0] for p in pairs]
        self._rids = [p[1] for p in pairs]
        if self.unique:
            for i in range(1, len(self._keys)):
                if self._keys[i] == self._keys[i - 1]:
                    self._check_unique(self._keys[i].key, [self._rids[i - 1]])

    def on_insert(self, rid: Rid, row: Row) -> None:
        wrapper = _KeyWrapper(self.key_of(row))
        lo = bisect.bisect_left(self._keys, wrapper)
        hi = bisect.bisect_right(self._keys, wrapper)
        self._check_unique(wrapper.key, self._rids[lo:hi])
        self._keys.insert(hi, wrapper)
        self._rids.insert(hi, rid)

    def on_delete(self, rid: Rid, row: Row) -> None:
        wrapper = _KeyWrapper(self.key_of(row))
        lo = bisect.bisect_left(self._keys, wrapper)
        hi = bisect.bisect_right(self._keys, wrapper)
        for i in range(lo, hi):
            if self._rids[i] == rid:
                del self._keys[i]
                del self._rids[i]
                return
        raise StorageError(
            f"index {self.name!r} out of sync: rid {rid} missing"
        )

    def lookup(self, key: tuple) -> list[Rid]:
        key = tuple(key)
        if None in key:
            return []
        wrapper = _KeyWrapper(key)
        lo = bisect.bisect_left(self._keys, wrapper)
        hi = bisect.bisect_right(self._keys, wrapper)
        return self._rids[lo:hi]

    def range_scan(self, low: tuple | None = None, high: tuple | None = None,
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> Iterator[Rid]:
        """Yield RIDs with keys in [low, high] (bounds optional), in order.

        NULL keys are never returned: SQL range predicates are unknown on
        NULL, so a NULL key can never satisfy them.
        """
        lo = 0
        if low is not None:
            wrapper = _KeyWrapper(tuple(low))
            lo = (bisect.bisect_left(self._keys, wrapper) if low_inclusive
                  else bisect.bisect_right(self._keys, wrapper))
        hi = len(self._keys)
        if high is not None:
            wrapper = _KeyWrapper(tuple(high))
            hi = (bisect.bisect_right(self._keys, wrapper) if high_inclusive
                  else bisect.bisect_left(self._keys, wrapper))
        for i in range(lo, hi):
            if None not in self._keys[i].key:
                yield self._rids[i]

    def ordered_rids(self) -> Iterator[Rid]:
        """All RIDs in key order (NULL keys first)."""
        return iter(list(self._rids))

    def distinct_keys(self) -> int:
        count = 0
        prev = None
        for wrapper in self._keys:
            if prev is None or wrapper.key != prev:
                count += 1
            prev = wrapper.key
        return count

    def __repr__(self) -> str:
        return (f"<OrderedIndex {self.name} on {self.table_name}"
                f"({', '.join(self.column_names)})>")
