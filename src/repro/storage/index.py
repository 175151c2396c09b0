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

Every index answers :meth:`Index.lookup_many`, one probe for a whole
batch of keys.  The two key structures with an order, the primary key
and the ordered index, answer :meth:`Index.range_scan`: one method
over a sorted key list, which the ordered index keeps eagerly and the
primary key builds on the first range read and drops when a key is
inserted or deleted.

Indexes are maintained eagerly by the owning :class:`~repro.storage.table.Table`
through the ``on_insert`` / ``on_update`` / ``on_delete`` notifications.
"""

from __future__ import annotations

import bisect
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import StorageError, TypeCheckError

if TYPE_CHECKING:  # the table module imports this one
    from repro.storage.table import Rid, Row, Table


#: Rows fetched per heap batch while an index is (re)built.
_REBUILD_BATCH = 4096
#: The two halves of a ``(rid, row)`` pair of :meth:`Table.scan_batches`.
_RID, _ROW = itemgetter(0), itemgetter(1)


class Index:
    """Common behaviour for all index types."""

    #: Whether the index answers :meth:`range_scan` (it has a key order).
    ordered = False

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

    def _chunk_keys(self, chunk: list[tuple[Rid, Row]]
                    ) -> tuple[Iterator[tuple], Iterator[Rid]]:
        """One rebuild batch's keys and RIDs, column-wise: the keys
        :meth:`key_of` gives, built without a Python call per row."""
        keys = map(self._getter, map(_ROW, chunk))
        # A one-column itemgetter gives the bare value; ``zip`` of one
        # iterable wraps each in the 1-tuple ``key_of`` returns.
        if self._single is not None:
            keys = zip(keys)
        return keys, map(_RID, chunk)

    # -- lookups --------------------------------------------------------
    def lookup(self, key: tuple) -> list[Rid]:
        raise NotImplementedError

    def lookup_many(self, keys: Sequence[tuple]
                    ) -> tuple[Sequence[int], list[Rid]]:
        """Probe every key tuple of ``keys`` at once.

        Returns ``(positions, rids)``: every RID a key found, in key
        order, beside the position in ``keys`` of the key that found
        it.  A key with a NULL finds nothing, as in :meth:`lookup`.
        """
        positions: list[int] = []
        rids: list[Rid] = []
        for position, key in enumerate(keys):
            found = self.lookup(key)
            if found:
                positions += [position] * len(found)
                rids += found
        return positions, rids

    def range_scan(self, low: tuple | None = None,
                   high: tuple | None = None, low_inclusive: bool = True,
                   high_inclusive: bool = True) -> list[Rid]:
        """RIDs whose key lies between ``low`` and ``high`` (``None``:
        open), in key order; a NULL key is never returned.

        Bounds compare with keys as Python compares tuples, so a
        bound of a type the keys do not compare with raises
        ``TypeError`` (the caller decides what that means), and a
        bound shorter than the key compares as a key prefix.
        """
        keys, rids = self._sorted()
        lo = 0
        if low is not None:
            lo = (bisect.bisect_left if low_inclusive
                  else bisect.bisect_right)(keys, tuple(low))
        hi = len(keys)
        if high is not None:
            hi = (bisect.bisect_right if high_inclusive
                  else bisect.bisect_left)(keys, tuple(high))
        return rids[lo:hi]

    def _sorted(self) -> tuple[list[tuple], list[Rid]]:
        """The NULL-free keys in order and their RIDs (ordered
        indexes only)."""
        raise StorageError(f"index {self.name!r} has no key order")

    def _check_unique(self, key: tuple, existing: Sequence[Rid]) -> None:
        if self.unique and existing and None not in key:
            cols = ", ".join(self.column_names)
            raise TypeCheckError(
                f"unique index {self.name!r} violated: ({cols}) = {key!r}"
            )


class HashIndex(Index):
    """Equality index: dict from key tuple to list of RIDs.  A key with
    a NULL never matches, so it is not stored."""

    def __init__(self, name: str, table: Table, column_names: Sequence[str],
                 unique: bool = False):
        super().__init__(name, table, column_names, unique)
        self._buckets: dict[tuple, list[Rid]] = {}

    def rebuild(self, table: Table) -> None:
        buckets: dict[tuple, list[Rid]] = {}
        unique = self.unique
        for chunk in table.scan_batches(_REBUILD_BATCH):
            for key, rid in zip(*self._chunk_keys(chunk)):
                if None in key:
                    continue
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [rid]
                else:
                    if unique:
                        self._check_unique(key, bucket)
                    bucket.append(rid)
        self._buckets = buckets

    def on_insert(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if None in key:
            return
        bucket = self._buckets.setdefault(key, [])
        self._check_unique(key, bucket)
        bucket.append(rid)

    def on_delete(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if None in key:
            return
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
        return list(self._buckets.get(tuple(key), ()))

    def lookup_many(self, keys: Sequence[tuple]
                    ) -> tuple[Sequence[int], list[Rid]]:
        found = list(map(self._buckets.get, keys))
        rids = [rid for bucket in found if bucket for rid in bucket]
        positions = [position for position, bucket in enumerate(found)
                     if bucket for _rid in bucket]
        return positions, rids

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
    lists), so the index costs no more memory than a plain dict.  The
    sorted key list of :meth:`range_scan` is built on the first range
    read and dropped when a key is inserted or deleted; an update that
    keeps the key keeps it.
    """

    ordered = True

    def __init__(self, table: Table):
        super().__init__(f"PK_{table.name}", table, table.primary_key,
                         unique=True)
        self._order: tuple[list[tuple], list[Rid]] | None = None

    def rebuild(self, table: Table) -> None:
        buckets: dict[tuple, Rid] = {}
        self._buckets = buckets
        self._order = None
        for chunk in table.scan_batches(_REBUILD_BATCH):
            before = len(buckets)
            buckets.update(zip(*self._chunk_keys(chunk)))
            if len(buckets) - before < len(chunk):
                # A key repeats.  Replay row by row, so the first
                # repeat in scan order raises check_available's error.
                self._buckets = {}
                for rid, row in chain.from_iterable(
                        table.scan_batches(_REBUILD_BATCH)):
                    self.on_insert(rid, row)
                return

    def _sorted(self) -> tuple[list[tuple], list[Rid]]:
        order = self._order
        if order is None:
            # Key columns are NOT NULL and of one type each, so the
            # keys sort without a NULL or a type to order around.
            keys = sorted(self._buckets)
            order = self._order = (keys,
                                   list(map(self._buckets.__getitem__,
                                            keys)))
        return order

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
        self._order = None

    def on_delete(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if self._buckets.get(key) != rid:
            raise StorageError(
                f"index {self.name!r} out of sync: rid {rid} missing for {key!r}"
            )
        del self._buckets[key]
        self._order = None

    def lookup(self, key: tuple) -> list[Rid]:
        rid = self._buckets.get(tuple(key))
        return [] if rid is None else [rid]

    def lookup_many(self, keys: Sequence[tuple]
                    ) -> tuple[Sequence[int], list[Rid]]:
        found = list(map(self._buckets.get, keys))
        if None not in found:
            return range(len(found)), found
        positions = [position for position, rid in enumerate(found)
                     if rid is not None]
        return positions, [found[position] for position in positions]

    def __repr__(self) -> str:
        return (f"<PrimaryKeyIndex {self.name} on {self.table_name}"
                f"({', '.join(self.column_names)})>")


class OrderedIndex(Index):
    """Sorted index supporting equality and range scans.

    Keeps the keys without a NULL in a sorted list beside their RIDs;
    binary search gives O(log n) positioning and ordered iteration gives
    range scans, which is the behaviour the optimizer relies on from a
    B-tree.  Keys are plain tuples: a column holds values of one type,
    so they sort as Python sorts them.  A key with a NULL matches no
    equality or range and is kept aside (``_nulls``, RID -> key).
    """

    ordered = True

    def __init__(self, name: str, table: Table, column_names: Sequence[str],
                 unique: bool = False):
        super().__init__(name, table, column_names, unique)
        self._keys: list[tuple] = []
        self._rids: list[Rid] = []
        self._nulls: dict[Rid, tuple] = {}

    def rebuild(self, table: Table) -> None:
        pairs = []
        self._nulls = {}
        for rid, row in table.scan():
            key = self.key_of(row)
            if None in key:
                self._nulls[rid] = key
            else:
                pairs.append((key, rid))
        pairs.sort()
        self._keys = [key for key, _rid in pairs]
        self._rids = [rid for _key, rid in pairs]
        if self.unique:
            for i in range(1, len(self._keys)):
                if self._keys[i] == self._keys[i - 1]:
                    self._check_unique(self._keys[i], [self._rids[i - 1]])

    def on_insert(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if None in key:
            self._nulls[rid] = key
            return
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key, lo)
        self._check_unique(key, self._rids[lo:hi])
        self._keys.insert(hi, key)
        self._rids.insert(hi, rid)

    def on_delete(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if None in key:
            if self._nulls.pop(rid, None) is None:
                raise StorageError(
                    f"index {self.name!r} out of sync: rid {rid} missing"
                )
            return
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key, lo)
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
        try:
            lo = bisect.bisect_left(self._keys, key)
        except TypeError:
            return []  # a key the stored keys do not compare with
        hi = bisect.bisect_right(self._keys, key, lo)
        return self._rids[lo:hi]

    def _sorted(self) -> tuple[list[tuple], list[Rid]]:
        return self._keys, self._rids

    def ordered_rids(self) -> Iterator[Rid]:
        """All RIDs in key order (NULL keys first)."""
        return iter(list(self._nulls) + self._rids)

    def distinct_keys(self) -> int:
        count = len(set(self._nulls.values()))
        prev = None
        for key in self._keys:
            if prev is None or key != prev:
                count += 1
            prev = key
        return count

    def __repr__(self) -> str:
        return (f"<OrderedIndex {self.name} on {self.table_name}"
                f"({', '.join(self.column_names)})>")
