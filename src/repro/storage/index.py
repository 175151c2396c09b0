"""Indexes over heap tables.

One index structure gives the optimizer both access methods Starburst's
CORE offered it: equality, the workhorse for join and foreign-key
navigation (the paper's "parent/child links" reduce to equality access
on the child's foreign key), and key order, for range reads.

A :class:`HashIndex` is a dict from key tuple to the RIDs holding it;
:meth:`HashIndex.lookup_many` answers a whole batch of keys in one
probe.  Its key order is a sorted list of the NULL-free keys beside
their RIDs, the in-memory stand-in for a B-tree's leaf level: it is
built on the first :meth:`HashIndex.range_scan` and dropped when a key
is inserted or deleted, so an update that keeps the key keeps it.

A table's primary key is a :class:`PrimaryKeyIndex`, the unique hash
index the table creates itself: it is the one key-lookup mechanism for
constraint checks, point reads and index nested-loop probes alike.

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


class HashIndex:
    """Equality and range index: a dict from key tuple to the list of
    RIDs holding it, plus a lazily sorted key list for range reads.  A
    key with a NULL never matches, so it is not stored."""

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
        self._buckets: dict[tuple, list[Rid]] = {}
        #: ``(keys, rids)`` of :meth:`_sorted`, or None until a range
        #: read needs it after a key change.
        self._order: tuple[list[tuple], list[Rid]] | None = None

    def key_of(self, row: Row) -> tuple:
        if self._single is not None:
            return (row[self._single],)
        return self._getter(row)

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

    # -- maintenance hooks (called by Table) ---------------------------
    def _file(self, buckets: dict[tuple, list[Rid]], key: tuple,
              rid: Rid) -> None:
        """Add ``rid`` under the NULL-free ``key`` of ``buckets``."""
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [rid]
            return
        if self.unique:
            cols = ", ".join(self.column_names)
            raise TypeCheckError(
                f"unique index {self.name!r} violated: ({cols}) = {key!r}"
            )
        bucket.append(rid)

    def rebuild(self, table: Table) -> None:
        # :meth:`_file` inlined, saving a method call per row.
        buckets: dict[tuple, list[Rid]] = {}
        get = buckets.get
        unique = self.unique
        for chunk in table.scan_batches(_REBUILD_BATCH):
            for key, rid in zip(*self._chunk_keys(chunk)):
                if None in key:
                    continue
                bucket = get(key)
                if bucket is None:
                    buckets[key] = [rid]
                elif unique:
                    # The first repeat in scan order: ``_file`` raises
                    # the error an insert of this row would.
                    self._file(buckets, key, rid)
                else:
                    bucket.append(rid)
        self._buckets = buckets
        self._order = None

    def on_insert(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        if None not in key:
            self._file(self._buckets, key, rid)
            self._order = None

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
        self._order = None

    def on_update(self, rid: Rid, old: Row, new: Row) -> None:
        if self.key_of(old) == self.key_of(new):
            return
        self.on_delete(rid, old)
        self.on_insert(rid, new)

    # -- lookups --------------------------------------------------------
    def lookup(self, key: tuple) -> list[Rid]:
        """RIDs of rows whose indexed columns equal ``key`` (NULL never matches)."""
        return list(self._buckets.get(tuple(key), ()))

    def lookup_many(self, keys: Sequence[tuple]
                    ) -> tuple[Sequence[int], list[Rid]]:
        """Probe every key tuple of ``keys`` at once.

        Returns ``(positions, rids)``: every RID a key found, in key
        order, beside the position in ``keys`` of the key that found
        it.  A key with a NULL finds nothing, as in :meth:`lookup`.
        """
        found = list(map(self._buckets.get, keys))
        rids = [rid for bucket in found if bucket for rid in bucket]
        positions = [position for position, bucket in enumerate(found)
                     if bucket for _rid in bucket]
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
        """The stored keys in order, each once per RID, beside those
        RIDs.  A column holds values of one type and NULL keys are not
        stored, so the keys sort as Python sorts tuples."""
        order = self._order
        if order is None:
            buckets = self._buckets
            keys: list[tuple] = []
            rids: list[Rid] = []
            for key in sorted(buckets):
                bucket = buckets[key]
                keys += [key] * len(bucket)
                rids += bucket
            order = self._order = (keys, rids)
        return order

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} on {self.table_name}"
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
            # Key columns are NOT NULL, so every key is stored.
            keys = sorted(self._buckets)
            order = self._order = (keys,
                                   list(map(self._buckets.__getitem__,
                                            keys)))
        return order

    def check_available(self, row: Row) -> None:
        """Raise if another row already holds ``row``'s key."""
        self.check_key(self.key_of(row))

    def check_key(self, key: tuple) -> None:
        """Raise if a row already holds ``key``."""
        if key in self._buckets:
            cols = ", ".join(self.column_names)
            raise TypeCheckError(
                f"duplicate primary key ({cols}) = {key!r} in table "
                f"{self.table_name!r}"
            )

    def add_key(self, key: tuple, rid: Rid) -> None:
        """Map ``key``, already checked free by :meth:`check_key`, to
        ``rid``."""
        self._buckets[key] = rid
        self._order = None

    def on_insert(self, rid: Rid, row: Row) -> None:
        key = self.key_of(row)
        self.check_key(key)
        self.add_key(key, rid)

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
