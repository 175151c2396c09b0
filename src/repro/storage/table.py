"""Heap tables: the CORE-equivalent row store.

A :class:`Table` is a slotted in-memory heap.  Rows live in slots addressed
by RIDs (row identifiers); deletes leave tombstones so RIDs stay stable and
indexes can reference rows without relocation, mirroring how a disk-based
slotted page keeps RIDs valid.  Mutations report themselves to registered
indexes and to the active transaction's undo log (via callbacks installed
by :mod:`repro.storage.transactions`).

A table may be horizontally partitioned (hash or range over a key, see
:mod:`repro.storage.partition`).  Partitioned tables keep one slot array,
live counter, and writer latch *per partition*; RIDs encode the partition
id in their high bits (``rid = pid << PARTITION_SHIFT | slot``) so every
RID-addressed consumer — indexes, undo records, WAL replay, read-view
overlays — works unchanged.  The parallel executor carves scans into
*morsels* along partition boundaries (:meth:`Table.morsels`).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.index import PrimaryKeyIndex
from repro.storage.partition import Partitioning
from repro.storage.types import Column, compile_admission

#: A row is an immutable tuple of SQL values.
Row = tuple

#: RID: stable identifier of a row within its table.
Rid = int

#: Partitioned RIDs pack ``(partition id, local slot)`` into one int.
PARTITION_SHIFT = 40
PARTITION_STRIDE = 1 << PARTITION_SHIFT
_SLOT_MASK = PARTITION_STRIDE - 1

#: :meth:`Table.fetch_many`'s default ``view``: look the view up.
_LOOK_UP = object()


# ----------------------------------------------------------------------
# Committed-state read views
# ----------------------------------------------------------------------
# A session reading while *another* session holds uncommitted writes
# must see the committed state (read-committed isolation).  Since
# mutations are applied in place with an undo log, the committed image
# of every touched row is reconstructible from the writer's undo log;
# the engine distills the log into per-table :class:`TableReadView`
# overlays and installs them thread-locally around each read.  Reads
# with no view installed (the writer itself, single-session use, the
# commit path) take the zero-overhead physical path.

_read_views = threading.local()


class TableReadView:
    """The committed image of one table under a foreign open txn.

    ``rows`` maps each touched RID to its committed row, or ``None``
    when the row did not exist at transaction start (an uncommitted
    insert — invisible to readers).  RIDs absent from ``rows`` are
    untouched: their physical row *is* the committed row.  Key lookups
    go through :func:`visible_index_lookup`, which re-checks overlaid
    RIDs against their committed images.
    """

    __slots__ = ("rows", "live_delta")

    def __init__(self, rows: dict[Rid, Row | None], live_delta: int):
        self.rows = rows
        self.live_delta = live_delta


def active_read_view(table_name: str) -> TableReadView | None:
    views = getattr(_read_views, "views", None)
    if not views:
        return None
    return views.get(table_name)


@contextmanager
def read_views(views: dict[str, TableReadView] | None):
    """Install committed-state overlays for the duration of the block.

    Nested installations stack; ``None`` (or an empty mapping) is a
    no-op, keeping the fast path allocation-free.
    """
    if not views:
        yield
        return
    previous = getattr(_read_views, "views", None)
    _read_views.views = views
    try:
        yield
    finally:
        _read_views.views = previous


def read_view_installed() -> bool:
    """Whether any committed-state read view is installed on this
    thread (for any table)."""
    return bool(getattr(_read_views, "views", None))


class ChangeCounter:
    """A catalog-wide count of the events that can invalidate a cached
    plan's statistics snapshot: schema changes, statistics epochs, and
    physical live-row counts of every table.

    ``value`` only ever takes values drawn from one ``itertools.count``
    (whose ``next`` is atomic), so two concurrent bumps can never leave
    it at a value an earlier reader already saw with other state.
    """

    __slots__ = ("value", "_ticks")

    def __init__(self) -> None:
        self._ticks = itertools.count(1)
        self.value = 0

    def bump(self) -> None:
        self.value = next(self._ticks)


def visible_index_lookup(table: "Table", index: Any,
                         key: tuple) -> list[tuple[Rid, Row]]:
    """Index equality lookup returning the *visible* ``(rid, row)``
    pairs under the active read view.

    The physical index reflects uncommitted state, so the committed
    image of each overlaid RID is re-checked against the probe key, and
    rows whose committed key matches but whose physical index entry was
    moved or removed by the uncommitted writer are recovered from the
    overlay.  With no view installed this is a plain lookup plus one
    :meth:`Table.fetch_many`.
    """
    view = active_read_view(table.name)
    if view is None:
        return table.fetch_many(index.lookup(key), view=None)
    key = tuple(key)
    key_of = index.key_of
    out: list[tuple[Rid, Row]] = []
    overlaid = view.rows
    seen: set[Rid] = set()
    for rid in index.lookup(key):
        if rid in overlaid:
            seen.add(rid)
            image = overlaid[rid]
            if image is not None and key_of(image) == key:
                out.append((rid, image))
        else:
            out.append((rid, table.fetch(rid)))
    for rid, image in overlaid.items():
        if rid in seen or image is None:
            continue
        if key_of(image) == key:
            out.append((rid, image))
    return out


class Table:
    """An in-memory heap table with stable RIDs and index maintenance.

    The table enforces column types, NOT NULL, and primary key uniqueness.
    Foreign keys are declared in the catalog and enforced there (the
    catalog sees all tables; a single table cannot check cross-table
    constraints).

    The primary key is a :class:`~repro.storage.index.PrimaryKeyIndex`
    (``pk_index``) maintained through the same hooks as secondary
    indexes.  All indexes stay *global* over encoded RIDs even when the
    table is partitioned — a lookup never needs to know the layout, and
    cross-partition uniqueness holds by construction.
    """

    def __init__(self, name: str, columns: Sequence[Column],
                 partitioning: Partitioning | None = None,
                 changes: ChangeCounter | None = None):
        if not columns:
            raise StorageError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        # SQL identifiers are case-insensitive: index by folded name.
        self._column_index = {c.name.upper(): i
                              for i, c in enumerate(columns)}
        if len(self._column_index) != len(columns):
            raise StorageError(f"table {name!r} has duplicate column names")
        self._slots: list[Row | None] = []
        self._live = 0
        self._pk_positions = tuple(
            i for i, c in enumerate(columns) if c.primary_key
        )
        self.pk_index: PrimaryKeyIndex | None = \
            PrimaryKeyIndex(self) if self._pk_positions else None
        # Every maintained index (repro.storage.index.Index), the PK
        # index first, and the secondary ones alone (insert maintains
        # the PK itself).
        self._indexes: list[Any] = \
            [self.pk_index] if self.pk_index is not None else []
        self._secondary: tuple = ()
        #: Monotone physical-mutation counter; the parallel executor's
        #: worker pool uses it (with the schema version) to detect that
        #: forked committed-state replicas have gone stale.
        self.version = 0
        #: Bumped whenever the physical live-row count moves (shared
        #: catalog-wide; the plan cache validates hits against it).
        self.changes = changes if changes is not None else ChangeCounter()
        self.partitioning: Partitioning | None = None
        self._parts: list[list[Row | None]] = []
        self._part_live: list[int] = []
        self._part_latches: list[threading.RLock] = []
        self._part_positions: tuple[int, ...] = ()
        if partitioning is not None:
            self._set_partitioning(partitioning)
        #: Undo hook; set by the transaction manager while a txn is open.
        self.on_mutation: Callable[[str, Rid, Row | None, Row | None], None] | None = None

    def _set_partitioning(self, partitioning: Partitioning | None) -> None:
        if partitioning is not None:
            positions = tuple(self.column_position(c)
                              for c in partitioning.columns)
            count = partitioning.partitions
            self.partitioning = partitioning
            self._part_positions = positions
            self._parts = [[] for _ in range(count)]
            self._part_live = [0] * count
            self._part_latches = [threading.RLock() for _ in range(count)]
        else:
            self.partitioning = None
            self._part_positions = ()
            self._parts = []
            self._part_live = []
            self._part_latches = []

    def _route(self, row: Row) -> int:
        return self.partitioning.route(
            tuple(row[p] for p in self._part_positions))

    def _locate(self, rid: Rid) -> tuple[list[Row | None] | None, int]:
        """``(slot array, local slot)`` addressing ``rid``, or
        ``(None, -1)`` when the partition id is out of range."""
        if self.partitioning is None:
            return self._slots, rid
        pid = rid >> PARTITION_SHIFT
        if 0 <= pid < len(self._parts):
            return self._parts[pid], rid & _SLOT_MASK
        return None, -1

    def _physical_row(self, rid: Rid) -> Row | None:
        slots, slot = self._locate(rid)
        if slots is None or not 0 <= slot < len(slots):
            return None
        return slots[slot]

    # ------------------------------------------------------------------
    # Schema helpers
    # ------------------------------------------------------------------
    def column_position(self, name: str) -> int:
        """Position of column ``name`` (case-insensitive)."""
        try:
            return self._column_index[name.upper()]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.upper() in self._column_index

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def primary_key(self) -> tuple[str, ...]:
        return tuple(self.columns[i].name for i in self._pk_positions)

    @property
    def partition_count(self) -> int:
        return len(self._parts) if self.partitioning is not None else 1

    def partition_live_counts(self) -> list[int]:
        """Physical live-row count per partition (diagnostics/tests)."""
        if self.partitioning is None:
            return [self._live]
        return list(self._part_live)

    def partition_of_rid(self, rid: Rid) -> int:
        return rid >> PARTITION_SHIFT if self.partitioning is not None else 0

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        view = active_read_view(self.name)
        if view is None:
            return self._live
        return self._live + view.live_delta

    def scan(self) -> Iterator[tuple[Rid, Row]]:
        """Yield (rid, row) for every visible live row, in slot order
        (partition-major for partitioned tables).

        The read view is re-checked on every step: a lazily-consumed
        scan (a streaming cursor's) must pick up overlays installed
        after it started — a writer may open a transaction between two
        pulls, and the later pulls must not serve its dirty rows.
        """
        name = self.name
        if self.partitioning is None:
            for rid, row in enumerate(self._slots):
                view = active_read_view(name)
                if view is not None and rid in view.rows:
                    row = view.rows[rid]
                if row is not None:
                    yield rid, row
            return
        for pid, slots in enumerate(self._parts):
            base = pid << PARTITION_SHIFT
            for slot, row in enumerate(slots):
                rid = base | slot
                view = active_read_view(name)
                if view is not None and rid in view.rows:
                    row = view.rows[rid]
                if row is not None:
                    yield rid, row

    def rows(self) -> Iterator[Row]:
        """Yield visible live rows without their RIDs."""
        for _rid, row in self.scan():
            yield row

    def batches(self, batch_size: int,
                morsel: tuple | None = None) -> Iterator[list[Row]]:
        """Yield live rows in slot order, grouped into lists of at most
        ``batch_size`` rows.

        The batch executor's scan path: one slice + comprehension per
        batch instead of one generator resumption per row.  Batches may
        be smaller than ``batch_size`` where deleted slots (tombstones)
        thin a slice out.  With ``morsel`` the scan is restricted to
        that slot range (see :meth:`morsels`).
        """
        if morsel is not None or self.partitioning is not None:
            for chunk in self._morsel_chunks(morsel, batch_size,
                                             with_rids=False):
                yield chunk
            return
        batch_size = max(batch_size, 1)
        start = 0
        while start < len(self._slots):
            # Re-checked per batch: a streaming consumer's later pulls
            # must honor read views installed after the scan started.
            view = active_read_view(self.name)
            stop = start + batch_size
            if view is None:
                chunk = [row for row in self._slots[start:stop]
                         if row is not None]
            else:
                overlaid = view.rows
                chunk = []
                for rid, row in enumerate(self._slots[start:stop], start):
                    if rid in overlaid:
                        row = overlaid[rid]
                    if row is not None:
                        chunk.append(row)
            start = stop
            if chunk:
                yield chunk

    def scan_batches(self, batch_size: int,
                     morsel: tuple | None = None
                     ) -> Iterator[list[tuple[Rid, Row]]]:
        """Like :meth:`batches`, but each element is ``(rid, row)``."""
        if morsel is not None or self.partitioning is not None:
            for chunk in self._morsel_chunks(morsel, batch_size,
                                             with_rids=True):
                yield chunk
            return
        batch_size = max(batch_size, 1)
        start = 0
        while start < len(self._slots):
            view = active_read_view(self.name)
            stop = start + batch_size
            if view is None:
                chunk = [(rid, row)
                         for rid, row in enumerate(self._slots[start:stop],
                                                   start)
                         if row is not None]
            else:
                overlaid = view.rows
                chunk = []
                for rid, row in enumerate(self._slots[start:stop], start):
                    if rid in overlaid:
                        row = overlaid[rid]
                    if row is not None:
                        chunk.append((rid, row))
            start = stop
            if chunk:
                yield chunk

    # ------------------------------------------------------------------
    # Morsel-wise access (parallel executor)
    # ------------------------------------------------------------------
    def morsels(self, target_rows: int) -> list[tuple]:
        """Split the heap into scan morsels of roughly ``target_rows``
        slots each.

        Morsel descriptors are plain tuples (they cross the process
        boundary): ``("range", lo, hi)`` over the flat slot array of an
        unpartitioned table, ``("part", pid, lo, hi)`` over one
        partition's slot array.  Morsels never straddle a partition
        boundary, so a partition-wise operator sees exactly one
        partition per morsel.
        """
        target = max(int(target_rows), 1)
        out: list[tuple] = []
        if self.partitioning is None:
            n = len(self._slots)
            for lo in range(0, n, target):
                out.append(("range", lo, min(lo + target, n)))
        else:
            for pid, slots in enumerate(self._parts):
                n = len(slots)
                for lo in range(0, n, target):
                    out.append(("part", pid, lo, min(lo + target, n)))
        return out

    def _morsel_chunks(self, morsel: tuple | None, batch_size: int,
                       with_rids: bool) -> Iterator[list]:
        """Batched scan of one morsel's slot range, honoring read views.

        ``morsel=None`` scans everything (the serial path for a
        partitioned table routes through here too).
        """
        batch_size = max(batch_size, 1)
        # Spans are (slot array, rid base, stop slot, start slot).
        if morsel is None:
            if self.partitioning is None:
                spans = [(self._slots, 0, len(self._slots), 0)]
            else:
                spans = [(self._parts[pid], pid << PARTITION_SHIFT,
                          len(self._parts[pid]), 0)
                         for pid in range(len(self._parts))]
        elif morsel[0] == "range":
            _, lo, hi = morsel
            spans = [(self._slots, 0, min(hi, len(self._slots)), lo)]
        elif morsel[0] == "part":
            _, pid, lo, hi = morsel
            if not 0 <= pid < len(self._parts):
                return
            slots = self._parts[pid]
            spans = [(slots, pid << PARTITION_SHIFT, min(hi, len(slots)), lo)]
        else:
            raise StorageError(f"unknown morsel kind {morsel[0]!r}")
        name = self.name
        for slots, base, limit, start in spans:
            while start < limit:
                view = active_read_view(name)
                stop = min(start + batch_size, limit)
                chunk = []
                if view is None:
                    for slot in range(start, stop):
                        row = slots[slot]
                        if row is not None:
                            chunk.append((base | slot, row)
                                         if with_rids else row)
                else:
                    overlaid = view.rows
                    for slot in range(start, stop):
                        rid = base | slot
                        row = overlaid[rid] if rid in overlaid \
                            else slots[slot]
                        if row is not None:
                            chunk.append((rid, row) if with_rids else row)
                start = stop
                if chunk:
                    yield chunk

    def fetch(self, rid: Rid) -> Row:
        """Return the visible row at ``rid``; raise if deleted/invalid.

        For single rows; a caller reading many RIDs at once uses
        :meth:`fetch_many`, which looks the read view up once."""
        view = active_read_view(self.name)
        if view is not None and rid in view.rows:
            row = view.rows[rid]
        else:
            row = self._physical_row(rid)
        if row is None:
            raise self._not_live(rid)
        return row

    def fetch_many(self, rids: Iterable[Rid],
                   view: Any = _LOOK_UP) -> list[tuple[Rid, Row]]:
        """``[(rid, self.fetch(rid)) for rid in rids]``, with the read
        view looked up once for the whole batch instead of per RID.

        A caller that has already looked this table's read view up for
        the batch (the index join) passes it as ``view`` — ``None`` for
        no view — so the batch costs exactly one lookup.  A dead or
        out-of-range RID raises :meth:`fetch`'s error.
        """
        if view is _LOOK_UP:
            view = active_read_view(self.name)
        rids = rids if isinstance(rids, list) else list(rids)
        if view is None and self.partitioning is None:
            slots = self._slots
            try:
                rows = [slots[rid] for rid in rids]
            except IndexError:
                rows = None
            # Negative RIDs index from the end of a list: refuse them.
            if rows is not None and None not in rows \
                    and (not rids or min(rids) >= 0):
                return list(zip(rids, rows))
        overlaid = view.rows if view is not None else {}
        physical_row = self._physical_row
        out = []
        for rid in rids:
            row = overlaid[rid] if rid in overlaid else physical_row(rid)
            if row is None:
                raise self._not_live(rid)
            out.append((rid, row))
        return out

    def _not_live(self, rid: Rid) -> StorageError:
        return StorageError(f"table {self.name!r}: rid {rid} is not live")

    def is_live(self, rid: Rid) -> bool:
        view = active_read_view(self.name)
        if view is not None and rid in view.rows:
            return view.rows[rid] is not None
        return self._physical_row(rid) is not None

    def is_live_physical(self, rid: Rid) -> bool:
        """Liveness of the physical slot, ignoring any read view (the
        engine uses this while *building* views)."""
        return self._physical_row(rid) is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _admit(self, values: Iterable[Any]) -> Row:
        """Admit a written row: the value :func:`validate_row` gives.

        The first call compiles the table's admission kernel
        (:func:`compile_admission`) and installs it in its place, so a
        table that is only restored (a reopen) compiles nothing."""
        self._admit = compile_admission(self.columns)
        return self._admit(values)

    def insert(self, values: Iterable[Any]) -> Rid:
        """Validate and append a row; returns its RID."""
        row = self._admit(values)
        pk = self.pk_index
        if pk is not None:
            # One key extraction and one probe, before the heap or any
            # index is touched.
            key = pk.key_of(row)
            pk.check_key(key)
        if self.partitioning is None:
            rid = len(self._slots)
            self._slots.append(row)
        else:
            pid = self._route(row)
            with self._part_latches[pid]:
                slots = self._parts[pid]
                rid = (pid << PARTITION_SHIFT) | len(slots)
                slots.append(row)
                self._part_live[pid] += 1
        self._live += 1
        self.version += 1
        self.changes.bump()
        if pk is not None:
            pk.add_key(key, rid)
        for index in self._secondary:
            index.on_insert(rid, row)
        if self.on_mutation is not None:
            self.on_mutation("insert", rid, None, row)
        return rid

    def insert_at(self, rid: Rid, row: Row) -> None:
        """Re-insert a row at a specific (previously deleted) RID.

        Only the transaction undo machinery and WAL replay use this; it
        restores the exact pre-delete state, so the row is assumed
        already validated.  For partitioned tables the RID's encoded
        partition id is authoritative — replay must land the row in the
        same partition it originally occupied.
        """
        slots, slot = self._locate(rid)
        if slots is None:
            raise StorageError(
                f"table {self.name!r}: rid {rid} addresses partition "
                f"{rid >> PARTITION_SHIFT}, beyond {len(self._parts)}"
            )
        if slot >= len(slots):
            slots.extend([None] * (slot - len(slots) + 1))
        if slots[slot] is not None:
            raise StorageError(f"table {self.name!r}: rid {rid} already live")
        slots[slot] = row
        self._live += 1
        if self.partitioning is not None:
            self._part_live[rid >> PARTITION_SHIFT] += 1
        self.version += 1
        self.changes.bump()
        for index in self._indexes:
            index.on_insert(rid, row)

    def update(self, rid: Rid, values: Iterable[Any]) -> Row:
        """Replace the row at ``rid`` in place; returns the new row.

        On a partitioned table the new row must route to the same
        partition — callers that may move the partition key go through
        :meth:`update_row`, which relocates via delete+insert so undo
        and WAL replay see RID-faithful events.
        """
        old = self.fetch(rid)
        new = self._admit(values)
        if self.partitioning is not None \
                and self._route(new) != rid >> PARTITION_SHIFT:
            raise StorageError(
                f"table {self.name!r}: in-place update would move rid {rid} "
                f"across partitions; use update_row()"
            )
        return self._replace(rid, old, new)

    def _replace(self, rid: Rid, old: Row, new: Row) -> Row:
        """Write the admitted row ``new`` over ``old`` at ``rid``, in
        the same partition."""
        self._check_pk_change(old, new)
        slots, slot = self._locate(rid)
        slots[slot] = new
        self.version += 1
        for index in self._indexes:
            index.on_update(rid, old, new)
        if self.on_mutation is not None:
            self.on_mutation("update", rid, old, new)
        return new

    def update_row(self, rid: Rid, values: Iterable[Any]) -> tuple[Rid, Row]:
        """Replace the row at ``rid``, relocating it when the partition
        key moved; returns ``(new_rid, new_row)``.

        A cross-partition move is physically a delete + insert and is
        reported to the undo log and delta protocol as exactly those two
        events — never as an "update" whose RID silently changed, which
        would corrupt RID-addressed undo and WAL replay.
        """
        if self.partitioning is None:
            return rid, self.update(rid, values)
        old = self.fetch(rid)
        new = self._admit(values)
        if self._route(new) == rid >> PARTITION_SHIFT:
            return rid, self._replace(rid, old, new)
        self._check_pk_change(old, new)
        self.delete(rid)
        new_rid = self.insert(new)
        return new_rid, self.fetch(new_rid)

    def delete(self, rid: Rid) -> Row:
        """Delete the row at ``rid``; returns the removed row."""
        old = self.fetch(rid)
        slots, slot = self._locate(rid)
        if self.partitioning is None:
            slots[slot] = None
        else:
            pid = rid >> PARTITION_SHIFT
            with self._part_latches[pid]:
                slots[slot] = None
                self._part_live[pid] -= 1
        self._live -= 1
        self.version += 1
        self.changes.bump()
        for index in self._indexes:
            index.on_delete(rid, old)
        if self.on_mutation is not None:
            self.on_mutation("delete", rid, old, None)
        return old

    def truncate(self) -> None:
        """Remove all rows (no undo logging; used by workload loaders)."""
        self._slots.clear()
        for slots in self._parts:
            slots.clear()
        self._part_live = [0] * len(self._parts)
        self._live = 0
        self.version += 1
        self.changes.bump()
        for index in self._indexes:
            index.rebuild(self)

    # ------------------------------------------------------------------
    # Repartitioning
    # ------------------------------------------------------------------
    def repartition(self, partitioning: Partitioning | None) -> None:
        """Rebuild the heap under a new partitioning scheme (or back to
        a flat heap with ``None``).

        Mutates in place — compiled plans, matviews, and the catalog all
        hold direct ``Table`` references.  RIDs are reassigned; callers
        (the catalog, under the engine's exclusive latch) guarantee no
        transaction is open and log the operation as DDL, whose replay
        re-runs this method and reproduces identical RIDs because both
        the scan order and the routing function are deterministic.
        """
        rows = [row for _rid, row in self.scan()]
        self._set_partitioning(partitioning)
        self._slots = []
        self._live = 0
        for row in rows:
            if self.partitioning is None:
                rid = len(self._slots)
                self._slots.append(row)
            else:
                pid = self._route(row)
                slots = self._parts[pid]
                rid = (pid << PARTITION_SHIFT) | len(slots)
                slots.append(row)
                self._part_live[pid] += 1
            self._live += 1
        self.version += 1
        self.changes.bump()
        for index in self._indexes:
            index.rebuild(self)

    # ------------------------------------------------------------------
    # Durability support (snapshots and recovery)
    # ------------------------------------------------------------------
    def snapshot_slots(self):
        """The raw slot state (tombstones included) as *committed*.

        Honors the active read view, so a checkpoint taken while another
        session holds uncommitted writes captures the committed image of
        every touched RID.  Slot positions are preserved exactly —
        RID-addressed WAL replay depends on them.  Unpartitioned tables
        return one flat slot list; partitioned tables return a list of
        per-partition slot lists.
        """
        view = active_read_view(self.name)
        if self.partitioning is None:
            slots = list(self._slots)
            if view is not None:
                for rid, image in view.rows.items():
                    if 0 <= rid < len(slots):
                        slots[rid] = image
                    elif image is not None:
                        slots.extend([None] * (rid - len(slots) + 1))
                        slots[rid] = image
            return slots
        parts = [list(slots) for slots in self._parts]
        if view is not None:
            for rid, image in view.rows.items():
                pid = rid >> PARTITION_SHIFT
                slot = rid & _SLOT_MASK
                if not 0 <= pid < len(parts):
                    continue
                slots = parts[pid]
                if slot < len(slots):
                    slots[slot] = image
                elif image is not None:
                    slots.extend([None] * (slot - len(slots) + 1))
                    slots[slot] = image
        return parts

    def restore_slots(self, slots) -> None:
        """Replace the heap with a snapshot's slot state (recovery only).

        Rows were validated when first inserted, so this skips type and
        constraint checks and just rebuilds the indexes, the PK index
        among them.  The shape must match the table's partitioning (flat
        list when unpartitioned, list of per-partition lists otherwise)
        — the snapshot stores the partitioning spec alongside and the
        catalog recreates the table with it before restoring.
        """
        if self.partitioning is None:
            self._slots = [tuple(row) if row is not None else None
                           for row in slots]
            self._live = sum(1 for row in self._slots if row is not None)
        else:
            if len(slots) != len(self._parts):
                raise StorageError(
                    f"table {self.name!r}: snapshot has {len(slots)} "
                    f"partitions, table has {len(self._parts)}"
                )
            self._parts = [[tuple(row) if row is not None else None
                            for row in part] for part in slots]
            self._part_live = [sum(1 for row in part if row is not None)
                               for part in self._parts]
            self._live = sum(self._part_live)
        self.version += 1
        self.changes.bump()
        for index in self._indexes:
            index.rebuild(self)

    # ------------------------------------------------------------------
    # Index attachment
    # ------------------------------------------------------------------
    def attach_index(self, index: Any) -> None:
        """Attach an index; it is immediately built over existing rows."""
        index.rebuild(self)
        self._indexes.append(index)
        self._secondary += (index,)

    def detach_index(self, index: Any) -> None:
        self._indexes.remove(index)
        self._secondary = tuple(i for i in self._secondary
                                if i is not index)

    @property
    def indexes(self) -> tuple:
        """The attached secondary indexes (catalog objects)."""
        return self._secondary

    @property
    def access_indexes(self) -> tuple:
        """Every index usable as an access path: the PK index (when the
        table has a primary key) followed by the secondary indexes."""
        return tuple(self._indexes)

    # ------------------------------------------------------------------
    # Primary key
    # ------------------------------------------------------------------
    def _check_pk_change(self, old: Row, new: Row) -> None:
        pk = self.pk_index
        if pk is not None and pk.key_of(new) != pk.key_of(old):
            pk.check_available(new)

    def lookup_pk(self, key: tuple) -> Rid | None:
        """Find the RID of the visible row with this primary key."""
        if self.pk_index is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        found = visible_index_lookup(self, self.pk_index, key)
        return found[0][0] if found else None

    def __repr__(self) -> str:
        scheme = f" {self.partitioning.describe()}" \
            if self.partitioning is not None else ""
        return (f"<Table {self.name} cols={self.column_names} "
                f"rows={self._live}{scheme}>")
