"""The system catalog.

The catalog owns all schema objects: base tables, indexes, foreign keys,
and view definitions (both plain SQL views and XNF composite-object
views, which are stored as their parsed definition and expanded at
compile time like Starburst did).  It also enforces referential
constraints, since only the catalog can see both sides of a foreign key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import CatalogError, UpdateError
from repro.storage.index import HashIndex
from repro.storage.partition import Partitioning
from repro.storage.table import (ChangeCounter, Rid, Row, Table,
                                 visible_index_lookup)
from repro.storage.types import Column

if TYPE_CHECKING:
    from repro.storage.transactions import Transaction


@dataclass
class TableDelta:
    """The net effect of one statement (or write-back) on one table.

    ``inserted`` and ``deleted`` are ``(rid, row)`` pairs; an UPDATE
    contributes the old row to ``deleted`` and the new row to
    ``inserted`` under the same (stable) RID.  This is the wire format
    of the delta protocol that keeps materialized composite-object
    views (:mod:`repro.cache.matview`) maintained incrementally.
    """

    table: str
    inserted: list[tuple[Rid, Row]] = field(default_factory=list)
    deleted: list[tuple[Rid, Row]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


class DeltaRecorder:
    """Accumulates mutations and consolidates them into per-table deltas.

    Re-touching the same RID collapses into its net effect (insert then
    update = one insert of the final row; insert then delete = nothing),
    so a consumer sees each statement/batch as a minimal delta.
    """

    def __init__(self) -> None:
        #: table -> rid -> [first_old | _ABSENT, last_new | _ABSENT]
        self._tracks: dict[str, dict[Rid, list]] = {}
        self._order: list[str] = []

    _ABSENT = object()

    def record(self, table_name: str, rid: Rid,
               old: Row | None, new: Row | None) -> None:
        key = table_name.upper()
        tracks = self._tracks.get(key)
        if tracks is None:
            tracks = self._tracks[key] = {}
            self._order.append(key)
        track = tracks.get(rid)
        if track is None:
            tracks[rid] = [old if old is not None else self._ABSENT,
                           new if new is not None else self._ABSENT]
        else:
            track[1] = new if new is not None else self._ABSENT

    def deltas(self) -> list[TableDelta]:
        result: list[TableDelta] = []
        for name in self._order:
            delta = TableDelta(name)
            for rid, (first, last) in self._tracks[name].items():
                if first is not self._ABSENT and first != last:
                    delta.deleted.append((rid, first))
                if last is not self._ABSENT and first != last:
                    delta.inserted.append((rid, last))
            if delta:
                result.append(delta)
        return result

    def clear(self) -> None:
        self._tracks.clear()
        self._order.clear()


class ChangeSink:
    """Where storage reports each change it makes, one method per event.

    The engine implements it (:class:`repro.api.engine.Engine`) to keep
    statistics, materialized views and the write-ahead log in step with
    the base tables.  The catalog, the transaction manager and the
    materialized-view registry each hold one reference and call it
    directly.  This default does nothing, so a bare :class:`Catalog`
    keeps no derived state.  A commit calls :meth:`log_commit`,
    :meth:`publish` per buffered delta, then :meth:`committed`, in that
    order (:meth:`repro.storage.transactions.TransactionManager.commit`).
    """

    def row_delta(self, delta: TableDelta) -> None:
        """One statement's net change to one table, before its commit."""

    def ddl(self, op: str, payload: dict) -> None:
        """A schema change that just landed in the catalog."""

    def table_created(self, table: Table) -> None:
        """A new table, after its ``create_table`` DDL event."""

    def log_commit(self, txn: Transaction) -> None:
        """Commit phase 1, before the transaction detaches: a raise
        aborts the commit with the transaction open and intact."""

    def publish(self, delta: TableDelta) -> None:
        """Commit phase 2: one committed delta, for derived state."""

    def committed(self, txn: Transaction) -> None:
        """Commit phase 3: the commit is complete."""

    def rolled_back(self, txn: Transaction) -> None:
        """Derived state may have seen deltas that were undone, or only
        part of a commit's: it must not be trusted."""

    def matview_created(self, name: str, policy: str) -> None:
        """A materialized view was registered."""

    def matview_dropped(self, name: str) -> None:
        """A materialized view was dropped."""


@dataclass(frozen=True)
class ForeignKey:
    """A declared FK: child table/columns reference parent table/columns.

    These are the "parent/child links present in the database" the paper's
    Sect. 5.1 asks the optimizer to exploit; the optimizer uses them to
    know a child row joins at most one parent row (no dedup needed after
    E-to-F conversion) and to prefer index access on the child side.
    """

    name: str
    child_table: str
    child_columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]


@dataclass
class ViewDefinition:
    """A stored view: its name, parsed definition AST, and source text."""

    name: str
    definition: Any  # repro.sql.ast.SelectStatement or XNFQuery
    text: str
    is_xnf: bool = False
    column_names: tuple[str, ...] = field(default_factory=tuple)
    #: True when the view is backed by a MaterializedView registry entry
    #: (created via CREATE MATERIALIZED VIEW).
    materialized: bool = False


class Catalog:
    """All schema objects of one database, keyed case-insensitively."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, HashIndex] = {}
        self._views: dict[str, ViewDefinition] = {}
        self._foreign_keys: dict[str, ForeignKey] = {}
        #: Where every change is reported (see :class:`ChangeSink`).
        #: The engine installs itself after recovery; a bare catalog
        #: reports to the no-op default.
        self.sink: ChangeSink = ChangeSink()
        #: Monotonic DDL counter.  Every schema mutation (tables,
        #: indexes, views, foreign keys) bumps it; the plan cache keys
        #: compiled plans on it so any DDL invalidates them wholesale.
        self.schema_version: int = 0
        #: Moves with the schema version, every statistics epoch and
        #: every table's live-row count: a plan-cache hit whose entry
        #: was validated at the current value need not look further.
        self.changes = ChangeCounter()
        #: (table, side) -> positions of the table's columns on that
        #: side of some foreign key at this schema version: "parent"
        #: (referenced) or "child" (referencing)
        self._fk_positions: dict[tuple[str, str], tuple[int, ...]] = {}

    def _bump_schema_version(self) -> None:
        self.schema_version += 1
        self.changes.bump()
        self._fk_positions.clear()

    def _emit_ddl(self, op: str, **payload: Any) -> None:
        self.sink.ddl(op, payload)

    # ------------------------------------------------------------------
    # Name handling
    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str) -> str:
        return name.upper()

    def _check_fresh(self, name: str) -> None:
        key = self._key(name)
        if key in self._tables or key in self._views:
            raise CatalogError(f"object {name!r} already exists")

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[Column],
                     partitioning: Partitioning | None = None) -> Table:
        self._check_fresh(name)
        table = Table(self._key(name), columns, partitioning=partitioning,
                      changes=self.changes)
        self._tables[self._key(name)] = table
        self._bump_schema_version()
        self._emit_ddl("create_table", name=table.name,
                       columns=table.columns,
                       partitioning=table.partitioning)
        self.sink.table_created(table)
        return table

    def repartition_table(self, name: str,
                          partitioning: Partitioning | None) -> Table:
        """Rebuild a table under a new partitioning scheme (or flatten
        it with ``None``).  DDL-logged so recovery replays the rebuild
        deterministically; callers hold the engine's exclusive latch
        with no transaction open (RIDs are reassigned)."""
        table = self.table(name)
        table.repartition(partitioning)
        self._bump_schema_version()
        self._emit_ddl("repartition", name=table.name,
                       partitioning=partitioning)
        return table

    def drop_table(self, name: str) -> None:
        key = self._key(name)
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        referencing = [
            fk.name for fk in self._foreign_keys.values()
            if self._key(fk.parent_table) == key
            and self._key(fk.child_table) != key
        ]
        if referencing:
            raise CatalogError(
                f"cannot drop {name!r}: referenced by foreign keys {referencing}"
            )
        del self._tables[key]
        self._indexes = {
            iname: idx for iname, idx in self._indexes.items()
            if self._key(idx.table_name) != key
        }
        self._foreign_keys = {
            fname: fk for fname, fk in self._foreign_keys.items()
            if self._key(fk.child_table) != key
        }
        self._bump_schema_version()
        self._emit_ddl("drop_table", name=key)

    def table(self, name: str) -> Table:
        try:
            return self._tables[self._key(name)]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return self._key(name) in self._tables

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, table_name: str,
                     column_names: Sequence[str],
                     unique: bool = False) -> HashIndex:
        key = self._key(name)
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        index = HashIndex(key, table, list(column_names), unique=unique)
        table.attach_index(index)
        self._indexes[key] = index
        self._bump_schema_version()
        self._emit_ddl("create_index", name=key, table=table.name,
                       columns=index.column_names, unique=unique)
        return index

    def drop_index(self, name: str) -> None:
        key = self._key(name)
        index = self._indexes.pop(key, None)
        if index is None:
            raise CatalogError(f"no index named {name!r}")
        self.table(index.table_name).detach_index(index)
        self._bump_schema_version()
        self._emit_ddl("drop_index", name=key)

    def index(self, name: str) -> HashIndex:
        try:
            return self._indexes[self._key(name)]
        except KeyError:
            raise CatalogError(f"no index named {name!r}") from None

    def indexes_on(self, table_name: str,
                   column_names: Sequence[str] | None = None) -> list[HashIndex]:
        """Indexes on a table, optionally only those keyed exactly on
        ``column_names`` (order-insensitive)."""
        key = self._key(table_name)
        found = [
            idx for idx in self._indexes.values()
            if self._key(idx.table_name) == key
        ]
        if column_names is not None:
            wanted = {c.upper() for c in column_names}
            found = [
                idx for idx in found
                if {c.upper() for c in idx.column_names} == wanted
            ]
        return found

    # ------------------------------------------------------------------
    # Foreign keys
    # ------------------------------------------------------------------
    def add_foreign_key(self, name: str, child_table: str,
                        child_columns: Sequence[str], parent_table: str,
                        parent_columns: Sequence[str]) -> ForeignKey:
        key = self._key(name)
        if key in self._foreign_keys:
            raise CatalogError(f"foreign key {name!r} already exists")
        child = self.table(child_table)
        parent = self.table(parent_table)
        for col in child_columns:
            child.column_position(col)
        for col in parent_columns:
            parent.column_position(col)
        if len(child_columns) != len(parent_columns):
            raise CatalogError(
                f"foreign key {name!r}: column count mismatch"
            )
        fk = ForeignKey(key, child.name, tuple(c.upper() for c in child_columns),
                        parent.name, tuple(c.upper() for c in parent_columns))
        self._foreign_keys[key] = fk
        self._bump_schema_version()
        self._emit_ddl("add_foreign_key", name=key,
                       child_table=fk.child_table,
                       child_columns=fk.child_columns,
                       parent_table=fk.parent_table,
                       parent_columns=fk.parent_columns)
        return fk

    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys.values())

    def foreign_keys_of(self, child_table: str) -> list[ForeignKey]:
        key = self._key(child_table)
        return [fk for fk in self._foreign_keys.values()
                if self._key(fk.child_table) == key]

    def find_foreign_key(self, child_table: str, child_columns: Sequence[str],
                         parent_table: str,
                         parent_columns: Sequence[str]) -> ForeignKey | None:
        """The FK matching exactly this child/parent column pairing, if any."""
        child_cols = tuple(c.upper() for c in child_columns)
        parent_cols = tuple(c.upper() for c in parent_columns)
        for fk in self.foreign_keys_of(child_table):
            if (self._key(fk.parent_table) == self._key(parent_table)
                    and fk.child_columns == child_cols
                    and fk.parent_columns == parent_cols):
                return fk
        return None

    def check_foreign_keys(self, table_name: str, row: Row) -> None:
        """Verify a row of ``table_name`` satisfies its outgoing FKs.

        NULL foreign key values are exempt (SQL MATCH SIMPLE semantics).
        """
        table = self.table(table_name)
        for fk in self.foreign_keys_of(table_name):
            values = tuple(
                row[table.column_position(c)] for c in fk.child_columns
            )
            if None in values:
                continue
            parent = self.table(fk.parent_table)
            if not self._key_exists(parent, fk.parent_columns, values):
                raise UpdateError(
                    f"foreign key {fk.name!r} violated: "
                    f"{fk.child_table}({', '.join(fk.child_columns)}) = "
                    f"{values!r} has no parent in {fk.parent_table}"
                )

    def referenced_positions(self, table: Table) -> tuple[int, ...]:
        """Positions of ``table``'s columns some foreign key references:
        an update moving one must pass
        :meth:`check_no_referencing_children`."""
        return self._fk_side(table, "parent")

    def referencing_positions(self, table: Table) -> tuple[int, ...]:
        """Positions of ``table``'s foreign-key columns: an update
        moving one must pass :meth:`check_foreign_keys`."""
        return self._fk_side(table, "child")

    def _fk_side(self, table: Table, side: str) -> tuple[int, ...]:
        positions = self._fk_positions.get((table.name, side))
        if positions is None:
            positions = self._fk_positions[(table.name, side)] = tuple({
                table.column_position(column)
                for fk in self.foreign_keys()
                if getattr(fk, f"{side}_table") == table.name
                for column in getattr(fk, f"{side}_columns")})
        return positions

    def check_no_referencing_children(self, table_name: str, row: Row,
                                      new_row: Row | None = None) -> None:
        """RESTRICT semantics: deleting a parent row, or re-keying it to
        ``new_row``, must not strand children referencing it."""
        parent = self.table(table_name)
        for fk in self.foreign_keys():
            if self._key(fk.parent_table) != parent.name:
                continue
            positions = [parent.column_position(c) for c in fk.parent_columns]
            parent_values = tuple(row[p] for p in positions)
            if None in parent_values or (
                    new_row is not None
                    and tuple(new_row[p] for p in positions) == parent_values):
                continue
            if self._key_exists(self.table(fk.child_table),
                                fk.child_columns, parent_values):
                raise UpdateError(
                    f"foreign key {fk.name!r} violated: row in "
                    f"{fk.child_table} still references "
                    f"{fk.parent_table}{parent_values!r}"
                )

    @staticmethod
    def _key_exists(table: Table, columns: tuple[str, ...],
                    values: tuple) -> bool:
        """Whether a visible row of ``table`` has ``columns`` equal to
        ``values``: probed through an index keyed on exactly those
        columns (the primary key's first) when there is one, else by a
        scan.  The FK check asks it of the parent, RESTRICT of the
        child."""
        wanted = set(columns)
        for index in table.access_indexes:
            names = [c.upper() for c in index.column_names]
            if set(names) == wanted:
                key = tuple(values[columns.index(c)] for c in names)
                return bool(visible_index_lookup(table, index, key))
        positions = [table.column_position(c) for c in columns]
        return any(tuple(row[p] for p in positions) == values
                   for row in table.rows())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(self, view: ViewDefinition) -> ViewDefinition:
        self._check_fresh(view.name)
        stored = ViewDefinition(
            name=self._key(view.name),
            definition=view.definition,
            text=view.text,
            is_xnf=view.is_xnf,
            column_names=view.column_names,
            materialized=view.materialized,
        )
        self._views[stored.name] = stored
        self._bump_schema_version()
        self._emit_ddl("create_view", view=stored)
        return stored

    def drop_view(self, name: str) -> None:
        if self._key(name) not in self._views:
            raise CatalogError(f"no view named {name!r}")
        del self._views[self._key(name)]
        self._bump_schema_version()
        self._emit_ddl("drop_view", name=self._key(name))

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._views[self._key(name)]
        except KeyError:
            raise CatalogError(f"no view named {name!r}") from None

    def has_view(self, name: str) -> bool:
        return self._key(name) in self._views

    def views(self) -> list[ViewDefinition]:
        return list(self._views.values())

    def resolve(self, name: str) -> Table | ViewDefinition:
        """A table or view by name — the lookup the FROM clause performs."""
        key = self._key(name)
        if key in self._tables:
            return self._tables[key]
        if key in self._views:
            return self._views[key]
        raise CatalogError(f"no table or view named {name!r}")
