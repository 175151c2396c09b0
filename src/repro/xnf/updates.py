"""View updatability analysis and cache write-back (Sect. 2).

"Update of the nodes is essentially identical to update of views in the
relational DBMSs ...  Relationships often are defined based on simple
foreign keys or connect tables ...  Connect and disconnect operations on
such relationships translate to updating the foreign keys or
inserting/deleting the associated tuples in the connect tables."

Analysis (over the *original* XNF operator box):

* a **component** is updatable when its derivation is a plain
  restriction/projection of one base table (no joins, aggregation,
  DISTINCT or set operations) — then its tuple identity is the base
  RID and every column maps to a base column;
* a **relationship** is connectable when its predicate is a conjunction
  of simple column equalities and it is either *foreign-key shaped*
  (binary, no USING: child columns equated to parent columns) or
  *connect-table shaped* (binary, one USING base table linking parent
  and child key columns).

Richer views are readable but rejected for update with a reason string
("such richer views ... restrict updatability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import NotUpdatableError, UpdateError, XNFError
from repro.executor.expressions import ExpressionCompiler
from repro.qgm.model import (BaseBox, QRef, Quantifier, SelectBox,
                             XNFBox, XNFRelationship, quantifiers_in)
from repro.sql import ast
from repro.storage.catalog import Catalog, DeltaRecorder
from repro.storage.transactions import TransactionManager
from repro.cache.workspace import LogEntry, Workspace


@dataclass
class ComponentUpdatability:
    """Write path of one component, or the reason there is none."""

    updatable: bool
    reason: str = ""
    table: Optional[str] = None
    #: view column name (upper) -> base column name (upper)
    column_map: dict[str, str] = field(default_factory=dict)
    #: compiled local predicates for WITH CHECK OPTION semantics;
    #: evaluated against the full base row.
    check_predicates: list = field(default_factory=list)
    check_texts: list[str] = field(default_factory=list)


@dataclass
class RelationshipUpdatability:
    """Connect/disconnect path of one relationship."""

    kind: str  # 'foreign_key' | 'connect_table' | 'readonly'
    reason: str = ""
    #: foreign_key: (child_base_column, parent_view_column) pairs
    fk_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: connect_table: mapping table plus its column bindings
    table: Optional[str] = None
    parent_pairs: list[tuple[str, str]] = field(default_factory=list)
    child_pairs: list[tuple[str, str]] = field(default_factory=list)


def analyze_component(box) -> ComponentUpdatability:
    """Decide whether a component derivation admits updates."""
    if not isinstance(box, SelectBox):
        return ComponentUpdatability(
            False, reason=f"derivation is a {box.kind} operation"
        )
    if box.distinct:
        return ComponentUpdatability(False, reason="DISTINCT derivation")
    foreach = box.foreach_quantifiers()
    if len(foreach) != 1:
        return ComponentUpdatability(
            False, reason="derivation joins multiple tables"
        )
    if any(q.qtype in (Quantifier.E, Quantifier.A, Quantifier.S)
           for q in box.body_quantifiers):
        return ComponentUpdatability(
            False, reason="derivation contains subqueries"
        )
    quantifier = foreach[0]
    if not isinstance(quantifier.box, BaseBox):
        return ComponentUpdatability(
            False, reason="derivation is not over a base table"
        )
    table = quantifier.box.table
    column_map: dict[str, str] = {}
    for column in box.head:
        if column.name.startswith("$"):
            continue
        if isinstance(column.expression, QRef) \
                and column.expression.quantifier is quantifier:
            column_map[column.name.upper()] = \
                column.expression.column.upper()
        else:
            return ComponentUpdatability(
                False,
                reason=f"column {column.name!r} is computed, not stored",
            )
    layout = {(quantifier.qid, c.name.upper()): i
              for i, c in enumerate(table.columns)}
    compiler = ExpressionCompiler(layout)
    checks = []
    texts = []
    for predicate in box.predicates:
        if quantifiers_in(predicate) <= {quantifier}:
            checks.append(compiler.compile(predicate))
            texts.append(str(predicate))
    return ComponentUpdatability(
        True, table=table.name, column_map=column_map,
        check_predicates=checks, check_texts=texts,
    )


def analyze_relationship(relationship: XNFRelationship,
                         components: dict[str, ComponentUpdatability]
                         ) -> RelationshipUpdatability:
    """Decide the connect/disconnect strategy for a relationship."""
    if len(relationship.children) != 1:
        return RelationshipUpdatability(
            "readonly", reason="n-ary relationships are read-only"
        )
    if relationship.predicate is None:
        return RelationshipUpdatability(
            "readonly", reason="relationship has no predicate"
        )
    child = relationship.children[0]
    conjuncts = ast.conjuncts(relationship.predicate)
    pairs: list[tuple[QRef, QRef]] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=" \
                or not isinstance(conjunct.left, QRef) \
                or not isinstance(conjunct.right, QRef):
            return RelationshipUpdatability(
                "readonly",
                reason=f"predicate {conjunct} is not a simple equality",
            )
        pairs.append((conjunct.left, conjunct.right))

    parent_q = relationship.parent_quantifier
    child_q = relationship.child_quantifiers[0]

    if not relationship.using_quantifiers:
        child_info = components.get(child)
        if child_info is None or not child_info.updatable:
            return RelationshipUpdatability(
                "readonly",
                reason=f"child component {child} is not updatable",
            )
        fk_pairs: list[tuple[str, str]] = []
        for left, right in pairs:
            sides = {left.quantifier.qid: left, right.quantifier.qid: right}
            if set(sides) != {parent_q.qid, child_q.qid}:
                return RelationshipUpdatability(
                    "readonly", reason="predicate spans other tables"
                )
            child_column = child_info.column_map.get(
                sides[child_q.qid].column.upper())
            if child_column is None:
                return RelationshipUpdatability(
                    "readonly",
                    reason="child join column is not a stored column",
                )
            fk_pairs.append((child_column,
                             sides[parent_q.qid].column.upper()))
        return RelationshipUpdatability("foreign_key", fk_pairs=fk_pairs)

    if len(relationship.using_quantifiers) == 1:
        using_q = relationship.using_quantifiers[0]
        if not isinstance(using_q.box, BaseBox):
            return RelationshipUpdatability(
                "readonly", reason="USING table is not a base table"
            )
        parent_pairs: list[tuple[str, str]] = []
        child_pairs: list[tuple[str, str]] = []
        for left, right in pairs:
            sides = {left.quantifier.qid: left,
                     right.quantifier.qid: right}
            if set(sides) == {parent_q.qid, using_q.qid}:
                parent_pairs.append((sides[using_q.qid].column.upper(),
                                     sides[parent_q.qid].column.upper()))
            elif set(sides) == {child_q.qid, using_q.qid}:
                child_pairs.append((sides[using_q.qid].column.upper(),
                                    sides[child_q.qid].column.upper()))
            else:
                return RelationshipUpdatability(
                    "readonly",
                    reason="predicate does not link through the "
                           "connect table",
                )
        if not parent_pairs or not child_pairs:
            return RelationshipUpdatability(
                "readonly",
                reason="connect table must link both partners",
            )
        return RelationshipUpdatability(
            "connect_table", table=using_q.box.table.name,
            parent_pairs=parent_pairs, child_pairs=child_pairs,
        )
    return RelationshipUpdatability(
        "readonly", reason="multiple USING tables"
    )


def analyze_xnf_box(xnf: XNFBox) -> tuple[dict, dict]:
    """Updatability of every component and relationship of a view."""
    components = {
        name: analyze_component(component.box)
        for name, component in xnf.components.items()
    }
    relationships = {
        name: analyze_relationship(relationship, components)
        for name, relationship in xnf.relationships.items()
    }
    return components, relationships


class CacheWriteBack:
    """Applies a workspace's update log to the base tables, atomically.

    Sect. 3: "If the CO is updatable, changes can be made locally (at
    the client site) and later on transferred back to the database
    server."
    """

    def __init__(self, catalog: Catalog,
                 transactions: TransactionManager,
                 component_info: dict[str, ComponentUpdatability],
                 relationship_info: dict[str, RelationshipUpdatability]):
        self.catalog = catalog
        self.transactions = transactions
        self.component_info = component_info
        self.relationship_info = relationship_info
        #: workspace ("new", n) oids -> storage RIDs after insert
        self._new_rids: dict = {}
        #: (table, rid) -> new rid for rows relocated by a partition-key
        #: change mid-transaction; later entries touching the old rid
        #: chase the chain to the row's current home.
        self._moved: dict = {}
        #: Consolidates this write-back's base-table mutations into the
        #: delta protocol (one TableDelta per touched table), emitted
        #: inside the atomic scope so the transaction buffers them: the
        #: WAL logs them at commit, and a rollback discards them.
        self._recorder: Optional[DeltaRecorder] = None

    # ------------------------------------------------------------------
    def apply(self, workspace: Workspace) -> int:
        """Write every logged change back; returns #applied entries."""
        applied = self.apply_now(list(workspace.log))
        self.remap_relocated(workspace)
        workspace.clear_log()
        return applied

    def remap_relocated(self, workspace: Workspace) -> None:
        """Point cached objects at their rows' new homes.

        A partition-key change relocated the base row (new RID), but
        the workspace still addresses the object by the RID it was
        extracted under; later write batches would chase a stale RID.
        """
        if not self._moved:
            return
        tables = {component: self.catalog.table(info.table).name
                  for component, info in self.component_info.items()
                  if info.updatable and info.table}
        for table_name, old_rid in list(self._moved):
            final = self._current_rid(table_name, old_rid)
            for component, base in tables.items():
                if base != table_name:
                    continue
                obj = workspace.by_oid.pop((component, old_rid), None)
                if obj is not None:
                    obj.oid = final
                    workspace.by_oid[(component, final)] = obj

    def apply_now(self, entries: list, verify=None) -> int:
        """Apply ``entries`` atomically; returns #applied entries.

        ``verify``, when given, runs inside the same atomic scope after
        the mutations — the write-through gateway path uses it for the
        round-trip (get∘put) check so a violation rolls everything back.
        """
        self._recorder = DeltaRecorder() if self.catalog.wants_deltas \
            else None

        def run() -> int:
            applied = 0
            for entry in entries:
                self._apply_entry(entry)
                applied += 1
            if verify is not None:
                verify(self)
            if self._recorder is not None:
                for delta in self._recorder.deltas():
                    self.catalog.emit_table_delta(delta)
            return applied

        try:
            return self.transactions.run_atomic(run)
        finally:
            self._recorder = None

    def _record(self, table_name: str, rid, old, new) -> None:
        if self._recorder is not None:
            self._recorder.record(table_name, rid, old, new)

    # ------------------------------------------------------------------
    def _apply_entry(self, entry: LogEntry) -> None:
        if entry.operation == "update":
            self._apply_update(entry)
        elif entry.operation == "insert":
            self._apply_insert(entry)
        elif entry.operation == "delete":
            self._apply_delete(entry)
        elif entry.operation == "connect":
            self._apply_connect(entry, disconnect=False)
        elif entry.operation == "disconnect":
            self._apply_connect(entry, disconnect=True)
        else:  # pragma: no cover - defensive
            raise UpdateError(f"unknown log operation {entry.operation!r}")

    def _component_info(self, name: str) -> ComponentUpdatability:
        info = self.component_info.get(name)
        if info is None:
            raise XNFError(f"no updatability info for component {name!r}")
        if not info.updatable:
            raise NotUpdatableError(
                f"component {name} is read-only: {info.reason}"
            )
        return info

    def _resolve_rid(self, name: str, oid) -> int:
        if isinstance(oid, tuple) and len(oid) == 2 and oid[0] == "new":
            rid = self._new_rids.get((name, oid))
            if rid is None:
                raise UpdateError(
                    f"object {oid} of {name} was never inserted"
                )
            return rid
        if not isinstance(oid, int):
            raise NotUpdatableError(
                f"component {name} has value-based identity; its "
                f"derivation is not updatable"
            )
        return oid

    def _current_rid(self, table_name: str, rid: int) -> int:
        """Chase relocations: a partition-key update may have moved the
        row to a fresh rid earlier in this write-back."""
        while (table_name, rid) in self._moved:
            rid = self._moved[(table_name, rid)]
        return rid

    def _store_update(self, table, rid: int, row: list) -> None:
        """Write ``row`` over ``rid``, recording the delta — as a
        delete+insert pair when the row relocates (changed partition
        key), in place otherwise."""
        old = table.fetch(rid)
        new_rid, stored = table.update_row(rid, row)
        if new_rid == rid:
            self._record(table.name, rid, old, stored)
        else:
            self._moved[(table.name, rid)] = new_rid
            self._record(table.name, rid, old, None)
            self._record(table.name, new_rid, None, stored)

    def _apply_update(self, entry: LogEntry) -> None:
        info = self._component_info(entry.target)
        table = self.catalog.table(info.table)
        rid = self._current_rid(
            table.name,
            self._resolve_rid(entry.target, entry.payload["oid"]))
        row = list(table.fetch(rid))
        base_column = info.column_map.get(entry.payload["column"])
        if base_column is None:
            raise NotUpdatableError(
                f"column {entry.payload['column']} of {entry.target} "
                f"does not map to a stored column"
            )
        row[table.column_position(base_column)] = entry.payload["new"]
        self._check_view_predicates(info, entry.target, row)
        self.catalog.check_foreign_keys(table.name, tuple(row))
        self._store_update(table, rid, row)

    def _apply_insert(self, entry: LogEntry) -> None:
        info = self._component_info(entry.target)
        table = self.catalog.table(info.table)
        row = [None] * len(table.columns)
        for view_column, value in entry.payload["values"].items():
            base_column = info.column_map.get(view_column.upper())
            if base_column is None:
                raise NotUpdatableError(
                    f"column {view_column} of {entry.target} does not "
                    f"map to a stored column"
                )
            row[table.column_position(base_column)] = value
        self._check_view_predicates(info, entry.target, row)
        self.catalog.check_foreign_keys(table.name, tuple(row))
        rid = table.insert(row)
        self._record(table.name, rid, None, table.fetch(rid))
        self._new_rids[(entry.target, entry.payload["oid"])] = rid

    def _apply_delete(self, entry: LogEntry) -> None:
        info = self._component_info(entry.target)
        table = self.catalog.table(info.table)
        if entry.payload.get("is_new"):
            key = (entry.target, entry.payload["oid"])
            rid = self._new_rids.pop(key, None)
            if rid is None:
                return  # inserted and deleted inside the cache only
        else:
            rid = self._resolve_rid(entry.target, entry.payload["oid"])
        rid = self._current_rid(table.name, rid)
        self.catalog.check_no_referencing_children(table.name,
                                                   table.fetch(rid))
        self._record(table.name, rid, table.delete(rid), None)

    def _apply_connect(self, entry: LogEntry, disconnect: bool) -> None:
        info = self.relationship_info.get(entry.target)
        if info is None:
            raise XNFError(
                f"no updatability info for relationship {entry.target!r}"
            )
        if info.kind == "readonly":
            raise NotUpdatableError(
                f"relationship {entry.target} is read-only: {info.reason}"
            )
        parent = entry.payload["parent"]
        child = entry.payload["children"][0]
        if info.kind == "foreign_key":
            self._connect_foreign_key(entry.target, info, parent, child,
                                      disconnect)
        else:
            self._connect_table(info, parent, child, disconnect)

    def _connect_foreign_key(self, name: str,
                             info: RelationshipUpdatability,
                             parent, child, disconnect: bool) -> None:
        child_info = self._component_info(child.component)
        table = self.catalog.table(child_info.table)
        rid = self._current_rid(
            table.name, self._resolve_rid(child.component, child.oid))
        row = list(table.fetch(rid))
        for child_column, parent_column in info.fk_pairs:
            value = None if disconnect else parent.get(parent_column)
            row[table.column_position(child_column)] = value
        self.catalog.check_foreign_keys(table.name, tuple(row))
        self._store_update(table, rid, row)

    def _connect_table(self, info: RelationshipUpdatability,
                       parent, child, disconnect: bool) -> None:
        table = self.catalog.table(info.table)
        assignments: dict[int, object] = {}
        for map_column, parent_column in info.parent_pairs:
            assignments[table.column_position(map_column)] = \
                parent.get(parent_column)
        for map_column, child_column in info.child_pairs:
            assignments[table.column_position(map_column)] = \
                child.get(child_column)
        if disconnect:
            # The relationship stream is DISTINCT: one cached connection
            # stands for every connect-table row linking the pair.
            victims = [rid for rid, row in table.scan()
                       if all(row[position] == value
                              for position, value in assignments.items())]
            if not victims:
                raise UpdateError(
                    "no connect-table row matches the disconnected pair"
                )
            for victim in victims:
                self._record(table.name, victim, table.delete(victim),
                             None)
            return
        row = [None] * len(table.columns)
        for position, value in assignments.items():
            row[position] = value
        self.catalog.check_foreign_keys(table.name, tuple(row))
        rid = table.insert(row)
        self._record(table.name, rid, None, table.fetch(rid))

    def _check_view_predicates(self, info: ComponentUpdatability,
                               component: str, row: list) -> None:
        """WITH CHECK OPTION: the written row must stay visible."""
        for check, text in zip(info.check_predicates, info.check_texts):
            if check(tuple(row), None) is not True:
                raise UpdateError(
                    f"row violates the {component} view predicate "
                    f"({text}); write rejected"
                )
