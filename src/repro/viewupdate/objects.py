"""The object gateway's put-back: deferred write-back and write-through.

Sect. 2: "Update of the nodes is essentially identical to update of
views in the relational DBMSs ...  Connect and disconnect operations on
such relationships translate to updating the foreign keys or
inserting/deleting the associated tuples in the connect tables."
Sect. 3: "If the CO is updatable, changes can be made locally (at the
client site) and later on transferred back to the database server."

A cached component is a view, classified by the same analysis as SQL
view DML (:func:`~repro.viewupdate.executor.compile_write_plan`).  Its
objects address base rows by RID, so only single-source components
take writes.  A relationship is connectable when its predicate is a
conjunction of simple column equalities and it is either *foreign-key
shaped* (binary, no USING: child columns equated to parent columns) or
*connect-table shaped* (binary, one USING base table linking parent and
child key columns).

:class:`CacheWriteBack` replays workspace log entries through the one
base-row writer (:class:`~repro.executor.dml.RowWriter`) in one atomic
scope, then verifies the final state of every row the batch wrote with
the get∘put check SQL view DML runs.  The deferred path replays the
whole log at ``write_back()``.  In *write-through* mode every
object-API call (``obj.update(...)``, ``extent.insert(...)``,
``obj.insert_child(...)``, ``obj.delete()``, attribute assignment,
``obj.set(...)``) is one such batch, put back immediately; on rejection
the workspace is reverted to its pre-call state and a
:class:`~repro.errors.ViewUpdateError` names the component, column and
reason, so the cached object graph and the database never diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (CacheError, NotUpdatableError, StorageError,
                          TypeCheckError, UpdateError, ViewUpdateError,
                          XNFError)
from repro.executor.dml import RowWriter
from repro.qgm.model import BaseBox, QRef, XNFBox, XNFRelationship
from repro.sql import ast
from repro.viewupdate.executor import CompiledWritePlan, compile_write_plan


@dataclass
class RelationshipUpdatability:
    """Connect/disconnect path of one relationship."""

    kind: str  # 'foreign_key' | 'connect_table' | 'readonly'
    reason: str = ""
    #: foreign_key: (child_view_column, parent_view_column) pairs
    fk_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: connect_table: mapping table plus its column bindings
    table: Optional[str] = None
    parent_pairs: list[tuple[str, str]] = field(default_factory=list)
    child_pairs: list[tuple[str, str]] = field(default_factory=list)


def analyze_relationship(relationship: XNFRelationship,
                         components: dict) -> RelationshipUpdatability:
    """Decide the connect/disconnect strategy for a relationship;
    ``components`` maps names to what :func:`analyze_xnf` found."""
    if len(relationship.children) != 1:
        return RelationshipUpdatability(
            "readonly", reason="n-ary relationships are read-only"
        )
    if relationship.predicate is None:
        return RelationshipUpdatability(
            "readonly", reason="relationship has no predicate"
        )
    child = relationship.children[0]
    pairs: list[tuple[QRef, QRef]] = []
    for conjunct in ast.conjuncts(relationship.predicate):
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
        child_plan = components.get(child)
        if not isinstance(child_plan, CompiledWritePlan):
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
            child_column = sides[child_q.qid].column.upper()
            if child_column not in child_plan.plan.column_map:
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


def component_write_plan(box, name: str, catalog,
                         ctx=None) -> CompiledWritePlan:
    """The write plan of a CO component, its checks bound to ``ctx``.
    An object of a component stands for one base row, so the derivation
    must be single-source; raises :class:`NotUpdatableError` otherwise."""
    compiled = compile_write_plan(box, name, catalog, ctx)
    if not compiled.plan.single_source:
        raise NotUpdatableError(
            f"view {name!r} is not updatable", box=box.label,
            reason="derivation joins multiple tables; an object stands "
                   "for one base row")
    return compiled


def analyze_xnf(xnf: XNFBox, catalog, ctx=None) -> tuple[dict, dict]:
    """Write paths of a CO view: per component its
    :class:`CompiledWritePlan` or the :class:`NotUpdatableError` that
    rejects it, and per relationship its connect strategy.  ``ctx``
    binds the parameters of a lifted view's predicates."""
    components: dict = {}
    for name, component in xnf.components.items():
        try:
            components[name] = component_write_plan(component.box, name,
                                                    catalog, ctx)
        except NotUpdatableError as exc:
            components[name] = exc
    relationships = {
        name: analyze_relationship(relationship, components)
        for name, relationship in xnf.relationships.items()
    }
    return components, relationships


class CacheWriteBack:
    """Applies workspace log entries to the base tables, atomically."""

    def __init__(self, catalog, transactions, components: dict,
                 relationships: dict):
        self.catalog = catalog
        self.transactions = transactions
        self.components = components
        self.relationships = relationships
        self.writer: Optional[RowWriter] = None
        #: workspace ("new", n) oids -> storage RIDs after insert
        self._new_rids: dict = {}
        #: (component, rid when first written) -> {view column: value}:
        #: what each written object must read back once the batch ends
        self._written: dict = {}
        #: (base table, final rid) -> the row stored there once the
        #: batch ended, as its verification fetched it
        self._stored: dict = {}

    # ------------------------------------------------------------------
    def apply(self, workspace) -> int:
        """Write every logged change back; returns #applied entries."""
        entries = list(workspace.log)
        applied = self.apply_now(entries)
        self.settle(workspace, entries)
        workspace.clear_log()
        return applied

    def apply_now(self, entries: list) -> int:
        """Apply ``entries`` and verify the final state of every row
        they wrote, all in one atomic scope (a violation rolls
        everything back); returns #applied entries."""
        def run() -> int:
            self.writer = RowWriter(self.catalog)
            self._new_rids = {}
            self._written = {}
            self._stored = {}
            for entry in entries:
                self._apply_entry(entry)
            for (component, rid), written in self._written.items():
                compiled = self.components[component]
                table = self.catalog.table(compiled.plan.table)
                rid = self.writer.current_rid(table.name, rid)
                stored = table.fetch(rid)
                compiled.verify(stored, written)
                self._stored[(table.name, rid)] = stored
            self.writer.emit()
            return len(entries)

        return self.transactions.run_atomic(run)

    def settle(self, workspace, entries: list) -> None:
        """After a successful put-back, make the cached objects address
        and show what the base tables now hold: inserted objects take
        their storage rids, relocated rows (a partition-key change)
        their new rids, every object over a written row the values its
        derivation gives for the stored row (computed columns
        included), and connected children the foreign-key values the
        connect wrote."""
        by_oid = workspace.by_oid

        def move(component, old, new) -> None:
            obj = by_oid.pop((component, old), None)
            if obj is not None:
                obj.oid = new
                obj.is_new = False
                by_oid[(component, new)] = obj

        for (component, oid), rid in self._new_rids.items():
            move(component, oid, rid)
        tables = {component: compiled.plan.table
                  for component, compiled in self.components.items()
                  if isinstance(compiled, CompiledWritePlan)}
        for table_name, old in list(self.writer.moved):
            final = self.writer.current_rid(table_name, old)
            for component, base in tables.items():
                if base == table_name:
                    move(component, old, final)
        for (table_name, rid), stored in self._stored.items():
            for component, base in tables.items():
                obj = by_oid.get((component, rid))
                compiled = self.components[component]
                if base == table_name and obj is not None \
                        and compiled.plan.single_source:
                    getters = compiled.getters
                    obj.values[:] = [
                        getters[column.upper()](stored) for column in
                        workspace.components_columns[component]]
        for entry in entries:
            if entry.operation not in ("connect", "disconnect"):
                continue
            info = self.relationships[entry.target]
            if info.kind != "foreign_key":
                continue
            parent = entry.payload["parent"]
            gone = entry.operation == "disconnect"
            for child in entry.payload["children"]:
                for child_column, parent_column in info.fk_pairs:
                    child.values[child._position(child_column)] = \
                        None if gone else parent.get(parent_column)

    # ------------------------------------------------------------------
    def _apply_entry(self, entry) -> None:
        payload = entry.payload
        if entry.operation == "update":
            self._update(entry.target, payload["oid"],
                         {payload["column"]: payload["new"]})
        elif entry.operation == "insert":
            self._insert(entry.target, payload["oid"], payload["values"])
        elif entry.operation == "delete":
            key = (entry.target, payload["oid"])
            if payload.get("is_new") and key not in self._new_rids:
                return  # inserted and deleted inside the cache only
            _compiled, table, rid = self._row(*key)
            self.writer.delete(table, rid)
            self._new_rids.pop(key, None)
            self._written.pop((entry.target, rid), None)
        elif entry.operation in ("connect", "disconnect"):
            self._connect(entry.target, payload["parent"],
                          payload["children"][0],
                          entry.operation == "disconnect")
        else:  # pragma: no cover - defensive
            raise UpdateError(f"unknown log operation {entry.operation!r}")

    def _component(self, name: str) -> CompiledWritePlan:
        compiled = self.components.get(name)
        if compiled is None:
            raise XNFError(f"no updatability info for component {name!r}")
        if not isinstance(compiled, CompiledWritePlan):
            raise NotUpdatableError(
                f"component {name} is read-only: {compiled}")
        return compiled

    def _row(self, name: str, oid):
        """(write plan, base table, rid) of one cached object."""
        compiled = self._component(name)
        table = self.catalog.table(compiled.plan.table)
        if isinstance(oid, tuple) and len(oid) == 2 and oid[0] == "new":
            rid = self._new_rids.get((name, oid))
            if rid is None:
                raise UpdateError(
                    f"object {oid} of {name} was never inserted"
                )
            return compiled, table, rid
        if not isinstance(oid, int):
            raise NotUpdatableError(
                f"component {name} has value-based identity; its "
                f"derivation is not updatable"
            )
        return compiled, table, oid

    def _update(self, name: str, oid, values: dict) -> None:
        compiled, table, rid = self._row(name, oid)
        positions = [
            table.column_position(compiled.plan.writable_base_column(c))
            for c in values]
        self.writer.update(table, rid, positions, list(values.values()))
        self._written.setdefault((name, rid), {}).update(values)

    def _insert(self, name: str, oid, values: dict) -> None:
        compiled = self._component(name)
        table = self.catalog.table(compiled.plan.table)
        row = [None] * len(table.columns)
        for view_column, value in values.items():
            row[table.column_position(
                compiled.plan.writable_base_column(view_column))] = value
        rid, _stored = self.writer.insert(table, row)
        self._new_rids[(name, oid)] = rid
        self._written[(name, rid)] = dict(values)

    def _connect(self, name: str, parent, child, disconnect: bool) -> None:
        info = self.relationships.get(name)
        if info is None:
            raise XNFError(
                f"no updatability info for relationship {name!r}"
            )
        if info.kind == "readonly":
            raise NotUpdatableError(
                f"relationship {name} is read-only: {info.reason}"
            )
        if info.kind == "foreign_key":
            self._update(child.component, child.oid, {
                child_column: None if disconnect else parent.get(column)
                for child_column, column in info.fk_pairs})
            return
        table = self.catalog.table(info.table)
        assignments: dict[int, object] = {}
        for map_column, parent_column in info.parent_pairs:
            assignments[table.column_position(map_column)] = \
                parent.get(parent_column)
        for map_column, child_column in info.child_pairs:
            assignments[table.column_position(map_column)] = \
                child.get(child_column)
        if not disconnect:
            row = [None] * len(table.columns)
            for position, value in assignments.items():
                row[position] = value
            self.writer.insert(table, row)
            return
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
            self.writer.delete(table, victim)


def revert_entries(workspace, entries) -> None:
    """Undo the workspace effects of freshly logged ``entries``.

    Only sound for entries sliced off the log tail immediately after
    the mutation (write-through discipline): nothing else has observed
    the provisional state yet.  Each write replaced partner tuples; the
    revert assigns the previous ones back, newest first, so every
    navigation tuple comes back exactly as it was, order included.
    """
    for entry in reversed(entries):
        payload = entry.payload
        for owner, index, previous in reversed(entry.undo):
            owner[index] = previous
        if entry.operation == "update":
            obj = workspace.by_oid[(entry.target, payload["oid"])]
            obj.values[obj._position(payload["column"])] = payload["old"]
        elif entry.operation == "insert":
            obj = workspace.by_oid.pop((entry.target, payload["oid"]),
                                       None)
            if obj is not None:
                bucket = workspace.objects.get(entry.target, [])
                if obj in bucket:
                    bucket.remove(obj)
        elif entry.operation == "delete":
            obj = workspace.by_oid.get((entry.target, payload["oid"]))
            if obj is not None:
                obj.deleted = False


def apply_write_through(cache, entries) -> None:
    """Put ``entries`` back immediately; revert the workspace on any
    failure, then settle the objects on their stored rows."""
    writer = cache._writer()
    try:
        writer.apply_now(entries)
    except Exception as exc:
        revert_entries(cache.workspace, entries)
        if isinstance(exc, ViewUpdateError) or not isinstance(
                exc, (UpdateError, CacheError, StorageError,
                      TypeCheckError)):
            raise
        raise ViewUpdateError(
            "write-through rejected", box=entries[0].target,
            reason=str(exc)) from exc
    writer.settle(cache.workspace, entries)
