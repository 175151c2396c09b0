"""Materialized composite-object views with incremental maintenance.

The paper evaluates XNF views from scratch on every extraction; this
module adds the layer the ROADMAP's "caching + hot-path speed" goal
asks for: a registry of **materialized** XNF views whose stored
:class:`~repro.xnf.result.COResult` is kept consistent under DML by
**delta propagation** instead of recomputation (in the spirit of
incremental view maintenance a la relational lenses).

How a view stays fresh
======================

DML (:mod:`repro.executor.dml`) and cache write-back
(:class:`repro.xnf.updates.CacheWriteBack`) publish one
:class:`~repro.storage.catalog.TableDelta` per touched base table per
statement through ``catalog.delta_listeners``.  For each registered
view the delta either:

* propagates **incrementally** — the common case, when every component
  derivation is a select/project of one base table (the same shape the
  Sect. 2 updatability analysis accepts) and every relationship
  predicate is an equi-join between parent, child and USING tables; or
* marks the view for **full refresh** — recursive COs, joins or
  DISTINCT inside component derivations, n-ary relationships,
  non-equi-join predicates (see ``fallback_reason``).

Incremental propagation mirrors the translator's semantics
(:mod:`repro.xnf.translate`): a relationship's connection set is the
join of the parent's *final* (reachability-restricted) extent with the
child's *raw* extent and the USING tables under the relationship
predicate; a non-root component's final extent is the set of child
tuples referenced by at least one visible connection.  Deltas are
propagated with the standard telescoping decomposition of a join delta
(one input advances at a time; each term joins the input's delta
against the current state of the others), evaluated through the
executor's own :class:`~repro.optimizer.plan.HashJoin` /
:class:`~repro.optimizer.plan.Materialized` operators via the
batch-at-a-time ``execute_batches`` protocol.  Connection multisets
and per-child support counts make deletions exact without
recomputation.

Staleness policies
==================

``eager``     maintain the internal state on every write (reads are
              always fresh; the result snapshot is rebuilt lazily).
``deferred``  queue deltas on write; apply them on the next read or
              explicit ``REFRESH MATERIALIZED VIEW``.

A transaction rollback invalidates every view (deltas emitted inside
the transaction were undone), forcing a full refresh on next read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import CacheError, CatalogError
from repro.executor.expressions import (CompiledExpression,
                                        ExpressionCompiler, column_ref)
from repro.optimizer.plan import ExecutionContext, HashJoin, Materialized
from repro.qgm.model import BaseBox, QRef, RidRef
from repro.sql import ast
from repro.storage.catalog import Catalog, TableDelta
from repro.xnf.result import (ComponentStream, ConnectionStream, COResult,
                              XNFExecutable)
from repro.xnf.translate import TranslatedXNF
from repro.xnf.updates import analyze_component

#: (rid, row) pairs — the currency of raw extents and deltas.
Pairs = list


class _Fallback(Exception):
    """Internal: the view's shape is outside the incremental fragment."""


# ----------------------------------------------------------------------
# Static analysis: can this view be maintained incrementally?
# ----------------------------------------------------------------------
@dataclass
class _ComponentPlan:
    """Maintenance metadata for one component."""

    name: str
    number: int
    table: str
    qid: int
    #: view column (upper) -> base column position
    base_positions_by_column: dict[str, int]
    checks: list  # compiled predicates over the full base row
    #: final extent equals raw extent (root / reachability not required)
    root_like: bool
    taken: bool
    stream_columns: list[str] = field(default_factory=list)
    stream_positions: list[int] = field(default_factory=list)


@dataclass
class _InputSpec:
    """One join input of a relationship: parent, child or USING table."""

    kind: str  # 'parent' | 'child' | 'using'
    name: str  # component name, or USING table name
    qid: int
    table: str
    width: int  # row width (components carry a trailing oid slot)
    offset: int = 0  # start position in the combined join layout


@dataclass
class _RelationshipPlan:
    """Maintenance metadata for one relationship."""

    name: str
    number: int
    role: str
    parent: str
    child: str
    taken: bool
    attribute_names: tuple
    inputs: list  # _InputSpec, in join order (parent first)
    #: per join step: (positions in accumulated row, positions in the
    #: new input's row)
    join_keys: list
    predicate_fn: CompiledExpression = None
    attr_fns: list = field(default_factory=list)
    poid_pos: int = 0
    coid_pos: int = 0


@dataclass
class _IncrementalPlan:
    """Everything the delta engine needs, derived once per view."""

    components: dict
    relationships: dict
    topo: list  # component names, parents before children
    incoming: dict  # component -> [_RelationshipPlan]
    using_tables: set


def _check_no_subqueries(expression: ast.Expression, where: str) -> None:
    for node in ast.walk_expression(expression):
        if isinstance(node, (ast.Exists, ast.InSubquery,
                             ast.ScalarSubquery)):
            raise _Fallback(f"{where} contains a subquery")


def _analyze_incremental(translated: TranslatedXNF,
                         catalog: Catalog) -> _IncrementalPlan:
    """Build the incremental plan, or raise :class:`_Fallback`."""
    if translated.recursive:
        raise _Fallback("recursive CO views are refreshed fully")
    xnf = translated.xnf_box
    if xnf is None:
        raise _Fallback("translation kept no XNF operator box")

    components: dict = {}
    for name, info in translated.components.items():
        box = xnf.components[name].box
        updatability = analyze_component(box)
        if not updatability.updatable:
            raise _Fallback(f"component {name}: {updatability.reason}")
        if len(updatability.check_predicates) != len(box.predicates):
            raise _Fallback(
                f"component {name}: derivation predicate is not local "
                f"to its base table"
            )
        table = catalog.table(updatability.table)
        positions = {
            view_column: table.column_position(base_column)
            for view_column, base_column in
            updatability.column_map.items()
        }
        incoming_edges = translated.schema.incoming(name)
        root_like = (xnf.components[name].is_root
                     or not xnf.components[name].reachability_required
                     or not incoming_edges)
        plan = _ComponentPlan(
            name=name, number=info.number, table=table.name,
            qid=box.foreach_quantifiers()[0].qid,
            base_positions_by_column=positions,
            checks=updatability.check_predicates,
            root_like=root_like, taken=info.taken,
        )
        if info.taken:
            plan.stream_columns = list(info.columns)
            for column in plan.stream_columns:
                position = positions.get(column.upper())
                if position is None:
                    raise _Fallback(
                        f"component {name}: stream column {column!r} "
                        f"is not a stored column"
                    )
                plan.stream_positions.append(position)
        components[name] = plan

    relationships: dict = {}
    incoming: dict = {name: [] for name in components}
    for name, rinfo in translated.relationships.items():
        relationships[name] = _analyze_relationship(
            name, rinfo, xnf, components, catalog)
        incoming[relationships[name].child].append(relationships[name])

    topo = translated.schema.topological_order()
    if topo is None:  # pragma: no cover - recursive handled above
        raise _Fallback("schema graph has a cycle")
    using_tables = {
        spec.table
        for rel in relationships.values()
        for spec in rel.inputs if spec.kind == "using"
    }
    return _IncrementalPlan(components=components,
                            relationships=relationships, topo=topo,
                            incoming=incoming, using_tables=using_tables)


def _analyze_relationship(name, rinfo, xnf, components, catalog):
    relationship = xnf.relationships[name]
    if len(relationship.children) != 1:
        raise _Fallback(f"relationship {name}: n-ary relationships are "
                        f"refreshed fully")
    if relationship.predicate is None:
        raise _Fallback(f"relationship {name}: no join predicate")
    _check_no_subqueries(relationship.predicate,
                         f"relationship {name} predicate")
    for attr_name, expression in relationship.attributes:
        _check_no_subqueries(expression,
                             f"relationship {name} attribute {attr_name}")

    child = relationship.children[0]
    inputs: list[_InputSpec] = [
        _InputSpec("parent", relationship.parent,
                   relationship.parent_quantifier.qid,
                   components[relationship.parent].table,
                   len(catalog.table(
                       components[relationship.parent].table).columns) + 1),
        _InputSpec("child", child, relationship.child_quantifiers[0].qid,
                   components[child].table,
                   len(catalog.table(components[child].table).columns) + 1),
    ]
    seen_using: set[str] = set()
    for quantifier in relationship.using_quantifiers:
        if not isinstance(quantifier.box, BaseBox):
            raise _Fallback(f"relationship {name}: USING source "
                            f"{quantifier.name!r} is not a base table")
        table = quantifier.box.table
        if table.name in seen_using:
            raise _Fallback(f"relationship {name}: USING table "
                            f"{table.name} appears twice")
        seen_using.add(table.name)
        inputs.append(_InputSpec("using", table.name, quantifier.qid,
                                 table.name, len(table.columns)))

    by_qid = {spec.qid: index for index, spec in enumerate(inputs)}

    def resolve(qref: QRef) -> tuple[int, int]:
        index = by_qid.get(qref.quantifier.qid)
        if index is None:
            raise _Fallback(
                f"relationship {name}: predicate references "
                f"{qref.quantifier.name!r}, outside the relationship"
            )
        spec = inputs[index]
        if spec.kind == "using":
            return index, catalog.table(spec.table).column_position(
                qref.column)
        position = components[spec.name].base_positions_by_column.get(
            qref.column.upper())
        if position is None:
            raise _Fallback(
                f"relationship {name}: column {qref.column!r} of "
                f"{spec.name} is not a stored column"
            )
        return index, position

    # Validate every reference; collect equi pairs for the join order.
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for conjunct in ast.conjuncts(relationship.predicate):
        if (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
                and isinstance(conjunct.left, QRef)
                and isinstance(conjunct.right, QRef)):
            left, right = resolve(conjunct.left), resolve(conjunct.right)
            if left[0] != right[0]:
                pairs.append((left, right))
                continue
    for expression in ([relationship.predicate]
                       + [e for _n, e in relationship.attributes]):
        for node in ast.walk_expression(expression):
            if isinstance(node, QRef):
                resolve(node)
            elif isinstance(node, RidRef):
                index = by_qid.get(node.quantifier.qid)
                if index is None or inputs[index].kind == "using":
                    raise _Fallback(
                        f"relationship {name}: RID reference outside "
                        f"the joined components"
                    )

    # Greedy join order: start at the parent, add inputs connected by
    # at least one equality (no cross products in the delta path).
    order = [0]
    join_keys: list[tuple[list[int], list[int]]] = []
    remaining = [index for index in range(1, len(inputs))]
    offsets = {0: 0}
    width = inputs[0].width
    while remaining:
        step = None
        for candidate in remaining:
            left_keys: list[int] = []
            right_keys: list[int] = []
            for (a_index, a_pos), (b_index, b_pos) in pairs:
                if a_index in offsets and b_index == candidate:
                    left_keys.append(offsets[a_index] + a_pos)
                    right_keys.append(b_pos)
                elif b_index in offsets and a_index == candidate:
                    left_keys.append(offsets[b_index] + b_pos)
                    right_keys.append(a_pos)
            if left_keys:
                step = (candidate, left_keys, right_keys)
                break
        if step is None:
            raise _Fallback(
                f"relationship {name}: predicate does not equi-join "
                f"every table"
            )
        candidate, left_keys, right_keys = step
        remaining.remove(candidate)
        offsets[candidate] = width
        width += inputs[candidate].width
        order.append(candidate)
        join_keys.append((left_keys, right_keys))

    ordered_inputs = []
    for index in order:
        spec = inputs[index]
        spec.offset = offsets[index]
        ordered_inputs.append(spec)

    # Compile the predicate and attributes against the joined layout.
    layout: dict = {}
    for spec in ordered_inputs:
        if spec.kind == "using":
            table = catalog.table(spec.table)
            for position, column in enumerate(table.column_names):
                layout[(spec.qid, column.upper())] = spec.offset + position
        else:
            for column, position in components[
                    spec.name].base_positions_by_column.items():
                layout[(spec.qid, column)] = spec.offset + position
            layout[(spec.qid, "$RID$")] = spec.offset + spec.width - 1
    compiler = ExpressionCompiler(layout)

    parent_spec = ordered_inputs[[s.kind for s in ordered_inputs
                                  ].index("parent")]
    child_spec = ordered_inputs[[s.kind for s in ordered_inputs
                                 ].index("child")]
    return _RelationshipPlan(
        name=name, number=rinfo.number, role=rinfo.role,
        parent=relationship.parent, child=child, taken=rinfo.taken,
        attribute_names=tuple(n for n, _e in relationship.attributes),
        inputs=ordered_inputs, join_keys=join_keys,
        predicate_fn=compiler.compile_condition(relationship.predicate),
        attr_fns=[compiler.compile(e)
                  for _n, e in relationship.attributes],
        poid_pos=parent_spec.offset + parent_spec.width - 1,
        coid_pos=child_spec.offset + child_spec.width - 1,
    )


# ----------------------------------------------------------------------
# The incremental state and delta engine
# ----------------------------------------------------------------------
class _IncrementalState:
    """Shadowed extents, connection multisets and support counts."""

    def __init__(self, plan: _IncrementalPlan, catalog: Catalog):
        self.plan = plan
        self.catalog = catalog
        self.raw: dict[str, dict] = {}      # component -> rid -> base row
        self.final: dict[str, dict] = {}    # component -> oid -> base row
        self.support: dict[str, Counter] = {}
        self.using: dict[str, dict] = {}    # table -> rid -> row
        self.conn: dict[str, Counter] = {}  # relationship -> key -> count

    # -- construction ---------------------------------------------------
    def build(self) -> None:
        for table_name in self.plan.using_tables:
            self.using[table_name] = dict(
                self.catalog.table(table_name).scan())
        for component in self.plan.components.values():
            table = self.catalog.table(component.table)
            checks = component.checks
            self.raw[component.name] = {
                rid: row for rid, row in table.scan()
                if all(check(row, None) is True for check in checks)
            }
        for name in self.plan.topo:
            for relationship in self.plan.incoming[name]:
                self.conn[relationship.name] = Counter(
                    self._enumerate(relationship, {}))
            component = self.plan.components[name]
            if component.root_like:
                self.final[name] = dict(self.raw[name])
                continue
            support: Counter = Counter()
            for relationship in self.plan.incoming[name]:
                for key in self.conn[relationship.name]:
                    support[key[1]] += 1
            self.support[name] = support
            raw = self.raw[name]
            self.final[name] = {oid: raw[oid] for oid in raw
                                if support.get(oid, 0) > 0}

    # -- join evaluation ------------------------------------------------
    def _input_rows(self, spec: _InputSpec, overrides: dict,
                    index: int) -> list:
        if index in overrides:
            return overrides[index]
        if spec.kind == "using":
            return list(self.using[spec.table].values())
        source = (self.final if spec.kind == "parent" else self.raw)[
            spec.name]
        return [row + (oid,) for oid, row in source.items()]

    @staticmethod
    def _shape(spec: _InputSpec, pairs: Iterable) -> list:
        if spec.kind == "using":
            return [row for _rid, row in pairs]
        return [row + (oid,) for oid, row in pairs]

    def _enumerate(self, relationship: _RelationshipPlan,
                   overrides: dict) -> list[tuple]:
        """All connection keys of the join with ``overrides`` substituted
        for the corresponding inputs (the delta-join building block).

        Runs through the executor's hash-join machinery: each input is a
        :class:`Materialized` relation, each step a :class:`HashJoin`
        drained via the batch protocol.
        """
        inputs = relationship.inputs
        rows = self._input_rows(inputs[0], overrides, 0)
        if not rows:
            return []
        node: object = Materialized(
            [f"c{i}" for i in range(inputs[0].width)], rows)
        for step, spec in enumerate(inputs[1:]):
            step_rows = self._input_rows(spec, overrides, step + 1)
            if not step_rows:
                return []
            left_positions, right_positions = relationship.join_keys[step]
            node = HashJoin(
                node,
                Materialized([f"c{i}" for i in range(spec.width)],
                             step_rows),
                [column_ref(p) for p in left_positions],
                [column_ref(p) for p in right_positions],
            )
        ctx = ExecutionContext()
        predicate = relationship.predicate_fn
        attr_fns = relationship.attr_fns
        poid_pos = relationship.poid_pos
        coid_pos = relationship.coid_pos
        keys: list[tuple] = []
        for batch in node.execute_batches(ctx):
            for row in batch:
                if predicate(row, ctx) is not True:
                    continue
                key = (row[poid_pos], row[coid_pos])
                if attr_fns:
                    key += tuple(fn(row, ctx) for fn in attr_fns)
                keys.append(key)
        return keys

    def _term(self, relationship: _RelationshipPlan, index: int,
              removed: Pairs, added: Pairs, delta: Counter) -> None:
        """One telescoping term: input ``index`` advances by
        (removed, added) against the current state of the others."""
        spec = relationship.inputs[index]
        if removed:
            delta.subtract(
                self._enumerate(relationship,
                                {index: self._shape(spec, removed)}))
        if added:
            delta.update(
                self._enumerate(relationship,
                                {index: self._shape(spec, added)}))

    # -- delta application ----------------------------------------------
    def apply(self, delta: TableDelta) -> None:
        """Propagate one table's delta through every stream, exactly."""
        table_name = delta.table.upper()
        conn_deltas: dict[str, Counter] = {
            name: Counter() for name in self.plan.relationships}
        raw_deltas: dict[str, tuple[Pairs, Pairs]] = {}

        # Phase 1: advance the independent inputs (USING shadows and
        # component raw extents) one at a time; each advancement
        # contributes its delta-join terms before the next advances.
        if table_name in self.using:
            shadow = self.using[table_name]
            removed = [(rid, shadow[rid]) for rid, _row in delta.deleted
                       if rid in shadow]
            added = list(delta.inserted)
            for relationship in self.plan.relationships.values():
                for index, spec in enumerate(relationship.inputs):
                    if spec.kind == "using" and spec.table == table_name:
                        self._term(relationship, index, removed, added,
                                   conn_deltas[relationship.name])
            for rid, _row in removed:
                del shadow[rid]
            for rid, row in added:
                shadow[rid] = row

        for component in self.plan.components.values():
            if component.table != table_name:
                continue
            raw = self.raw[component.name]
            removed = [(rid, raw[rid]) for rid, _row in delta.deleted
                       if rid in raw]
            added = [(rid, row) for rid, row in delta.inserted
                     if all(check(row, None) is True
                            for check in component.checks)]
            if not removed and not added:
                continue
            raw_deltas[component.name] = (removed, added)
            for relationship in self.plan.relationships.values():
                for index, spec in enumerate(relationship.inputs):
                    if spec.kind == "child" \
                            and spec.name == component.name:
                        self._term(relationship, index, removed, added,
                                   conn_deltas[relationship.name])
            for rid, _row in removed:
                del raw[rid]
            for rid, row in added:
                raw[rid] = row

        # Phase 2: walk components parents-first; finalize incoming
        # connection sets (adding the parent-final terms), derive
        # support transitions, and advance final extents.
        final_deltas: dict[str, tuple[Pairs, Pairs]] = {}
        for name in self.plan.topo:
            component = self.plan.components[name]
            transitions: list[tuple[tuple, bool]] = []
            for relationship in self.plan.incoming[name]:
                parent_removed, parent_added = final_deltas.get(
                    relationship.parent, ((), ()))
                self._term(relationship, 0, parent_removed, parent_added,
                           conn_deltas[relationship.name])
                transitions.extend(self._apply_conn_delta(
                    relationship.name, conn_deltas[relationship.name]))

            removed_pairs: Pairs = []
            added_pairs: Pairs = []
            final = self.final.setdefault(name, {})
            raw = self.raw[name]
            if component.root_like:
                raw_removed, raw_added = raw_deltas.get(name, ((), ()))
                for rid, row in raw_removed:
                    final.pop(rid, None)
                    removed_pairs.append((rid, row))
                for rid, row in raw_added:
                    final[rid] = row
                    added_pairs.append((rid, row))
            else:
                support = self.support.setdefault(name, Counter())
                touched: set = set()
                for key, appeared in transitions:
                    support[key[1]] += 1 if appeared else -1
                    touched.add(key[1])
                for oid in touched:
                    count = support.get(oid, 0)
                    if count < 0:  # pragma: no cover - invariant
                        raise CacheError(
                            f"materialized view support of {name} oid "
                            f"{oid!r} went negative"
                        )
                    if count > 0 and oid not in final:
                        row = raw[oid]
                        final[oid] = row
                        added_pairs.append((oid, row))
                    elif count == 0:
                        if oid in final:
                            removed_pairs.append((oid, final.pop(oid)))
                        del support[oid]
                # A raw update that keeps the oid reachable changes the
                # stored row in place.
                raw_removed, raw_added = raw_deltas.get(name, ((), ()))
                replaced = {rid for rid, _row in raw_removed}
                for rid, row in raw_added:
                    if rid in replaced and rid in final \
                            and final[rid] != row:
                        removed_pairs.append((rid, final[rid]))
                        final[rid] = row
                        added_pairs.append((rid, row))
            if removed_pairs or added_pairs:
                final_deltas[name] = (removed_pairs, added_pairs)

    def _apply_conn_delta(self, name: str,
                          delta: Counter) -> list[tuple[tuple, bool]]:
        """Apply a signed connection-multiset delta; return visibility
        transitions as (key, appeared) pairs."""
        counter = self.conn[name]
        transitions: list[tuple[tuple, bool]] = []
        for key, change in delta.items():
            if change == 0:
                continue
            old = counter.get(key, 0)
            new = old + change
            if new < 0:  # pragma: no cover - invariant
                raise CacheError(
                    f"materialized view connection multiplicity of "
                    f"{name} went negative for {key!r}"
                )
            if new == 0:
                if old:
                    del counter[key]
            else:
                counter[key] = new
            if old == 0 and new > 0:
                transitions.append((key, True))
            elif old > 0 and new == 0:
                transitions.append((key, False))
        delta.clear()
        return transitions

    # -- result materialization ----------------------------------------
    def snapshot(self, translated: TranslatedXNF) -> COResult:
        """A fresh :class:`COResult` materialized from the state."""
        components: dict[str, ComponentStream] = {}
        for name, component in self.plan.components.items():
            if not component.taken:
                continue
            stream = ComponentStream(
                name=name, number=component.number,
                columns=list(component.stream_columns),
            )
            positions = component.stream_positions
            for oid, row in self.final[name].items():
                stream.oids.append(oid)
                stream.rows.append(tuple(row[p] for p in positions))
            components[name] = stream
        relationships: dict[str, ConnectionStream] = {}
        for name, relationship in self.plan.relationships.items():
            if not relationship.taken:
                continue
            relationships[name] = ConnectionStream(
                name=name, number=relationship.number,
                role=relationship.role, parent=relationship.parent,
                children=(relationship.child,),
                connections=list(self.conn[name]),
                attribute_names=relationship.attribute_names,
            )
        return COResult(
            schema=translated.schema, components=components,
            relationships=relationships,
            counters={"matview_snapshot": 1}, shipped_tuples=0,
        )


# ----------------------------------------------------------------------
# The registry-facing objects
# ----------------------------------------------------------------------
POLICIES = ("eager", "deferred")


class MaterializedView:
    """One registered view: stored result, base tables, refresh state."""

    def __init__(self, name: str, query: ast.XNFQuery,
                 compile_fn: Callable[[ast.XNFQuery], XNFExecutable],
                 catalog: Catalog, policy: str = "eager",
                 initial_refresh: bool = True):
        if policy not in POLICIES:
            raise CacheError(
                f"unknown staleness policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        self.name = name.upper()
        self.query = query
        self.policy = policy
        self.catalog = catalog
        self.executable = compile_fn(query)
        self.translated: TranslatedXNF = self.executable.translated
        self.base_tables = _base_tables_of(self.translated)
        self.fallback_reason = ""
        try:
            self._plan: Optional[_IncrementalPlan] = \
                _analyze_incremental(self.translated, catalog)
        except _Fallback as reason:
            self._plan = None
            self.fallback_reason = str(reason)
        self._state: Optional[_IncrementalState] = None
        self._result: Optional[COResult] = None
        self._snapshot_dirty = False
        self.pending: list[TableDelta] = []
        self.stale = True
        self.stats = {"full_refreshes": 0, "incremental_refreshes": 0,
                      "delta_rows_applied": 0, "reads": 0}
        if initial_refresh:
            self.refresh(full=True)
        # else: registered stale — crash recovery re-registers views
        # this way so the first read recomputes from the recovered base
        # tables instead of trusting a pre-crash materialization.

    # ------------------------------------------------------------------
    @property
    def is_incremental(self) -> bool:
        """True when DML deltas propagate instead of recomputing."""
        return self._plan is not None

    @property
    def fresh(self) -> bool:
        return not self.stale and not self.pending \
            and not self._snapshot_dirty

    @property
    def result(self) -> COResult:
        """The stored result (as of the last refresh; see :meth:`read`)."""
        if self._snapshot_dirty:
            self._result = self._state.snapshot(self.translated)
            self._snapshot_dirty = False
        return self._result

    def read(self) -> COResult:
        """The policy-respecting read path: refresh if needed, serve."""
        self.stats["reads"] += 1
        return self.refresh()

    # ------------------------------------------------------------------
    def refresh(self, full: bool = False) -> COResult:
        """Bring the view up to date; returns the fresh result."""
        if full or self.stale or (self.pending
                                  and not self.is_incremental):
            self._full_refresh()
        elif self.pending:
            self._apply_pending()
        return self.result

    def _full_refresh(self) -> None:
        self._result = self.executable.run()
        self._snapshot_dirty = False
        if self._plan is not None:
            self._state = _IncrementalState(self._plan, self.catalog)
            self._state.build()
        self.pending.clear()
        self.stale = False
        self.stats["full_refreshes"] += 1

    def _apply_pending(self) -> None:
        for delta in self.pending:
            self._state.apply(delta)
            self.stats["delta_rows_applied"] += (len(delta.inserted)
                                                 + len(delta.deleted))
        self.pending.clear()
        self._snapshot_dirty = True
        self.stats["incremental_refreshes"] += 1

    # ------------------------------------------------------------------
    def on_table_delta(self, delta: TableDelta) -> None:
        if delta.table.upper() not in self.base_tables:
            return
        if self.policy == "eager" and self.is_incremental \
                and not self.stale:
            self.pending.append(delta)
            self._apply_pending()
            return
        if self.is_incremental and not self.stale:
            self.pending.append(delta)
        else:
            # Outside the incremental fragment (or already stale) a
            # per-write recompute would cost a full evaluation per
            # statement; since results are only observable through the
            # read path, mark stale and recompute once on the next read.
            self.invalidate()

    def invalidate(self) -> None:
        """Force the next read to recompute from base tables."""
        self.stale = True
        self.pending.clear()


class MaterializedViewRegistry:
    """All materialized views of one database, keyed by name.

    Subscribed to the catalog's delta protocol; also consulted by the
    facade's XNF read path so a query structurally equal to a
    registered view's definition is served from the materialization.
    """

    def __init__(self, catalog: Catalog,
                 compile_fn: Callable[[ast.XNFQuery], XNFExecutable]):
        self.catalog = catalog
        self._compile = compile_fn
        self._views: dict[str, MaterializedView] = {}
        #: Called with ``(name, policy)`` / ``(name,)`` after a view is
        #: registered / dropped; the durability layer logs these so a
        #: recovered engine knows which views to re-register (stale).
        self.create_listeners: list[Callable[[str, str], None]] = []
        self.drop_listeners: list[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    def create(self, name: str, query: ast.XNFQuery,
               policy: str = "eager",
               initial_refresh: bool = True) -> MaterializedView:
        key = name.upper()
        if key in self._views:
            raise CatalogError(
                f"materialized view {name!r} already exists")
        view = MaterializedView(name, query, self._compile, self.catalog,
                                policy=policy,
                                initial_refresh=initial_refresh)
        self._views[key] = view
        for listener in list(self.create_listeners):
            listener(key, view.policy)
        return view

    def drop(self, name: str) -> None:
        if self._views.pop(name.upper(), None) is None:
            raise CatalogError(f"no materialized view named {name!r}")
        for listener in list(self.drop_listeners):
            listener(name.upper())

    def get(self, name: str) -> MaterializedView:
        view = self._views.get(name.upper())
        if view is None:
            raise CatalogError(f"no materialized view named {name!r}")
        return view

    def has(self, name: str) -> bool:
        return name.upper() in self._views

    def names(self) -> list[str]:
        return list(self._views)

    def views(self) -> list[MaterializedView]:
        return list(self._views.values())

    def lookup_query(self,
                     query: ast.XNFQuery) -> Optional[MaterializedView]:
        """A view whose definition is structurally equal to ``query``."""
        for view in self._views.values():
            if view.query == query:
                return view
        return None

    # ------------------------------------------------------------------
    def on_table_delta(self, delta: TableDelta) -> None:
        for view in self._views.values():
            view.on_table_delta(delta)

    def invalidate_all(self) -> None:
        for view in self._views.values():
            view.invalidate()


# ----------------------------------------------------------------------
# Helpers shared with tests
# ----------------------------------------------------------------------
def _base_tables_of(translated: TranslatedXNF) -> set[str]:
    names = {
        box.table.name.upper()
        for box in translated.graph.all_boxes()
        if isinstance(box, BaseBox)
    }
    xnf = translated.xnf_box
    if xnf is not None:
        for relationship in xnf.relationships.values():
            for quantifier in relationship.using_quantifiers:
                if isinstance(quantifier.box, BaseBox):
                    names.add(quantifier.box.table.name.upper())
    return names


def co_canonical(result: COResult) -> dict:
    """An order-insensitive, comparison-friendly view of a COResult.

    Component streams become ``{oid: {column: value}}`` maps (object
    identity is the key, row order is irrelevant); relationship streams
    become sets of connection tuples (they are DISTINCT streams by
    construction).  Two evaluations of the same view over the same data
    must agree on this form no matter which code path produced them.
    """
    components = {
        name: {
            repr(oid): tuple(sorted(zip(stream.columns, row)))
            for oid, row in zip(stream.oids, stream.rows)
        }
        for name, stream in result.components.items()
    }
    relationships = {
        name: frozenset(tuple(c) for c in stream.connections)
        for name, stream in result.relationships.items()
    }
    return {"components": components, "relationships": relationships}


def co_results_equal(left: COResult, right: COResult) -> bool:
    return co_canonical(left) == co_canonical(right)
