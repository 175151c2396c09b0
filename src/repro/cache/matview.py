"""Materialized composite-object views with incremental maintenance.

The paper evaluates XNF views from scratch on every extraction; this
module adds the layer the ROADMAP's "caching + hot-path speed" goal
asks for: a registry of **materialized** XNF views whose stored
:class:`~repro.xnf.result.COResult` is kept consistent under DML by
**delta propagation** instead of recomputation (in the spirit of
incremental view maintenance a la relational lenses).

How a view stays fresh
======================

Every base-row write (:class:`repro.executor.dml.RowWriter`: SQL DML,
view DML and cache write-back alike) reports one
:class:`~repro.storage.catalog.TableDelta` per touched base table per
statement to the catalog's sink; the engine buffers it on the writing
transaction and, at commit, hands it to
:meth:`MaterializedViewRegistry.on_table_delta` right after the
statistics.  For each registered view the delta either:

* propagates **incrementally** — the common case, when every component
  derivation is a select/project of one base table whose objects are
  identified by base RID (classified by the Sect. 2 updatability
  analysis, :func:`repro.viewupdate.objects.component_write_plan`) and
  every relationship predicate is an equi-join between parent, child
  and USING tables; or
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
against the current state of the others).  A term starts from its
delta rows and probes outward along the relationship's equi-join
graph through **persistent hash indexes** — one per (join input,
probe-key columns), built with the state and updated wherever the
input's extent changes — so its cost follows the rows the delta
reaches, not the size of the extents.  Buckets reference the extents'
row tuples rather than copying them.  Connection multisets and
per-child support counts make deletions exact without recomputation.

An update that changes no column the view's predicates, joins or
relationship attributes read (the table's *value key*) cannot change a
connection, a support count or membership: such a row is replaced in
place in every extent holding its RID, and no delta join runs.

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
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from repro.errors import CacheError, CatalogError, NotUpdatableError
from repro.executor.expressions import (BatchKernel, BatchPredicate,
                                        ExpressionCompiler)
from repro.executor.plan_cache import ParameterizedStatement, parameterize_xnf
from repro.qgm.model import BaseBox, QRef, RidRef
from repro.sql import ast
from repro.storage.catalog import Catalog, TableDelta
from repro.xnf.result import (ComponentStream, ConnectionStream, COResult,
                              XNFExecutable)
from repro.viewupdate.executor import compile_base_project
from repro.viewupdate.objects import component_write_plan
from repro.xnf.translate import OID, TranslatedXNF

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
    #: view column (upper) -> base column position
    base_positions_by_column: dict[str, int]
    checks: list  # (compiled predicate over the full base row, text)
    #: final extent equals raw extent (root / reachability not required)
    root_like: bool
    taken: bool
    stream_columns: list[str] = field(default_factory=list)
    #: the stream's value tuple of each stored row
    stream_values: Optional[BatchKernel] = None


@dataclass
class _InputSpec:
    """One join input of a relationship: parent, child or USING table."""

    kind: str  # 'parent' | 'child' | 'using'
    name: str  # component name, or USING table name
    qid: int
    table: str
    width: int  # row width (components carry a trailing oid slot)
    offset: int = 0  # start position in the combined join layout

    @property
    def source(self) -> tuple[str, str]:
        """The extent this input reads: the parent's final extent, the
        child's raw extent, or the USING table's shadow."""
        if self.kind == "using":
            return ("using", self.table)
        return ("final" if self.kind == "parent" else "raw", self.name)


@dataclass(frozen=True)
class _ProbeStep:
    """Bind input ``target`` by probing its extent's hash index on
    ``positions`` (columns of the target's rows) with the values at
    ``sources`` (positions in the row accumulated so far)."""

    target: int
    sources: tuple
    positions: tuple


@dataclass(frozen=True)
class _ProbeOrder:
    """How a delta-join term starting at one input binds the others.

    Rows accumulate in probe order; ``slices`` cut such a row back into
    the joined layout, or are None when the two orders agree."""

    steps: tuple
    slices: Optional[tuple]


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
    inputs: list  # _InputSpec: parent, child, then USING tables
    #: per start input: the _ProbeOrder that binds every other input
    probe_orders: list
    #: the relationship predicate over joined rows (batch filter)
    predicate: BatchPredicate = None
    #: the relationship attributes' tuple per joined row, if any
    attributes: Optional[BatchKernel] = None
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
    #: extent source -> the key positions its hash indexes cover
    indexes: dict
    #: base table -> row -> the values maintenance reads: every column
    #: of a component's selection predicates and every column a
    #: relationship predicate or attribute reads.  An update that keeps
    #: this key changes no connection, support count or membership.
    value_keys: dict


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
    #: base table -> positions maintenance reads (see value_keys)
    reads: dict[str, set] = {}
    for name, info in translated.components.items():
        box = xnf.components[name].box
        try:
            compiled = component_write_plan(box, name, catalog)
        except NotUpdatableError as exc:
            raise _Fallback(f"component {name}: {exc}") from None
        if not isinstance(box.head[box.head_position(OID)].expression,
                          RidRef):
            raise _Fallback(f"component {name}: objects have value-based "
                            f"identity, not the base RID")
        table = catalog.table(compiled.plan.table)
        positions = {
            view_column: table.column_position(base_column)
            for view_column, base_column in
            compiled.plan.column_map.items()
        }
        read = reads.setdefault(table.name, set())
        for predicate in compiled.plan.predicates:
            read.update(table.column_position(node.column)
                        for node in ast.walk_expression(predicate)
                        if isinstance(node, ast.ColumnRef))
        incoming_edges = translated.schema.incoming(name)
        root_like = (xnf.components[name].is_root
                     or not xnf.components[name].reachability_required
                     or not incoming_edges)
        plan = _ComponentPlan(
            name=name, number=info.number, table=table.name,
            base_positions_by_column=positions,
            checks=compiled.checks,
            root_like=root_like, taken=info.taken,
        )
        if info.taken:
            # computed columns too: each is an expression over the row
            plan.stream_columns = list(info.columns)
            plan.stream_values = compile_base_project(
                [compiled.plan.base_ast[c.upper()]
                 for c in plan.stream_columns], table)
        components[name] = plan

    relationships: dict = {}
    incoming: dict = {name: [] for name in components}
    for name, rinfo in translated.relationships.items():
        relationships[name] = _analyze_relationship(
            name, rinfo, xnf, components, catalog, reads)
        incoming[relationships[name].child].append(relationships[name])

    topo = translated.schema.topological_order()
    if topo is None:  # pragma: no cover - recursive handled above
        raise _Fallback("schema graph has a cycle")
    using_tables = {
        spec.table
        for rel in relationships.values()
        for spec in rel.inputs if spec.kind == "using"
    }
    indexes: dict = {}
    for rel in relationships.values():
        for order in rel.probe_orders:
            for step in order.steps:
                positions = indexes.setdefault(
                    rel.inputs[step.target].source, [])
                if step.positions not in positions:
                    positions.append(step.positions)
    value_keys = {table: _key_of_values(sorted(positions))
                  for table, positions in reads.items()}
    return _IncrementalPlan(components=components,
                            relationships=relationships, topo=topo,
                            incoming=incoming, using_tables=using_tables,
                            indexes=indexes, value_keys=value_keys)


def _key_of_values(positions: list) -> Callable:
    """Row -> the values at ``positions``, compared as they are (NULLs
    included; a NaN compares unequal, which is the safe answer)."""
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _probe_order(name: str, start: int, pairs: list,
                 widths: list) -> tuple[list[_ProbeStep], dict]:
    """A connected probe order over the equi-join graph from input
    ``start``: each step binds the first unbound input joined by at
    least one equality to the bound ones (no cross products).  Returns
    the steps and each input's offset in the accumulated row."""
    offsets = {start: 0}
    width = widths[start]
    steps: list[_ProbeStep] = []
    while len(offsets) < len(widths):
        for target in range(len(widths)):
            if target in offsets:
                continue
            sources: list[int] = []
            positions: list[int] = []
            for (a_index, a_pos), (b_index, b_pos) in pairs:
                if a_index in offsets and b_index == target:
                    sources.append(offsets[a_index] + a_pos)
                    positions.append(b_pos)
                elif b_index in offsets and a_index == target:
                    sources.append(offsets[b_index] + b_pos)
                    positions.append(a_pos)
            if sources:
                break
        else:
            raise _Fallback(
                f"relationship {name}: predicate does not equi-join "
                f"every table"
            )
        offsets[target] = width
        width += widths[target]
        steps.append(_ProbeStep(target, tuple(sources), tuple(positions)))
    return steps, offsets


def _analyze_relationship(name, rinfo, xnf, components, catalog, reads):
    """The maintenance plan of one relationship; adds the base columns
    its predicate and attributes read to ``reads``."""
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
            position = catalog.table(spec.table).column_position(
                qref.column)
        else:
            position = components[spec.name].base_positions_by_column.get(
                qref.column.upper())
            if position is None:
                raise _Fallback(
                    f"relationship {name}: column {qref.column!r} of "
                    f"{spec.name} is not a stored column"
                )
        reads.setdefault(spec.table, set()).add(position)
        return index, position

    # Validate every reference; collect equi pairs for the probe orders.
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

    widths = [spec.width for spec in inputs]
    probe_orders = []
    for start in range(len(inputs)):
        steps, offsets = _probe_order(name, start, pairs, widths)
        if start == 0:
            # The joined layout is the probe order from the parent, so
            # terms starting there (the initial build, parent-final
            # deltas) need no reordering.
            for index, spec in enumerate(inputs):
                spec.offset = offsets[index]
        slices = None
        if any(offsets[i] != spec.offset for i, spec in enumerate(inputs)):
            in_layout = sorted(range(len(inputs)),
                               key=lambda i: inputs[i].offset)
            slices = tuple((offsets[i], offsets[i] + widths[i])
                           for i in in_layout)
        probe_orders.append(_ProbeOrder(tuple(steps), slices))

    # Compile the predicate and attributes against the joined layout.
    layout: dict = {}
    for spec in inputs:
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

    parent_spec = inputs[0]
    child_spec = next(s for s in inputs if s.kind == "child")
    return _RelationshipPlan(
        name=name, number=rinfo.number, role=rinfo.role,
        parent=relationship.parent, child=child, taken=rinfo.taken,
        attribute_names=tuple(n for n, _e in relationship.attributes),
        inputs=inputs, probe_orders=probe_orders,
        predicate=compiler.compile_filter(relationship.predicate),
        attributes=(compiler.compile_project(
            [e for _n, e in relationship.attributes])
            if relationship.attributes else None),
        poid_pos=parent_spec.offset + parent_spec.width - 1,
        coid_pos=child_spec.offset + child_spec.width - 1,
    )


# ----------------------------------------------------------------------
# The incremental state and delta engine
# ----------------------------------------------------------------------
def _key_function(positions: tuple) -> Callable:
    """Row -> hash key over ``positions``: the bare value for one
    column, else a tuple; None whenever a component is NULL, since NULL
    keys never match (the rule :class:`~repro.optimizer.plan.HashJoin`
    applies)."""
    if len(positions) == 1:
        return itemgetter(positions[0])

    def key(row):
        values = tuple(row[p] for p in positions)
        return None if None in values else values
    return key


class _HashIndex:
    """A persistent hash index over one extent: key -> {rid/oid: row}.
    Buckets reference the extent's own row tuples; a NULL key is never
    a bucket key."""

    __slots__ = ("key_of", "buckets")

    def __init__(self, positions: tuple):
        self.key_of = _key_function(positions)
        self.buckets: dict = {}

    def add(self, pairs: Iterable) -> None:
        key_of = self.key_of
        buckets = self.buckets
        for rid, row in pairs:
            key = key_of(row)
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {rid: row}
            else:
                bucket[rid] = row

    def discard(self, rid, row: tuple) -> None:
        key = self.key_of(row)
        if key is None:
            return
        bucket = self.buckets[key]
        del bucket[rid]
        if not bucket:
            del self.buckets[key]


class _Extent:
    """One maintained extent (rid/oid -> base row) and the hash indexes
    that probe it.  Every change goes through :meth:`load` / :meth:`put`
    / :meth:`pop`, so the indexes always describe exactly the current
    rows."""

    __slots__ = ("rows", "indexes")

    def __init__(self, positions: Iterable[tuple]):
        self.rows: dict = {}
        self.indexes = {p: _HashIndex(p) for p in positions}

    def load(self, pairs: Iterable) -> None:
        """Fill the (empty) extent."""
        self.rows.update(pairs)
        for index in self.indexes.values():
            index.add(self.rows.items())

    def put(self, rid, row: tuple) -> None:
        old = self.rows.get(rid)
        for index in self.indexes.values():
            if old is not None:
                index.discard(rid, old)
            index.add(((rid, row),))
        self.rows[rid] = row

    def pop(self, rid) -> Optional[tuple]:
        row = self.rows.pop(rid, None)
        if row is not None:
            for index in self.indexes.values():
                index.discard(rid, row)
        return row


class _IncrementalState:
    """Shadowed extents with their hash indexes, connection multisets
    and support counts."""

    def __init__(self, plan: _IncrementalPlan, catalog: Catalog):
        self.plan = plan
        self.catalog = catalog
        #: extent source (see _InputSpec.source) -> _Extent
        self.extents: dict[tuple[str, str], _Extent] = {}
        self.raw = {name: self._extent(("raw", name))
                    for name in plan.components}
        self.final = {name: self._extent(("final", name))
                      for name in plan.components}
        self.using = {table: self._extent(("using", table))
                      for table in plan.using_tables}
        #: base table -> every extent holding rows of that table
        self.table_extents: dict[str, list[_Extent]] = {}
        for table, shadow in self.using.items():
            self.table_extents.setdefault(table, []).append(shadow)
        for name, component in plan.components.items():
            self.table_extents.setdefault(component.table, []).extend(
                (self.raw[name], self.final[name]))
        self.support: dict[str, Counter] = {}
        self.conn: dict[str, Counter] = {}  # relationship -> key -> count
        #: relationship -> per start input -> ([(probe key, target index
        #: buckets, target rows carry an oid)], slices)
        self.probes: dict[str, list] = {
            relationship.name: [
                ([(_key_function(step.sources),
                   self.extents[relationship.inputs[step.target].source]
                   .indexes[step.positions].buckets,
                   relationship.inputs[step.target].kind != "using")
                  for step in order.steps], order.slices)
                for order in relationship.probe_orders]
            for relationship in plan.relationships.values()
        }
        self.rows_probed = 0

    def _extent(self, source: tuple[str, str]) -> _Extent:
        extent = _Extent(self.plan.indexes.get(source, ()))
        self.extents[source] = extent
        return extent

    # -- construction ---------------------------------------------------
    def build(self) -> None:
        for table_name, shadow in self.using.items():
            shadow.load(self.catalog.table(table_name).scan())
        for component in self.plan.components.values():
            checks = component.checks
            self.raw[component.name].load(
                (rid, row)
                for rid, row in self.catalog.table(component.table).scan()
                if all(check(row) is True for check, _text in checks))
        for name in self.plan.topo:
            for relationship in self.plan.incoming[name]:
                self.conn[relationship.name] = Counter(self._enumerate(
                    relationship, 0,
                    self.final[relationship.parent].rows.items()))
            raw = self.raw[name].rows
            if self.plan.components[name].root_like:
                self.final[name].load(raw.items())
                continue
            support: Counter = Counter()
            for relationship in self.plan.incoming[name]:
                for key in self.conn[relationship.name]:
                    support[key[1]] += 1
            self.support[name] = support
            self.final[name].load((oid, row) for oid, row in raw.items()
                                  if support.get(oid, 0) > 0)

    # -- join evaluation ------------------------------------------------
    def _enumerate(self, relationship: _RelationshipPlan, start: int,
                   pairs: Iterable) -> list[tuple]:
        """All connection keys of the join with input ``start``
        restricted to ``pairs`` ((rid/oid, row)) and every other input
        at its current extent (the delta-join building block).

        Starts from the given rows and probes outward along the
        relationship's equi-join graph through the persistent hash
        indexes, so the cost follows the rows found, not the extents.
        """
        if relationship.inputs[start].kind == "using":
            rows = [row for _rid, row in pairs]
        else:
            rows = [row + (rid,) for rid, row in pairs]
        steps, slices = self.probes[relationship.name][start]
        probed = 0
        for key_of, buckets, with_oid in steps:
            grown: list[tuple] = []
            for row in rows:
                bucket = buckets.get(key_of(row))
                if not bucket:
                    continue
                probed += len(bucket)
                if with_oid:
                    grown.extend([row + found + (rid,)
                                  for rid, found in bucket.items()])
                else:
                    grown.extend([row + found
                                  for found in bucket.values()])
            rows = grown
        self.rows_probed += probed
        if not rows:
            return []
        if slices is not None:
            rows = [tuple(value for low, high in slices
                          for value in row[low:high]) for row in rows]
        rows = relationship.predicate(rows, None)
        poid_pos = relationship.poid_pos
        coid_pos = relationship.coid_pos
        keys = [(row[poid_pos], row[coid_pos]) for row in rows]
        if relationship.attributes is not None and rows:
            keys = [key + values for key, values in
                    zip(keys, relationship.attributes(rows, None))]
        return keys

    def _term(self, relationship: _RelationshipPlan, index: int,
              removed: Pairs, added: Pairs, delta: Counter) -> None:
        """One telescoping term: input ``index`` advances by
        (removed, added) against the current state of the others."""
        if removed:
            delta.subtract(self._enumerate(relationship, index, removed))
        if added:
            delta.update(self._enumerate(relationship, index, added))

    # -- delta application ----------------------------------------------
    def _replace_values(self, table_name: str, deleted: Pairs,
                        inserted: Pairs) -> tuple[Pairs, Pairs]:
        """Apply the value-only part of a delta in place and return the
        rest.  An old/new pair under one RID that agrees on the table's
        value key (:attr:`_IncrementalPlan.value_keys`) changes no
        connection, support count or membership: every extent holding
        the RID takes the new row, and that is the pair's whole effect
        (stream values are derived from the rows at snapshot time)."""
        key_of = self.plan.value_keys.get(table_name)
        if key_of is None or not deleted or not inserted:
            return deleted, inserted
        old_rows = dict(deleted)
        if len(old_rows) != len(deleted):  # a RID twice: not consolidated
            return deleted, inserted
        rest: Pairs = []
        replaced: Pairs = []
        for rid, row in inserted:
            old = old_rows.get(rid)
            if old is not None and key_of(old) == key_of(row):
                del old_rows[rid]
                replaced.append((rid, row))
            else:
                rest.append((rid, row))
        if not replaced:
            return deleted, inserted
        extents = self.table_extents[table_name]
        for rid, row in replaced:
            for extent in extents:
                if rid in extent.rows:
                    extent.put(rid, row)
        return list(old_rows.items()), rest

    def apply(self, delta: TableDelta) -> int:
        """Propagate one table's delta through every stream, exactly;
        returns the number of extent rows the round probed."""
        self.rows_probed = 0
        table_name = delta.table.upper()
        deleted, inserted = self._replace_values(
            table_name, delta.deleted, delta.inserted)
        if not deleted and not inserted:
            return 0
        conn_deltas: dict[str, Counter] = {
            name: Counter() for name in self.plan.relationships}
        raw_deltas: dict[str, tuple[Pairs, Pairs]] = {}

        # Phase 1: advance the independent inputs (USING shadows and
        # component raw extents) one at a time; each advancement
        # contributes its delta-join terms before the next advances.
        if table_name in self.using:
            shadow = self.using[table_name]
            removed = [(rid, shadow.rows[rid]) for rid, _row in deleted
                       if rid in shadow.rows]
            added = list(inserted)
            for relationship in self.plan.relationships.values():
                for index, spec in enumerate(relationship.inputs):
                    if spec.kind == "using" and spec.table == table_name:
                        self._term(relationship, index, removed, added,
                                   conn_deltas[relationship.name])
            for rid, _row in removed:
                shadow.pop(rid)
            for rid, row in added:
                shadow.put(rid, row)

        for component in self.plan.components.values():
            if component.table != table_name:
                continue
            raw = self.raw[component.name]
            removed = [(rid, raw.rows[rid]) for rid, _row in deleted
                       if rid in raw.rows]
            added = [(rid, row) for rid, row in inserted
                     if all(check(row) is True
                            for check, _text in component.checks)]
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
                raw.pop(rid)
            for rid, row in added:
                raw.put(rid, row)

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
            final = self.final[name]
            raw = self.raw[name].rows
            if component.root_like:
                raw_removed, raw_added = raw_deltas.get(name, ((), ()))
                for rid, row in raw_removed:
                    final.pop(rid)
                    removed_pairs.append((rid, row))
                for rid, row in raw_added:
                    final.put(rid, row)
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
                    if count > 0 and oid not in final.rows:
                        row = raw[oid]
                        final.put(oid, row)
                        added_pairs.append((oid, row))
                    elif count == 0:
                        if oid in final.rows:
                            removed_pairs.append((oid, final.pop(oid)))
                        del support[oid]
                # A raw update that keeps the oid reachable changes the
                # stored row in place.
                raw_removed, raw_added = raw_deltas.get(name, ((), ()))
                replaced = {rid for rid, _row in raw_removed}
                for rid, row in raw_added:
                    old = final.rows.get(rid)
                    if rid in replaced and old is not None and old != row:
                        removed_pairs.append((rid, old))
                        final.put(rid, row)
                        added_pairs.append((rid, row))
            if removed_pairs or added_pairs:
                final_deltas[name] = (removed_pairs, added_pairs)
        return self.rows_probed

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
            rows = self.final[name].rows
            components[name] = ComponentStream(
                name=name, number=component.number,
                columns=list(component.stream_columns),
                rows=component.stream_values(list(rows.values()), None),
                oids=list(rows),
            )
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
        #: The definition as the front end lifts a query text: what a
        #: lifted query is matched against on read-through.
        self.lifted = parameterize_xnf(query)
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
                      "delta_rows_applied": 0, "rows_probed": 0,
                      "reads": 0}
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
            self.stats["rows_probed"] += self._state.apply(delta)
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

    The engine hands it every committed delta; also consulted by the
    session's XNF read path so a query structurally equal to a
    registered view's definition is served from the materialization.
    Creates and drops are reported to the catalog's sink, which logs
    them so a recovered engine knows which views to re-register.
    """

    def __init__(self, catalog: Catalog,
                 compile_fn: Callable[[ast.XNFQuery], XNFExecutable]):
        self.catalog = catalog
        self._compile = compile_fn
        self._views: dict[str, MaterializedView] = {}
        self._sink = catalog.sink

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
        self._sink.matview_created(key, view.policy)
        return view

    def drop(self, name: str) -> None:
        if self._views.pop(name.upper(), None) is None:
            raise CatalogError(f"no materialized view named {name!r}")
        self._sink.matview_dropped(name.upper())

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

    def lookup_query(self, query: Union[ast.XNFQuery,
                                        ParameterizedStatement]
                     ) -> Optional[MaterializedView]:
        """A view whose definition is ``query`` as written.

        A literal query matches a structurally equal definition.  A
        query the front end lifted matches a definition with an equal
        lifted form *and* equal literal values, so a same-shape query
        with other literals matches no view.
        """
        if not isinstance(query, ParameterizedStatement):
            for view in self._views.values():
                if view.query == query:
                    return view
            return None
        bindings = query.bindings
        for view in self._views.values():
            if view.lifted.bindings == bindings \
                    and view.lifted.statement == query.statement:
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
