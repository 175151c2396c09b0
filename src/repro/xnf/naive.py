"""Reference evaluator for XNF semantics.

Evaluates an XNF query the way the semantics are *defined* (Sect. 2),
with no rewriting or sharing: every component table is fully derived,
every relationship's connections are found by enumerating partner
combinations against the relationship predicate, and reachability is a
breadth-first closure from the root components.

This is deliberately the slow, obviously-correct implementation.  The
test suite checks the optimized pipeline
(:mod:`repro.xnf.translate` + :mod:`repro.xnf.result`) against it, and
its per-combination predicate evaluation also illustrates the cost the
set-oriented translation avoids.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import XNFError
from repro.executor.expressions import ExpressionCompiler, Layout
from repro.optimizer.optimizer import Planner, PlannerOptions
from repro.qgm.model import (Box, OutputStream, QGMGraph, TopBox, XNFBox,
                             XNFRelationship)
from repro.storage.catalog import Catalog
from repro.storage.stats import StatisticsManager
from repro.xnf.result import ComponentStream, ConnectionStream, COResult
from repro.xnf.schema_graph import SchemaGraph
from repro.xnf.translate import OID, XNFTranslator


def _extend(prefixes: Iterator[tuple], rows: list[tuple]
            ) -> Iterator[tuple]:
    """Every prefix concatenated with every row, prefix-major."""
    return (prefix + row for prefix in prefixes for row in rows)


class NaiveXNFEvaluator:
    """Direct implementation of the CO derivation rules."""

    def __init__(self, catalog: Catalog,
                 stats: Optional[StatisticsManager] = None):
        self.catalog = catalog
        self.stats = stats or StatisticsManager(catalog)
        self._translator = XNFTranslator(catalog)  # identity installer

    # ------------------------------------------------------------------
    def evaluate(self, graph: QGMGraph) -> COResult:
        xnf = graph.xnf_box()
        if xnf is None:
            raise XNFError("graph has no XNF operator box")
        schema = SchemaGraph.from_xnf_box(xnf)
        for name in schema.components:
            self._translator._install_identity(xnf.components[name].box)

        component_rows: dict[str, list[tuple]] = {}
        component_oids: dict[str, list] = {}
        component_columns: dict[str, list[str]] = {}
        component_value_positions: dict[str, list[int]] = {}
        for name, component in xnf.components.items():
            columns, rows = self._run_box(component.box)
            oid_position = columns.index(OID)
            value_positions = [i for i, c in enumerate(columns)
                               if not c.startswith("$")]
            seen: set = set()
            oids: list = []
            values: list[tuple] = []
            for row in rows:
                oid = row[oid_position]
                if oid in seen:
                    continue
                seen.add(oid)
                oids.append(oid)
                values.append(row)
            component_rows[name] = values
            component_oids[name] = oids
            component_columns[name] = [columns[i] for i in value_positions]
            component_value_positions[name] = value_positions

        connections: dict[str, list[tuple]] = {}
        for name, relationship in xnf.relationships.items():
            connections[name] = self._enumerate_connections(
                relationship, xnf, component_rows
            )

        reachable = self._closure(schema, component_oids, connections, xnf)

        return self._package(xnf, schema, component_rows, component_oids,
                             component_columns, component_value_positions,
                             connections, reachable)

    # ------------------------------------------------------------------
    def _run_box(self, box: Box) -> tuple[list[str], list[tuple]]:
        top = TopBox()
        top.outputs.append(OutputStream(name="NAIVE", box=box))
        graph = QGMGraph(top=top)
        planner = Planner(self.catalog, self.stats, PlannerOptions())
        plan = planner.plan(graph)
        ctx = plan.new_context()
        _stream, node = plan.single_output()
        return list(node.columns), list(node.execute(ctx))

    def _enumerate_connections(self, relationship: XNFRelationship,
                               xnf: XNFBox,
                               component_rows: dict[str, list[tuple]]
                               ) -> list[tuple]:
        """All (parent_oid, child_oids...) combinations satisfying the
        relationship predicate — checked pair by pair, the fragmented
        style Sect. 1 warns about."""
        parent_rows = component_rows[relationship.parent]
        child_row_lists = [component_rows[c] for c in relationship.children]
        using_row_lists = []
        for quantifier in relationship.using_quantifiers:
            _columns, rows = self._run_box(quantifier.box)
            using_row_lists.append(rows)

        layout: Layout = {}
        offset = 0
        participants = [relationship.parent_quantifier,
                        *relationship.child_quantifiers,
                        *relationship.using_quantifiers]
        widths: list[int] = []
        for quantifier in participants:
            head = quantifier.box.head
            for index, column in enumerate(head):
                layout[(quantifier.qid, column.name.upper())] = \
                    offset + index
            widths.append(len(head))
            offset += len(head)

        compiler = ExpressionCompiler(layout)
        predicate_fn = None
        if relationship.predicate is not None:
            predicate_fn = compiler.compile(relationship.predicate)
        attribute_fns = [compiler.compile(expression)
                         for _name, expression in relationship.attributes]

        oid_positions = []
        for quantifier in [relationship.parent_quantifier,
                           *relationship.child_quantifiers]:
            oid_positions.append(
                layout[(quantifier.qid, OID)]
            )

        found: list[tuple] = []
        seen: set = set()
        combinations: Iterator[tuple] = iter([()])
        for rows in [parent_rows, *child_row_lists, *using_row_lists]:
            combinations = _extend(combinations, rows)
        for joined in combinations:
            if predicate_fn is not None and \
                    predicate_fn(joined, None) is not True:
                continue
            connection = tuple(joined[p] for p in oid_positions)
            if attribute_fns:
                connection = connection + tuple(
                    fn(joined, None) for fn in attribute_fns
                )
            if connection not in seen:
                seen.add(connection)
                found.append(connection)
        return found

    @staticmethod
    def _closure(schema: SchemaGraph, component_oids: dict[str, list],
                 connections: dict[str, list[tuple]],
                 xnf: XNFBox) -> dict[str, set]:
        reachable: dict[str, set] = {name: set() for name in
                                     component_oids}
        for name, component in xnf.components.items():
            if component.is_root or not component.reachability_required:
                reachable[name] = set(component_oids[name])
        changed = True
        while changed:
            changed = False
            for edge in schema.edges:
                parent_reachable = reachable[edge.parent]
                for connection in connections[edge.name]:
                    if connection[0] not in parent_reachable:
                        continue
                    for child, child_oid in zip(edge.children,
                                                connection[1:]):
                        if child_oid not in reachable[child]:
                            reachable[child].add(child_oid)
                            changed = True
        return reachable

    def _package(self, xnf: XNFBox, schema: SchemaGraph,
                 component_rows, component_oids, component_columns,
                 component_value_positions, connections,
                 reachable) -> COResult:
        taken_components, taken_relationships, take_columns = \
            self._translator._taken(xnf)
        result = COResult(schema=schema, components={}, relationships={})
        number = 0
        for name in xnf.components:
            number_here = number
            number += 1
            if name not in taken_components:
                continue
            all_columns = component_columns[name]
            wanted = take_columns.get(name)
            positions = component_value_positions[name]
            keep = [positions[i] for i, c in enumerate(all_columns)
                    if wanted is None or c.upper() in wanted]
            stream = ComponentStream(
                name=name, number=number_here,
                columns=[c for c in all_columns
                         if wanted is None or c.upper() in wanted],
            )
            allowed = reachable[name]
            for oid, row in zip(component_oids[name],
                                component_rows[name]):
                if oid in allowed:
                    stream.oids.append(oid)
                    stream.rows.append(tuple(row[i] for i in keep))
            result.components[name] = stream
        for name, relationship in xnf.relationships.items():
            number_here = number
            number += 1
            if name not in taken_relationships:
                continue
            parent_reachable = reachable[relationship.parent]
            kept = [c for c in connections[name]
                    if c[0] in parent_reachable]
            result.relationships[name] = ConnectionStream(
                name=name, number=number_here, role=relationship.role,
                parent=relationship.parent,
                children=relationship.children,
                connections=kept,
                attribute_names=tuple(n for n, _e in
                                      relationship.attributes),
            )
        result.shipped_tuples = result.total_tuples()
        return result
