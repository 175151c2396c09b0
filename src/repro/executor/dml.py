"""INSERT / UPDATE / DELETE execution.

DML reuses the query pipeline for anything SELECT-shaped (INSERT ...
SELECT, and the row-qualification part of UPDATE/DELETE, which compiles
to a plan producing RIDs plus new values) and then applies storage
mutations with foreign-key checks.  Atomicity is the caller's concern:
the Database facade wraps each statement in ``run_atomic``.

UPDATE and DELETE arrive in one form: the front end's
:class:`~repro.executor.plan_cache.ParameterizedStatement`, its SET and
WHERE literals already lifted into synthetic parameters (with the plan
cache off: the literal AST and no bindings; see
:func:`repro.api.frontend.write_form`).  Nothing here lifts.  The
qualification plan is read through the plan cache under the
statement's pre-hashed key, so every literal variant of one write
shares one plan and a hit never walks the AST.  INSERT keeps its
literals inline.

Every successful statement additionally publishes one per-table
:class:`~repro.storage.catalog.TableDelta` through the catalog's delta
protocol (when anyone subscribed), which is how materialized
composite-object views are maintained incrementally instead of being
recomputed.  A statement that raises mid-way publishes nothing: the
facade's ``run_atomic`` rolls the partial mutations back.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SemanticError
from repro.executor.expressions import ExpressionCompiler
from repro.executor.plan_cache import HashedKey, ParameterizedStatement
from repro.executor.runtime import QueryPipeline
from repro.optimizer.optimizer import ExecutablePlan
from repro.optimizer.plan import ExecutionContext
from repro.qgm.builder import Scope, validate_subquery_positions
from repro.qgm.model import (BaseBox, HeadColumn, OutputStream, QGMGraph,
                             Quantifier, RidRef, SelectBox, TopBox)
from repro.sql import ast
from repro.storage.catalog import Catalog, TableDelta
from repro.storage.table import Table


class DMLExecutor:
    """Executes data-modification statements against base tables."""

    def __init__(self, pipeline: QueryPipeline):
        self.pipeline = pipeline
        self.catalog: Catalog = pipeline.catalog

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def insert(self, statement: ast.InsertStatement, params=None) -> int:
        table = self.catalog.table(statement.table)
        target_positions = self._target_positions(table, statement.columns)
        if statement.query is not None:
            result = self.pipeline.run_select(statement.query,
                                              params=params)
            rows = result.rows
            width = len(result.columns)
        else:
            compiler = ExpressionCompiler({})
            value_ctx = ExecutionContext()
            value_ctx.bind_parameters(params)
            rows = []
            width = None
            for value_row in statement.rows:
                values = tuple(
                    compiler.compile(expression)((), value_ctx)
                    for expression in value_row
                )
                width = len(values) if width is None else width
                if len(values) != width:
                    raise SemanticError(
                        "INSERT rows have inconsistent widths"
                    )
                rows.append(values)
        if width is not None and width != len(target_positions):
            raise SemanticError(
                f"INSERT provides {width} values for "
                f"{len(target_positions)} columns"
            )
        inserted = 0
        delta = TableDelta(table.name) if self.catalog.wants_deltas \
            else None
        for values in rows:
            full_row = [None] * len(table.columns)
            for position, value in zip(target_positions, values):
                full_row[position] = value
            self.catalog.check_foreign_keys(table.name, tuple(full_row))
            rid = table.insert(full_row)
            if delta is not None:
                delta.inserted.append((rid, table.fetch(rid)))
            inserted += 1
        # Statistics invalidation rides the delta protocol (the
        # pipeline's manager subscribes to catalog.delta_listeners).
        if delta is not None:
            self.catalog.emit_table_delta(delta)
        return inserted

    @staticmethod
    def _target_positions(table: Table,
                          columns: tuple[str, ...]) -> list[int]:
        if not columns:
            return list(range(len(table.columns)))
        return [table.column_position(c) for c in columns]

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------
    def update(self, lifted: ParameterizedStatement, params=None) -> int:
        statement: ast.UpdateStatement = lifted.statement
        table = self.catalog.table(statement.table)
        assigned_positions = [
            table.column_position(a.column) for a in statement.assignments
        ]
        expressions = [a.value for a in statement.assignments]
        rows = self.qualify(table, statement.where, expressions,
                            lifted.key, params, lifted.bindings)
        updated = 0
        delta = TableDelta(table.name) if self.catalog.wants_deltas \
            else None
        pk_positions = {table.column_position(c)
                        for c in table.primary_key}
        for row_values in rows:
            rid = row_values[0]
            new_values = row_values[1:]
            old_row = table.fetch(rid)
            new_row = list(old_row)
            for position, value in zip(assigned_positions, new_values):
                new_row[position] = value
            if any(p in pk_positions and old_row[p] != new_row[p]
                   for p in assigned_positions):
                self.catalog.check_no_referencing_children(table.name,
                                                           old_row)
            self.catalog.check_foreign_keys(table.name, tuple(new_row))
            # update_row relocates the row (fresh rid) when a changed
            # partition key routes it to another partition; in place
            # otherwise.
            stored_rid, stored = table.update_row(rid, new_row)
            if delta is not None and stored != old_row:
                delta.deleted.append((rid, old_row))
                delta.inserted.append((stored_rid, stored))
            updated += 1
        if delta is not None:
            self.catalog.emit_table_delta(delta)
        return updated

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def delete(self, lifted: ParameterizedStatement, params=None) -> int:
        statement: ast.DeleteStatement = lifted.statement
        table = self.catalog.table(statement.table)
        rows = self.qualify(table, statement.where, [], lifted.key, params,
                            lifted.bindings)
        deleted = 0
        delta = TableDelta(table.name) if self.catalog.wants_deltas \
            else None
        for row_values in rows:
            rid = row_values[0]
            old_row = table.fetch(rid)
            self.catalog.check_no_referencing_children(table.name, old_row)
            table.delete(rid)
            if delta is not None:
                delta.deleted.append((rid, old_row))
            deleted += 1
        if delta is not None:
            self.catalog.emit_table_delta(delta)
        return deleted

    # ------------------------------------------------------------------
    def qualify(self, table: Table, where: Optional[ast.Expression],
                value_expressions: list[ast.Expression],
                key: HashedKey, params=None,
                bindings: Optional[dict] = None) -> list[tuple]:
        """Run ``SELECT rid, <exprs> FROM table WHERE pred``: the
        ``[(rid, value...), ...]`` rows an UPDATE/DELETE touches.

        ``bindings`` bind the synthetic parameters the front end lifted
        into ``where`` and ``value_expressions``.  Rows are materialized
        before mutation so halloween-style re-visitation cannot occur.
        The view-update put-back path translates view DML into
        base-table form and qualifies here, so it shares the plan cache
        (and this discipline) with hand-written DML.
        """
        plan = self.qualification_plan(table, where, value_expressions,
                                       key)
        ctx = plan.new_context(params)
        if bindings:
            ctx.parameters.update(bindings)
        _stream, node = plan.single_output()
        return plan.run_node(node, ctx)

    def qualification_plan(self, table: Table,
                           where: Optional[ast.Expression],
                           value_expressions: list[ast.Expression],
                           key: HashedKey) -> ExecutablePlan:
        """The qualification plan (``EXPLAIN UPDATE/DELETE`` shows it),
        read through the plan cache under ``key``: the pre-hashed key
        of the lifted statement the expressions come from, plus the
        current options signature.
        """
        pipeline = self.pipeline
        return pipeline.cached_compile(
            pipeline.cache_key("dml_qualify", key),
            lambda: self._compile_qualification(table, where,
                                                list(value_expressions)),
            tables_of=lambda _plan: [table.name],
        )

    def _compile_qualification(self, table: Table,
                               where: Optional[ast.Expression],
                               value_expressions: list[ast.Expression]
                               ) -> ExecutablePlan:
        """Build the qualification QGM, then compile it through the
        shared CompilationPipeline (normalize/rewrite/prune/plan) like
        any other statement."""
        builder = self.pipeline.builder()
        box = SelectBox(label=f"dml_{table.name}")
        base = BaseBox(table)
        quantifier = box.add_quantifier(
            Quantifier(base, Quantifier.F, name=table.name)
        )
        scope = Scope()
        scope.bind(table.name, quantifier)
        head = [HeadColumn("$RID$", RidRef(quantifier))]
        for position, expression in enumerate(value_expressions):
            resolved = builder._resolve(expression, scope, box)
            head.append(HeadColumn(f"V{position}", resolved))
        box.head = head
        if where is not None:
            validate_subquery_positions(where)
            predicate = builder._resolve(where, scope, box)
            box.predicates.extend(
                p for p in ast.conjuncts(predicate)
                if p != ast.Literal(True)
            )
        top = TopBox()
        top.outputs.append(OutputStream(name="DML", box=box))
        graph = QGMGraph(top=top, statement_kind="select")
        return self.pipeline.compile_graph(graph).plan
