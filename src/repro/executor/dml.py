"""INSERT / UPDATE / DELETE execution, and the one base-row writer.

DML reuses the query pipeline for anything SELECT-shaped (INSERT ...
SELECT, and the row-qualification part of UPDATE/DELETE, which compiles
to a plan producing RIDs plus new values) and then applies storage
mutations through :class:`RowWriter`.  Atomicity is the caller's
concern: the session wraps each statement in ``run_atomic``.

UPDATE and DELETE arrive in one form: the front end's
:class:`~repro.executor.plan_cache.ParameterizedStatement`, its SET and
WHERE literals already lifted into synthetic parameters (with the plan
cache off: the literal AST and no bindings; see
:func:`repro.api.frontend.write_form`).  Nothing here lifts.  The
qualification plan is read through the plan cache under the
statement's pre-hashed key, so every literal variant of one write
shares one plan and a hit never walks the AST.  INSERT keeps its
literals inline.

:class:`RowWriter` is every base-table write under a statement, a view
statement (:mod:`repro.viewupdate.executor`) or a cache write-back
(:mod:`repro.viewupdate.objects`): the foreign-key checks, RESTRICT
when a referenced key moves, partition relocation, and the deltas.
Each statement or batch reports one consolidated
:class:`~repro.storage.catalog.TableDelta` per touched table to the
catalog's sink, which is how statistics stay current and materialized
composite-object views are maintained incrementally instead of being
recomputed.  A statement that raises mid-way reports nothing: the
caller's ``run_atomic`` rolls the partial mutations back.
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
from repro.storage.catalog import Catalog, DeltaRecorder
from repro.storage.table import Rid, Row, Table


class RowWriter:
    """Applies one statement's (or one write batch's) base-row writes.

    Every write is checked the way SQL checks it: an inserted row, and
    an updated row whose foreign-key columns moved, must satisfy its
    outgoing foreign keys, and a row whose referenced key moves, or
    that is deleted, must not strand referencing children (RESTRICT).
    An update that changes a partition key relocates the row to a fresh
    rid; later writes addressing the old rid follow the relocation
    chain.  :meth:`emit` reports the consolidated deltas.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._recorder = DeltaRecorder()
        #: (table, rid) -> rid the row was relocated to
        self.moved: dict = {}

    def current_rid(self, table_name: str, rid: Rid) -> Rid:
        """The rid the row addressed by ``rid`` lives at now."""
        while (table_name, rid) in self.moved:
            rid = self.moved[(table_name, rid)]
        return rid

    def insert(self, table: Table, row) -> tuple[Rid, Row]:
        self.catalog.check_foreign_keys(table.name, tuple(row))
        rid = table.insert(row)
        stored = table.fetch(rid)
        self._recorder.record(table.name, rid, None, stored)
        return rid, stored

    def update(self, table: Table, rid: Rid, positions,
               values) -> tuple[Rid, Row]:
        """Write ``values`` over ``positions`` of the row at ``rid``;
        returns the row's (possibly new) rid and its stored image."""
        rid = self.current_rid(table.name, rid)
        old = table.fetch(rid)
        new = list(old)
        for position, value in zip(positions, values):
            new[position] = value
        catalog = self.catalog
        if any(old[p] != new[p] for p in catalog.referenced_positions(table)):
            catalog.check_no_referencing_children(table.name, old, new)
        # An unchanged foreign key was checked when it was written; a
        # row older than its constraint is not revalidated.
        if any(old[p] != new[p]
               for p in catalog.referencing_positions(table)):
            catalog.check_foreign_keys(table.name, tuple(new))
        new_rid, stored = table.update_row(rid, new)
        if new_rid == rid:
            self._recorder.record(table.name, rid, old, stored)
        else:
            self.moved[(table.name, rid)] = new_rid
            self._recorder.record(table.name, rid, old, None)
            self._recorder.record(table.name, new_rid, None, stored)
        return new_rid, stored

    def delete(self, table: Table, rid: Rid) -> Row:
        rid = self.current_rid(table.name, rid)
        old = table.fetch(rid)
        self.catalog.check_no_referencing_children(table.name, old)
        table.delete(rid)
        self._recorder.record(table.name, rid, old, None)
        return old

    def emit(self) -> None:
        """Report this writer's consolidated per-table deltas."""
        for delta in self._recorder.deltas():
            self.catalog.sink.row_delta(delta)


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
        rows = self.insert_rows(statement, len(target_positions), params)
        writer = RowWriter(self.catalog)
        for values in rows:
            full_row = [None] * len(table.columns)
            for position, value in zip(target_positions, values):
                full_row[position] = value
            writer.insert(table, full_row)
        writer.emit()
        return len(rows)

    def insert_rows(self, statement: ast.InsertStatement, width: int,
                    params=None) -> list[tuple]:
        """The value rows an INSERT provides, checked to be ``width``
        wide."""
        if statement.query is not None:
            result = self.pipeline.run_select(statement.query,
                                              params=params)
            rows = result.rows
            provided = len(result.columns)
        else:
            compiler = ExpressionCompiler({})
            value_ctx = ExecutionContext()
            value_ctx.bind_parameters(params)
            rows = [tuple(compiler.compile(expression)((), value_ctx)
                          for expression in value_row)
                    for value_row in statement.rows]
            if len({len(values) for values in rows}) > 1:
                raise SemanticError("INSERT rows have inconsistent widths")
            provided = len(rows[0]) if rows else width
        if provided != width:
            raise SemanticError(
                f"INSERT provides {provided} values for {width} columns"
            )
        return rows

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
        writer = RowWriter(self.catalog)
        for row_values in rows:
            writer.update(table, row_values[0], assigned_positions,
                          row_values[1:])
        writer.emit()
        return len(rows)

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def delete(self, lifted: ParameterizedStatement, params=None) -> int:
        statement: ast.DeleteStatement = lifted.statement
        table = self.catalog.table(statement.table)
        rows = self.qualify(table, statement.where, [], lifted.key, params,
                            lifted.bindings)
        writer = RowWriter(self.catalog)
        for row_values in rows:
            writer.delete(table, row_values[0])
        writer.emit()
        return len(rows)

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
