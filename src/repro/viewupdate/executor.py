"""Engine-side execution of translated view DML.

The manager resolves a DML statement's view target, classifies the view
(cached per catalog schema version), translates the statement, applies
the base-table mutations, and — before anything is acknowledged — runs
the *dynamic well-definedness check*: every touched view row is
re-evaluated against the view's derivation and must read back exactly
the written image (get∘put = identity on the touched slice).  A
violation raises :class:`~repro.errors.ViewUpdateError`, which unwinds
through the session's ``run_atomic`` and rolls the whole statement
back — rejected writes leave the transaction unchanged.

View UPDATE / DELETE arrive as the front end lifted them (see
:func:`repro.api.frontend.write_form`): one translation serves every
literal variant of a statement shape, and the lifted literals are bound
when the qualification plan runs.

Mutations go through the one base-row writer
(:class:`~repro.executor.dml.RowWriter`), so foreign keys, RESTRICT,
partition relocation and the delta protocol treat a view write exactly
as they would the equivalent hand-written base DML.  The compiled
checks (:class:`CompiledWritePlan`) are shared with the object
gateway's put-back, which verifies the final state of every row a
write batch touched the same way.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import CatalogError, SemanticError, ViewUpdateError
from repro.executor.dml import RowWriter
from repro.executor.expressions import BatchKernel, ExpressionCompiler
from repro.executor.plan_cache import HashedKey, ParameterizedStatement
from repro.optimizer.plan import ExecutionContext
from repro.qgm.model import QRef, replace_qrefs
from repro.sql import ast
from repro.viewupdate.provenance import ViewWritePlan, analyze_view_box
from repro.viewupdate.translator import (compile_join_qualification,
                                         translate_assignments,
                                         translate_where)


class _BaseRow:
    """A stand-in quantifier so base-level ASTs (ColumnRef over one
    table's columns) compile through the shared ExpressionCompiler."""

    qid = 0


def _base_compiler(table) -> ExpressionCompiler:
    return ExpressionCompiler(
        {(0, c.name.upper()): i for i, c in enumerate(table.columns)})


def _over_base_row(expression: ast.Expression) -> ast.Expression:
    return ast.replace_column_refs(
        expression, lambda ref: QRef(_BaseRow, ref.column.upper()))


def compile_base_expression(expression: ast.Expression, table):
    """Compile an AST over ``table``'s columns into ``fn(row) -> value``."""
    compiled = _base_compiler(table).compile(_over_base_row(expression))
    ctx = ExecutionContext()
    return lambda row: compiled(row, ctx)


def compile_base_project(expressions: list, table) -> BatchKernel:
    """Compile ASTs over ``table``'s columns into a batch kernel giving
    the tuple of their values per row."""
    return _base_compiler(table).compile_project(
        [_over_base_row(e) for e in expressions])


class CompiledWritePlan:
    """A classified view plus its compiled dynamic-check artifacts:
    what :meth:`verify` re-evaluates a written row against."""

    def __init__(self, plan: ViewWritePlan, catalog):
        self.plan = plan
        #: view column -> base Column, for coercing written values the
        #: way storage does (CHAR padding etc.) before the round-trip
        #: comparison.
        self.normalizers = {}
        if plan.single_source:
            table = catalog.table(plan.table)
            self.checks = [(compile_base_expression(p, table), str(p))
                           for p in plan.predicates]
            self.getters = {
                column: compile_base_expression(expr, table)
                for column, expr in plan.base_ast.items()
            }
            by_name = {c.name.upper(): c for c in table.columns}
            for column, expr in plan.base_ast.items():
                if isinstance(expr, ast.ColumnRef):
                    self.normalizers[column] = by_name[expr.column.upper()]
        else:
            anchor_table = plan.anchor.box.table
            self.checks = [
                (compile_base_expression(_deqref(p), anchor_table), str(p))
                for p in plan.box.local_predicates_of(plan.anchor)
            ]
            self.getters = {}
            #: per key-bound side: (table, its local-predicate checks,
            #: [(partner_column_position, anchor_value_fn)])
            self.partners = []
            for binding in plan.key_bindings:
                side_table = binding.quantifier.box.table
                side_checks = [
                    compile_base_expression(_deqref(p), side_table)
                    for p in plan.box.local_predicates_of(
                        binding.quantifier)
                ]
                pairs = [
                    (side_table.column_position(column),
                     compile_base_expression(expr, anchor_table))
                    for column, expr in binding.pairs
                ]
                self.partners.append((side_table, side_checks, pairs))
            by_name = {c.name.upper(): c for c in anchor_table.columns}
            for column, source in plan.column_sources.items():
                if source is not None and source[0] == plan.anchor.qid:
                    self.normalizers[column] = by_name[source[1]]

    def expected(self, column: str, value):
        """The written value as storage normalizes it (CHAR padding
        etc.) — what get must read back for the write to round-trip."""
        normalizer = self.normalizers.get(column.upper())
        if normalizer is None:
            return value
        return normalizer.validate(value)

    def verify(self, stored_row, written: dict) -> None:
        """The dynamic well-definedness check (get∘put = identity):
        re-evaluate one touched view row against the derivation.

        ``stored_row`` is the base row as stored; ``written`` maps view
        columns to the values the statement assigned.  The row must (a)
        still satisfy the view's selection predicates — and, for joins,
        still find exactly one partner per key-bound side — and (b)
        read back exactly the written values.  Any failure aborts the
        statement (and, through run_atomic, undoes its mutations).
        """
        plan = self.plan
        for check, text in self.checks:
            if check(stored_row) is not True:
                raise ViewUpdateError(
                    "write escapes the view", box=plan.box.label,
                    reason=f"the stored row no longer satisfies the "
                           f"view predicate ({text}); get∘put is not "
                           f"the identity, statement aborted")
        if plan.single_source:
            for column, value in written.items():
                getter = self.getters.get(column.upper())
                if getter is not None \
                        and getter(stored_row) != self.expected(column,
                                                                  value):
                    raise ViewUpdateError(
                        "write does not round-trip", box=plan.box.label,
                        column=column.upper(),
                        reason="re-reading the view yields a different "
                               "value than was written")
            return
        for side_table, side_checks, pairs in self.partners:
            matches = 0
            wanted = [(position, value_of(stored_row))
                      for position, value_of in pairs]
            for _rid, row in side_table.scan():
                if all(row[position] == value
                       for position, value in wanted) \
                        and all(c(row) is True for c in side_checks):
                    matches += 1
                    if matches > 1:
                        break
            if matches != 1:
                raise ViewUpdateError(
                    "write escapes the view", box=plan.box.label,
                    reason=f"the updated row finds {matches} partners "
                           f"in key-bound side {side_table.name} "
                           f"(exactly one required); get∘put is not "
                           f"the identity, statement aborted")
        anchor_table = plan.anchor.box.table
        for column, value in written.items():
            source = plan.column_sources.get(column.upper())
            if source is not None and source[0] == plan.anchor.qid:
                position = anchor_table.column_position(source[1])
                if stored_row[position] != self.expected(column, value):
                    raise ViewUpdateError(
                        "write does not round-trip",
                        box=plan.box.label, column=column.upper(),
                        reason="re-reading the view yields a different "
                               "value than was written")


def compile_write_plan(box, name: str, catalog) -> CompiledWritePlan:
    """Classify ``box`` for put-back and compile its checks: the one
    analysis behind view DML, the object gateway and the matviews."""
    return CompiledWritePlan(analyze_view_box(box, name, catalog), catalog)


def _deqref(expression: ast.Expression) -> ast.Expression:
    """QGM predicate (QRef leaves over one quantifier) -> base AST."""
    return replace_qrefs(
        expression, lambda leaf: ast.ColumnRef(None, leaf.column.upper()))


class ViewUpdateManager:
    """Accepts DML against views; compiles, applies, verifies."""

    #: Bounded caches: classified plans and per-statement translations.
    PLAN_CAPACITY = 64
    STATEMENT_CAPACITY = 256

    def __init__(self, engine):
        self.engine = engine
        self.catalog = engine.catalog
        self._plans: OrderedDict = OrderedDict()
        self._statements: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # Target resolution + classification (schema-version cached)
    # ------------------------------------------------------------------
    def handles(self, target: str) -> bool:
        """Is ``target`` a view (or XNF component path) this manager
        owns?  Base tables — which shadow nothing, the namespace is
        shared — stay with the plain DML executor."""
        return "." in target or self.catalog.has_view(target)

    def _analyze(self, target: str) -> CompiledWritePlan:
        key = (target.upper(), self.catalog.schema_version)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            return cached
        if "." not in target:
            view = self.catalog.view(target)
            if view.materialized:
                raise ViewUpdateError(
                    f"view {target!r} is not updatable", box=view.name,
                    reason="materialized views are maintained from base "
                           "deltas; write to the base tables (or the "
                           "defining view) instead")
            if view.is_xnf:
                raise ViewUpdateError(
                    f"view {target!r} is not updatable", box=view.name,
                    reason="target one component of the XNF view as "
                           f"{target}.<component> instead")
        cached = compile_write_plan(self._resolve_target_box(target),
                                    target, self.catalog)
        self._plans[key] = cached
        while len(self._plans) > self.PLAN_CAPACITY:
            self._plans.popitem(last=False)
        return cached

    def _resolve_target_box(self, target: str):
        """The view derivation the put-back inverts.

        For ``view.component`` paths the lens target is the component's
        *own* derivation (its defining query), not the DISTINCT
        reachability-restricted box the read side composes: membership
        in the composite is a property of the assembly, while writes
        address the component's extent.
        """
        if "." in target:
            view_name, component = target.split(".", 1)
            if self.catalog.has_view(view_name):
                view = self.catalog.view(view_name)
                if view.materialized:
                    raise ViewUpdateError(
                        f"view {target!r} is not updatable", box=view_name,
                        reason="materialized views are maintained from "
                               "base deltas; write to the base tables "
                               "instead")
                if view.is_xnf:
                    return self._component_raw_box(view, component)
        builder = self.engine.pipeline.builder()
        return builder._resolve_table(target)

    def _component_raw_box(self, view, component: str):
        from repro.xnf.translate import XNFTranslator
        compiler = self.engine.pipeline.compiler
        graph = compiler.build_xnf(view.definition, view_name=view.name)
        translated = XNFTranslator(
            self.catalog, self.engine.xnf_options,
            compiler=compiler).translate(graph)
        info = translated.components.get(component.upper())
        if info is None:
            raise CatalogError(
                f"XNF view {view.name!r} has no component {component!r}")
        if translated.recursive:
            raise ViewUpdateError(
                f"view {view.name!r} is not updatable", box=component,
                reason="components of recursive XNF views have no "
                       "row-level put-back")
        return info.raw_box
    # ------------------------------------------------------------------
    # Statement translation cache (keyed on the lifted statement's
    # pre-hashed key, so literal variants share one translation)
    # ------------------------------------------------------------------
    def _translated(self, lifted: ParameterizedStatement, build):
        key = (lifted.key, self.catalog.schema_version)
        try:
            cached = self._statements.get(key)
        except TypeError:  # unhashable literal somewhere in the AST
            return build()
        if cached is not None:
            self._statements.move_to_end(key)
            return cached
        cached = build()
        self._statements[key] = cached
        while len(self._statements) > self.STATEMENT_CAPACITY:
            self._statements.popitem(last=False)
        return cached

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------
    def _translate(self, lifted: ParameterizedStatement):
        """``(classified view, assignments, WHERE, qualification key)``
        of a view UPDATE or DELETE; the WHERE is in base-table terms for
        single-source views and stays over the view for key-preserved
        joins.  The key names the qualification plan in the plan cache:
        the base qualification of a single-source view, the view
        qualification of a join view."""
        statement = lifted.statement
        cached = self._analyze(statement.table)
        plan = cached.plan
        assignments = getattr(statement, "assignments", ())

        def build():
            translated = translate_assignments(plan, assignments)
            if not plan.single_source:
                key = HashedKey(("join_view", plan.name, statement.where)
                                + tuple(value for _, _, value in translated))
                return translated, statement.where, key
            where = translate_where(plan, statement.where)
            key = HashedKey((plan.table, where)
                            + tuple(value for _, _, value in translated))
            return translated, where, key
        return (cached, *self._translated(lifted, build))

    def qualification_plan(self, lifted: ParameterizedStatement):
        """The plan that qualifies the base rows a view UPDATE/DELETE
        touches (what ``EXPLAIN`` shows for view DML)."""
        cached, assignments, where, key = self._translate(lifted)
        plan = cached.plan
        values = [value for _, _, value in assignments]
        if plan.single_source:
            return self.engine.dml.qualification_plan(
                self.catalog.table(plan.table), where, values, key)
        return self._join_qualification(plan, where, values, key)

    def _join_qualification(self, plan: ViewWritePlan, where,
                            values: list, key: HashedKey):
        """A join view's qualification plan, read through the plan
        cache under ``key`` (validated against the schema version and
        the statistics epochs of the tables the view joins)."""
        pipeline = self.engine.pipeline
        tables: list[str] = []

        def compile_plan():
            compiled = compile_join_qualification(pipeline, plan, where,
                                                  values)
            tables.extend(pipeline.graph_tables(compiled.graph))
            return compiled.plan
        return pipeline.cached_compile(
            pipeline.cache_key("dml_qualify", key), compile_plan,
            tables_of=lambda _plan: tables)

    def _run_join_qualification(self, plan: ViewWritePlan, where,
                                values: list, key: HashedKey, params,
                                bindings) -> list[tuple]:
        qualification = self._join_qualification(plan, where, values, key)
        ctx = qualification.new_context(params)
        if bindings:
            ctx.parameters.update(bindings)
        _stream, node = qualification.single_output()
        return qualification.run_node(node, ctx)

    def update(self, lifted: ParameterizedStatement, params=None) -> int:
        cached, assignments, where, key = self._translate(lifted)
        if cached.plan.single_source:
            return self._update_single(cached, assignments, where, key,
                                       params, lifted.bindings)
        return self._update_join(cached, assignments, where, key, params,
                                 lifted.bindings)

    def _update_single(self, cached: CompiledWritePlan, assignments,
                       where, key, params, bindings) -> int:
        plan = cached.plan
        table = self.catalog.table(plan.table)
        value_expressions = [value for _, _, value in assignments]
        rows = self.engine.dml.qualify(table, where, value_expressions,
                                       key, params, bindings)
        positions = [table.column_position(base)
                     for _, base, _ in assignments]
        return self._apply_update(cached, table, rows, positions,
                                  [v for v, _, _ in assignments])

    def _update_join(self, cached: CompiledWritePlan, assignments,
                     where, key, params, bindings) -> int:
        plan = cached.plan
        table = plan.anchor.box.table
        rows = self._run_join_qualification(
            plan, where, [value for _, _, value in assignments], key,
            params, bindings)
        deduped: dict[int, tuple] = {}
        for row in rows:
            rid, values = row[0], tuple(row[1:])
            if deduped.setdefault(rid, values) != values:
                raise ViewUpdateError(
                    "ambiguous put-back", box=plan.box.label,
                    reason="one base row backs several view rows whose "
                           "updates disagree")
        positions = [table.column_position(base)
                     for _, base, _ in assignments]
        return self._apply_update(
            cached, table,
            [(rid,) + values for rid, values in deduped.items()],
            positions, [v for v, _, _ in assignments])

    def _apply_update(self, cached: CompiledWritePlan, table, rows,
                      positions, view_columns) -> int:
        writer = RowWriter(self.catalog)
        for row_values in rows:
            new_values = row_values[1:]
            _rid, stored = writer.update(table, row_values[0], positions,
                                         new_values)
            cached.verify(stored, dict(zip(view_columns, new_values)))
        writer.emit()
        return len(rows)

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def delete(self, lifted: ParameterizedStatement, params=None) -> int:
        cached, _assignments, where, key = self._translate(lifted)
        plan = cached.plan
        if plan.single_source:
            table = self.catalog.table(plan.table)
            rids = [row[0] for row in self.engine.dml.qualify(
                table, where, [], key, params, lifted.bindings)]
        else:
            table = plan.anchor.box.table
            rids = list(dict.fromkeys(
                r[0] for r in self._run_join_qualification(
                    plan, where, [], key, params, lifted.bindings)))
        writer = RowWriter(self.catalog)
        for rid in rids:
            writer.delete(table, rid)
        writer.emit()
        return len(rids)

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def insert(self, statement: ast.InsertStatement, params=None) -> int:
        cached = self._analyze(statement.table)
        plan = cached.plan
        if not plan.single_source:
            raise ViewUpdateError(
                "INSERT through a join view is ambiguous",
                box=plan.box.label,
                reason="a new view row does not determine rows for the "
                       "key-bound sides")
        if statement.query is not None:
            raise SemanticError(
                "INSERT ... SELECT into a view is not supported; "
                "insert plain VALUES rows")
        table = self.catalog.table(plan.table)
        view_columns = [c.upper() for c in statement.columns] \
            if statement.columns else \
            [c.name.upper() for c in plan.box.head
             if not c.name.startswith("$")]
        positions = [table.column_position(plan.writable_base_column(c))
                     for c in view_columns]
        writer = RowWriter(self.catalog)
        rows = self.engine.dml.insert_rows(statement, len(positions), params)
        for values in rows:
            full_row = [None] * len(table.columns)
            for position, value in zip(positions, values):
                full_row[position] = value
            _rid, stored = writer.insert(table, full_row)
            cached.verify(stored, dict(zip(view_columns, values)))
        writer.emit()
        return len(rows)
