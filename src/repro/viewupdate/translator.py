"""Rewrite view DML into base-table form (the *put* translation).

Single-source views translate at the AST level: view column references
(in WHERE and in SET value expressions) are substituted with their
base-level definitions, the view's selection predicates are conjoined
into the WHERE, and the result is an ordinary base-table statement the
existing DML machinery qualifies through the shared plan cache — the
view path costs one dictionary-driven AST rewrite over the hand-written
statement.

Key-preserved joins qualify through the *view* instead: the view's box
(with the anchor rid appended to its head) is wrapped in a qualification box producing ``(anchor_rid, value...)``
rows, compiled through the normal pipeline.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ViewUpdateError
from repro.qgm.builder import Scope, validate_subquery_positions
from repro.qgm.model import (HeadColumn, OutputStream, QGMGraph, QRef,
                             Quantifier, RidRef, SelectBox, TopBox)
from repro.sql import ast
from repro.viewupdate.provenance import ViewWritePlan

#: Head column appended to a join view's box exposing the anchor rid.
ANCHOR_RID = "$ARID$"


def reject_subqueries(expr: Optional[ast.Expression],
                      plan: ViewWritePlan) -> None:
    """View DML predicates must be subquery-free.

    A subquery's inner scope could capture the view's (renamed) columns;
    rewriting them soundly requires scope analysis this translation does
    not attempt — reject instead of guessing.
    """
    if expr is None:
        return
    for node in (expr, *ast.walk_expression(expr)):
        if isinstance(node, (ast.Exists, ast.InSubquery,
                             ast.ScalarSubquery)):
            raise ViewUpdateError(
                "subqueries are not supported in view DML",
                box=plan.box.label,
                reason="the subquery's scope could capture renamed view "
                       "columns")


def rewrite_to_base(expr: ast.Expression,
                    plan: ViewWritePlan) -> ast.Expression:
    """Substitute view column references with their base definitions."""
    def mapping(ref: ast.ColumnRef) -> ast.Expression:
        if ref.table is not None \
                and ref.table.upper() not in (plan.name.upper(),
                                              plan.box.label.upper()):
            raise ViewUpdateError(
                f"unknown qualifier {ref.table!r} in view DML",
                box=plan.box.label, column=ref.column.upper())
        base = plan.base_ast.get(ref.column.upper())
        if base is None:
            raise ViewUpdateError(
                "view has no such column", box=plan.box.label,
                column=ref.column.upper())
        return base
    return ast.replace_column_refs(expr, mapping)


def translate_where(plan: ViewWritePlan,
                    where: Optional[ast.Expression]
                    ) -> Optional[ast.Expression]:
    """User WHERE (over view columns) -> base WHERE AND view predicates."""
    parts: list[ast.Expression] = []
    if where is not None:
        reject_subqueries(where, plan)
        parts.append(rewrite_to_base(where, plan))
    parts.extend(plan.predicates)
    return ast.conjoin(parts)


def translate_assignments(plan: ViewWritePlan,
                          assignments: tuple[ast.Assignment, ...]
                          ) -> list[tuple[str, str, ast.Expression]]:
    """[(view_column, base_column, base_value_expression)] triples.

    Raises when a written column is computed, duplicated, or (for join
    views) traces to a key-bound side.
    """
    seen: set[str] = set()
    translated: list[tuple[str, str, ast.Expression]] = []
    for assignment in assignments:
        view_column = assignment.column.upper()
        if view_column in seen:
            raise ViewUpdateError(
                "column assigned twice", box=plan.box.label,
                column=view_column)
        seen.add(view_column)
        base_column = plan.writable_base_column(view_column)
        reject_subqueries(assignment.value, plan)
        if plan.single_source:
            value = rewrite_to_base(assignment.value, plan)
        else:
            value = assignment.value
        translated.append((view_column, base_column, value))
    return translated


# ----------------------------------------------------------------------
# Join-path qualification: SELECT anchor_rid, <values> FROM <view box>
# ----------------------------------------------------------------------
def compile_join_qualification(pipeline, plan: ViewWritePlan,
                               where: Optional[ast.Expression],
                               value_expressions: list[ast.Expression]):
    """Compile ``SELECT anchor_rid, <exprs> FROM view WHERE pred``
    (the compiled query: its graph names the tables the plan reads).

    The view's box is extended once to expose the anchor rid as
    ``$ARID$``; this wraps it in a qualification box exactly like the
    base-table DML path wraps a BaseBox.
    """
    if not plan.box.has_head_column(ANCHOR_RID):
        plan.box.head.append(HeadColumn(ANCHOR_RID, RidRef(plan.anchor)))
    builder = pipeline.builder()
    box = SelectBox(label=f"viewdml_{plan.name}")
    quantifier = box.add_quantifier(
        Quantifier(plan.box, Quantifier.F, name=plan.name))
    scope = Scope()
    scope.bind(plan.name.replace(".", "_"), quantifier)
    head = [HeadColumn("$RID$", QRef(quantifier, ANCHOR_RID))]
    for position, expression in enumerate(value_expressions):
        reject_subqueries(expression, plan)
        resolved = builder._resolve(expression, scope, box)
        head.append(HeadColumn(f"V{position}", resolved))
    box.head = head
    if where is not None:
        reject_subqueries(where, plan)
        validate_subquery_positions(where)
        predicate = builder._resolve(where, scope, box)
        box.predicates.extend(
            p for p in ast.conjuncts(predicate)
            if p != ast.Literal(True))
    top = TopBox()
    top.outputs.append(OutputStream(name="VIEWDML", box=box))
    graph = QGMGraph(top=top, statement_kind="select")
    return pipeline.compile_graph(graph)
