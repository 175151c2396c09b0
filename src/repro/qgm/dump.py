"""Human-readable QGM graph dumps.

Reproduces (in text form) the graphical notation of Figs. 3-5: each box
printed with its kind, label, head columns, quantifiers, and predicates.
Used by ``Session.explain`` and heavily in tests to assert graph shapes.
"""

from __future__ import annotations

import hashlib

from repro.qgm.model import (BaseBox, Box, GroupByBox, OuterJoinBox,
                             QGMGraph, QRef, Quantifier, RidRef, SelectBox,
                             SetOpBox, TopBox, XNFBox)
from repro.sql import ast


def dump_graph(graph: QGMGraph) -> str:
    """Render the whole graph, TOP first, children in discovery order."""
    lines: list[str] = []
    seen: set[int] = set()

    def visit(box: Box, depth: int) -> None:
        indent = "  " * depth
        if box.box_id in seen:
            lines.append(f"{indent}[ref -> {describe(box)}]")
            return
        seen.add(box.box_id)
        lines.append(f"{indent}{describe(box)}")
        for detail in box_details(box):
            lines.append(f"{indent}  | {detail}")
        if isinstance(box, XNFBox):
            for component in box.components.values():
                lines.append(f"{indent}  component {component.name}"
                             f"{' (root)' if component.is_root else ''}"
                             f"{' R' if component.reachability_required else ''}:")
                visit(component.box, depth + 2)
            return
        for child in box.child_boxes():
            visit(child, depth + 1)

    visit(graph.top, 0)
    return "\n".join(lines)


def describe(box: Box) -> str:
    name = type(box).__name__
    return f"{name}#{box.box_id} '{box.label}'"


def box_details(box: Box) -> list[str]:
    details: list[str] = []
    if box.head:
        columns = ", ".join(
            c.name if c.expression is None else f"{c.name}={c.expression}"
            for c in box.head
        )
        details.append(f"head: {columns}")
    if isinstance(box, BaseBox):
        details.append(f"table: {box.table.name} ({len(box.table)} rows)")
    elif isinstance(box, SelectBox):
        for quantifier in box.body_quantifiers:
            details.append(
                f"quantifier {quantifier.qtype} {quantifier.name} "
                f"over {quantifier.box.label}"
            )
        for predicate in box.predicates:
            details.append(f"predicate: {predicate}")
        if box.distinct:
            details.append("distinct: enforce")
        if box.order_by:
            keys = ", ".join(
                f"{expr}{' DESC' if desc else ''}"
                for expr, desc in box.order_by
            )
            details.append(f"order by: {keys}")
        if box.limit is not None:
            details.append(f"limit: {box.limit}")
        if box.offset is not None:
            details.append(f"offset: {box.offset}")
    elif isinstance(box, GroupByBox):
        keys = ", ".join(str(k) for k in box.group_keys)
        details.append(f"group keys: [{keys}]")
        for name, spec in box.aggregates.items():
            argument = "*" if spec.argument is None else str(spec.argument)
            distinct = "DISTINCT " if spec.distinct else ""
            details.append(f"aggregate {name} = "
                           f"{spec.function}({distinct}{argument})")
    elif isinstance(box, SetOpBox):
        details.append(f"operator: {box.operator}"
                       f"{' ALL' if box.all_rows else ''}")
    elif isinstance(box, OuterJoinBox):
        details.append(f"condition: {box.condition}")
    elif isinstance(box, XNFBox):
        for relationship in box.relationships.values():
            details.append(
                f"relationship {relationship.name} "
                f"({relationship.parent} -{relationship.role}-> "
                f"{', '.join(relationship.children)}): "
                f"{relationship.predicate}"
            )
        if box.take_all:
            details.append("take: *")
        else:
            names = ", ".join(i.name for i in box.take_items)
            details.append(f"take: {names}")
    elif isinstance(box, TopBox):
        for output in box.outputs:
            details.append(
                f"output {output.name} [{output.stream_kind}"
                f"#{output.component_number}] <- {output.box.label}"
            )
    return details


# ----------------------------------------------------------------------
# Canonical form
# ----------------------------------------------------------------------
class _Canonicalizer:
    """Renders a graph with run-independent box/quantifier numbering.

    Two independently compiled graphs with the same structure (after
    rewrite) render identically: box and quantifier ids are assigned in
    deterministic traversal order and expressions are printed through
    those canonical ids instead of volatile names.  This is what lets
    the plan cache key on the *post-rewrite* form — a view reference and
    its hand-inlined equivalent converge to one entry.
    """

    def __init__(self) -> None:
        self.box_ids: dict[int, int] = {}
        self.quantifier_ids: dict[int, int] = {}
        self.lines: list[str] = []

    # -- id assignment --------------------------------------------------
    def box_id(self, box: Box) -> int:
        assigned = self.box_ids.get(box.box_id)
        if assigned is None:
            assigned = len(self.box_ids)
            self.box_ids[box.box_id] = assigned
        return assigned

    def quantifier_id(self, quantifier: Quantifier) -> int:
        assigned = self.quantifier_ids.get(quantifier.qid)
        if assigned is None:
            assigned = len(self.quantifier_ids)
            self.quantifier_ids[quantifier.qid] = assigned
        return assigned

    # -- expressions ----------------------------------------------------
    def expr(self, expression: ast.Expression) -> str:
        if isinstance(expression, QRef):
            return f"q{self.quantifier_id(expression.quantifier)}" \
                   f".{expression.column.upper()}"
        if isinstance(expression, RidRef):
            return f"RID(q{self.quantifier_id(expression.quantifier)})"
        if isinstance(expression, ast.Literal):
            return repr(expression.value)
        if isinstance(expression, ast.Parameter):
            return str(expression)
        if isinstance(expression, ast.BinaryOp):
            return (f"({self.expr(expression.left)} {expression.op} "
                    f"{self.expr(expression.right)})")
        if isinstance(expression, ast.UnaryOp):
            return f"({expression.op} {self.expr(expression.operand)})"
        if isinstance(expression, ast.FunctionCall):
            args = ", ".join(self.expr(a) for a in expression.args)
            distinct = "DISTINCT " if expression.distinct else ""
            return f"{expression.name.upper()}({distinct}{args})"
        if isinstance(expression, ast.IsNull):
            negated = " NOT" if expression.negated else ""
            return f"({self.expr(expression.operand)} IS{negated} NULL)"
        if isinstance(expression, ast.Between):
            negated = "NOT " if expression.negated else ""
            return (f"({self.expr(expression.operand)} {negated}BETWEEN "
                    f"{self.expr(expression.low)} AND "
                    f"{self.expr(expression.high)})")
        if isinstance(expression, ast.Like):
            negated = "NOT " if expression.negated else ""
            return (f"({self.expr(expression.operand)} {negated}LIKE "
                    f"{self.expr(expression.pattern)})")
        if isinstance(expression, ast.InList):
            negated = "NOT " if expression.negated else ""
            items = ", ".join(self.expr(i) for i in expression.items)
            return f"({self.expr(expression.operand)} {negated}IN " \
                   f"({items}))"
        if isinstance(expression, ast.CaseWhen):
            whens = " ".join(
                f"WHEN {self.expr(c)} THEN {self.expr(r)}"
                for c, r in expression.whens
            )
            default = "" if expression.default is None \
                else f" ELSE {self.expr(expression.default)}"
            return f"(CASE {whens}{default} END)"
        return str(expression)

    # -- boxes ----------------------------------------------------------
    def render(self, graph: QGMGraph) -> str:
        top = graph.top
        self.box_id(top)
        for output in top.outputs:
            self.lines.append(
                f"output {output.name.upper()} [{output.stream_kind}] "
                f"-> b{self.box_id(output.box)}"
            )
        pending = [output.box for output in top.outputs]
        seen: set[int] = set()
        while pending:
            box = pending.pop(0)
            if box.box_id in seen:
                continue
            seen.add(box.box_id)
            self._render_box(box)
            pending.extend(q.box for q in box.quantifiers())
        return "\n".join(self.lines)

    def _render_box(self, box: Box) -> None:
        out = self.lines
        if isinstance(box, BaseBox):
            out.append(f"b{self.box_id(box)} base {box.table.name}")
            return
        # Assign quantifier ids in body order before rendering anything.
        quantifier_ids = [
            (q, self.quantifier_id(q)) for q in box.quantifiers()
        ]
        header = f"b{self.box_id(box)} {box.kind}"
        if isinstance(box, SelectBox) and box.distinct:
            header += " distinct"
        if isinstance(box, SetOpBox):
            header += f" {box.operator}{' ALL' if box.all_rows else ''}"
        out.append(header)
        for quantifier, qid in quantifier_ids:
            poison = " poison" if quantifier.null_poison else ""
            out.append(f"  q{qid} {quantifier.qtype}{poison} "
                       f"-> b{self.box_id(quantifier.box)}")
        if box.head:
            columns = ", ".join(
                c.name.upper() if c.expression is None
                else f"{c.name.upper()}={self.expr(c.expression)}"
                for c in box.head
            )
            out.append(f"  head: {columns}")
        if isinstance(box, SelectBox):
            for predicate in sorted(self.expr(p) for p in box.predicates):
                out.append(f"  pred: {predicate}")
            if box.order_by:
                keys = ", ".join(
                    f"{self.expr(e)}{' DESC' if d else ''}"
                    for e, d in box.order_by
                )
                out.append(f"  order: {keys}")
            if box.limit is not None:
                out.append(f"  limit: {box.limit}")
            if box.offset is not None:
                out.append(f"  offset: {box.offset}")
        elif isinstance(box, GroupByBox):
            keys = ", ".join(self.expr(k) for k in box.group_keys)
            out.append(f"  keys: [{keys}]")
            for name, spec in box.aggregates.items():
                argument = "*" if spec.argument is None \
                    else self.expr(spec.argument)
                distinct = "DISTINCT " if spec.distinct else ""
                out.append(f"  agg {name.upper()} = "
                           f"{spec.function}({distinct}{argument})")
        elif isinstance(box, OuterJoinBox):
            condition = "" if box.condition is None \
                else self.expr(box.condition)
            out.append(f"  on: {condition}")


def canonical_dump(graph: QGMGraph) -> str:
    """Structure-only rendering with deterministic numbering.

    Stable across processes and independent of global box/quantifier
    counters, so it doubles as golden-test output and as the payload of
    :func:`canonical_fingerprint`.
    """
    return _Canonicalizer().render(graph)


def canonical_fingerprint(graph: QGMGraph) -> str:
    """A short digest of the canonical form, for plan-cache keys."""
    digest = hashlib.sha256(canonical_dump(graph).encode()).hexdigest()
    return digest[:16]
