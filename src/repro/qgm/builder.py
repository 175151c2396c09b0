"""AST -> QGM construction: the semantic-checking stage.

For SQL this is CORONA's parser/semantics stage producing NF QGM.  For
XNF it implements the semantic routines of Sect. 4.1:

* phase 0 — QGM initialization (install the XNF operator and TOP),
* phase 1 — derivation of XNF component tables and relationships,
* phase 2 — component restrictions and reachability flags,
* phase 3 — projection (the TAKE clause).

Name resolution uses lexical scopes: each query block's FROM bindings
form a scope; subqueries chain to the enclosing scope, which is how
correlation is expressed.  EXISTS/IN subqueries are decorrelated into
E/A quantifiers of the enclosing box at build time, giving exactly the
shape Fig. 3a shows (an existential quantifier over the subquery box).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import SemanticError
from repro.qgm.model import (AggregateSpec, BaseBox, Box, GroupByBox,
                             HeadColumn, OuterJoinBox, OutputStream, QGMGraph,
                             QRef, Quantifier, RidRef, SelectBox, SetOpBox,
                             TopBox, XNFBox, XNFComponent, XNFRelationship,
                             quantifiers_in, replace_qrefs,
                             subgraph_outer_refs)
from repro.sql import ast
from repro.storage.catalog import Catalog, ViewDefinition

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass
class Binding:
    """One FROM-clause binding: a quantifier plus an optional rename map.

    ``column_map`` translates the binding's source column names to head
    column names of the quantifier's box; it is only needed when a box
    merges several sources whose column names collided (outer joins,
    flattened nested joins).
    """

    quantifier: Quantifier
    column_map: Optional[dict[str, str]] = None  # upper(source) -> head name

    def head_name(self, column: str) -> Optional[str]:
        if self.column_map is not None:
            return self.column_map.get(column.upper())
        if self.quantifier.box.has_head_column(column):
            return self.quantifier.box.head_column(column).name
        return None

    def visible_columns(self) -> list[str]:
        if self.column_map is not None:
            return list(self.column_map.values())
        return [c.name for c in self.quantifier.box.head]


class Scope:
    """A lexical scope: FROM-clause bindings, chained to an outer scope."""

    def __init__(self, outer: Optional["Scope"] = None):
        self.outer = outer
        self.bindings: dict[str, Binding] = {}

    def bind(self, name: str, quantifier: Quantifier,
             column_map: Optional[dict[str, str]] = None) -> None:
        key = name.upper()
        if key in self.bindings:
            raise SemanticError(f"duplicate table binding {name!r}")
        self.bindings[key] = Binding(quantifier, column_map)

    def lookup(self, name: str) -> Optional[Binding]:
        scope: Optional[Scope] = self
        while scope is not None:
            binding = scope.bindings.get(name.upper())
            if binding is not None:
                return binding
            scope = scope.outer
        return None

    def resolve_qualified(self, table: str, column: str) -> QRef:
        binding = self.lookup(table)
        if binding is None:
            raise SemanticError(f"unknown table or alias {table!r}")
        head_name = binding.head_name(column)
        if head_name is None:
            raise SemanticError(f"table {table!r} has no column {column!r}")
        return QRef(binding.quantifier, head_name)

    def resolve_unqualified(self, column: str) -> QRef:
        scope: Optional[Scope] = self
        while scope is not None:
            matches = [
                b for b in scope.bindings.values()
                if b.head_name(column) is not None
            ]
            distinct = {(id(b.quantifier), b.head_name(column))
                        for b in matches}
            if len(distinct) > 1:
                raise SemanticError(f"ambiguous column reference {column!r}")
            if matches:
                binding = matches[0]
                return QRef(binding.quantifier, binding.head_name(column))
            scope = scope.outer
        raise SemanticError(f"unknown column {column!r}")

    def local_bindings(self) -> list[Binding]:
        return list(self.bindings.values())


class Exporter:
    """Rewrites expressions over a box's body into references through a
    quantifier that ranges over the box, adding head columns as needed.

    This is how derived tables expose exactly the columns their consumers
    use — and the mechanism behind common-subexpression sharing: several
    consumers export through the *same* box.
    """

    def __init__(self, box: Box, quantifier: Quantifier):
        if quantifier.box is not box:
            raise SemanticError("exporter quantifier must range over the box")
        self.box = box
        self.quantifier = quantifier

    def export(self, expression: ast.Expression) -> ast.Expression:
        def mapping(leaf):
            name = self._ensure_head(leaf)
            return QRef(self.quantifier, name)
        return replace_qrefs(expression, mapping)

    def _ensure_head(self, leaf: ast.Expression) -> str:
        for column in self.box.head:
            if column.expression == leaf:
                return column.name
        base = leaf.column if isinstance(leaf, QRef) else "RID"
        name = unique_head_name(self.box, base)
        self.box.head.append(HeadColumn(name, leaf))
        return name


def unique_head_name(box: Box, base: str) -> str:
    existing = {c.name.upper() for c in box.head}
    if base.upper() not in existing:
        return base
    suffix = 2
    while f"{base}_{suffix}".upper() in existing:
        suffix += 1
    return f"{base}_{suffix}"


def substitute_subtrees(expression: ast.Expression,
                        pairs: list[tuple[ast.Expression, ast.Expression]]
                        ) -> ast.Expression:
    """Replace whole subtrees equal to a pattern (used for GROUP BY)."""
    for pattern, replacement in pairs:
        if expression == pattern:
            return replacement
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(expression.op,
                            substitute_subtrees(expression.left, pairs),
                            substitute_subtrees(expression.right, pairs))
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(expression.op,
                           substitute_subtrees(expression.operand, pairs))
    if isinstance(expression, ast.FunctionCall):
        return ast.FunctionCall(
            expression.name,
            tuple(substitute_subtrees(a, pairs) for a in expression.args),
            expression.distinct,
        )
    if isinstance(expression, ast.IsNull):
        return ast.IsNull(substitute_subtrees(expression.operand, pairs),
                          expression.negated)
    if isinstance(expression, ast.Between):
        return ast.Between(substitute_subtrees(expression.operand, pairs),
                           substitute_subtrees(expression.low, pairs),
                           substitute_subtrees(expression.high, pairs),
                           expression.negated)
    if isinstance(expression, ast.Like):
        return ast.Like(substitute_subtrees(expression.operand, pairs),
                        substitute_subtrees(expression.pattern, pairs),
                        expression.negated)
    if isinstance(expression, ast.InList):
        return ast.InList(
            substitute_subtrees(expression.operand, pairs),
            tuple(substitute_subtrees(i, pairs) for i in expression.items),
            expression.negated,
        )
    if isinstance(expression, ast.CaseWhen):
        return ast.CaseWhen(
            tuple((substitute_subtrees(c, pairs),
                   substitute_subtrees(r, pairs))
                  for c, r in expression.whens),
            None if expression.default is None
            else substitute_subtrees(expression.default, pairs),
        )
    return expression


def subgraph_quantifiers(box: Box) -> set[Quantifier]:
    """All quantifiers owned by boxes reachable from ``box``."""
    owned: set[Quantifier] = set()
    seen: set[int] = set()

    def visit(current: Box) -> None:
        if current.box_id in seen:
            return
        seen.add(current.box_id)
        for quantifier in current.quantifiers():
            owned.add(quantifier)
            visit(quantifier.box)

    visit(box)
    return owned


def contains_subquery(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, (ast.Exists, ast.InSubquery, ast.ScalarSubquery))
        for node in ast.walk_expression(expression)
    )


def validate_subquery_positions(expression: ast.Expression,
                                conjunctive: bool = True) -> None:
    """EXISTS/IN subqueries compile to body quantifiers, which conjoin
    with the rest of the WHERE clause; inside OR/NOT that translation is
    unsound, so we reject it (write the query as a UNION instead, which
    is also what the paper's reachability rewrite produces for
    multi-parent components)."""
    if isinstance(expression, (ast.Exists, ast.InSubquery)):
        if not conjunctive:
            raise SemanticError(
                "EXISTS/IN subqueries are only supported in top-level "
                "AND positions; rewrite the disjunction as a UNION"
            )
        return
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND" \
            and conjunctive:
        validate_subquery_positions(expression.left, True)
        validate_subquery_positions(expression.right, True)
        return
    # Below any non-AND node every quantified subquery is misplaced.
    for node in ast.walk_expression(expression):
        if node is not expression and \
                isinstance(node, (ast.Exists, ast.InSubquery)):
            raise SemanticError(
                "EXISTS/IN subqueries are only supported in top-level "
                "AND positions; rewrite the disjunction as a UNION"
            )


class QGMBuilder:
    """Builds QGM graphs from parsed statements against a catalog.

    ``xnf_component_resolver(view_name, component_name)`` is an optional
    hook (installed by the engine) returning a QGM box for a
    component of a previously defined XNF view — this is what makes the
    model "closed under its language operations" (Sect. 2).
    """

    def __init__(self, catalog: Catalog,
                 xnf_component_resolver: Optional[
                     Callable[[str, str], Box]] = None):
        self.catalog = catalog
        self.xnf_component_resolver = xnf_component_resolver
        self._base_boxes: dict[str, BaseBox] = {}
        self._view_boxes: dict[str, Box] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def build_select(self, statement: ast.SelectStatement) -> QGMGraph:
        box = self._build_select(statement, None)
        top = TopBox()
        top.outputs.append(OutputStream(name="RESULT", box=box))
        return QGMGraph(top=top, statement_kind="select")

    def build_xnf(self, query: ast.XNFQuery,
                  view_name: str = "XNF") -> QGMGraph:
        xnf_box = self._build_xnf_box(query, view_name)
        top = TopBox()
        # Placeholder stream: XNF semantic rewrite replaces it with one
        # stream per TAKEn component/relationship.
        top.outputs.append(OutputStream(name=view_name, box=xnf_box,
                                        stream_kind="xnf"))
        return QGMGraph(top=top, statement_kind="xnf")

    # ------------------------------------------------------------------
    # SELECT statements
    # ------------------------------------------------------------------
    def _build_select(self, statement: ast.SelectStatement,
                      outer_scope: Optional[Scope]) -> Box:
        box = self._build_query_block(statement, outer_scope)
        if statement.set_operation is not None:
            box = self._build_set_operation(box, statement.set_operation,
                                            outer_scope)
        if statement.order_by or statement.limit is not None \
                or statement.offset is not None:
            box = self._apply_presentation(box, statement)
        return box

    def _build_set_operation(self, left_box: Box,
                             operation: ast.SetOperation,
                             outer_scope: Optional[Scope]) -> Box:
        right_box = self._build_select(operation.right, outer_scope)
        if len(left_box.head) != len(right_box.head):
            raise SemanticError(
                f"{operation.operator} operands have different column counts "
                f"({len(left_box.head)} vs {len(right_box.head)})"
            )
        setop = SetOpBox(operation.operator, operation.all,
                         label=operation.operator.lower())
        setop.inputs.append(Quantifier(left_box, Quantifier.F))
        setop.inputs.append(Quantifier(right_box, Quantifier.F))
        setop.head = [HeadColumn(c.name) for c in left_box.head]
        return setop

    def _apply_presentation(self, box: Box,
                            statement: ast.SelectStatement) -> Box:
        """Attach ORDER BY / LIMIT / OFFSET, wrapping if necessary."""
        if not isinstance(box, SelectBox) or box.order_by or \
                box.limit is not None:
            box = self._wrap_in_select(box)
        order: list[tuple[ast.Expression, bool]] = []
        for item in statement.order_by:
            order.append((
                self._resolve_order_expression(item.expression, box,
                                               statement),
                item.descending,
            ))
        box.order_by = order
        box.limit = statement.limit
        box.offset = statement.offset
        return box

    def _resolve_order_expression(self, expression: ast.Expression,
                                  box: SelectBox,
                                  statement: ast.SelectStatement
                                  ) -> ast.Expression:
        """ORDER BY resolves by position, output name, or block columns."""
        if isinstance(expression, ast.Literal) and \
                isinstance(expression.value, int):
            position = expression.value
            if not 1 <= position <= len(box.head):
                raise SemanticError(
                    f"ORDER BY position {position} out of range"
                )
            return self._head_reference(box, position - 1)
        if isinstance(expression, ast.ColumnRef) and expression.table is None:
            for i, column in enumerate(box.head):
                if column.name.upper() == expression.column.upper():
                    return self._head_reference(box, i)
        if ast.contains_aggregate(expression):
            raise SemanticError(
                "ORDER BY on an aggregate requires an output alias "
                "or column position"
            )
        scope = getattr(box, "binding_scope", None)
        if scope is None:
            scope = Scope()
            for quantifier in box.body_quantifiers:
                scope.bind(quantifier.name, quantifier)
        try:
            return self._resolve(expression, scope, box)
        except SemanticError:
            # Grouped/wrapped blocks lose their FROM bindings; a
            # qualified reference can still order by an output column
            # of the same name (e.g. ORDER BY p.pname after GROUP BY
            # p.pname).
            if isinstance(expression, ast.ColumnRef):
                for i, column in enumerate(box.head):
                    if column.name.upper() == expression.column.upper():
                        return self._head_reference(box, i)
            raise

    @staticmethod
    def _head_reference(box: SelectBox, position: int) -> ast.Expression:
        column = box.head[position]
        if column.expression is not None:
            return column.expression
        return QRef(box.body_quantifiers[0], column.name)

    def _wrap_in_select(self, box: Box) -> SelectBox:
        wrapper = SelectBox(label=f"wrap_{box.label}")
        quantifier = wrapper.add_quantifier(Quantifier(box, Quantifier.F,
                                                       name=box.label))
        wrapper.head = [
            HeadColumn(c.name, QRef(quantifier, c.name)) for c in box.head
        ]
        return wrapper

    def _build_query_block(self, statement: ast.SelectStatement,
                           outer_scope: Optional[Scope]) -> Box:
        box = SelectBox()
        scope = Scope(outer_scope)
        for item in statement.from_items:
            self._add_from_item(item, box, scope)
        if statement.where is not None:
            where = ast.normalize_negations(statement.where)
            validate_subquery_positions(where)
            predicate = self._resolve(where, scope, box)
            box.predicates.extend(self._split_conjuncts(predicate))
        needs_grouping = bool(statement.group_by) or any(
            not isinstance(i.expression, ast.Star)
            and ast.contains_aggregate(i.expression)
            for i in statement.select_items
        ) or (statement.having is not None)
        if needs_grouping:
            return self._build_grouped(statement, box, scope)
        self._build_plain_head(statement, box, scope)
        box.distinct = statement.distinct
        box.binding_scope = scope  # kept for ORDER BY resolution
        return box

    def _add_from_item(self, item: ast.FromItem, box: SelectBox,
                       scope: Scope) -> None:
        if isinstance(item, ast.Join):
            self._add_join(item, box, scope)
            return
        child, bindings = self._from_item_as_box(item, scope)
        name = bindings[0][0] if bindings else child.label
        quantifier = box.add_quantifier(
            Quantifier(child, Quantifier.F, name=name)
        )
        for binding_name, column_map in bindings:
            scope.bind(binding_name, quantifier, column_map)

    def _add_join(self, join: ast.Join, box: SelectBox,
                  scope: Scope) -> None:
        if join.kind in ("INNER", "CROSS"):
            self._add_from_item(join.left, box, scope)
            self._add_from_item(join.right, box, scope)
            if join.condition is not None:
                predicate = self._resolve(join.condition, scope, box)
                box.predicates.extend(self._split_conjuncts(predicate))
            return
        if join.kind == "LEFT":
            outer_box, bindings = self._build_outer_join(join, scope)
            quantifier = box.add_quantifier(
                Quantifier(outer_box, Quantifier.F, name=outer_box.label)
            )
            for binding_name, column_map in bindings:
                scope.bind(binding_name, quantifier, column_map)
            return
        raise SemanticError(f"unsupported join kind {join.kind!r}")

    def _build_outer_join(
            self, join: ast.Join, scope: Scope
    ) -> tuple[OuterJoinBox, list[tuple[str, dict[str, str]]]]:
        """Build a LEFT JOIN subtree as a dedicated box.

        Returns the box plus per-side binding entries whose column maps
        translate source column names to the box's (collision-renamed)
        head names.
        """
        left_box, left_bindings = self._from_item_as_box(join.left, scope)
        right_box, right_bindings = self._from_item_as_box(join.right, scope)
        left_q = Quantifier(left_box, Quantifier.F, name="loj_left")
        right_q = Quantifier(right_box, Quantifier.F, name="loj_right")

        condition_scope = Scope(scope.outer)
        for name, column_map in left_bindings:
            condition_scope.bind(name, left_q, column_map)
        for name, column_map in right_bindings:
            condition_scope.bind(name, right_q, column_map)
        scratch = SelectBox("loj_scratch")
        condition = None
        if join.condition is not None:
            condition = self._resolve(join.condition, condition_scope,
                                      scratch)
            if scratch.body_quantifiers:
                raise SemanticError(
                    "subqueries are not supported in LEFT JOIN conditions"
                )

        outer_box = OuterJoinBox(left_q, right_q, condition)
        out_bindings: list[tuple[str, dict[str, str]]] = []
        used: set[str] = set()
        for source_q, side_bindings in ((left_q, left_bindings),
                                        (right_q, right_bindings)):
            for binding_name, column_map in side_bindings:
                new_map: dict[str, str] = {}
                source_columns = (list(column_map.items())
                                  if column_map is not None else
                                  [(c.name.upper(), c.name)
                                   for c in source_q.box.head])
                for source_name, head_in_child in source_columns:
                    out_name = head_in_child
                    if out_name.upper() in used:
                        out_name = f"{binding_name}_{out_name}"
                    used.add(out_name.upper())
                    outer_box.head.append(
                        HeadColumn(out_name, QRef(source_q, head_in_child))
                    )
                    new_map[source_name] = out_name
                out_bindings.append((binding_name, new_map))
        return outer_box, out_bindings

    def _from_item_as_box(
            self, item: ast.FromItem, scope: Scope
    ) -> tuple[Box, list[tuple[str, Optional[dict[str, str]]]]]:
        """A FROM item as a standalone box plus its binding entries."""
        if isinstance(item, ast.TableRef):
            box = self._resolve_table(item.name)
            if item.alias is None and "." in item.name:
                binding_name = item.name.split(".")[-1]
            else:
                binding_name = item.binding
            return box, [(binding_name, None)]
        if isinstance(item, ast.SubqueryRef):
            return (self._build_select(item.query, scope.outer),
                    [(item.alias, None)])
        if isinstance(item, ast.Join):
            if item.kind == "LEFT":
                box, bindings = self._build_outer_join(item, scope)
                return box, list(bindings)
            nested = SelectBox(label="join")
            nested_scope = Scope(scope.outer)
            self._add_join(item, nested, nested_scope)
            bindings_out: list[tuple[str, Optional[dict[str, str]]]] = []
            used: set[str] = set()
            for binding_name, binding in nested_scope.bindings.items():
                new_map: dict[str, str] = {}
                for source_name in (binding.column_map or
                                    {c.name.upper(): c.name
                                     for c in binding.quantifier.box.head}):
                    head_in_child = binding.head_name(source_name)
                    out_name = head_in_child
                    if out_name.upper() in used:
                        out_name = f"{binding_name}_{out_name}"
                    used.add(out_name.upper())
                    nested.head.append(
                        HeadColumn(out_name,
                                   QRef(binding.quantifier, head_in_child))
                    )
                    new_map[source_name.upper()] = out_name
                bindings_out.append((binding_name, new_map))
            return nested, bindings_out
        raise SemanticError(f"unsupported FROM item {item!r}")

    def _resolve_table(self, name: str) -> Box:
        """A FROM-clause name: base table, SQL view, or XNF component."""
        if "." in name:
            view_name, component = name.split(".", 1)
            if self.xnf_component_resolver is None:
                raise SemanticError(
                    f"cannot resolve XNF component reference {name!r}"
                )
            return self.xnf_component_resolver(view_name, component)
        key = name.upper()
        if self.catalog.has_table(name):
            box = self._base_boxes.get(key)
            if box is None:
                box = BaseBox(self.catalog.table(name))
                self._base_boxes[key] = box
            return box
        if self.catalog.has_view(name):
            view = self.catalog.view(name)
            if view.is_xnf:
                raise SemanticError(
                    f"XNF view {name!r} cannot appear directly in FROM; "
                    f"reference one of its components as {name}.component"
                )
            box = self._view_boxes.get(key)
            if box is None:
                box = self._build_view(view)
                self._view_boxes[key] = box
            return box
        raise SemanticError(f"unknown table or view {name!r}")

    def _build_view(self, view: ViewDefinition) -> Box:
        box = self._build_select(view.definition, None)
        if view.column_names:
            if len(view.column_names) != len(box.head):
                raise SemanticError(
                    f"view {view.name!r} declares {len(view.column_names)} "
                    f"columns but its query produces {len(box.head)}"
                )
            for column, new_name in zip(box.head, view.column_names):
                column.name = new_name
        box.label = view.name
        if isinstance(box, SelectBox):
            # Mark for the ViewMerge rule: shared references to a SQL
            # view may be cloned apart so each consumer specializes.
            box.from_view = view.name
        return box

    # ------------------------------------------------------------------
    # Heads
    # ------------------------------------------------------------------
    def _build_plain_head(self, statement: ast.SelectStatement,
                          box: SelectBox, scope: Scope) -> None:
        head: list[HeadColumn] = []
        for item in statement.select_items:
            if isinstance(item.expression, ast.Star):
                for name, resolved in self._expand_star(item.expression,
                                                        scope):
                    head.append(HeadColumn(unique_head_name_in(head, name),
                                           resolved))
                continue
            name = item.alias or self._default_name(item.expression,
                                                    len(head))
            resolved = self._resolve(item.expression, scope, box)
            head.append(HeadColumn(unique_head_name_in(head, name), resolved))
        if not head:
            raise SemanticError("empty select list")
        box.head = head

    def _expand_star(self, star: ast.Star,
                     scope: Scope) -> list[tuple[str, ast.Expression]]:
        if star.table is not None:
            binding = scope.bindings.get(star.table.upper())
            if binding is None:
                raise SemanticError(f"unknown table in {star.table}.*")
            selected = {star.table.upper(): binding}
        else:
            selected = scope.bindings
        pairs: list[tuple[str, ast.Expression]] = []
        for binding in selected.values():
            for head_name in binding.visible_columns():
                if head_name.startswith("$"):
                    continue  # hidden system columns never expand via *
                pairs.append((head_name,
                              QRef(binding.quantifier, head_name)))
        return pairs

    @staticmethod
    def _default_name(expression: ast.Expression, position: int) -> str:
        if isinstance(expression, ast.ColumnRef):
            return expression.column
        if isinstance(expression, ast.FunctionCall):
            return expression.name
        return f"C{position + 1}"

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    def _build_grouped(self, statement: ast.SelectStatement,
                       lower: SelectBox, scope: Scope) -> Box:
        """Build the SelectBox -> GroupByBox -> SelectBox sandwich."""
        if statement.having is not None and \
                contains_subquery(statement.having):
            raise SemanticError("subqueries in HAVING are not supported")
        groupby = GroupByBox(label="gby")
        input_q = Quantifier(lower, Quantifier.F, name="gin")
        groupby.input = input_q
        exporter = Exporter(lower, input_q)
        lower.head = []

        key_columns: list[tuple[ast.Expression, str]] = []
        for position, key_ast in enumerate(statement.group_by):
            resolved = self._resolve(key_ast, scope, lower)
            exported = exporter.export(resolved)
            name = (key_ast.column if isinstance(key_ast, ast.ColumnRef)
                    else f"GK{position + 1}")
            name = unique_head_name(groupby, name)
            groupby.head.append(HeadColumn(name, exported))
            groupby.group_keys.append(exported)
            key_columns.append((resolved, name))

        aggregate_asts: list[ast.FunctionCall] = []
        sources: list[ast.Expression] = [
            i.expression for i in statement.select_items
            if not isinstance(i.expression, ast.Star)
        ]
        if statement.having is not None:
            sources.append(statement.having)
        for source in sources:
            for node in ast.walk_expression(source):
                if isinstance(node, ast.FunctionCall) \
                        and node.name.upper() in AGGREGATE_NAMES \
                        and node not in aggregate_asts:
                    aggregate_asts.append(node)

        aggregate_columns: list[tuple[ast.FunctionCall, str]] = []
        for position, call in enumerate(aggregate_asts):
            name = unique_head_name(groupby,
                                    f"{call.name.upper()}{position + 1}")
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                spec = AggregateSpec(call.name.upper(), None, call.distinct)
            else:
                resolved = self._resolve(call.args[0], scope, lower)
                spec = AggregateSpec(call.name.upper(),
                                     exporter.export(resolved), call.distinct)
            groupby.head.append(HeadColumn(name, None))
            groupby.aggregates[name] = spec
            aggregate_columns.append((call, name))

        upper = SelectBox(label="having")
        group_q = upper.add_quantifier(Quantifier(groupby, Quantifier.F,
                                                  name="g"))

        def to_upper(expression: ast.Expression) -> ast.Expression:
            return self._resolve_grouped(expression, scope, lower,
                                         key_columns, aggregate_columns,
                                         group_q)

        head: list[HeadColumn] = []
        for item in statement.select_items:
            if isinstance(item.expression, ast.Star):
                if statement.group_by:
                    for _resolved, name in key_columns:
                        head.append(HeadColumn(
                            unique_head_name_in(head, name),
                            QRef(group_q, name),
                        ))
                    continue
                raise SemanticError(
                    "SELECT * with aggregation requires GROUP BY"
                )
            name = item.alias or self._default_name(item.expression, len(head))
            head.append(HeadColumn(unique_head_name_in(head, name),
                                   to_upper(item.expression)))
        upper.head = head
        if statement.having is not None:
            upper.predicates.extend(
                self._split_conjuncts(to_upper(statement.having))
            )
        upper.distinct = statement.distinct
        return upper

    def _resolve_grouped(self, expression: ast.Expression, scope: Scope,
                         lower: SelectBox,
                         key_columns: list[tuple[ast.Expression, str]],
                         aggregate_columns: list[tuple[ast.FunctionCall, str]],
                         group_q: Quantifier) -> ast.Expression:
        """Resolve an upper-block expression: aggregates and group keys
        become references to the group-by box's head."""
        pairs: list[tuple[ast.Expression, ast.Expression]] = [
            (call, QRef(group_q, name)) for call, name in aggregate_columns
        ]
        substituted = substitute_subtrees(expression, pairs)
        resolved = self._resolve(substituted, scope, lower)
        key_pairs: list[tuple[ast.Expression, ast.Expression]] = [
            (resolved_key, QRef(group_q, name))
            for resolved_key, name in key_columns
        ]
        final = substitute_subtrees(resolved, key_pairs)
        for quantifier in quantifiers_in(final):
            if quantifier in lower.body_quantifiers:
                raise SemanticError(
                    "column must appear in GROUP BY or inside an aggregate"
                )
        return final

    # ------------------------------------------------------------------
    # Expression resolution
    # ------------------------------------------------------------------
    def _resolve(self, expression: ast.Expression, scope: Scope,
                 box: SelectBox) -> ast.Expression:
        if isinstance(expression, (QRef, RidRef)):
            return expression
        if isinstance(expression, (ast.Literal, ast.Parameter)):
            return expression
        if isinstance(expression, ast.ColumnRef):
            if expression.table is not None:
                return scope.resolve_qualified(expression.table,
                                               expression.column)
            return scope.resolve_unqualified(expression.column)
        if isinstance(expression, ast.Star):
            raise SemanticError("'*' is only allowed in select lists "
                                "and COUNT(*)")
        if isinstance(expression, ast.BinaryOp):
            return ast.BinaryOp(expression.op,
                                self._resolve(expression.left, scope, box),
                                self._resolve(expression.right, scope, box))
        if isinstance(expression, ast.UnaryOp):
            return ast.UnaryOp(expression.op,
                               self._resolve(expression.operand, scope, box))
        if isinstance(expression, ast.FunctionCall):
            if expression.name.upper() in AGGREGATE_NAMES:
                raise SemanticError(
                    f"aggregate {expression.name} not allowed here"
                )
            return ast.FunctionCall(
                expression.name.upper(),
                tuple(self._resolve(a, scope, box) for a in expression.args),
                expression.distinct,
            )
        if isinstance(expression, ast.IsNull):
            return ast.IsNull(self._resolve(expression.operand, scope, box),
                              expression.negated)
        if isinstance(expression, ast.Between):
            return ast.Between(self._resolve(expression.operand, scope, box),
                               self._resolve(expression.low, scope, box),
                               self._resolve(expression.high, scope, box),
                               expression.negated)
        if isinstance(expression, ast.Like):
            return ast.Like(self._resolve(expression.operand, scope, box),
                            self._resolve(expression.pattern, scope, box),
                            expression.negated)
        if isinstance(expression, ast.InList):
            return ast.InList(
                self._resolve(expression.operand, scope, box),
                tuple(self._resolve(i, scope, box) for i in expression.items),
                expression.negated,
            )
        if isinstance(expression, ast.CaseWhen):
            return ast.CaseWhen(
                tuple((self._resolve(c, scope, box),
                       self._resolve(r, scope, box))
                      for c, r in expression.whens),
                None if expression.default is None
                else self._resolve(expression.default, scope, box),
            )
        if isinstance(expression, ast.Exists):
            return self._resolve_exists(expression, scope, box)
        if isinstance(expression, ast.InSubquery):
            return self._resolve_in_subquery(expression, scope, box)
        if isinstance(expression, ast.ScalarSubquery):
            return self._resolve_scalar_subquery(expression, scope, box)
        raise SemanticError(f"cannot resolve expression {expression!r}")

    def _resolve_exists(self, expression: ast.Exists, scope: Scope,
                        box: SelectBox) -> ast.Expression:
        """EXISTS -> E quantifier (NOT EXISTS -> A), decorrelated.

        Returns Literal(True): the quantifier itself carries the
        semantics; correlated predicates move into the enclosing box.
        This matches Fig. 3a, where the subquery box hangs off the outer
        box through an existential quantifier.
        """
        qtype = Quantifier.A if expression.negated else Quantifier.E
        self._attach_subquery(expression.subquery, scope, box, qtype)
        return ast.Literal(True)

    def _resolve_in_subquery(self, expression: ast.InSubquery, scope: Scope,
                             box: SelectBox) -> ast.Expression:
        operand = self._resolve(expression.operand, scope, box)
        qtype = Quantifier.A if expression.negated else Quantifier.E
        quantifier = self._attach_subquery(expression.subquery, scope, box,
                                           qtype)
        if len(quantifier.box.head) != 1:
            raise SemanticError("IN subquery must produce exactly one column")
        match = ast.BinaryOp("=", operand,
                             QRef(quantifier, quantifier.box.head[0].name))
        box.predicates.append(match)
        if expression.negated:
            quantifier.null_poison = True
        return ast.Literal(True)

    def _attach_subquery(self, subquery: ast.SelectStatement, scope: Scope,
                         box: SelectBox, qtype: str) -> Quantifier:
        inner = self._build_select(subquery, scope)
        if not isinstance(inner, SelectBox):
            inner = self._wrap_in_select(inner)
        quantifier = box.add_quantifier(Quantifier(inner, qtype, name="sq"))
        self._decorrelate(inner, quantifier, box)
        return quantifier

    def _decorrelate(self, inner: SelectBox, quantifier: Quantifier,
                     outer: SelectBox) -> None:
        """Pull predicates referencing outer quantifiers up into ``outer``.

        Inner-side references inside pulled predicates are exported
        through the inner box's head.
        """
        inner_quantifiers = set(inner.body_quantifiers)
        exporter = Exporter(inner, quantifier)
        remaining: list[ast.Expression] = []
        for predicate in inner.predicates:
            referenced = quantifiers_in(predicate)
            if referenced and not referenced <= inner_quantifiers:
                def mapping(leaf, _inner=inner_quantifiers, _exp=exporter):
                    target = (leaf.quantifier
                              if isinstance(leaf, (QRef, RidRef)) else None)
                    if target is not None and target in _inner:
                        return _exp.export(leaf)
                    return leaf
                outer.predicates.append(replace_qrefs(predicate, mapping))
            else:
                remaining.append(predicate)
        inner.predicates = remaining

    def _resolve_scalar_subquery(self, expression: ast.ScalarSubquery,
                                 scope: Scope,
                                 box: SelectBox) -> ast.Expression:
        inner = self._build_select(expression.subquery, scope)
        if len(inner.head) != 1:
            raise SemanticError(
                "scalar subquery must produce exactly one column"
            )
        # Correlation is allowed against the immediately enclosing query
        # block only: the ScalarAggToJoin rule decorrelates the common
        # aggregate shape into a group-by join, and anything it cannot
        # handle falls back to per-binding nested re-execution in the
        # planner — both assume the outer references resolve in the
        # block that owns the S quantifier.
        outer_refs = subgraph_outer_refs(inner)
        local = {binding.quantifier for binding in scope.local_bindings()}
        if any(ref not in local for ref in outer_refs):
            raise SemanticError(
                "correlated scalar subqueries may only reference the "
                "immediately enclosing query block"
            )
        quantifier = box.add_quantifier(Quantifier(inner, Quantifier.S,
                                                   name="ssq"))
        return QRef(quantifier, inner.head[0].name)

    @staticmethod
    def _split_conjuncts(predicate: ast.Expression) -> list[ast.Expression]:
        parts = ast.conjuncts(predicate)
        # Literal TRUE conjuncts appear where subqueries were detached.
        return [p for p in parts if p != ast.Literal(True)]

    # ------------------------------------------------------------------
    # XNF (Sect. 4.1)
    # ------------------------------------------------------------------
    def _build_xnf_box(self, query: ast.XNFQuery, view_name: str) -> XNFBox:
        # Phase 0: QGM initialization.
        xnf = XNFBox(label=view_name)
        names_seen: set[str] = set()
        for definition in query.definitions:
            if definition.name.upper() in names_seen:
                raise SemanticError(
                    f"duplicate XNF definition {definition.name!r}"
                )
            names_seen.add(definition.name.upper())

        # Phase 1a: derivation of XNF component tables.
        for component in query.components:
            box = self._build_select(component.query, None)
            if not isinstance(box, SelectBox):
                # Set-operation (or other non-select) derivations get a
                # select wrapper so identity installation and
                # relationship quantifiers have a uniform shape.
                box = self._wrap_in_select(box)
            box.label = component.name
            xnf.components[component.name.upper()] = XNFComponent(
                name=component.name.upper(), box=box
            )

        # Phase 1b: derivation of XNF relationships.
        for relationship in query.relationships:
            xnf.relationships[relationship.name.upper()] = \
                self._build_relationship(relationship, xnf)

        # Phase 2: reachability flags — roots are components no
        # relationship points at; everything else must be reachable.
        targeted = {
            child for rel in xnf.relationships.values()
            for child in rel.children
        }
        any_root = False
        for name, component in xnf.components.items():
            component.is_root = name not in targeted
            component.reachability_required = not component.is_root
            any_root = any_root or component.is_root
        if not any_root and xnf.components:
            # Pure cycle (recursive CO): the first-defined component
            # anchors the fixpoint (documented convention).
            first = next(iter(xnf.components.values()))
            first.is_root = True
            first.reachability_required = False

        # Phase 3: projection (TAKE).
        xnf.take_all = query.take_all
        if not query.take_all:
            for item in query.take_items:
                key = item.name.upper()
                if key not in xnf.components and key not in xnf.relationships:
                    raise SemanticError(
                        f"TAKE references unknown element {item.name!r}"
                    )
                xnf.take_items.append(item)
        return xnf

    def _build_relationship(self, definition: ast.XNFRelationshipDef,
                            xnf: XNFBox) -> XNFRelationship:
        parent_key = definition.parent.upper()
        if parent_key not in xnf.components:
            raise SemanticError(
                f"relationship {definition.name!r}: unknown parent "
                f"component {definition.parent!r}"
            )
        child_keys: list[str] = []
        for child in definition.children:
            key = child.upper()
            if key not in xnf.components:
                raise SemanticError(
                    f"relationship {definition.name!r}: unknown child "
                    f"component {child!r}"
                )
            child_keys.append(key)

        parent_q = Quantifier(xnf.components[parent_key].box, Quantifier.F,
                              name=definition.parent)
        child_qs = tuple(
            Quantifier(xnf.components[key].box, Quantifier.F, name=child)
            for key, child in zip(child_keys, definition.children)
        )
        using_qs = []
        scope = Scope()
        # The VIA role names the *parent* partner (Sect. 2: "we have
        # given role names to the parent partners").  For self-loop
        # relationships (recursive COs) the role is the only way to
        # address the parent side, the component name addressing the
        # child side.
        child_names = {c.upper() for c in definition.children}
        if definition.parent.upper() not in child_names:
            scope.bind(definition.parent, parent_q)
        if definition.role.upper() not in child_names \
                and definition.role.upper() != definition.parent.upper():
            scope.bind(definition.role, parent_q)
        for quantifier, child in zip(child_qs, definition.children):
            scope.bind(child, quantifier)
        for table_ref in definition.using:
            using_box = self._resolve_table(table_ref.name)
            quantifier = Quantifier(using_box, Quantifier.F,
                                    name=table_ref.binding)
            using_qs.append(quantifier)
            scope.bind(table_ref.binding, quantifier)

        predicate = None
        if definition.where is not None:
            scratch = SelectBox("rel_scratch")
            predicate = self._resolve(definition.where, scope, scratch)
            if scratch.body_quantifiers:
                raise SemanticError(
                    "subqueries are not supported in RELATE predicates"
                )
        attributes: list[tuple[str, ast.Expression]] = []
        used_names: set[str] = set()
        for position, item in enumerate(definition.attributes):
            scratch = SelectBox("rel_attr_scratch")
            resolved = self._resolve(item.expression, scope, scratch)
            if scratch.body_quantifiers:
                raise SemanticError(
                    "subqueries are not supported in relationship "
                    "attributes"
                )
            name = (item.alias or self._default_name(
                item.expression, position)).upper()
            if name in used_names:
                raise SemanticError(
                    f"duplicate relationship attribute {name!r}"
                )
            used_names.add(name)
            attributes.append((name, resolved))
        return XNFRelationship(
            name=definition.name.upper(),
            role=definition.role.upper(),
            parent=parent_key,
            children=tuple(child_keys),
            parent_quantifier=parent_q,
            child_quantifiers=child_qs,
            using_quantifiers=tuple(using_qs),
            predicate=predicate,
            attributes=tuple(attributes),
        )


def unique_head_name_in(head: list[HeadColumn], base: str) -> str:
    existing = {c.name.upper() for c in head}
    if base.upper() not in existing:
        return base
    suffix = 2
    while f"{base}_{suffix}".upper() in existing:
        suffix += 1
    return f"{base}_{suffix}"
