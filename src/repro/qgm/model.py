"""The Query Graph Model (QGM).

QGM is Starburst's internal query representation (Sect. 3.2): "queries
are represented as a series of high level operators ... on either base
tables or derived tables.  An operator consists of a head and a body: the
head describes the output table and the body shows how this table has to
be derived from other tables the body refers to."

We model that directly:

* :class:`Box` subclasses are the operators (base table, select,
  group-by, set operation, the XNF operator, and TOP).
* A box's **head** is a list of :class:`HeadColumn` (name + expression
  over the body).
* A box's **body** contains :class:`Quantifier` objects ranging over
  other boxes, plus predicates.  Quantifier types follow Starburst:
  ``F`` (ForEach — contributes rows), ``E`` (existential — semi-join
  semantics), ``A`` (anti — NOT EXISTS semantics), ``S`` (scalar
  subquery).  All E quantifiers of a box are *jointly* existential: a
  candidate row qualifies when one assignment to all E quantifiers
  satisfies every predicate mentioning them.

Expressions inside QGM reuse the AST node classes from
:mod:`repro.sql.ast` with two additional leaf kinds defined here:
:class:`QRef` (a resolved reference to a quantifier's head column) and
:class:`RidRef` (the row identifier of a base-table quantifier, used to
give composite-object tuples stable identities).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import RewriteError, SemanticError
from repro.sql import ast
from repro.storage.table import Table

_box_counter = itertools.count(1)
_quantifier_counter = itertools.count(1)


# ----------------------------------------------------------------------
# QGM expression leaves
# ----------------------------------------------------------------------
class QRef(ast.Expression):
    """A resolved column reference: quantifier + head column name."""

    __slots__ = ("quantifier", "column")

    def __init__(self, quantifier: "Quantifier", column: str):
        self.quantifier = quantifier
        self.column = column

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QRef)
                and other.quantifier is self.quantifier
                and other.column == self.column)

    def __hash__(self) -> int:
        return hash((id(self.quantifier), self.column))

    def __str__(self) -> str:
        return f"{self.quantifier.name}.{self.column}"

    def __repr__(self) -> str:
        return f"QRef({self.quantifier.name}.{self.column})"


class RidRef(ast.Expression):
    """The storage RID of the current row of a base-table quantifier.

    Only valid when the quantifier ranges over a :class:`BaseBox`; used
    for composite-object tuple identity (Sect. 5: "each tuple has a
    (system generated) identifier").
    """

    __slots__ = ("quantifier",)

    def __init__(self, quantifier: "Quantifier"):
        self.quantifier = quantifier

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RidRef) and other.quantifier is self.quantifier

    def __hash__(self) -> int:
        return hash(("rid", id(self.quantifier)))

    def __str__(self) -> str:
        return f"RID({self.quantifier.name})"


def walk_qgm_expression(expr: ast.Expression) -> Iterator[ast.Expression]:
    """Depth-first walk that understands QRef/RidRef leaves."""
    if isinstance(expr, (QRef, RidRef)):
        yield expr
        return
    yield from ast.walk_expression(expr)


def quantifiers_in(expr: ast.Expression) -> set["Quantifier"]:
    """All quantifiers referenced by an expression."""
    found: set[Quantifier] = set()
    for node in walk_qgm_expression(expr):
        if isinstance(node, QRef):
            found.add(node.quantifier)
        elif isinstance(node, RidRef):
            found.add(node.quantifier)
    return found


def box_expressions(box: "Box") -> Iterator[ast.Expression]:
    """Every expression a box owns: head, predicates, keys, conditions.

    The traversal the planner and rewrite rules use to find stray
    references (correlation, substitution targets) without knowing each
    box kind's slots.
    """
    for column in box.head:
        if column.expression is not None:
            yield column.expression
    if isinstance(box, SelectBox):
        yield from box.predicates
        for expression, _desc in box.order_by:
            yield expression
    elif isinstance(box, GroupByBox):
        yield from box.group_keys
        for spec in box.aggregates.values():
            if spec.argument is not None:
                yield spec.argument
    elif isinstance(box, OuterJoinBox):
        if box.condition is not None:
            yield box.condition
    elif isinstance(box, XNFBox):
        for relationship in box.relationships.values():
            if relationship.predicate is not None:
                yield relationship.predicate
            for _name, expression in relationship.attributes:
                yield expression


def rewrite_box_expressions(box: "Box", transform) -> None:
    """Apply ``transform(expression) -> expression`` to every
    expression slot of ``box``, in place.

    The write-side counterpart of :func:`box_expressions`: rewrite
    rules and the planner use it to substitute or parameterize
    references without each re-enumerating the box kinds (and missing
    one — OuterJoinBox conditions, say).
    """
    for column in box.head:
        if column.expression is not None:
            column.expression = transform(column.expression)
    if isinstance(box, SelectBox):
        box.predicates = [transform(p) for p in box.predicates]
        box.order_by = [(transform(e), d) for e, d in box.order_by]
    elif isinstance(box, GroupByBox):
        box.group_keys = [transform(k) for k in box.group_keys]
        for spec in box.aggregates.values():
            if spec.argument is not None:
                spec.argument = transform(spec.argument)
    elif isinstance(box, OuterJoinBox):
        if box.condition is not None:
            box.condition = transform(box.condition)
    elif isinstance(box, XNFBox):
        for relationship in box.relationships.values():
            if relationship.predicate is not None:
                relationship.predicate = transform(relationship.predicate)
            relationship.attributes = tuple(
                (name, transform(expression))
                for name, expression in relationship.attributes
            )


def subgraph_outer_leaves(box: "Box") -> list[ast.Expression]:
    """Ordered, de-duplicated QRef/RidRef leaves below ``box`` whose
    quantifier is bound outside the subgraph — the correlation leaves
    of a subquery.  One traversal shared by builder validation,
    decorrelation, and the planner's nested-execution fallback, so
    correlation detection cannot drift between them."""
    owned: set[Quantifier] = set()
    boxes: list[Box] = []
    seen: set[int] = set()

    def visit(current: Box) -> None:
        if current.box_id in seen:
            return
        seen.add(current.box_id)
        boxes.append(current)
        for quantifier in current.quantifiers():
            owned.add(quantifier)
            visit(quantifier.box)

    visit(box)
    leaves: list[ast.Expression] = []
    keyed: set = set()
    for current in boxes:
        for expression in box_expressions(current):
            for node in walk_qgm_expression(expression):
                if not isinstance(node, (QRef, RidRef)):
                    continue
                if node.quantifier in owned:
                    continue
                key = (node.quantifier.qid,
                       getattr(node, "column", "$RID$"))
                if key in keyed:
                    continue
                keyed.add(key)
                leaves.append(node)
    return leaves


def subgraph_outer_refs(box: "Box") -> set["Quantifier"]:
    """Quantifiers referenced below ``box`` but quantified elsewhere —
    the correlation set of a subquery subgraph."""
    return {leaf.quantifier for leaf in subgraph_outer_leaves(box)}


def replace_qrefs(expr: ast.Expression, mapping) -> ast.Expression:
    """Rebuild ``expr`` with each QRef/RidRef passed through ``mapping``.

    ``mapping(leaf)`` returns a replacement expression or the leaf itself.
    Non-leaf AST nodes are reconstructed structurally.
    """
    if isinstance(expr, (QRef, RidRef)):
        return mapping(expr)
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, replace_qrefs(expr.left, mapping),
                            replace_qrefs(expr.right, mapping))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, replace_qrefs(expr.operand, mapping))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(replace_qrefs(a, mapping) for a in expr.args),
            expr.distinct,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(replace_qrefs(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(replace_qrefs(expr.operand, mapping),
                           replace_qrefs(expr.low, mapping),
                           replace_qrefs(expr.high, mapping), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(replace_qrefs(expr.operand, mapping),
                        replace_qrefs(expr.pattern, mapping), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(replace_qrefs(expr.operand, mapping),
                          tuple(replace_qrefs(i, mapping) for i in expr.items),
                          expr.negated)
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple((replace_qrefs(c, mapping), replace_qrefs(r, mapping))
                  for c, r in expr.whens),
            None if expr.default is None
            else replace_qrefs(expr.default, mapping),
        )
    return expr


def trace_column(box: "Box", column: str):
    """Provenance walk: follow a head column's QRef chain down the box
    tree to the stored base column it denotes.

    Returns ``(quantifier, base_column)`` where ``quantifier`` is the
    *immediate* body quantifier of ``box`` whose subtree stores the
    column, or ``None`` when the column is computed (any non-QRef
    expression on the way down) — the view-update layer's criterion for
    "traces to a unique base column".
    """
    upper = column.upper()
    if not box.has_head_column(upper):
        return None
    expression = box.head_column(upper).expression
    if not isinstance(expression, QRef):
        return None
    quantifier = expression.quantifier
    inner = quantifier.box
    if isinstance(inner, BaseBox):
        return quantifier, expression.column.upper()
    traced = trace_column(inner, expression.column)
    if traced is None:
        return None
    return quantifier, traced[1]


# ----------------------------------------------------------------------
# Heads, quantifiers, boxes
# ----------------------------------------------------------------------
@dataclass
class HeadColumn:
    """One output column of a box: a name and its defining expression.

    For :class:`BaseBox` the expression is None — values come straight
    from storage.
    """

    name: str
    expression: Optional[ast.Expression] = None


class Quantifier:
    """A body element ranging over another box."""

    F = "F"
    E = "E"
    A = "A"
    S = "S"

    def __init__(self, box: "Box", qtype: str = "F",
                 name: Optional[str] = None):
        if qtype not in (self.F, self.E, self.A, self.S):
            raise RewriteError(f"unknown quantifier type {qtype!r}")
        self.qid = next(_quantifier_counter)
        self.box = box
        self.qtype = qtype
        self.name = name or f"q{self.qid}"
        #: NOT IN semantics: an UNKNOWN match poisons the anti-join
        #: (row rejected), unlike NOT EXISTS where UNKNOWN is a non-match.
        self.null_poison = False
        #: For correlated scalar (S) quantifiers the planner could not
        #: decorrelate: ``((slot_name, outer_expression), ...)`` pairs.
        #: At run time the outer expressions are evaluated against the
        #: current row and bound to the named parameter slots before the
        #: subquery plan executes (see ExecutionContext.correlated_scalar).
        self.correlation: tuple = ()

    def ref(self, column: str) -> QRef:
        """Build a QRef to one of this quantifier's box head columns."""
        if not self.box.has_head_column(column):
            raise SemanticError(
                f"box {self.box.label!r} has no output column {column!r}"
            )
        return QRef(self, column)

    def __repr__(self) -> str:
        return f"<Q{self.qid} {self.qtype} {self.name} over {self.box.label}>"


class Box:
    """Base class for QGM operators."""

    kind = "box"

    def __init__(self, label: str = ""):
        self.box_id = next(_box_counter)
        self.label = label or f"box{self.box_id}"
        self.head: list[HeadColumn] = []

    # -- head helpers ---------------------------------------------------
    def head_names(self) -> list[str]:
        return [c.name for c in self.head]

    def has_head_column(self, name: str) -> bool:
        upper = name.upper()
        return any(c.name.upper() == upper for c in self.head)

    def head_column(self, name: str) -> HeadColumn:
        upper = name.upper()
        for column in self.head:
            if column.name.upper() == upper:
                return column
        raise SemanticError(f"box {self.label!r} has no column {name!r}")

    def head_position(self, name: str) -> int:
        upper = name.upper()
        for i, column in enumerate(self.head):
            if column.name.upper() == upper:
                return i
        raise SemanticError(f"box {self.label!r} has no column {name!r}")

    # -- graph traversal --------------------------------------------------
    def child_boxes(self) -> list["Box"]:
        """Boxes this box's body ranges over (dedup, in first-use order)."""
        seen: list[Box] = []
        for quantifier in self.quantifiers():
            if quantifier.box not in seen:
                seen.append(quantifier.box)
        return seen

    def quantifiers(self) -> list[Quantifier]:
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class BaseBox(Box):
    """A stored base table."""

    kind = "base"

    def __init__(self, table: Table):
        super().__init__(label=table.name)
        self.table = table
        self.head = [HeadColumn(c.name) for c in table.columns]


class SelectBox(Box):
    """Select-project-join: the workhorse operator.

    ``predicates`` are conjuncts.  ``distinct`` enforces set semantics on
    the head.  ``order_by``/``limit``/``offset`` are presentation
    properties honoured when this box feeds TOP.
    """

    kind = "select"

    def __init__(self, label: str = ""):
        super().__init__(label)
        self.body_quantifiers: list[Quantifier] = []
        self.predicates: list[ast.Expression] = []
        self.distinct = False
        self.order_by: list[tuple[ast.Expression, bool]] = []  # (expr, desc)
        self.limit: Optional[int] = None
        self.offset: Optional[int] = None
        #: Name of the SQL view this box was inlined from (set by the
        #: QGM builder); the ViewMerge rule clones shared view boxes so
        #: each consumer can merge and specialize its own copy.
        self.from_view: Optional[str] = None

    def quantifiers(self) -> list[Quantifier]:
        return list(self.body_quantifiers)

    def add_quantifier(self, quantifier: Quantifier) -> Quantifier:
        self.body_quantifiers.append(quantifier)
        return quantifier

    def remove_quantifier(self, quantifier: Quantifier) -> None:
        self.body_quantifiers.remove(quantifier)

    def foreach_quantifiers(self) -> list[Quantifier]:
        return [q for q in self.body_quantifiers if q.qtype == Quantifier.F]

    def existential_quantifiers(self) -> list[Quantifier]:
        return [q for q in self.body_quantifiers if q.qtype == Quantifier.E]

    def local_predicates_of(self, quantifier: Quantifier) -> list[ast.Expression]:
        """Predicates mentioning only ``quantifier``."""
        return [p for p in self.predicates
                if quantifiers_in(p) == {quantifier}]

    def join_predicates(self) -> list[ast.Expression]:
        """Predicates mentioning two or more quantifiers."""
        return [p for p in self.predicates if len(quantifiers_in(p)) > 1]


@dataclass
class AggregateSpec:
    """One aggregate in a GROUP BY head: function, argument, DISTINCT."""

    function: str  # COUNT/SUM/AVG/MIN/MAX
    argument: Optional[ast.Expression]  # None means COUNT(*)
    distinct: bool = False


class GroupByBox(Box):
    """Grouping and aggregation over a single input quantifier."""

    kind = "groupby"

    def __init__(self, label: str = ""):
        super().__init__(label)
        self.input: Optional[Quantifier] = None
        self.group_keys: list[ast.Expression] = []
        #: Parallel to head: for aggregate head columns, the spec; for
        #: group-key head columns, None (their expression is in head).
        self.aggregates: dict[str, AggregateSpec] = {}

    def quantifiers(self) -> list[Quantifier]:
        return [self.input] if self.input is not None else []


class SetOpBox(Box):
    """UNION / INTERSECT / EXCEPT over two inputs."""

    kind = "setop"

    def __init__(self, operator: str, all_rows: bool, label: str = ""):
        super().__init__(label)
        if operator not in ("UNION", "INTERSECT", "EXCEPT"):
            raise RewriteError(f"unknown set operator {operator!r}")
        self.operator = operator
        self.all_rows = all_rows
        self.inputs: list[Quantifier] = []

    def quantifiers(self) -> list[Quantifier]:
        return list(self.inputs)


class OuterJoinBox(Box):
    """LEFT OUTER JOIN of exactly two inputs.

    Kept as its own box kind because outer joins do not commute with the
    select-merge and pushdown rules; the rewrite engine leaves these
    boxes alone and the planner compiles them directly.
    """

    kind = "outerjoin"

    def __init__(self, left: Quantifier, right: Quantifier,
                 condition: Optional[ast.Expression], label: str = ""):
        super().__init__(label or "LOJ")
        self.left = left
        self.right = right
        self.condition = condition

    def quantifiers(self) -> list[Quantifier]:
        return [self.left, self.right]


@dataclass
class XNFRelationship:
    """A relationship inside the XNF operator (Sect. 4.1 phase 1).

    ``predicate`` references the quantifiers in ``parent_quantifier``,
    ``child_quantifiers`` and ``using_quantifiers``, which range over the
    component boxes / USING base boxes.
    """

    name: str
    role: str
    parent: str
    children: tuple[str, ...]
    parent_quantifier: Quantifier = None
    child_quantifiers: tuple[Quantifier, ...] = ()
    using_quantifiers: tuple[Quantifier, ...] = ()
    predicate: Optional[ast.Expression] = None
    #: Resolved relationship attributes: (name, expression) pairs.
    attributes: tuple[tuple[str, ast.Expression], ...] = ()


@dataclass
class XNFComponent:
    """A component table inside the XNF operator."""

    name: str
    box: Box
    is_root: bool = False
    #: 'R' flag of Fig. 4: must this component be restricted to reachable
    #: tuples?  Defaults to True for all non-root components (Sect. 4.1
    #: phase 2: "we assumed that reachability for all non-root components
    #: is defined as default").
    reachability_required: bool = True


class XNFBox(Box):
    """The XNF operator: n input tables, m output tables (Sect. 4.1).

    The body holds the component derivations and relationship
    definitions; the head is the *set* of output tables (one per TAKEn
    component/relationship), which is why this box cannot survive into NF
    QGM and is removed by XNF semantic rewrite.
    """

    kind = "xnf"

    def __init__(self, label: str = "XNF"):
        super().__init__(label)
        self.components: dict[str, XNFComponent] = {}
        self.relationships: dict[str, XNFRelationship] = {}
        self.take_all = True
        self.take_items: list[ast.TakeItem] = []

    def quantifiers(self) -> list[Quantifier]:
        result: list[Quantifier] = []
        for relationship in self.relationships.values():
            result.append(relationship.parent_quantifier)
            result.extend(relationship.child_quantifiers)
            result.extend(relationship.using_quantifiers)
        return [q for q in result if q is not None]

    def root_components(self) -> list[str]:
        return [name for name, c in self.components.items() if c.is_root]


@dataclass
class OutputStream:
    """One result stream of the TOP operator.

    SQL queries have exactly one stream; XNF queries have one per TAKEn
    component and relationship.  ``component_number`` is the tag carried
    by every tuple of the heterogeneous result (Sect. 5).
    """

    name: str
    box: Box
    stream_kind: str = "table"  # 'table' | 'component' | 'relationship'
    component_number: int = 0
    #: For relationship streams: (parent stream name, child stream names,
    #: role) — the cache uses these to swizzle connections.
    parent: Optional[str] = None
    children: tuple[str, ...] = ()
    role: Optional[str] = None
    #: Head column names holding partner identities, for relationship
    #: streams: first the parent identity column, then one per child.
    identity_columns: tuple[str, ...] = ()
    #: For relationship streams: names of attribute columns following
    #: the identity columns.
    attribute_names: tuple[str, ...] = ()
    #: For component streams: position of the identity ($oid) column.
    identity_position: Optional[int] = None
    #: Set when this component stream also carries its parent's identity
    #: (relationship output optimization, Sect. 4.2 footnote).
    embedded_parent: Optional[tuple[str, str, int]] = None  # (rel, parent, pos)


class TopBox(Box):
    """The TOP operator: "the interface between the query processor and
    the application program.  Each QGM graph has a single top operator."
    """

    kind = "top"

    def __init__(self):
        super().__init__(label="TOP")
        self.outputs: list[OutputStream] = []

    def quantifiers(self) -> list[Quantifier]:
        return []

    def child_boxes(self) -> list[Box]:
        seen: list[Box] = []
        for output in self.outputs:
            if output.box not in seen:
                seen.append(output.box)
        return seen

    def single_output(self) -> OutputStream:
        if len(self.outputs) != 1:
            raise RewriteError(
                f"expected one output stream, found {len(self.outputs)}"
            )
        return self.outputs[0]


@dataclass
class QGMGraph:
    """A whole query graph: the TOP box plus bookkeeping."""

    top: TopBox
    statement_kind: str = "select"  # 'select' | 'xnf'

    def all_boxes(self) -> list[Box]:
        """Every box reachable from TOP, depth-first, each box once."""
        seen: dict[int, Box] = {}

        def visit(box: Box) -> None:
            if box.box_id in seen:
                return
            seen[box.box_id] = box
            for child in box.child_boxes():
                visit(child)
            if isinstance(box, XNFBox):
                for component in box.components.values():
                    visit(component.box)

        visit(self.top)
        return list(seen.values())

    def boxes_of_kind(self, kind: str) -> list[Box]:
        return [b for b in self.all_boxes() if b.kind == kind]

    def reference_counts(self) -> dict[int, int]:
        """How many quantifiers/outputs reference each box.

        Boxes referenced more than once are the common subexpressions the
        paper's multi-query optimization shares (Sect. 4.2, Fig. 5/6).
        """
        counts: dict[int, int] = {}
        for box in self.all_boxes():
            if isinstance(box, TopBox):
                for output in box.outputs:
                    counts[output.box.box_id] = counts.get(
                        output.box.box_id, 0) + 1
            for quantifier in box.quantifiers():
                counts[quantifier.box.box_id] = counts.get(
                    quantifier.box.box_id, 0) + 1
        return counts

    def xnf_box(self) -> Optional[XNFBox]:
        for box in self.all_boxes():
            if isinstance(box, XNFBox):
                return box
        return None
