"""Abstract syntax trees for SQL and XNF statements.

Pure data: the parser builds these, the QGM builder consumes them.
Expression nodes carry no evaluation logic (that lives in
:mod:`repro.executor.expressions`) and no resolution state (that lives in
QGM columns); they can therefore be shared and re-parsed freely, which
the view expansion machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expression:
    """Base class for expression AST nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    value: object  # int, float, str, bool, or None (SQL NULL)
    #: Index of the NUMBER / STRING token it was parsed from (None for
    #: keywords and for literals built later).  Not part of equality:
    #: it only tells the statement cache which token a lifted literal
    #: came from.
    slot: Optional[int] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A statement parameter marker: ``?`` (positional) or ``:name``.

    Positional markers are numbered left to right from 0 by the parser;
    named markers carry their upper-cased name.  The auto-parameterizing
    plan cache also synthesizes these nodes when it lifts literals out
    of ad-hoc statements, so two queries differing only in constants
    share one compiled plan.  Values bind at execution time through the
    :class:`~repro.optimizer.plan.ExecutionContext`.
    """

    index: Optional[int] = None
    name: Optional[str] = None

    @property
    def key(self) -> Union[int, str]:
        return self.index if self.name is None else self.name

    def __str__(self) -> str:
        if self.name is not None:
            return f":{self.name}"
        return f"?{(self.index or 0) + 1}"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference: ``table.column`` or ``column``."""

    table: Optional[str]
    column: str

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``table.*`` in a select list, or ``COUNT(*)``'s argument."""

    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, string concatenation, AND/OR."""

    op: str
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT and unary minus."""

    op: str
    operand: Expression

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Aggregate (COUNT/SUM/AVG/MIN/MAX) or scalar function call."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {word} {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {word} {self.pattern})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(i) for i in self.items)
        return f"({self.operand} {word} ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expression):
    operand: Expression
    subquery: "SelectStatement"
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {word} (<subquery>))"


@dataclass(frozen=True)
class Exists(Expression):
    """``EXISTS (subquery)`` — the form reachability compiles into."""

    subquery: "SelectStatement"
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{word} (<subquery>)"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    subquery: "SelectStatement"

    def __str__(self) -> str:
        return "(<scalar subquery>)"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched CASE: WHEN cond THEN result ... [ELSE default] END."""

    whens: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None

    def __str__(self) -> str:
        parts = " ".join(f"WHEN {c} THEN {r}" for c, r in self.whens)
        tail = f" ELSE {self.default}" if self.default is not None else ""
        return f"CASE {parts}{tail} END"


# ----------------------------------------------------------------------
# Query structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A named table or view in FROM, with optional correlation alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A derived table: ``(SELECT ...) alias``."""

    query: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join:
    """Explicit join syntax.  ``kind`` is 'INNER', 'LEFT' or 'CROSS'."""

    left: "FromItem"
    right: "FromItem"
    kind: str
    condition: Optional[Expression] = None


FromItem = Union[TableRef, SubqueryRef, Join]


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A query block, possibly with a chained set operation."""

    select_items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None
    set_operation: Optional["SetOperation"] = None


@dataclass(frozen=True)
class SetOperation:
    """UNION / INTERSECT / EXCEPT chained onto a SelectStatement."""

    operator: str  # 'UNION' | 'INTERSECT' | 'EXCEPT'
    all: bool
    right: SelectStatement


# ----------------------------------------------------------------------
# DML
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InsertStatement:
    table: str
    columns: tuple[str, ...]  # empty = all columns in table order
    rows: tuple[tuple[Expression, ...], ...] = ()
    query: Optional[SelectStatement] = None


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expression


@dataclass(frozen=True)
class UpdateStatement:
    table: str
    assignments: tuple[Assignment, ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class DeleteStatement:
    table: str
    where: Optional[Expression] = None


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_length: Optional[int] = None
    nullable: bool = True
    primary_key: bool = False


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]
    name: Optional[str] = None


@dataclass(frozen=True)
class PartitionSpec:
    """``PARTITION BY`` clause of CREATE TABLE.

    ``scheme`` is ``"HASH"`` (``columns`` + ``partitions`` count) or
    ``"RANGE"`` (single column + ascending upper ``bounds``).
    """

    scheme: str
    columns: tuple[str, ...]
    partitions: int = 0
    bounds: tuple = ()


@dataclass(frozen=True)
class CreateTableStatement:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKeyDef, ...] = ()
    partition_by: Optional[PartitionSpec] = None


@dataclass(frozen=True)
class CreateIndexStatement:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class CreateViewStatement:
    name: str
    query: Union[SelectStatement, "XNFQuery"]
    column_names: tuple[str, ...] = ()

    @property
    def is_xnf(self) -> bool:
        return isinstance(self.query, XNFQuery)


@dataclass(frozen=True)
class CreateMaterializedViewStatement:
    """``CREATE MATERIALIZED VIEW name [REFRESH EAGER|DEFERRED] AS
    <xnf query>``.

    Materialized CO views store their evaluated result and are kept
    consistent under DML by the delta-maintenance engine
    (:mod:`repro.cache.matview`).  ``policy`` is the staleness policy:
    ``'eager'`` (maintained on write) or ``'deferred'`` (maintained on
    the next read or explicit REFRESH).
    """

    name: str
    query: "XNFQuery"
    policy: str = "eager"


@dataclass(frozen=True)
class RefreshStatement:
    """``REFRESH MATERIALIZED VIEW name [FULL]``.

    Applies the view's queued deltas; with FULL, recomputes from the
    base tables unconditionally.
    """

    name: str
    full: bool = False


@dataclass(frozen=True)
class DropStatement:
    kind: str  # 'TABLE' | 'VIEW' | 'INDEX' | 'MATERIALIZED VIEW'
    name: str


@dataclass(frozen=True)
class AnalyzeStatement:
    """``ANALYZE [table]``: recompute optimizer statistics eagerly.

    Without a table name, every base table is re-analyzed.  The refresh
    always advances the statistics epoch, so cached plans built against
    the old distributions are invalidated.
    """

    table: Optional[str] = None


# ----------------------------------------------------------------------
# XNF extension (Sect. 2 of the paper)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class XNFComponentDef:
    """``name AS (table expression)`` in the OUT OF clause.

    The shortcut ``xemp AS EMP`` is parsed as a component whose query is
    ``SELECT * FROM EMP``, exactly the sugar Fig. 1 of the paper uses.
    """

    name: str
    query: SelectStatement


@dataclass(frozen=True)
class XNFRelationshipDef:
    """``name AS (RELATE parent VIA role, child, ... [USING t [a], ...]
    WHERE pred)``.

    ``parent`` comes first per the paper's syntax; one or more children
    follow (n-ary relationships are allowed); USING names auxiliary
    tables (typically many-to-many mapping tables) visible only inside
    the relationship predicate.
    """

    name: str
    parent: str
    role: str
    children: tuple[str, ...]
    using: tuple[TableRef, ...] = ()
    where: Optional[Expression] = None
    #: Relationship attributes (Sect. 2: connections "might have some
    #: relationship attributes"): WITH expr AS name, ...
    attributes: tuple[SelectItem, ...] = ()


@dataclass(frozen=True)
class TakeItem:
    """One projected element of the TAKE clause.

    ``columns`` of None means all columns of the component; an explicit
    tuple lists a column projection (paper: "Projection is defined by
    listing all the nodes and relationships to be retained").
    """

    name: str
    columns: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class XNFQuery:
    """``OUT OF <defs> TAKE <items>``: the CO constructor."""

    definitions: tuple[Union[XNFComponentDef, XNFRelationshipDef], ...]
    take_all: bool = True
    take_items: tuple[TakeItem, ...] = ()

    @property
    def components(self) -> tuple[XNFComponentDef, ...]:
        return tuple(d for d in self.definitions
                     if isinstance(d, XNFComponentDef))

    @property
    def relationships(self) -> tuple[XNFRelationshipDef, ...]:
        return tuple(d for d in self.definitions
                     if isinstance(d, XNFRelationshipDef))


Statement = Union[
    SelectStatement, InsertStatement, UpdateStatement, DeleteStatement,
    CreateTableStatement, CreateIndexStatement, CreateViewStatement,
    CreateMaterializedViewStatement, RefreshStatement,
    DropStatement, AnalyzeStatement, XNFQuery,
]


# ----------------------------------------------------------------------
# AST utilities shared by the semantic layer
# ----------------------------------------------------------------------
def walk_expression(expr: Expression):
    """Yield ``expr`` and all sub-expressions, depth first.

    Subqueries are yielded as Exists/InSubquery/ScalarSubquery nodes but
    not descended into; each query block resolves its own names.
    """
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk_expression(arg)
    elif isinstance(expr, IsNull):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, Between):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)
    elif isinstance(expr, Like):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.pattern)
    elif isinstance(expr, InList):
        yield from walk_expression(expr.operand)
        for item in expr.items:
            yield from walk_expression(item)
    elif isinstance(expr, InSubquery):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, CaseWhen):
        for condition, result in expr.whens:
            yield from walk_expression(condition)
            yield from walk_expression(result)
        if expr.default is not None:
            yield from walk_expression(expr.default)


def replace_column_refs(expr: Expression, mapping) -> Expression:
    """Rebuild ``expr`` with every :class:`ColumnRef` passed through
    ``mapping`` (a callable returning a replacement expression).

    Composite nodes are reconstructed structurally; subquery nodes
    (Exists/InSubquery/ScalarSubquery) are *not* descended into — their
    query blocks resolve their own names — so callers that cannot
    tolerate them must reject them beforehand.  The view-update
    translator uses this for the lens *put* direction: substituting
    view columns with their base-level definitions.
    """
    if isinstance(expr, ColumnRef):
        return mapping(expr)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, replace_column_refs(expr.left, mapping),
                        replace_column_refs(expr.right, mapping))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, replace_column_refs(expr.operand, mapping))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(replace_column_refs(a, mapping) for a in expr.args),
            expr.distinct)
    if isinstance(expr, IsNull):
        return IsNull(replace_column_refs(expr.operand, mapping),
                      expr.negated)
    if isinstance(expr, Between):
        return Between(replace_column_refs(expr.operand, mapping),
                       replace_column_refs(expr.low, mapping),
                       replace_column_refs(expr.high, mapping),
                       expr.negated)
    if isinstance(expr, Like):
        return Like(replace_column_refs(expr.operand, mapping),
                    replace_column_refs(expr.pattern, mapping),
                    expr.negated)
    if isinstance(expr, InList):
        return InList(
            replace_column_refs(expr.operand, mapping),
            tuple(replace_column_refs(i, mapping) for i in expr.items),
            expr.negated)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple((replace_column_refs(c, mapping),
                   replace_column_refs(r, mapping))
                  for c, r in expr.whens),
            None if expr.default is None
            else replace_column_refs(expr.default, mapping))
    return expr


def conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Split a predicate on top-level ANDs: WHERE a AND b AND c -> [a,b,c]."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(predicates: list[Expression]) -> Optional[Expression]:
    """Inverse of :func:`conjuncts`: AND a list of predicates together."""
    result: Optional[Expression] = None
    for predicate in predicates:
        result = predicate if result is None else BinaryOp("AND", result, predicate)
    return result


_COMPARISON_INVERSE = {"=": "<>", "<>": "=", "<": ">=", "<=": ">",
                       ">": "<=", ">=": "<"}


def normalize_negations(expr: Expression) -> Expression:
    """Push NOT inward so quantified subqueries surface with their own
    ``negated`` flags (NOT EXISTS, NOT IN) and De Morgan's laws expose
    conjunctive structure.  All transformations are sound in SQL's
    three-valued logic (Kleene semantics)."""
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        inner = normalize_negations(expr.operand)
        if isinstance(inner, Exists):
            return Exists(inner.subquery, not inner.negated)
        if isinstance(inner, InSubquery):
            return InSubquery(inner.operand, inner.subquery,
                              not inner.negated)
        if isinstance(inner, InList):
            return InList(inner.operand, inner.items, not inner.negated)
        if isinstance(inner, IsNull):
            return IsNull(inner.operand, not inner.negated)
        if isinstance(inner, Between):
            return Between(inner.operand, inner.low, inner.high,
                           not inner.negated)
        if isinstance(inner, Like):
            return Like(inner.operand, inner.pattern, not inner.negated)
        if isinstance(inner, UnaryOp) and inner.op == "NOT":
            return normalize_negations(inner.operand)
        if isinstance(inner, BinaryOp):
            if inner.op == "AND":
                return BinaryOp(
                    "OR",
                    normalize_negations(UnaryOp("NOT", inner.left)),
                    normalize_negations(UnaryOp("NOT", inner.right)),
                )
            if inner.op == "OR":
                return BinaryOp(
                    "AND",
                    normalize_negations(UnaryOp("NOT", inner.left)),
                    normalize_negations(UnaryOp("NOT", inner.right)),
                )
            if inner.op in _COMPARISON_INVERSE:
                return BinaryOp(_COMPARISON_INVERSE[inner.op],
                                inner.left, inner.right)
        return UnaryOp("NOT", inner)
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        return BinaryOp(expr.op, normalize_negations(expr.left),
                        normalize_negations(expr.right))
    return expr


def column_references(expr: Expression) -> list[ColumnRef]:
    """All ColumnRef nodes in ``expr`` (excluding inside subqueries)."""
    return [e for e in walk_expression(expr) if isinstance(e, ColumnRef)]


def contains_aggregate(expr: Expression) -> bool:
    """True when the expression calls an aggregate function at any depth."""
    aggregates = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
    return any(
        isinstance(e, FunctionCall) and e.name.upper() in aggregates
        for e in walk_expression(expr)
    )
