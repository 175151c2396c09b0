"""Column provenance and translatability classification.

The *get* direction of a view is its QGM box.  A write against the view
is translatable when every written output column traces — through the
box tree — to exactly one stored base column, and the view's shape
guarantees each base row surfaces at most once:

* **single-source** views (restriction/projection chains over one base
  table, nested views included) translate fully: INSERT, UPDATE and
  DELETE all have an unambiguous put-back;
* **key-preserved joins** translate partially: all join sides but one
  (the *anchor*) must be key-bound — their unique key equated, through
  the join predicates, to expressions over the anchor — so anchor rows
  appear at most once and UPDATE/DELETE against anchor-traced columns
  are sound;
* everything else (aggregation, DISTINCT, set operations, outer joins,
  subquery quantifiers, computed columns, non-anchor columns) is
  rejected with a :class:`~repro.errors.NotUpdatableError` naming the
  offending box/column and the reason.

The one analysis serves SQL view DML, the object gateway (deferred and
write-through) and the materialized views' incremental fragment.  It
only reads the box: nothing it returns is attached to the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import NotUpdatableError
from repro.qgm.model import (BaseBox, QRef, Quantifier, RidRef, SelectBox,
                             quantifiers_in, replace_qrefs, trace_column)
from repro.sql import ast


@dataclass
class KeyBinding:
    """How one key-bound join side is reached from the anchor.

    ``pairs`` are (partner_column, anchor_expression) equalities — the
    anchor expression is a base-level AST over the anchor table's
    columns, so the dynamic check can re-find the partner row from a
    stored anchor row alone.
    """

    quantifier: Quantifier
    pairs: list[tuple[str, ast.Expression]] = field(default_factory=list)


@dataclass
class ViewWritePlan:
    """The put-back translation recipe for one view."""

    name: str
    box: SelectBox
    #: single-source only: base table name, view column -> base-level
    #: AST (a ColumnRef for writable columns), and the view's
    #: selection predicates rewritten over base columns.
    single_source: bool = False
    table: Optional[str] = None
    base_ast: dict[str, ast.Expression] = field(default_factory=dict)
    predicates: list[ast.Expression] = field(default_factory=list)
    #: join path only: the writable side plus the key-bound partners.
    anchor: Optional[Quantifier] = None
    key_bindings: list[KeyBinding] = field(default_factory=list)
    #: view column (upper) -> (source quantifier qid, base column) for
    #: join views; None marks a computed column.
    column_sources: dict[str, Optional[tuple[int, str]]] = \
        field(default_factory=dict)

    # -- write-side lookups -------------------------------------------
    @property
    def column_map(self) -> dict[str, str]:
        """Single-source only: writable view column -> base column."""
        return {column: expr.column.upper()
                for column, expr in self.base_ast.items()
                if isinstance(expr, ast.ColumnRef)}

    def writable_base_column(self, column: str) -> str:
        """The unique base column a written view column maps to."""
        upper = column.upper()
        if self.single_source:
            expr = self.base_ast.get(upper)
            if expr is None:
                raise NotUpdatableError(
                    "view has no such column", box=self.box.label,
                    column=upper)
            if not isinstance(expr, ast.ColumnRef):
                raise NotUpdatableError(
                    "cannot write a computed column", box=self.box.label,
                    column=upper,
                    reason="it does not trace to a unique stored column")
            return expr.column
        source = self.column_sources.get(upper, "missing")
        if source == "missing":
            raise NotUpdatableError(
                "view has no such column", box=self.box.label, column=upper)
        if source is None:
            raise NotUpdatableError(
                "cannot write a computed column", box=self.box.label,
                column=upper,
                reason="it does not trace to a unique stored column")
        qid, base_column = source
        if qid != self.anchor.qid:
            raise NotUpdatableError(
                "cannot write through a key-bound join side",
                box=self.box.label, column=upper,
                reason=f"it traces to table "
                       f"{self.anchor_partner_label(qid)}, which the join "
                       f"only looks up; only columns of the anchor table "
                       f"{self.anchor.box.table.name} are writable")
        return base_column

    def anchor_partner_label(self, qid: int) -> str:
        for binding in self.key_bindings:
            if binding.quantifier.qid == qid:
                return binding.quantifier.box.table.name
        return f"q{qid}"


def _qref_is(expr, quantifier) -> bool:
    return isinstance(expr, QRef) and expr.quantifier is quantifier


def _reject_kind(box, name: str) -> NotUpdatableError:
    reasons = {
        "groupby": "aggregation collapses base rows; no row-level "
                   "put-back exists",
        "setop": "set operations lose row provenance",
        "outerjoin": "outer joins produce NULL-padded rows with no "
                     "base image",
        "xnf": "target an XNF view's component as "
               "<view>.<component> instead",
    }
    reason = reasons.get(box.kind, f"a {box.kind} derivation is not "
                                   f"translatable")
    return NotUpdatableError(f"view {name!r} is not updatable",
                           box=box.label, reason=reason)


def _single_source_of(box: SelectBox, name: str):
    """Recursively flatten a restriction/projection chain.

    Returns ``(table, base_ast, predicates)`` where ``base_ast`` maps
    every head column (upper) to an AST over the base table's columns
    (plain :class:`ast.ColumnRef` for stored columns) and
    ``predicates`` are the accumulated selection predicates, also over
    base columns.  Raises :class:`NotUpdatableError` when the chain is
    not single-source.
    """
    if not isinstance(box, SelectBox):
        raise _reject_kind(box, name)
    if box.distinct:
        raise NotUpdatableError(
            f"view {name!r} is not updatable", box=box.label,
            reason="DISTINCT merges duplicate rows; the put-back of one "
                   "view row is ambiguous")
    for q in box.body_quantifiers:
        if q.qtype != Quantifier.F:
            raise NotUpdatableError(
                f"view {name!r} is not updatable", box=box.label,
                reason=f"derivation contains a {q.qtype}-quantifier "
                       f"(subquery) over {q.box.label!r}")
    foreach = box.foreach_quantifiers()
    if len(foreach) != 1:
        raise NotUpdatableError(
            f"view {name!r} is not updatable", box=box.label,
            reason="derivation does not range over exactly one table")
    quantifier = foreach[0]
    inner = quantifier.box
    if isinstance(inner, BaseBox):
        table = inner.table
        inner_ast = {c.name.upper(): ast.ColumnRef(None, c.name.upper())
                     for c in table.columns}
        predicates: list[ast.Expression] = []
    else:
        table, inner_ast, predicates = _single_source_of(inner, name)

    def to_base(expr: ast.Expression) -> ast.Expression:
        def mapping(leaf):
            if isinstance(leaf, RidRef):
                raise NotUpdatableError(
                    f"view {name!r} is not updatable", box=box.label,
                    reason="derivation exposes row identity, which has "
                           "no base-level rewrite")
            source = inner_ast.get(leaf.column.upper())
            if source is None:
                raise NotUpdatableError(
                    f"view {name!r} is not updatable", box=box.label,
                    column=leaf.column.upper(),
                    reason="referenced column vanished in the nested "
                           "derivation")
            return source
        return replace_qrefs(expr, mapping)

    base_ast: dict[str, ast.Expression] = {}
    for column in box.head:
        if column.name.startswith("$"):
            continue
        base_ast[column.name.upper()] = to_base(column.expression)
    predicates = list(predicates)
    predicates.extend(to_base(p) for p in box.predicates)
    return table, base_ast, predicates


def _unique_keys(table, catalog) -> list[set[str]]:
    keys: list[set[str]] = []
    if table.primary_key:
        keys.append({c.upper() for c in table.primary_key})
    if catalog is not None:
        for index in catalog.indexes_on(table.name):
            if getattr(index, "unique", False):
                keys.append({c.upper() for c in index.column_names})
    return keys


def _analyze_join(box: SelectBox, name: str, catalog) -> ViewWritePlan:
    """Classify a one-level join box: key-preserved or rejected."""
    foreach = box.foreach_quantifiers()
    for q in box.body_quantifiers:
        if q.qtype != Quantifier.F:
            raise NotUpdatableError(
                f"view {name!r} is not updatable", box=box.label,
                reason=f"derivation contains a {q.qtype}-quantifier "
                       f"(subquery) over {q.box.label!r}")
        if not isinstance(q.box, BaseBox):
            raise NotUpdatableError(
                f"view {name!r} is not updatable", box=box.label,
                reason=f"join side {q.box.label!r} is itself derived; "
                       f"only joins of base tables are key-preservable "
                       f"here")

    # Which columns of each side are equated to expressions over the
    # *other* sides?  (candidate key bindings)
    bound: dict[int, list[tuple[str, ast.Expression]]] = \
        {q.qid: [] for q in foreach}
    for predicate in box.join_predicates():
        if not (isinstance(predicate, ast.BinaryOp)
                and predicate.op == "="):
            continue
        for mine, other in ((predicate.left, predicate.right),
                            (predicate.right, predicate.left)):
            if isinstance(mine, QRef) \
                    and mine.quantifier.qid in bound \
                    and mine.quantifier not in quantifiers_in(other):
                bound[mine.quantifier.qid].append(
                    (mine.column.upper(), other))

    key_bound: dict[int, list[tuple[str, ast.Expression]]] = {}
    for q in foreach:
        columns = {c for c, _ in bound[q.qid]}
        for key in _unique_keys(q.box.table, catalog):
            if key <= columns:
                key_bound[q.qid] = [
                    (c, e) for c, e in bound[q.qid] if c in key]
                break

    anchors = [q for q in foreach if q.qid not in key_bound]
    if len(anchors) > 1:
        raise NotUpdatableError(
            f"view {name!r} is not updatable", box=box.label,
            reason=f"join is not key-preserving: sides "
                   f"{[q.box.table.name for q in anchors]} are all "
                   f"unbound (no unique key of theirs is equated through "
                   f"the join predicates)")
    anchor = anchors[0] if anchors else foreach[0]

    bindings: list[KeyBinding] = []
    for q in foreach:
        if q is anchor:
            continue
        pairs: list[tuple[str, ast.Expression]] = []

        def to_anchor_ast(leaf):
            if not isinstance(leaf, QRef):
                raise NotUpdatableError(
                    f"view {name!r} is not updatable", box=box.label,
                    reason="join predicate references row identity")
            return ast.ColumnRef(None, leaf.column.upper())

        for column, expr in key_bound[q.qid]:
            if quantifiers_in(expr) != {anchor}:
                raise NotUpdatableError(
                    f"view {name!r} is not updatable", box=box.label,
                    reason=f"join side {q.box.table.name} is bound "
                           f"through another joined table, not the "
                           f"anchor {anchor.box.table.name}; chained "
                           f"key bindings are not supported")
            pairs.append((column, replace_qrefs(expr, to_anchor_ast)))
        bindings.append(KeyBinding(quantifier=q, pairs=pairs))

    sources: dict[str, Optional[tuple[int, str]]] = {}
    for column in box.head:
        if column.name.startswith("$"):
            continue
        traced = trace_column(box, column.name)
        if traced is not None and traced[0] in foreach:
            sources[column.name.upper()] = (traced[0].qid, traced[1])
        else:
            sources[column.name.upper()] = None

    return ViewWritePlan(name=name, box=box, single_source=False,
                         anchor=anchor, key_bindings=bindings,
                         column_sources=sources)


def analyze_view_box(box, name: str, catalog=None) -> ViewWritePlan:
    """Classify ``box`` (the view's derivation) for put-back.

    Returns a :class:`ViewWritePlan`; raises
    :class:`~repro.errors.NotUpdatableError` naming the box and the
    reason when no sound translation exists.
    """
    if not isinstance(box, SelectBox):
        raise _reject_kind(box, name)
    if box.distinct:
        raise NotUpdatableError(
            f"view {name!r} is not updatable", box=box.label,
            reason="DISTINCT merges duplicate rows; the put-back of one "
                   "view row is ambiguous")
    foreach = box.foreach_quantifiers()
    if len(foreach) <= 1:
        table, base_ast, predicates = _single_source_of(box, name)
        return ViewWritePlan(name=name, box=box, single_source=True,
                             table=table.name, base_ast=base_ast,
                             predicates=predicates)
    return _analyze_join(box, name, catalog)
