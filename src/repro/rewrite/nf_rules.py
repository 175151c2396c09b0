"""NF rewrite rules: the Starburst query rewrite stage (Sect. 3.2, [39]).

The two headline rules from the paper's Fig. 3 walkthrough:

* :class:`ExistentialToJoin` — the "E to F Quantifier Conversion" rule:
  an existential quantifier becomes a ForEach quantifier (a join) when
  the conversion cannot introduce duplicates (the matched side is unique
  on the equated columns) or when the box already enforces DISTINCT.
* :class:`SelectMerge` — merges a select box into its consumer
  ("combining the two SELECT boxes into one"), provided the lower box is
  not shared: shared boxes are exactly the common subexpressions the XNF
  rewrite wants evaluated once, so merging them would undo multi-query
  optimization.

Plus supporting cleanup: predicate pushdown (below DISTINCT and through
UNION branches) and global pruning of unused head columns.
"""

from __future__ import annotations

from repro.qgm.model import (BaseBox, Box, GroupByBox, QGMGraph, QRef,
                             Quantifier, RidRef, SelectBox, SetOpBox, TopBox,
                             XNFBox, box_expressions, quantifiers_in,
                             replace_qrefs, rewrite_box_expressions,
                             walk_qgm_expression)
from repro.rewrite.engine import Rule, RewriteContext
from repro.sql import ast


# ----------------------------------------------------------------------
# Uniqueness inference (used by E-to-F)
# ----------------------------------------------------------------------
def columns_unique_in(box: Box, columns: set[str],
                      not_null: bool = False) -> bool:
    """Can two distinct rows of ``box`` agree on all of ``columns``?

    Conservative: returns True only when provably unique — via primary
    keys, unique indexes, DISTINCT heads, group-by keys, or simple
    select chains over those.

    A unique index admits any number of rows with a NULL key.  That is
    unique enough for an equality match, which a NULL never makes, but
    not for ``not_null`` callers, which compare whole rows (DISTINCT):
    for them a unique index counts only over NOT NULL columns.
    """
    upper = {c.upper() for c in columns}
    if isinstance(box, BaseBox):
        # The primary key is one of the table's unique indexes.
        columns_of = box.table.columns

        def admits_null(index) -> bool:
            return any(columns_of[p].nullable and not columns_of[p].primary_key
                       for p in index.positions)
        return any(index.unique
                   and {c.upper() for c in index.column_names} <= upper
                   and not (not_null and admits_null(index))
                   for index in box.table.access_indexes)
    if isinstance(box, SelectBox):
        if box.distinct and upper >= {c.name.upper() for c in box.head}:
            return True
        foreach = box.foreach_quantifiers()
        if len(foreach) != 1:
            return False
        quantifier = foreach[0]
        mapped: set[str] = set()
        for column in box.head:
            if column.name.upper() not in upper:
                continue
            if isinstance(column.expression, QRef) \
                    and column.expression.quantifier is quantifier:
                mapped.add(column.expression.column.upper())
            elif isinstance(column.expression, RidRef) \
                    and column.expression.quantifier is quantifier:
                return True  # a RID column is unique by construction
        return bool(mapped) and columns_unique_in(quantifier.box, mapped,
                                                  not_null)
    if isinstance(box, GroupByBox):
        key_names = {
            column.name.upper()
            for column, _key in zip(box.head, box.group_keys)
        }
        return bool(key_names) and key_names <= upper
    if isinstance(box, SetOpBox):
        if not box.all_rows:
            return upper >= {c.name.upper() for c in box.head}
        return False
    return False


def head_keyed(box: SelectBox) -> bool:
    """Whether ``box``'s head proves its rows distinct, so DISTINCT
    removes none (the planner adds no Dedup, the cost model no
    discount): it carries, for every F quantifier, that quantifier's
    RID or a NOT NULL unique column set of its box.  Two rows then come
    from different F rows, and differ there.  E and A quantifiers only
    drop rows; a box with an S quantifier is not keyed."""
    if any(q.qtype == Quantifier.S for q in box.body_quantifiers):
        return False
    for quantifier in box.foreach_quantifiers():
        columns: set[str] = set()
        for column in box.head:
            expression = column.expression
            if getattr(expression, "quantifier", None) is not quantifier:
                continue
            if isinstance(expression, RidRef):
                break
            if isinstance(expression, QRef):
                columns.add(expression.column)
        else:
            if not (columns and columns_unique_in(
                    quantifier.box, columns, not_null=True)):
                return False
    return True


def equated_columns(box: SelectBox, quantifier: Quantifier,
                    foreach_other_side: bool = False) -> set[str]:
    """Head columns of ``quantifier``'s box equated (by a conjunct of
    ``box``) to expressions not involving ``quantifier``.

    With ``foreach_other_side`` the other side must reference only
    ForEach quantifiers (or constants).  The E-to-F rule needs this:
    uniqueness against an expression that is itself existentially
    quantified says nothing about the output multiplicity, so such
    equalities must not license the conversion.
    """
    equated: set[str] = set()
    for predicate in box.predicates:
        if not isinstance(predicate, ast.BinaryOp) or predicate.op != "=":
            continue
        for this, other in ((predicate.left, predicate.right),
                            (predicate.right, predicate.left)):
            if not (isinstance(this, QRef)
                    and this.quantifier is quantifier):
                continue
            others = quantifiers_in(other)
            if quantifier in others:
                continue
            if foreach_other_side and any(
                    q.qtype != Quantifier.F for q in others):
                continue
            equated.add(this.column.upper())
    return equated


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class ExistentialToJoin(Rule):
    """Convert an E quantifier into an F quantifier (Fig. 3b).

    Sound when (a) the equated columns are unique in the quantified box —
    each outer row finds at most one match, so no duplicates appear — or
    (b) the box already enforces DISTINCT on its head, which absorbs any
    duplicates the conversion introduces.
    """

    name = "E2F"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            self._candidate(box) is not None

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        quantifier = self._candidate(box)
        if quantifier is None:
            return False
        quantifier.qtype = Quantifier.F
        return True

    @staticmethod
    def _candidate(box: SelectBox):
        for quantifier in box.existential_quantifiers():
            if box.distinct:
                return quantifier
            equated = equated_columns(box, quantifier,
                                      foreach_other_side=True)
            if equated and columns_unique_in(quantifier.box, equated):
                return quantifier
        return None


class SelectMerge(Rule):
    """Merge an unshared simple select box into its consumer (Fig. 3c).

    An F quantifier over a lower SelectBox is replaced by the lower box's
    body; head references are substituted by the lower head expressions.
    E quantifiers over a lower select merge too: the lower box's ForEach
    quantifiers become existential in the upper box (the existential
    scope distributes over the conjunctive body).
    """

    name = "SelectMerge"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            self._candidate(box, context) is not None

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        quantifier = self._candidate(box, context)
        if quantifier is None:
            return False
        lower: SelectBox = quantifier.box
        substitution = {
            column.name.upper(): column.expression for column in lower.head
        }

        def mapping(leaf):
            if isinstance(leaf, QRef) and leaf.quantifier is quantifier:
                return substitution[leaf.column.upper()]
            return leaf

        for column in box.head:
            if column.expression is not None:
                column.expression = replace_qrefs(column.expression, mapping)
        box.predicates = [replace_qrefs(p, mapping) for p in box.predicates]
        box.order_by = [(replace_qrefs(e, mapping), d)
                        for e, d in box.order_by]
        box.remove_quantifier(quantifier)
        for moved in lower.body_quantifiers:
            if quantifier.qtype == Quantifier.E \
                    and moved.qtype == Quantifier.F:
                moved.qtype = Quantifier.E
            box.add_quantifier(moved)
        box.predicates.extend(lower.predicates)
        return True

    @staticmethod
    def _candidate(box: SelectBox, context: RewriteContext):
        counts = context.reference_counts()
        for quantifier in box.body_quantifiers:
            lower = quantifier.box
            if not isinstance(lower, SelectBox):
                continue
            if counts.get(lower.box_id, 0) != 1:
                continue  # shared: keep as a common subexpression
            if lower.distinct or lower.order_by or lower.limit is not None \
                    or lower.offset is not None:
                continue
            if any(column.expression is None for column in lower.head):
                continue
            if quantifier.qtype == Quantifier.F:
                return quantifier
            if quantifier.qtype == Quantifier.E and all(
                    q.qtype in (Quantifier.F, Quantifier.E)
                    for q in lower.body_quantifiers):
                return quantifier
        return None


class PredicatePushdown(Rule):
    """Push a single-quantifier predicate below a DISTINCT select box.

    SelectMerge flattens plain unshared selects, so this rule only needs
    to handle the boxes SelectMerge must skip: DISTINCT (and ORDER BY)
    boxes without LIMIT/OFFSET, where filtering commutes.
    """

    name = "Pushdown"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            self._candidate(box, context) is not None

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        found = self._candidate(box, context)
        if found is None:
            return False
        predicate, quantifier = found
        lower: SelectBox = quantifier.box

        def mapping(leaf):
            if isinstance(leaf, QRef) and leaf.quantifier is quantifier:
                return lower.head_column(leaf.column).expression
            return leaf

        box.predicates.remove(predicate)
        lower.predicates.append(replace_qrefs(predicate, mapping))
        return True

    @staticmethod
    def _candidate(box: SelectBox, context: RewriteContext):
        counts = context.reference_counts()
        for predicate in box.predicates:
            referenced = quantifiers_in(predicate)
            if len(referenced) != 1:
                continue
            quantifier = next(iter(referenced))
            if quantifier not in box.body_quantifiers:
                continue
            if quantifier.qtype not in (Quantifier.F, Quantifier.E):
                continue
            lower = quantifier.box
            if not isinstance(lower, SelectBox):
                continue
            if counts.get(lower.box_id, 0) != 1:
                continue
            if not (lower.distinct or lower.order_by):
                continue  # SelectMerge's territory
            if lower.limit is not None or lower.offset is not None:
                continue
            if any(column.expression is None for column in lower.head):
                continue
            return predicate, quantifier
        return None


class SetOpPushdown(Rule):
    """Push a single-quantifier predicate into all UNION branches."""

    name = "SetOpPushdown"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            self._candidate(box) is not None

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        found = self._candidate(box)
        if found is None:
            return False
        predicate, quantifier = found
        setop: SetOpBox = quantifier.box
        positions = {c.name.upper(): i for i, c in enumerate(setop.head)}
        box.predicates.remove(predicate)
        for input_q in setop.inputs:
            branch: SelectBox = input_q.box

            def mapping(leaf, _branch=branch):
                if isinstance(leaf, QRef) and leaf.quantifier is quantifier:
                    return _branch.head[positions[leaf.column.upper()]] \
                        .expression
                return leaf

            branch.predicates.append(replace_qrefs(predicate, mapping))
        return True

    @staticmethod
    def _candidate(box: SelectBox):
        for predicate in box.predicates:
            referenced = quantifiers_in(predicate)
            if len(referenced) != 1:
                continue
            quantifier = next(iter(referenced))
            if quantifier not in box.body_quantifiers:
                continue
            setop = quantifier.box
            if not isinstance(setop, SetOpBox) or setop.operator != "UNION":
                continue
            if not all(
                isinstance(i.box, SelectBox)
                and all(c.expression is not None for c in i.box.head)
                for i in setop.inputs
            ):
                continue
            if any(isinstance(node, RidRef)
                   for node in walk_qgm_expression(predicate)):
                continue
            return predicate, quantifier
        return None


class TrivialPredicateElimination(Rule):
    """Drop the Literal(TRUE) conjuncts a statement wrote
    (``WHERE TRUE AND ...``); the builder drops the ones subquery
    detachment leaves."""

    name = "DropTrue"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            ast.Literal(True) in box.predicates

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        before = len(box.predicates)
        box.predicates = [p for p in box.predicates
                          if p != ast.Literal(True)]
        return len(box.predicates) != before


def _is_constant(expression: ast.Expression) -> bool:
    """Literal or parameter: a value fixed for one execution."""
    if isinstance(expression, ast.Parameter):
        return True
    return isinstance(expression, ast.Literal) and \
        expression.value is not None and \
        not isinstance(expression.value, bool)


class ConstantPropagation(Rule):
    """Propagate constants across equated columns (transitive equality).

    From conjuncts ``a.x = b.y`` and ``a.x = 5`` derive ``b.y = 5``:
    the implied restriction is redundant logically but not physically —
    it unlocks index access paths on *both* sides of the join and
    tightens cardinality estimates.  Parameters count as constants
    (their value is fixed for one execution), so cached parameterized
    plans benefit too.
    """

    name = "ConstProp"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            self._candidate(box, context) is not None

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        found = self._candidate(box, context)
        if found is None:
            return False
        reference, constant = found
        self._derived_facts(context).add(self._fact(reference, constant))
        box.predicates.append(ast.BinaryOp("=", reference, constant))
        return True

    @staticmethod
    def _derived_facts(context: RewriteContext) -> set:
        return context.scratch.setdefault("constprop_derived", set())

    @staticmethod
    def _fact(reference: QRef, constant: ast.Expression) -> tuple:
        return (reference.quantifier.qid, reference.column.upper(),
                repr(constant))

    @classmethod
    def _candidate(cls, box: SelectBox, context: RewriteContext):
        """A (QRef, constant) pair implied by the conjuncts but not yet
        present as its own equality conjunct.

        Facts derived earlier in this fixpoint run are never derived
        again (``context.scratch``): Pushdown may legitimately *move* a
        derived equality into a lower DISTINCT/UNION box, and
        re-deriving it here would ping-pong until the budget blows.
        """
        # Union-find over column references joined by equality conjuncts.
        parent: dict[QRef, QRef] = {}

        def find(ref: QRef) -> QRef:
            parent.setdefault(ref, ref)
            while parent[ref] is not ref:
                parent[ref] = parent[parent[ref]]
                ref = parent[ref]
            return ref

        constants: dict[QRef, ast.Expression] = {}
        for predicate in box.predicates:
            if not isinstance(predicate, ast.BinaryOp) \
                    or predicate.op != "=":
                continue
            left, right = predicate.left, predicate.right
            if isinstance(left, QRef) and isinstance(right, QRef):
                parent[find(left)] = find(right)
            for ref, value in ((left, right), (right, left)):
                if isinstance(ref, QRef) and _is_constant(value):
                    constants.setdefault(find(ref), value)
        if not constants:
            return None
        # Normalize constants to class roots after all unions.
        by_root: dict[QRef, ast.Expression] = {}
        for ref, value in constants.items():
            by_root.setdefault(find(ref), value)
        present = set()
        for predicate in box.predicates:
            if isinstance(predicate, ast.BinaryOp) and predicate.op == "=":
                for ref, value in ((predicate.left, predicate.right),
                                   (predicate.right, predicate.left)):
                    if isinstance(ref, QRef) and _is_constant(value):
                        present.add(ref)
        derived = cls._derived_facts(context)
        for ref in parent:
            constant = by_root.get(find(ref))
            if constant is None or ref in present:
                continue
            if cls._fact(ref, constant) in derived:
                continue
            return ref, constant
        return None


class RedundantJoinElimination(Rule):
    """Remove joins that cannot change the result (Sect. 3.2 spirit).

    Two sound cases over *base-table* quantifiers:

    * **self-join**: two ForEach quantifiers over the same table whose
      rows are pairwise equated on a unique key refer to the same row;
      the second quantifier is substituted away.
    * **parent-join**: a ForEach quantifier over a parent table that is
      referenced *only* by foreign-key join conjuncts from a child
      quantifier whose FK columns are non-nullable: every child row
      matches exactly one parent row, so the join neither filters nor
      duplicates.
    """

    name = "JoinElim"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, SelectBox) and \
            (self._self_join_candidate(box) is not None
             or self._parent_join_candidate(box, context) is not None)

    def apply(self, box: SelectBox, context: RewriteContext) -> bool:
        found = self._self_join_candidate(box)
        if found is not None:
            keep, remove, equated = found
            self._substitute(context.graph, keep, remove)
            box.remove_quantifier(remove)
            self._drop_tautologies(box, keep, equated)
            return True
        found = self._parent_join_candidate(box, context)
        if found is not None:
            remove, join_predicates = found
            for predicate in join_predicates:
                box.predicates.remove(predicate)
            box.remove_quantifier(remove)
            return True
        return False

    # -- self-join ------------------------------------------------------
    @staticmethod
    def _self_join_candidate(box: SelectBox):
        foreach = [q for q in box.foreach_quantifiers()
                   if isinstance(q.box, BaseBox)]
        for i, keep in enumerate(foreach):
            for remove in foreach[i + 1:]:
                if remove.box.table.name != keep.box.table.name:
                    continue
                equated: set[str] = set()
                for predicate in box.predicates:
                    column = RedundantJoinElimination._pairwise_equality(
                        predicate, keep, remove)
                    if column is not None:
                        equated.add(column)
                if equated and columns_unique_in(keep.box, equated):
                    return keep, remove, equated
        return None

    @staticmethod
    def _pairwise_equality(predicate: ast.Expression, keep: Quantifier,
                           remove: Quantifier):
        """``keep.c = remove.c`` (same column, either order) -> 'C'."""
        if not isinstance(predicate, ast.BinaryOp) or predicate.op != "=":
            return None
        left, right = predicate.left, predicate.right
        if not (isinstance(left, QRef) and isinstance(right, QRef)):
            return None
        if {left.quantifier, right.quantifier} != {keep, remove}:
            return None
        if left.column.upper() != right.column.upper():
            return None
        return left.column.upper()

    @staticmethod
    def _substitute(graph: QGMGraph, keep: Quantifier,
                    remove: Quantifier) -> None:
        """Redirect every reference to ``remove`` (anywhere in the
        graph, including correlated subquery boxes and outer-join
        conditions) at ``keep``."""

        def mapping(leaf):
            if isinstance(leaf, QRef) and leaf.quantifier is remove:
                return QRef(keep, leaf.column)
            if isinstance(leaf, RidRef) and leaf.quantifier is remove:
                return RidRef(keep)
            return leaf

        for box in graph.all_boxes():
            rewrite_box_expressions(
                box, lambda expression: replace_qrefs(expression, mapping))

    @staticmethod
    def _drop_tautologies(box: SelectBox, keep: Quantifier,
                          equated: set[str]) -> None:
        """Drop ``keep.c = keep.c`` conjuncts for non-nullable columns.

        A nullable column keeps its (now self-referential) equality:
        ``c = c`` is UNKNOWN for NULL, which the original join predicate
        also rejected.
        """
        table = keep.box.table
        non_nullable = {
            column.name.upper() for column in table.columns
            if not column.nullable or column.primary_key
        }
        kept: list[ast.Expression] = []
        for predicate in box.predicates:
            column = RedundantJoinElimination._pairwise_equality(
                predicate, keep, keep)
            if column is not None and column in equated \
                    and column in non_nullable:
                continue
            kept.append(predicate)
        box.predicates = kept

    # -- parent-join ----------------------------------------------------
    @staticmethod
    def _parent_join_candidate(box: SelectBox, context: RewriteContext):
        foreach = set(box.foreach_quantifiers())
        for remove in box.foreach_quantifiers():
            if not isinstance(remove.box, BaseBox):
                continue
            parent_table = remove.box.table
            pk = {c.upper() for c in parent_table.primary_key}
            if not pk:
                continue
            usable = RedundantJoinElimination._sole_fk_usage(
                box, context, remove, foreach, pk)
            if usable is not None:
                return remove, usable
        return None

    @staticmethod
    def _sole_fk_usage(box: SelectBox, context: RewriteContext,
                       remove: Quantifier, foreach: set[Quantifier],
                       pk: set[str]):
        """The FK join conjuncts referencing ``remove`` — or None when
        any other reference exists or the FK guarantee does not hold."""
        join_predicates: list[ast.Expression] = []
        matched: dict[Quantifier, dict[str, str]] = {}  # child -> pk->fk
        for predicate in box.predicates:
            if remove not in quantifiers_in(predicate):
                continue
            if not isinstance(predicate, ast.BinaryOp) \
                    or predicate.op != "=":
                return None
            pair = None
            for this, other in ((predicate.left, predicate.right),
                                (predicate.right, predicate.left)):
                if isinstance(this, QRef) and this.quantifier is remove \
                        and isinstance(other, QRef) \
                        and other.quantifier is not remove:
                    pair = (this, other)
                    break
            if pair is None:
                return None
            parent_ref, child_ref = pair
            child = child_ref.quantifier
            if child not in foreach or not isinstance(child.box, BaseBox):
                return None
            columns = matched.setdefault(child, {})
            existing = columns.get(parent_ref.column.upper())
            if existing is not None \
                    and existing != child_ref.column.upper():
                # Two different child columns equated to one parent
                # column imply child_col_a = child_col_b; dropping the
                # join would lose that constraint.
                return None
            columns[parent_ref.column.upper()] = child_ref.column.upper()
            join_predicates.append(predicate)
        if not join_predicates:
            return None
        # No other expression anywhere may reference the parent
        # quantifier (identity comparison: a structurally identical
        # predicate elsewhere is still a separate reference).
        join_ids = {id(p) for p in join_predicates}
        for other_box in context.graph.all_boxes():
            for expression in box_expressions(other_box):
                if id(expression) in join_ids:
                    continue
                for node in walk_qgm_expression(expression):
                    if isinstance(node, (QRef, RidRef)) \
                            and node.quantifier is remove:
                        return None
        # One child must cover the full primary key through a declared
        # FK whose child columns are all non-nullable.
        parent_name = remove.box.table.name
        for child, columns in matched.items():
            if set(columns) != pk:
                continue
            child_table = child.box.table
            for fk in context.catalog.foreign_keys_of(child_table.name):
                if fk.parent_table.upper() != parent_name.upper():
                    continue
                fk_map = dict(zip(fk.parent_columns, fk.child_columns))
                if {k.upper() for k in fk_map} != pk:
                    continue
                if any(columns.get(p.upper()) != c.upper()
                       for p, c in fk_map.items()):
                    continue
                nullable = {
                    column.name.upper() for column in child_table.columns
                    if column.nullable and not column.primary_key
                }
                if any(c.upper() in nullable for c in fk.child_columns):
                    continue
                if len(matched) == 1:
                    return join_predicates
        return None


class PruneColumns(Rule):
    """Head pruning / projection pushdown as a first-class rule.

    Wraps :func:`prune_unused_columns` so pruning participates in the
    fixpoint (merges expose new dead columns; pruning in turn shrinks
    the boxes later rules scan) and shows up in EXPLAIN's
    rule-application counts.  Matches the TOP box so each engine sweep
    runs the global pass exactly once.
    """

    name = "PruneColumns"

    def matches(self, box: Box, context: RewriteContext) -> bool:
        return isinstance(box, TopBox)

    def apply(self, box: TopBox, context: RewriteContext) -> bool:
        removed = prune_unused_columns(context.graph)
        context.pruned_columns += removed
        return removed > 0


def default_nf_rules(prune: bool = True) -> list[Rule]:
    """A fresh default rule catalog (rules are stateless but listed
    per-engine for clarity).  ``prune=False`` drops the PruneColumns
    rule — the pipeline's ``prune_columns`` toggle."""
    from repro.rewrite.decorrelate import ScalarAggToJoin
    from repro.rewrite.view_merge import ViewMerge

    rules: list[Rule] = [
        TrivialPredicateElimination(),
        ExistentialToJoin(),
        SelectMerge(),
        ViewMerge(),
        ScalarAggToJoin(),
        ConstantPropagation(),
        RedundantJoinElimination(),
        PredicatePushdown(),
        SetOpPushdown(),
    ]
    if prune:
        rules.append(PruneColumns())
    return rules


DEFAULT_NF_RULES: list[Rule] = default_nf_rules(prune=False)


# ----------------------------------------------------------------------
# Global head pruning (a pass, not a local rule)
# ----------------------------------------------------------------------
def prune_unused_columns(graph: QGMGraph) -> int:
    """Remove head columns no consumer references.  Returns #removed.

    Heads of TOP outputs, DISTINCT boxes, set-operation participants
    (positional correspondence), group-by boxes and XNF components stay
    untouched.
    """
    used: dict[int, set[str]] = {}
    keep_all: set[int] = set()

    def mark_expression(expression: ast.Expression) -> None:
        for node in walk_qgm_expression(expression):
            if isinstance(node, QRef):
                used.setdefault(node.quantifier.box.box_id,
                                set()).add(node.column.upper())
            elif isinstance(node, RidRef):
                keep_all.add(node.quantifier.box.box_id)

    for box in graph.all_boxes():
        if isinstance(box, TopBox):
            for output in box.outputs:
                keep_all.add(output.box.box_id)
        elif isinstance(box, XNFBox):
            for component in box.components.values():
                keep_all.add(component.box.box_id)
            for relationship in box.relationships.values():
                if relationship.predicate is not None:
                    mark_expression(relationship.predicate)
        elif isinstance(box, SetOpBox):
            keep_all.add(box.box_id)
            for input_q in box.inputs:
                keep_all.add(input_q.box.box_id)
        elif isinstance(box, SelectBox):
            if box.distinct:
                keep_all.add(box.box_id)
            for column in box.head:
                if column.expression is not None:
                    mark_expression(column.expression)
            for predicate in box.predicates:
                mark_expression(predicate)
            for expression, _desc in box.order_by:
                mark_expression(expression)
        elif isinstance(box, GroupByBox):
            for column in box.head:
                if column.expression is not None:
                    mark_expression(column.expression)
            for key in box.group_keys:
                mark_expression(key)
            for spec in box.aggregates.values():
                if spec.argument is not None:
                    mark_expression(spec.argument)
        else:
            for column in box.head:
                if column.expression is not None:
                    mark_expression(column.expression)
            condition = getattr(box, "condition", None)
            if condition is not None:
                mark_expression(condition)

    removed = 0
    for box in graph.all_boxes():
        if not isinstance(box, SelectBox):
            continue
        if box.box_id in keep_all:
            continue
        wanted = used.get(box.box_id, set())
        kept = [c for c in box.head if c.name.upper() in wanted]
        if not kept and box.head:
            kept = box.head[:1]  # a derived table needs at least one column
        removed += len(box.head) - len(kept)
        box.head = kept
    return removed
