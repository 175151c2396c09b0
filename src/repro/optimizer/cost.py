"""Cardinality and cost estimation for plan optimization.

Statistics-driven where the statistics allow it, System R classic
where they don't.  Selectivities come from
:mod:`repro.storage.stats`:

* equality against a *known* constant uses the column's MCV list
  (exact frequency for heavy hitters) and spreads the remaining mass
  over the non-MCV distinct values;
* ranges and BETWEEN interpolate the column's equi-depth histogram;
* join equality uses the containment assumption — matching keys follow
  the smaller domain, so selectivity is 1/max(NDV);
* everything else (LIKE, unpeeked parameters, expressions over derived
  boxes) falls back to the classic fixed fractions.

Constants lifted by the auto-parameterizing plan cache are *peeked*
(``peek``: parameter index/name -> value, Oracle-style bind peeking),
so ad-hoc queries keep value-aware estimates even though the planner
sees ``Parameter`` nodes.  The model also prices physical operators
with page/CPU-style constants (one sequentially scanned row = 1 unit)
for access-path and join-method selection.
"""

from __future__ import annotations

from typing import Optional

from repro.qgm.model import (BaseBox, Box, GroupByBox, OuterJoinBox, QRef,
                             SelectBox, SetOpBox)
from repro.sql import ast
from repro.storage.stats import (UNKNOWN_VALUE, ColumnStats,
                                 StatisticsManager)

DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_OTHER_SELECTIVITY = 0.5
DEFAULT_DISTINCT = 10

# ----------------------------------------------------------------------
# Physical cost constants (relative units; one sequentially scanned
# row = 1).  Random access through an index costs more per row than a
# scan — our "pages" are Python list slots, so the spread is modest:
# an index scan beats a full scan below ~50% selectivity and loses
# above it, which is the decision boundary the access-path tests pin.
# ----------------------------------------------------------------------
SEQ_ROW_COST = 1.0
INDEX_PROBE_COST = 2.0
INDEX_ROW_COST = 2.0
HASH_BUILD_COST = 1.5
HASH_PROBE_COST = 1.0
NESTED_ROW_COST = 1.0

_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class CostModel:
    """Estimates row counts of QGM boxes, predicate selectivities, and
    physical operator costs."""

    def __init__(self, stats: StatisticsManager,
                 peek: Optional[dict] = None):
        self.stats = stats
        #: Bind-peek values: parameter index (int) or upper-cased name
        #: -> constant, from the statement that triggered this compile.
        self.peek = peek or {}
        self._box_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Box cardinalities
    # ------------------------------------------------------------------
    def box_rows(self, box: Box) -> float:
        cached = self._box_cache.get(box.box_id)
        if cached is not None:
            return cached
        rows = self._estimate(box)
        self._box_cache[box.box_id] = rows
        return rows

    def _estimate(self, box: Box) -> float:
        if isinstance(box, BaseBox):
            return float(max(len(box.table), 1))
        if isinstance(box, SelectBox):
            rows = 1.0
            for quantifier in box.foreach_quantifiers():
                rows *= self.box_rows(quantifier.box)
            rows *= self.conjunct_selectivity(box.predicates)
            for quantifier in box.body_quantifiers:
                if quantifier.qtype in ("E", "A"):
                    rows *= 0.5
            if box.distinct:
                rows *= 0.9
            if box.limit is not None:
                rows = min(rows, float(box.limit))
            return max(rows, 0.1)
        if isinstance(box, GroupByBox):
            input_rows = self.box_rows(box.input.box) if box.input else 1.0
            if not box.group_keys:
                return 1.0
            return max(input_rows / DEFAULT_DISTINCT, 1.0)
        if isinstance(box, SetOpBox):
            total = sum(self.box_rows(q.box) for q in box.inputs)
            return max(total * (0.9 if not box.all_rows else 1.0), 1.0)
        if isinstance(box, OuterJoinBox):
            left = self.box_rows(box.left.box)
            right = self.box_rows(box.right.box)
            joined = left * right * self.selectivity(box.condition) \
                if box.condition is not None else left * right
            return max(joined, left)
        return 1.0

    # ------------------------------------------------------------------
    # Selectivities
    # ------------------------------------------------------------------
    def conjunct_selectivity(self, predicates) -> float:
        """Combined selectivity of AND-ed predicates.

        Flattens nested ANDs and drops duplicate conjuncts before
        multiplying under independence: a predicate repeated verbatim
        (``x = 1 AND x = 1``) filters nothing the first copy didn't,
        so multiplying its selectivity in again would drive the
        estimate toward zero for no reason.  Duplicates are detected
        on a canonical key that resolves peeked parameters and
        normalizes commutative operand order.
        """
        flat: list[ast.Expression] = []
        for predicate in predicates:
            flat.extend(ast.conjuncts(predicate))
        seen: set = set()
        selectivity = 1.0
        for predicate in flat:
            key = self._conjunct_key(predicate)
            if key not in seen:
                seen.add(key)
                selectivity *= self.selectivity(predicate)
        return selectivity

    def _conjunct_key(self, expression: ast.Expression):
        """A canonical, hashable key for duplicate-conjunct detection."""
        if isinstance(expression, ast.BinaryOp):
            left = self._conjunct_key(expression.left)
            right = self._conjunct_key(expression.right)
            if expression.op in ("=", "<>", "AND", "OR", "+", "*"):
                left, right = sorted((left, right), key=str)
            return (expression.op, left, right)
        if isinstance(expression, ast.Parameter):
            value = self._peek_value(expression)
            if value is not UNKNOWN_VALUE:
                return ("const", type(value).__name__, repr(value))
            return ("param", expression.index, expression.name)
        if isinstance(expression, ast.Literal):
            value = expression.value
            return ("const", type(value).__name__, repr(value))
        return str(expression)

    def selectivity(self, predicate: ast.Expression) -> float:
        if isinstance(predicate, ast.BinaryOp):
            if predicate.op == "AND":
                return self.conjunct_selectivity([predicate])
            if predicate.op == "OR":
                left = self.selectivity(predicate.left)
                right = self.selectivity(predicate.right)
                return min(left + right, 1.0)
            if predicate.op == "=":
                return self._equality_selectivity(predicate)
            if predicate.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(predicate)
            if predicate.op == "<>":
                return max(1.0 - self._equality_selectivity(predicate),
                           0.0)
        if isinstance(predicate, ast.Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(predicate, ast.Between):
            return self._between_selectivity(predicate)
        if isinstance(predicate, ast.IsNull):
            return self._is_null_selectivity(predicate)
        if isinstance(predicate, ast.InList):
            return self._in_list_selectivity(predicate)
        if isinstance(predicate, ast.Literal):
            if predicate.value is True:
                return 1.0
            if predicate.value in (False, None):
                return 0.0
        return DEFAULT_OTHER_SELECTIVITY

    # -- equality ------------------------------------------------------
    def _equality_selectivity(self, predicate: ast.BinaryOp) -> float:
        for this, other in ((predicate.left, predicate.right),
                            (predicate.right, predicate.left)):
            this_stats = self._column_stats(this)
            if this_stats is None:
                continue
            column, cardinality = this_stats
            other_stats = self._column_stats(other)
            if other_stats is not None:
                # Join predicate: under containment, every key of the
                # smaller domain finds partners, so sel = 1/max(NDV)
                # (scaled by both sides' non-null fractions).
                other_column, _card = other_stats
                distinct = max(column.distinct, other_column.distinct, 1)
                sel = (1.0 - column.null_fraction) \
                    * (1.0 - other_column.null_fraction) / distinct
                return min(max(sel, 0.0), 1.0)
            value = self._constant_value(other)
            return min(column.selectivity_equals(cardinality, value), 1.0)
        return self._uniform_equality(predicate)

    def _uniform_equality(self, predicate: ast.BinaryOp) -> float:
        distinct = max(
            self._distinct_of(predicate.left),
            self._distinct_of(predicate.right),
        )
        return 1.0 / max(distinct, 1.0)

    def _distinct_of(self, expression: ast.Expression) -> float:
        if isinstance(expression, QRef):
            box = expression.quantifier.box
            if isinstance(box, BaseBox):
                stats = self.stats.stats_for(box.table.name)
                return float(stats.column(expression.column).distinct
                             or DEFAULT_DISTINCT)
            return float(DEFAULT_DISTINCT)
        if isinstance(expression, (ast.Literal, ast.Parameter)):
            # A parameter is a single (as yet unknown) constant: same
            # cardinality contribution as a literal.
            return 1.0
        return float(DEFAULT_DISTINCT)

    # -- ranges --------------------------------------------------------
    def _range_selectivity(self, predicate: ast.BinaryOp) -> float:
        for this, other, op in (
                (predicate.left, predicate.right, predicate.op),
                (predicate.right, predicate.left,
                 _FLIP_OP[predicate.op])):
            info = self._column_stats(this)
            if info is None:
                continue
            value = self._constant_value(other)
            if value is UNKNOWN_VALUE:
                continue
            estimated = info[0].selectivity_range(op, value)
            if estimated is not None:
                return estimated
        return DEFAULT_RANGE_SELECTIVITY

    def _between_selectivity(self, predicate: ast.Between) -> float:
        inner = DEFAULT_RANGE_SELECTIVITY
        info = self._column_stats(predicate.operand)
        low = self._constant_value(predicate.low)
        high = self._constant_value(predicate.high)
        if info is not None and low is not UNKNOWN_VALUE \
                and high is not UNKNOWN_VALUE:
            below_high = info[0].selectivity_range("<=", high)
            below_low = info[0].selectivity_range("<", low)
            if below_high is not None and below_low is not None:
                inner = max(below_high - below_low, 0.0)
        if predicate.negated:
            return max(1.0 - inner, 0.0)
        return inner

    def _is_null_selectivity(self, predicate: ast.IsNull) -> float:
        null_fraction = 0.1
        info = self._column_stats(predicate.operand)
        if info is not None:
            null_fraction = info[0].null_fraction
        if predicate.negated:
            return max(1.0 - null_fraction, 0.0)
        return min(null_fraction, 1.0)

    def _in_list_selectivity(self, predicate: ast.InList) -> float:
        info = self._column_stats(predicate.operand)
        if info is not None:
            column, cardinality = info
            total = 0.0
            for item in predicate.items:
                value = self._constant_value(item)
                total += column.selectivity_equals(cardinality, value)
            return min(total, 1.0)
        return min(len(predicate.items)
                   * DEFAULT_EQUALITY_SELECTIVITY, 1.0)

    # -- stats plumbing ------------------------------------------------
    def _column_stats(self, expression
                      ) -> Optional[tuple[ColumnStats, int]]:
        """(ColumnStats, table cardinality) when the expression is a
        direct column of a base table; None otherwise."""
        if isinstance(expression, QRef):
            box = expression.quantifier.box
            if isinstance(box, BaseBox):
                table_stats = self.stats.stats_for(box.table.name)
                return (table_stats.column(expression.column),
                        table_stats.cardinality)
        return None

    def _peek_value(self, parameter: ast.Parameter):
        if parameter.index is not None and parameter.index in self.peek:
            return self.peek[parameter.index]
        if parameter.name is not None:
            name = parameter.name.upper()
            if name in self.peek:
                return self.peek[name]
        return UNKNOWN_VALUE

    def _constant_value(self, expression: ast.Expression):
        """The constant an expression evaluates to, UNKNOWN_VALUE if
        not statically known.  Parameters resolve through the peek
        bindings (bind peeking)."""
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Parameter):
            return self._peek_value(expression)
        return UNKNOWN_VALUE

    # ------------------------------------------------------------------
    # Join/local cardinality helpers for the join ordering
    # ------------------------------------------------------------------
    def join_rows(self, left_rows: float, right_rows: float,
                  predicates: list[ast.Expression]) -> float:
        """Rows of the cross product filtered by ``predicates``."""
        rows = left_rows * right_rows \
            * self.conjunct_selectivity(predicates)
        return max(rows, 0.1)

    def local_rows(self, box: Box,
                   local_predicates: list[ast.Expression]) -> float:
        rows = self.box_rows(box) \
            * self.conjunct_selectivity(local_predicates)
        return max(rows, 0.1)

    # ------------------------------------------------------------------
    # Physical operator costs (access-path and join-method selection)
    # ------------------------------------------------------------------
    def scan_cost(self, rows: float) -> float:
        """Full sequential scan of ``rows`` stored rows."""
        return max(rows, 1.0) * SEQ_ROW_COST

    def index_scan_cost(self, matching_rows: float) -> float:
        """One index descent plus a random fetch per matching row."""
        return INDEX_PROBE_COST + max(matching_rows, 0.0) * INDEX_ROW_COST

    def hash_join_cost(self, probe_rows: float, build_rows: float,
                       build_access_cost: float) -> float:
        """Materialize+hash the build side, then probe once per outer
        row."""
        return build_access_cost + build_rows * HASH_BUILD_COST \
            + max(probe_rows, 0.0) * HASH_PROBE_COST

    def inl_join_cost(self, outer_rows: float,
                      matched_rows: float) -> float:
        """Index nested-loop: one index probe per outer row plus a
        random fetch per matched inner row."""
        return max(outer_rows, 0.0) * INDEX_PROBE_COST \
            + max(matched_rows, 0.0) * INDEX_ROW_COST

    def nested_loop_cost(self, left_rows: float, right_rows: float,
                         right_access_cost: float) -> float:
        """Cross/nested-loop join: materialize the inner once, then
        pair every row combination."""
        return right_access_cost \
            + max(left_rows, 1.0) * max(right_rows, 1.0) * NESTED_ROW_COST

    def invalidate(self) -> None:
        self._box_cache.clear()
