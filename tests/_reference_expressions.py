"""Reference expression compiler: a frozen copy of the closure compiler.

``repro.executor.expressions`` generates Python source for each
expression and builds one kernel per operator.  This file keeps the
compiler it replaced, one nested closure per expression node, as the
oracle of ``tests/test_expression_kernels.py``: on every expression and
row both must give the same value, the same kept rows, or an error of
the same class (the same message for unbound parameters and for
comparisons of mismatched types).  It shares nothing with the real
compiler but the scalar function table.  Do not edit it to follow the
real compiler.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Optional

from repro.errors import ExecutionError
from repro.executor import expressions as _kernels
from repro.qgm.model import QRef, RidRef
from repro.sql import ast

#: Layout: (quantifier id, upper-cased column name) -> row position.
#: RIDs use the pseudo-column name "$RID$".
Layout = dict[tuple[int, str], int]

RID_COLUMN = "$RID$"

CompiledExpression = Callable[[tuple, Any], Any]

#: Batch predicate: filters a list of rows, returning the kept rows in
#: order (rows whose predicate is exactly True), with conjunct-level
#: short-circuiting: later conjuncts only see survivors.
BatchPredicate = Callable[[list, Any], list]


def sql_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Optional[bool]) -> Optional[bool]:
    if value is None:
        return None
    return not value


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern (%, _) into an anchored regex."""
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


SCALAR_FUNCTIONS = _kernels.SCALAR_FUNCTIONS


def column_ref(position: int) -> CompiledExpression:
    """A compiled column reference.  ``position`` is exposed so batch
    operators can fetch plain columns with ``itemgetter`` instead of a
    call per row."""
    def run(row, ctx):
        return row[position]
    run.position = position
    return run


_COMPARATORS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {left!r} and {right!r}"
        ) from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            result = left / right
            if isinstance(left, int) and isinstance(right, int) \
                    and result == int(result):
                return int(result)
            return result
        if op == "||":
            return f"{left}{right}"
    except TypeError as exc:
        raise ExecutionError(
            f"cannot apply {op} to {left!r} and {right!r}"
        ) from exc
    raise ExecutionError(f"unknown operator {op!r}")


_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: ``a op b`` is equivalent to ``b flip(op) a``.
_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=",
               ">": "<", ">=": "<="}


def fold_constants(expression: ast.Expression) -> ast.Expression:
    """Evaluate literal-only subexpressions at compile time.

    Folds arithmetic, comparisons, AND/OR/NOT, and pure scalar functions
    whose operands are all literals, replacing them with the literal the
    runtime closure would have produced.  Anything that would raise
    (division by zero, type mismatches) is left unfolded so the error
    still surfaces at execution time.
    """
    if isinstance(expression, ast.BinaryOp):
        left = fold_constants(expression.left)
        right = fold_constants(expression.right)
        if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
            op = expression.op
            try:
                if op == "AND":
                    return ast.Literal(sql_and(left.value, right.value))
                if op == "OR":
                    return ast.Literal(sql_or(left.value, right.value))
                if op in _COMPARISON_OPS:
                    return ast.Literal(_compare(op, left.value, right.value))
                return ast.Literal(_arith(op, left.value, right.value))
            except ExecutionError:
                pass
        if left is not expression.left or right is not expression.right:
            return ast.BinaryOp(expression.op, left, right)
        return expression
    if isinstance(expression, ast.UnaryOp):
        operand = fold_constants(expression.operand)
        if isinstance(operand, ast.Literal):
            if expression.op == "NOT":
                return ast.Literal(sql_not(operand.value))
            if expression.op == "-":
                if operand.value is None:
                    return ast.Literal(None)
                try:
                    return ast.Literal(-operand.value)
                except TypeError:
                    pass
        if operand is not expression.operand:
            return ast.UnaryOp(expression.op, operand)
        return expression
    if isinstance(expression, ast.FunctionCall):
        args = tuple(fold_constants(a) for a in expression.args)
        name = expression.name.upper()
        if (not name.startswith("$") and name in SCALAR_FUNCTIONS
                and not expression.distinct
                and all(isinstance(a, ast.Literal) for a in args)):
            try:
                value = SCALAR_FUNCTIONS[name](*(a.value for a in args))
                return ast.Literal(value)
            except Exception:
                pass
        if any(a is not b for a, b in zip(args, expression.args)):
            return ast.FunctionCall(expression.name, args,
                                    expression.distinct)
        return expression
    if isinstance(expression, ast.IsNull):
        operand = fold_constants(expression.operand)
        if isinstance(operand, ast.Literal):
            is_null = operand.value is None
            return ast.Literal(not is_null if expression.negated
                               else is_null)
        if operand is not expression.operand:
            return ast.IsNull(operand, expression.negated)
        return expression
    if isinstance(expression, ast.Between):
        operand = fold_constants(expression.operand)
        low = fold_constants(expression.low)
        high = fold_constants(expression.high)
        if (operand is not expression.operand or low is not expression.low
                or high is not expression.high):
            return ast.Between(operand, low, high, expression.negated)
        return expression
    if isinstance(expression, ast.InList):
        operand = fold_constants(expression.operand)
        items = tuple(fold_constants(i) for i in expression.items)
        if (operand is not expression.operand
                or any(a is not b for a, b in zip(items, expression.items))):
            return ast.InList(operand, items, expression.negated)
        return expression
    return expression


class ExpressionCompiler:
    """Compiles QGM expressions against a fixed row layout."""

    def __init__(self, layout: Layout):
        self.layout = layout

    def compile(self, expression: ast.Expression) -> CompiledExpression:
        return self._compile(fold_constants(expression))

    def compile_condition(self, expression: ast.Expression
                          ) -> CompiledExpression:
        """Compile a predicate for a per-row *filter* context (the
        matview delta joins).

        Same True/dropped outcome as :meth:`compile` for every row, but
        conjunctions short-circuit exactly like the batch filter built
        by :meth:`compile_filter`: a right conjunct is only evaluated
        when the left conjunct is True, so both agree on which side
        effects (runtime errors) can surface.  Only valid where UNKNOWN
        and False are interchangeable — filters keep exactly-True rows —
        not for value contexts.
        """
        return self._condition(fold_constants(expression))

    def _condition(self, expression: ast.Expression) -> CompiledExpression:
        if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
            left = self._condition(expression.left)
            right = self._condition(expression.right)

            def run(row, ctx):
                if left(row, ctx) is True:
                    return right(row, ctx)
                return False
            return run
        return self._compile(expression)

    def _compile(self, expression: ast.Expression) -> CompiledExpression:
        if isinstance(expression, ast.Literal):
            value = expression.value
            return lambda row, ctx: value
        if isinstance(expression, ast.Parameter):
            key = expression.key
            marker = str(expression)

            def run_parameter(row, ctx):
                if ctx is None:
                    raise ExecutionError(
                        f"statement parameter {marker} has no bound value"
                    )
                return ctx.parameter(key)
            return run_parameter
        if isinstance(expression, QRef):
            position = self._position(expression.quantifier.qid,
                                      expression.column)
            if position is not None:
                return column_ref(position)
            # Not in the layout: a scalar-subquery quantifier, resolved
            # through the execution context at run time.
            quantifier = expression.quantifier
            if quantifier.qtype != "S":
                raise ExecutionError(
                    f"column {quantifier.name}.{expression.column} is "
                    f"not available in this plan"
                )
            qid = quantifier.qid
            correlation = quantifier.correlation
            if not correlation:
                return lambda row, ctx: ctx.scalar_value(qid)
            # Correlated: evaluate the outer-side expressions against
            # the current row, then run the subquery plan with those
            # values bound to its correlation slots (memoized per
            # distinct binding).
            slots = tuple(slot for slot, _leaf in correlation)
            leaf_fns = tuple(self._compile(leaf)
                             for _slot, leaf in correlation)

            def run_correlated(row, ctx):
                values = tuple(fn(row, ctx) for fn in leaf_fns)
                return ctx.correlated_scalar(qid, slots, values)
            return run_correlated
        if isinstance(expression, RidRef):
            position = self._position(expression.quantifier.qid, RID_COLUMN)
            if position is None:
                raise ExecutionError(
                    f"RID of {expression.quantifier.name} not available "
                    f"in this plan"
                )
            return column_ref(position)
        if isinstance(expression, ast.BinaryOp):
            return self._compile_binary(expression)
        if isinstance(expression, ast.UnaryOp):
            operand = self._compile(expression.operand)
            if expression.op == "NOT":
                return lambda row, ctx: sql_not(operand(row, ctx))
            if expression.op == "-":
                return lambda row, ctx: (
                    None if operand(row, ctx) is None else -operand(row, ctx)
                )
            raise ExecutionError(f"unknown unary operator {expression.op!r}")
        if isinstance(expression, ast.FunctionCall):
            return self._compile_function(expression)
        if isinstance(expression, ast.IsNull):
            operand = self._compile(expression.operand)
            if expression.negated:
                return lambda row, ctx: operand(row, ctx) is not None
            return lambda row, ctx: operand(row, ctx) is None
        if isinstance(expression, ast.Between):
            return self._compile_between(expression)
        if isinstance(expression, ast.Like):
            return self._compile_like(expression)
        if isinstance(expression, ast.InList):
            return self._compile_in_list(expression)
        if isinstance(expression, ast.CaseWhen):
            return self._compile_case(expression)
        raise ExecutionError(f"cannot compile expression {expression!r}")

    # ------------------------------------------------------------------
    def _position(self, qid: int, column: str) -> Optional[int]:
        return self.layout.get((qid, column.upper()))

    def _compile_binary(self, expression: ast.BinaryOp) -> CompiledExpression:
        left = self._compile(expression.left)
        right = self._compile(expression.right)
        op = expression.op
        if op == "AND":
            return lambda row, ctx: sql_and(left(row, ctx), right(row, ctx))
        if op == "OR":
            return lambda row, ctx: sql_or(left(row, ctx), right(row, ctx))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda row, ctx: _compare(op, left(row, ctx),
                                             right(row, ctx))
        return lambda row, ctx: _arith(op, left(row, ctx), right(row, ctx))

    def _compile_function(self,
                          expression: ast.FunctionCall) -> CompiledExpression:
        name = expression.name.upper()
        function = SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise ExecutionError(f"unknown function {name!r}")
        args = [self._compile(a) for a in expression.args]
        return lambda row, ctx: function(*(a(row, ctx) for a in args))

    def _compile_between(self,
                         expression: ast.Between) -> CompiledExpression:
        operand = self._compile(expression.operand)
        low = self._compile(expression.low)
        high = self._compile(expression.high)

        def run(row, ctx):
            value = operand(row, ctx)
            result = sql_and(_compare(">=", value, low(row, ctx)),
                             _compare("<=", value, high(row, ctx)))
            return sql_not(result) if expression.negated else result
        return run

    def _compile_like(self, expression: ast.Like) -> CompiledExpression:
        operand = self._compile(expression.operand)
        if isinstance(expression.pattern, ast.Literal) \
                and isinstance(expression.pattern.value, str):
            regex = like_to_regex(expression.pattern.value)

            def run_static(row, ctx):
                value = operand(row, ctx)
                if value is None:
                    return None
                matched = regex.match(value) is not None
                return not matched if expression.negated else matched
            return run_static

        pattern = self._compile(expression.pattern)

        def run_dynamic(row, ctx):
            value = operand(row, ctx)
            pattern_value = pattern(row, ctx)
            if value is None or pattern_value is None:
                return None
            matched = like_to_regex(pattern_value).match(value) is not None
            return not matched if expression.negated else matched
        return run_dynamic

    def _compile_in_list(self, expression: ast.InList) -> CompiledExpression:
        operand = self._compile(expression.operand)
        items = [self._compile(i) for i in expression.items]

        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return False if expression.negated else True
            if saw_null:
                return None
            return True if expression.negated else False
        return run

    def _compile_case(self, expression: ast.CaseWhen) -> CompiledExpression:
        whens = [(self._compile(c), self._compile(r))
                 for c, r in expression.whens]
        default = (self._compile(expression.default)
                   if expression.default is not None else None)

        def run(row, ctx):
            for condition, result in whens:
                if condition(row, ctx) is True:
                    return result(row, ctx)
            return default(row, ctx) if default is not None else None
        return run

    # ------------------------------------------------------------------
    # Batch (vectorized) predicate compilation
    # ------------------------------------------------------------------
    def compile_filter(self, expression: ast.Expression) -> BatchPredicate:
        """Compile a predicate into a batch filter.

        The returned callable takes (rows, ctx) and returns the rows
        whose predicate evaluates to exactly True, preserving order.
        Conjunctions short-circuit at batch granularity (the right
        conjunct only sees the left conjunct's survivors) and
        column-vs-constant comparisons run as plain comprehensions with
        no per-row closure call.
        """
        return self._filter(fold_constants(expression))

    def _filter(self, expression: ast.Expression) -> BatchPredicate:
        if isinstance(expression, ast.Literal):
            if expression.value is True:
                return lambda rows, ctx: rows
            return lambda rows, ctx: []
        if isinstance(expression, ast.BinaryOp):
            if expression.op == "AND":
                left = self._filter(expression.left)
                right = self._filter(expression.right)

                def run_and(rows, ctx):
                    kept = left(rows, ctx)
                    return right(kept, ctx) if kept else kept
                return run_and
            if expression.op in _COMPARISON_OPS:
                fast = self._filter_comparison(expression)
                if fast is not None:
                    return fast
        if isinstance(expression, ast.IsNull):
            fast = self._filter_is_null(expression)
            if fast is not None:
                return fast
        fn = self._compile(expression)
        return lambda rows, ctx: [row for row in rows
                                  if fn(row, ctx) is True]

    def _filter_comparison(self,
                           expression: ast.BinaryOp
                           ) -> Optional[BatchPredicate]:
        """Fast path for ``column op constant-or-parameter`` (either side)
        and ``column op column``."""
        for this, other, op in (
                (expression.left, expression.right, expression.op),
                (expression.right, expression.left,
                 _FLIPPED_OP[expression.op])):
            if isinstance(this, QRef) and isinstance(other, ast.Literal):
                position = self._position(this.quantifier.qid, this.column)
                if position is None:
                    return None  # scalar-subquery quantifier: generic path
                value = other.value
                if value is None:
                    # Comparison with NULL is UNKNOWN: keeps nothing.
                    return lambda rows, ctx: []
                return _comparison_filter(op, position, value)
            if isinstance(this, QRef) and isinstance(other, ast.Parameter):
                position = self._position(this.quantifier.qid, this.column)
                if position is None:
                    return None
                key = other.key

                def run_bound(rows, ctx, _op=op, _position=position,
                              _key=key):
                    value = ctx.parameter(_key)
                    if value is None:
                        return []
                    return _comparison_filter(_op, _position, value)(
                        rows, ctx)
                return run_bound
            if isinstance(this, QRef) and isinstance(other, QRef):
                position = self._position(this.quantifier.qid, this.column)
                other_position = self._position(other.quantifier.qid,
                                                other.column)
                if position is None or other_position is None:
                    return None
                return _column_comparison_filter(op, position,
                                                 other_position)
        return None

    def _filter_is_null(self, expression: ast.IsNull
                        ) -> Optional[BatchPredicate]:
        operand = expression.operand
        if not isinstance(operand, QRef):
            return None
        position = self._position(operand.quantifier.qid, operand.column)
        if position is None:
            return None
        if expression.negated:
            return lambda rows, ctx: [r for r in rows
                                      if r[position] is not None]
        return lambda rows, ctx: [r for r in rows if r[position] is None]


def _comparison_filter(op: str, position: int, value) -> BatchPredicate:
    """Comprehension-based filters matching 3VL row semantics.

    A NULL operand makes the comparison UNKNOWN, which never qualifies;
    equality needs no explicit guard because ``None == value`` is False
    for the non-NULL ``value`` the caller guarantees.  Ordering
    comparisons fall back to the per-row comparator on type mismatches
    so the error is the one :meth:`ExpressionCompiler.compile` raises.
    """
    if op == "=":
        def run(rows, ctx):
            return [r for r in rows if r[position] == value]
    elif op == "<>":
        def run(rows, ctx):
            return [r for r in rows
                    if r[position] is not None and r[position] != value]
    elif op == "<":
        def run(rows, ctx):
            try:
                return [r for r in rows
                        if r[position] is not None and r[position] < value]
            except TypeError:
                return [r for r in rows
                        if _compare("<", r[position], value) is True]
    elif op == "<=":
        def run(rows, ctx):
            try:
                return [r for r in rows
                        if r[position] is not None and r[position] <= value]
            except TypeError:
                return [r for r in rows
                        if _compare("<=", r[position], value) is True]
    elif op == ">":
        def run(rows, ctx):
            try:
                return [r for r in rows
                        if r[position] is not None and r[position] > value]
            except TypeError:
                return [r for r in rows
                        if _compare(">", r[position], value) is True]
    elif op == ">=":
        def run(rows, ctx):
            try:
                return [r for r in rows
                        if r[position] is not None and r[position] >= value]
            except TypeError:
                return [r for r in rows
                        if _compare(">=", r[position], value) is True]
    else:  # pragma: no cover - caller restricts ops
        raise ExecutionError(f"unknown comparison operator {op!r}")
    return run


def _column_comparison_filter(op: str, left: int,
                              right: int) -> BatchPredicate:
    """``column op column`` as one comprehension; like
    :func:`_comparison_filter`, a type mismatch falls back to the per-row
    comparator so the error matches."""
    compare = _COMPARATORS[op]

    def run(rows, ctx):
        try:
            return [r for r in rows
                    if r[left] is not None and r[right] is not None
                    and compare(r[left], r[right])]
        except TypeError:
            return [r for r in rows
                    if _compare(op, r[left], r[right]) is True]
    return run
