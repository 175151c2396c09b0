"""Compilation of QGM expressions into generated Python kernels.

Expressions are compiled once per plan against a *layout* — a mapping
from (quantifier id, column name) to a position in the flat intermediate
row.  SQL three-valued logic is implemented with ``None`` standing for
UNKNOWN/NULL: comparisons with NULL yield None, AND/OR follow Kleene
logic, and filters only keep rows whose predicate is exactly True.

Compilation is produce/consume code generation (Neumann, VLDB 2011) at
Python scale: the compiler writes Python source for a whole operator —
one comprehension per batch for a filter, a projection (with a fused
filter) or join keys, one function per row for a value — and runs it
once with an environment of bound names.  A column becomes ``row[i]``,
a parameter a local bound from ``ctx.parameters`` once per call;
literals, regexes, functions and subquery ids are bound by name, never
spliced into the text, so every literal variant of one expression shape
compiles to the same (cached) source.  Comparisons and arithmetic are
inlined with NULL guards; each kernel has a *checked twin*, built on
first use, that resolves parameters per use and routes them through
:func:`_compare` / :func:`_arith`.  When the fast kernel meets a
``TypeError`` or an unbound parameter the twin reruns the call, so the
error raised is the one those helpers raise.  Every operand of a value
is evaluated, in order, as one call per node would (IN items and CASE
branches lazily); a filter narrows a batch conjunct by conjunct.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass, replace
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

from repro.errors import ExecutionError
from repro.qgm.model import QRef, RidRef
from repro.sql import ast

#: Layout: (quantifier id, upper-cased column name) -> row position.
#: RIDs use the pseudo-column name "$RID$".
Layout = dict[tuple[int, str], int]

RID_COLUMN = "$RID$"

#: Value kernel: ``fn(row, ctx)`` -> the expression's value for one row.
CompiledExpression = Callable[[tuple, Any], Any]

#: Batch kernel: ``fn(rows, ctx)`` -> one output per input row (a
#: projected tuple or a join key); a batch predicate gives the rows
#: whose predicate is exactly True, in order.
BatchKernel = BatchPredicate = Callable[[list, Any], list]


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


def _scalar_upper(value):
    return None if value is None else str(value).upper()


def _scalar_lower(value):
    return None if value is None else str(value).lower()


def _scalar_length(value):
    return None if value is None else len(value)


def _scalar_abs(value):
    return None if value is None else abs(value)


def _scalar_mod(value, divisor):
    if value is None or divisor is None:
        return None
    if divisor == 0:
        raise ExecutionError("MOD by zero")
    return value % divisor


def _scalar_substr(value, start, length=None):
    if value is None or start is None:
        return None
    begin = max(int(start) - 1, 0)
    if length is None:
        return value[begin:]
    return value[begin:begin + int(length)]


def _scalar_trim(value):
    return None if value is None else value.strip()


def _scalar_round(value, digits=0):
    if value is None:
        return None
    return round(value, int(digits or 0))


def _scalar_coalesce(*values):
    for value in values:
        if value is not None:
            return value
    return None


def _scalar_idtuple(*values):
    """Value-based tuple identity for derived composite-object tuples
    (components whose derivation has no single base-table RID)."""
    return values


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "$IDTUPLE$": _scalar_idtuple,
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "LENGTH": _scalar_length,
    "ABS": _scalar_abs,
    "MOD": _scalar_mod,
    "SUBSTR": _scalar_substr,
    "SUBSTRING": _scalar_substr,
    "TRIM": _scalar_trim,
    "ROUND": _scalar_round,
    "COALESCE": _scalar_coalesce,
}


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

def fold_constants(expression: ast.Expression) -> ast.Expression:
    """Replace each literal-only subexpression by the literal its value
    kernel computes; one that raises (division by zero, a type mismatch)
    stays, so the error surfaces at execution time."""
    if isinstance(expression, ast.Literal) or not is_dataclass(expression):
        return expression
    if _constant(expression):
        try:
            return ast.Literal(_build_kernel(
                {}, "row", lambda emitter: [emitter.value(expression)])(
                    (), None))
        except Exception:  # noqa: BLE001 - left for run time
            pass
    changes = {}
    for field in fields(expression):
        value = getattr(expression, field.name)
        folded = _fold_value(value)
        if folded is not value:
            changes[field.name] = folded
    return replace(expression, **changes) if changes else expression


def _fold_value(value):
    if isinstance(value, ast.Expression):
        return fold_constants(value)
    if isinstance(value, tuple):
        folded = tuple(_fold_value(item) for item in value)
        if any(a is not b for a, b in zip(folded, value)):
            return folded
    return value


def _constant(expression) -> bool:
    """Whether ``expression`` is built from literals by pure operators."""
    if isinstance(expression, ast.Literal):
        return True
    if isinstance(expression, ast.FunctionCall):
        name = expression.name.upper()
        if name.startswith("$") or name not in SCALAR_FUNCTIONS \
                or expression.distinct:
            return False
    elif not isinstance(expression, (ast.BinaryOp, ast.UnaryOp, ast.IsNull,
                                     ast.Between, ast.InList, ast.Like,
                                     ast.CaseWhen)):
        return False
    return all(_constant(child) for field in fields(expression)
               for child in _expressions(getattr(expression, field.name)))


def _expressions(value):
    if isinstance(value, ast.Expression):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _expressions(item)


# ----------------------------------------------------------------------
# Kernel generation
# ----------------------------------------------------------------------
def _param(ctx, key, marker: str) -> Any:
    """A parameter's value at its point of use (the checked twin)."""
    if ctx is None:
        raise ExecutionError(f"statement parameter {marker} has no bound value")
    return ctx.parameter(key)


def _like(value, pattern, negated: bool) -> Optional[bool]:
    """LIKE with a pattern computed per row."""
    if value is None or pattern is None:
        return None
    matched = like_to_regex(pattern).match(value) is not None
    return not matched if negated else matched


#: Python spelling of the SQL operators the kernels inline.
_PYTHON_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
               ">=": ">=", "+": "+", "-": "-", "*": "*"}

_HELPERS = {"_compare": _compare, "_arith": _arith, "_param": _param,
            "_like": _like,
            # What sends a fast kernel to its checked twin: an operator
            # on mismatched types, or a parameter the context lacks.
            "_FALLBACK": (TypeError, KeyError, AttributeError)}


@lru_cache(maxsize=2048)
def _code(source: str):
    return compile(source, "<kernel>", "exec")


class _Operand:
    """An operand a compound form reads more than once: a pure one
    (column, literal, hoisted parameter) is re-read in place, any other
    is evaluated once, into a temporary, at its first use."""

    __slots__ = ("source", "temp", "nullable", "used")

    def __init__(self, source: str, temp: Optional[str], nullable: bool):
        self.source, self.temp, self.nullable = source, temp, nullable
        self.used = False

    def use(self) -> str:
        if self.temp is None or self.used:
            return self.temp or self.source
        self.used = True
        return f"({self.temp} := {self.source})"


class _Emitter:
    """Source text and environment of one kernel: ``value`` renders an
    expression's value, ``predicate`` a ``bool`` that is True exactly
    when the value is; ``checked`` selects the twin's rendering."""

    def __init__(self, layout: Layout, checked: bool):
        self.layout = layout
        self.checked = checked
        self.env: dict[str, Any] = dict(_HELPERS)
        #: parameter key -> (local name, name of the bound key)
        self.parameters: dict[Any, tuple[str, str]] = {}
        #: True once the source can raise what the twin must re-raise.
        self.fallible = False
        self._names = 0

    def _name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def bind(self, value: Any) -> str:
        name = self._name("_b")
        self.env[name] = value
        return name

    def operand(self, expression: ast.Expression) -> _Operand:
        source = self.value(expression)
        if isinstance(expression, ast.Literal):
            return _Operand(source, None, expression.value is None)
        pure = isinstance(expression, RidRef) or (
            isinstance(expression, ast.Parameter) and not self.checked) or (
            isinstance(expression, QRef) and source.startswith("row["))
        return _Operand(source, None if pure else self._name("_t"), True)

    def _position(self, qid: int, column: str) -> Optional[int]:
        return self.layout.get((qid, column.upper()))

    @staticmethod
    def _null_test(operands: list[_Operand], present: bool
                   ) -> Optional[str]:
        """Source testing that some operand is NULL (with ``present``:
        that none is).  It evaluates every operand, in order; it only
        short-circuits past pure ones."""
        nullable = [op for op in operands if op.nullable]
        if not nullable:
            return None
        test = "is not None" if present else "is None"
        checks = [f"{op.use()} {test}" for op in nullable]
        if all(op.temp is None for op in operands[1:]) \
                or [op for op in operands if op.temp] == nullable[:1]:
            return (" and " if present else " or ").join(checks)
        return (" & " if present else " + ").join(f"({c})" for c in checks)

    # -- values ----------------------------------------------------------
    def value(self, expression: ast.Expression) -> str:
        if isinstance(expression, ast.Literal):
            return self.bind(expression.value)
        if isinstance(expression, ast.Parameter):
            self.fallible = True
            key = expression.key
            if self.checked:
                return (f"_param(ctx, {self.bind(key)}, "
                        f"{self.bind(str(expression))})")
            if key not in self.parameters:
                self.parameters[key] = (self._name("p"), self.bind(key))
            return self.parameters[key][0]
        if isinstance(expression, QRef):
            return self._column(expression)
        if isinstance(expression, RidRef):
            position = self._position(expression.quantifier.qid,
                                      RID_COLUMN)
            if position is None:
                raise ExecutionError(
                    f"RID of {expression.quantifier.name} not available "
                    f"in this plan"
                )
            return f"row[{position}]"
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression)
        if isinstance(expression, ast.UnaryOp):
            if expression.op not in ("NOT", "-"):
                raise ExecutionError(
                    f"unknown unary operator {expression.op!r}")
            operand = self.operand(expression.operand)
            test = operand.use()
            op = "not " if expression.op == "NOT" else "-"
            return f"(None if {test} is None else {op}{operand.use()})"
        if isinstance(expression, ast.FunctionCall):
            name = expression.name.upper()
            function = SCALAR_FUNCTIONS.get(name)
            if function is None:
                raise ExecutionError(f"unknown function {name!r}")
            args = ", ".join(self.value(a) for a in expression.args)
            return f"{self.bind(function)}({args})"
        if isinstance(expression, ast.IsNull):
            test = "is not None" if expression.negated else "is None"
            return f"({self.value(expression.operand)} {test})"
        if isinstance(expression, ast.Between):
            value = self.operand(expression.operand)
            both = self._kleene(
                "AND", self._compare(">=", value,
                                     self.operand(expression.low)),
                self._compare("<=", value, self.operand(expression.high)))
            if not expression.negated:
                return both
            inner = self._operand_of(both)
            return f"(None if {inner.use()} is None else not {inner.use()})"
        if isinstance(expression, ast.Like):
            return self._like(expression)
        if isinstance(expression, ast.InList):
            return self._in_list(expression)
        if isinstance(expression, ast.CaseWhen):
            branches = [f"{self.value(result)} if "
                        f"{self.predicate(condition)} else "
                        for condition, result in expression.whens]
            default = (self.value(expression.default)
                       if expression.default is not None else "None")
            return f"({''.join(branches)}{default})"
        raise ExecutionError(f"cannot compile expression {expression!r}")

    def _column(self, expression: QRef) -> str:
        position = self._position(expression.quantifier.qid,
                                  expression.column)
        if position is not None:
            return f"row[{position}]"
        # Not in the layout: a scalar-subquery quantifier, resolved
        # through the execution context at run time.
        quantifier = expression.quantifier
        if quantifier.qtype != "S":
            raise ExecutionError(
                f"column {quantifier.name}.{expression.column} is "
                f"not available in this plan"
            )
        qid = self.bind(quantifier.qid)
        if not quantifier.correlation:
            return f"ctx.scalar_value({qid})"
        # Correlated: the outer-side values of the current row bind the
        # subquery's correlation slots (memoized per distinct binding).
        slots = self.bind(tuple(slot for slot, _leaf
                                in quantifier.correlation))
        leaves = "".join(f"{self.value(leaf)}, "
                         for _slot, leaf in quantifier.correlation)
        return f"ctx.correlated_scalar({qid}, {slots}, ({leaves}))"

    def _operand_of(self, source: str) -> _Operand:
        return _Operand(source, self._name("_t"), True)

    def _kleene(self, op: str, left: str, right: str) -> str:
        """Kleene AND/OR of two rendered values, both evaluated."""
        left, right = self._operand_of(left), self._operand_of(right)
        decisive, otherwise = (("False", "True") if op == "AND"
                               else ("True", "False"))
        return (f"({decisive} if ({left.use()} is {decisive}) + "
                f"({right.use()} is {decisive}) else (None if "
                f"{left.use()} is None or {right.use()} is None "
                f"else {otherwise}))")

    def _binary(self, expression: ast.BinaryOp) -> str:
        op = expression.op
        if op in ("AND", "OR"):
            return self._kleene(op, self.value(expression.left),
                                self.value(expression.right))
        if op in _COMPARISON_OPS:
            return self._compare(op, self.operand(expression.left),
                                 self.operand(expression.right))
        self.fallible = True
        if self.checked or op not in _PYTHON_OPS:
            # Division and concatenation always go through _arith.
            return (f"_arith({self.bind(op)}, {self.value(expression.left)}"
                    f", {self.value(expression.right)})")
        return self._inline(op, self.operand(expression.left),
                            self.operand(expression.right), present=False)

    def _inline(self, op: str, left: _Operand, right: _Operand,
                present: bool) -> str:
        """``left op right`` behind its NULL guard: the value (NULL when
        an operand is) or, with ``present``, the predicate."""
        test = self._null_test([left, right], present)
        result = f"{left.use()} {_PYTHON_OPS[op]} {right.use()}"
        if test is None:
            return f"({result})"
        return f"({test} and {result})" if present \
            else f"(None if {test} else {result})"

    def _compare(self, op: str, left: _Operand, right: _Operand,
                 present: bool = False) -> str:
        if op not in ("=", "<>"):
            self.fallible = True  # ordering mismatched types raises
        if self.checked:
            result = f"_compare({self.bind(op)}, {left.use()}, {right.use()})"
            return f"({result} is True)" if present else result
        return self._inline(op, left, right, present)

    def _like(self, expression: ast.Like) -> str:
        pattern = expression.pattern
        if isinstance(pattern, ast.Literal) and isinstance(pattern.value,
                                                           str):
            match = self.bind(like_to_regex(pattern.value).match)
            value = self.operand(expression.operand)
            test = value.use()
            verdict = "is None" if expression.negated else "is not None"
            return (f"(None if {test} is None else "
                    f"{match}({value.use()}) {verdict})")
        return (f"_like({self.value(expression.operand)}, "
                f"{self.value(pattern)}, {self.bind(expression.negated)})")

    def _in_list(self, expression: ast.InList) -> str:
        # Items are evaluated lazily, in order, up to the first match.
        value = self.operand(expression.operand)
        test = value.use()
        hit, miss = (("False", "True") if expression.negated
                     else ("True", "False"))
        items = [self.operand(i) for i in expression.items]
        probes = "".join(f"{hit} if {item.use()} == {value.use()} else "
                         for item in items)
        nulls = [f"{item.use()} is None" for item in items if item.nullable]
        if nulls:
            miss = f"(None if {' or '.join(nulls)} else {miss})"
        return f"(None if {test} is None else ({probes}{miss}))"

    # -- predicates ------------------------------------------------------
    def predicate(self, expression: ast.Expression) -> str:
        if isinstance(expression, ast.BinaryOp) \
                and expression.op in _COMPARISON_OPS:
            return self._compare(expression.op,
                                 self.operand(expression.left),
                                 self.operand(expression.right), True)
        if isinstance(expression, ast.Between) and not expression.negated:
            value = self.operand(expression.operand)
            low = self._compare(">=", value, self.operand(expression.low),
                                True)
            high = self._compare("<=", value,
                                 self.operand(expression.high), True)
            return f"({low} & {high})"
        if isinstance(expression, ast.IsNull):
            return self.value(expression)
        return f"({self.value(expression)} is True)"

    def narrow(self, conjuncts: list[ast.Expression]) -> list[str]:
        """Statements keeping, conjunct by conjunct, the ``rows`` every
        conjunct so far holds for: a conjunct only sees survivors."""
        return [f"rows = [row for row in rows if {self.predicate(c)}]"
                for c in conjuncts]

    # -- kernels ---------------------------------------------------------
    def kernel_source(self, argument: str, body: list[str]) -> str:
        """A kernel running the statements of ``body`` and returning
        its last line's value."""
        *steps, result = body
        guarded = self.fallible and not self.checked
        indent = " " * (8 if guarded else 4)
        lines = [f"def _kernel({argument}, ctx):"]
        if guarded:
            lines.append("    try:")
            lines.extend(f"{indent}{local} = ctx.parameters[{key}]"
                         for local, key in self.parameters.values())
        lines.extend(f"{indent}{step}" for step in steps)
        lines.append(f"{indent}return {result}")
        if guarded:
            lines.append("    except _FALLBACK:")
            lines.append(f"        return _twin({argument}, ctx)")
        return "\n".join(lines) + "\n"


def _instantiate(source: str, env: dict) -> Callable:
    exec(_code(source), env)
    kernel = env["_kernel"]
    kernel.source = source
    return kernel


def _build_kernel(layout: Layout, argument: str,
                  render: Callable[[_Emitter], list[str]]) -> Callable:
    """One kernel: ``render`` writes the body's lines over an emitter;
    the checked twin is rendered from the same ``render`` on first
    use."""
    emitter = _Emitter(layout, checked=False)
    source = emitter.kernel_source(argument, render(emitter))
    env = emitter.env
    if emitter.fallible:
        def twin(*args):
            checked = _Emitter(layout, checked=True)
            twin_source = checked.kernel_source(argument, render(checked))
            built = env["_twin"] = _instantiate(twin_source, checked.env)
            return built(*args)
        env["_twin"] = twin
    return _instantiate(source, env)


def _getter_kernel(positions: tuple[int, ...]) -> BatchKernel:
    """``itemgetter(*positions)`` over a batch: the bare value for one
    position, else a tuple."""
    return _instantiate("def _kernel(rows, ctx):\n"
                        "    return list(map(_getter, rows))\n",
                        {"_getter": itemgetter(*positions)})


def column_kernel(positions: Sequence[int]) -> BatchKernel:
    """Batch kernel projecting each row onto ``positions`` (a tuple per
    row): the projection every plain-column Project and the XNF
    component decoder share."""
    positions = tuple(positions)
    if len(positions) > 1:
        return _getter_kernel(positions)
    items = "".join(f"row[{p}], " for p in positions)
    return _instantiate(f"def _kernel(rows, ctx):\n"
                        f"    return [({items}) for row in rows]\n", {})


#: The loop of each join's output comprehension: a hash join's probe
#: rows beside their bucket (None: no match), an index join's outer
#: rows beside each ``(rid, row)`` they fetched.
_JOIN_LOOPS = {
    "hash": ("batch, buckets",
             "for l, bucket in zip(batch, buckets) if bucket for r in bucket"),
    "index": ("pairs", "for l, (rid, r) in pairs"),
}


def join_kernel(kind: str, left_width: int, right_width: int,
                positions: Optional[Sequence[int]] = None,
                with_rid: bool = False) -> Callable:
    """The output comprehension of a ``"hash"`` or ``"index"`` join.

    Each match ``l`` (left row), ``r`` (right row) and, for an index
    join, ``rid`` (the right row's RID) gives ``l + r`` (``+ (rid,)``
    ``with_rid``), or, when ``positions`` is given, just those positions
    of that concatenation, picked from its halves: the join then emits
    its box's head without building the wide row.
    """
    arguments, loop = _JOIN_LOOPS[kind]
    if positions is None:
        element = "l + r + (rid,)" if with_rid else "l + r"
    else:
        picks = [f"l[{p}]" if p < left_width
                 else f"r[{p - left_width}]" if p < left_width + right_width
                 else "rid" for p in positions]
        element = f"({''.join(f'{pick}, ' for pick in picks)})"
    return _instantiate(f"def _kernel({arguments}):\n"
                        f"    return [{element} {loop}]\n", {})


class ExpressionCompiler:
    """Compiles QGM expressions against a fixed row layout into kernels.

    ``compile`` gives a value kernel ``fn(row, ctx)``; the batch kernels
    ``fn(rows, ctx)`` are ``compile_filter`` (the kept rows),
    ``compile_project`` (a tuple per kept row, with an optional fused
    filter) and ``compile_keys`` (a hashable equi-join key per row).
    """

    def __init__(self, layout: Layout):
        self.layout = layout

    def compile(self, expression: ast.Expression) -> CompiledExpression:
        expression = fold_constants(expression)
        return _build_kernel(self.layout, "row",
                             lambda emitter: [emitter.value(expression)])

    def compile_filter(self, expression: ast.Expression) -> BatchPredicate:
        """Compile a predicate into a batch filter: the rows whose
        predicate is exactly True, in order, one comprehension per
        top-level conjunct, each over the previous one's survivors."""
        conjuncts = ast.conjuncts(fold_constants(expression))
        return _build_kernel(
            self.layout, "rows",
            lambda emitter: emitter.narrow(conjuncts) + ["rows"])

    def compile_project(self, expressions: Sequence[ast.Expression],
                        where: Optional[ast.Expression] = None
                        ) -> BatchKernel:
        """A tuple of ``expressions`` per row — per row that satisfies
        ``where`` when given (a filter fused under the projection)."""
        expressions = [fold_constants(e) for e in expressions]
        positions = self.positions(expressions)
        if where is None and positions is not None:
            return column_kernel(positions)
        conjuncts = ast.conjuncts(fold_constants(where))

        def render(emitter: _Emitter) -> list[str]:
            steps = emitter.narrow(conjuncts[:-1])
            values = "".join(f"{emitter.value(e)}, " for e in expressions)
            condition = (f" if {emitter.predicate(conjuncts[-1])}"
                         if conjuncts else "")
            return steps + [f"[({values}) for row in rows{condition}]"]
        return _build_kernel(self.layout, "rows", render)

    def compile_keys(self, expressions: Sequence[ast.Expression]
                     ) -> BatchKernel:
        """Equi-join keys per row: the bare value for one expression,
        else a tuple; None whenever a component is NULL, since NULL keys
        never match."""
        expressions = [fold_constants(e) for e in expressions]
        positions = self.positions(expressions)
        if len(expressions) == 1 and positions is not None:
            return _getter_kernel(positions)

        def render(emitter: _Emitter) -> list[str]:
            if len(expressions) == 1:
                return [f"[{emitter.value(expressions[0])} for row in rows]"]
            operands = [emitter.operand(e) for e in expressions]
            test = emitter._null_test(operands, present=False)
            key = "".join(f"{op.use()}, " for op in operands)
            element = f"({key})" if test is None \
                else f"(None if {test} else ({key}))"
            return [f"[{element} for row in rows]"]
        return _build_kernel(self.layout, "rows", render)

    def positions(self, expressions: Sequence[ast.Expression]
                  ) -> Optional[tuple[int, ...]]:
        """Row positions when every expression is a plain column of the
        layout, else None."""
        found = []
        for expression in expressions:
            if not isinstance(expression, (QRef, RidRef)):
                return None
            column = getattr(expression, "column", RID_COLUMN)
            position = self.layout.get((expression.quantifier.qid,
                                        column.upper()))
            if position is None:
                return None
            found.append(position)
        return tuple(found)
