"""Generated kernels == the closure compiler they replaced.

``repro.executor.expressions`` compiles expressions into generated
Python source; ``tests/_reference_expressions.py`` is a frozen copy of
the closure compiler it replaced.  Over generated expressions and rows
— NULL in every operand position, AND / OR with UNKNOWN, BETWEEN / IN /
LIKE / CASE with NULL bounds, items and patterns, statement parameters
(bound and unbound), division by zero, mixed-type comparisons,
correlated scalar subqueries and string literals that look like code —
this suite checks that:

* a value kernel gives the reference's value, or raises an error of
  the same class with the same message;
* a filter keeps the reference filter's rows, or raises an error of the
  same class: both narrow a batch conjunct by conjunct (the messages
  may differ: the reference filter reports the operands of
  ``literal < column`` swapped);
* join-key and projection kernels give the reference values row by row
  or raise the same error.  A projection with a fused filter evaluates
  the last conjunct and the projected values row by row, so where both
  would raise on different rows only the raising is compared;
* no literal value ever appears in a kernel's source text.

``REPRO_DIFF_SEEDS=<n>`` adds ``n`` seeds to the sweep.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import ExecutionError
from repro.executor.expressions import ExpressionCompiler
from repro.optimizer.plan import ExecutionContext
from repro.qgm.model import HeadColumn, QRef, Quantifier, SelectBox
from repro.sql import ast
from tests import _reference_expressions as reference

BASE_SEED = 28
EXPRESSIONS_PER_SEED = 150
ROWS = 12

#: Column values by type; None is drawn separately.
INTS = (-3, 0, 1, 2, 7)
STRINGS = ("a", "ab", "b%", "x) or (1", "é", "")
FLOATS = (0.5, -2.25)
#: The columns of the generated rows: (name, kind).
COLUMNS = (("I", "int"), ("J", "int"), ("S", "str"), ("T", "str"),
           ("F", "float"), ("M", "mixed"))
LIKE_PATTERNS = ("a%", "%b", "_", "x) or (1", "%")
#: Parameters bound in every context; ``:ABSENT`` never is.
BOUND = {0: 2, 1: "ab", "LIMIT": 5, "NULL": None}
UNBOUND = (ast.Parameter(index=3), ast.Parameter(name="ABSENT"))


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


class Context(ExecutionContext):
    """A context whose scalar subqueries are deterministic functions of
    their qid and binding.  Like the real context it memoizes them per
    binding; ``evaluations`` counts the distinct ones it computed."""

    def __init__(self, bound: bool = True):
        super().__init__()
        if bound:
            self.parameters.update(BOUND)
        self.memo: dict = {}

    @property
    def evaluations(self) -> int:
        return len(self.memo)

    def scalar_value(self, qid):
        return self.memo.setdefault((qid,), qid % 5)

    def correlated_scalar(self, qid, slots, values):
        present = [v for v in values if isinstance(v, int)]
        value = (None if len(present) < len(values)
                 else sum(present) + qid % 3)
        return self.memo.setdefault((qid, values), value)


class Generator:
    """Random resolved expressions over one quantifier's columns."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        box = SelectBox("rows")
        box.head = [HeadColumn(name) for name, _kind in COLUMNS]
        self.quantifier = Quantifier(box, Quantifier.F, name="r")
        self.layout = {(self.quantifier.qid, name): position
                       for position, (name, _kind) in enumerate(COLUMNS)}
        self.literals: list = []

    def rows(self) -> list[tuple]:
        rng = self.rng
        rows = []
        for _ in range(ROWS):
            row = []
            for _name, kind in COLUMNS:
                if rng.random() < 0.25:
                    row.append(None)
                elif kind == "int":
                    row.append(rng.choice(INTS))
                elif kind == "str":
                    row.append(rng.choice(STRINGS))
                elif kind == "float":
                    row.append(rng.choice(FLOATS))
                else:
                    row.append(rng.choice(INTS + STRINGS))
            rows.append(tuple(row))
        return rows

    # -- leaves ----------------------------------------------------------
    def column(self, kind: str = None) -> QRef:
        names = [name for name, k in COLUMNS if kind is None or k == kind]
        return QRef(self.quantifier, self.rng.choice(names))

    def literal(self, kind: str = None) -> ast.Literal:
        rng = self.rng
        if rng.random() < 0.15:
            value = None
        elif kind == "str" or (kind is None and rng.random() < 0.4):
            value = rng.choice(STRINGS)
        elif kind is None and rng.random() < 0.1:
            value = rng.choice((True, False))
        else:
            value = rng.choice(INTS + FLOATS)
        self.literals.append(value)
        return ast.Literal(value)

    def parameter(self) -> ast.Parameter:
        rng = self.rng
        if rng.random() < 0.1:
            return rng.choice(UNBOUND)
        key = rng.choice(list(BOUND))
        if isinstance(key, int):
            return ast.Parameter(index=key)
        return ast.Parameter(name=key)

    def scalar(self) -> QRef:
        """A scalar subquery column: correlated on row columns or not."""
        box = SelectBox("sub")
        box.head = [HeadColumn("V")]
        quantifier = Quantifier(box, Quantifier.S)
        if self.rng.random() < 0.7:
            leaves = [self.column("int")
                      for _ in range(self.rng.randint(1, 2))]
            quantifier.correlation = tuple(
                (f"$CORR{quantifier.qid}_{i}$", leaf)
                for i, leaf in enumerate(leaves))
        return QRef(quantifier, "V")

    def leaf(self) -> ast.Expression:
        roll = self.rng.random()
        if roll < 0.5:
            return self.column()
        if roll < 0.8:
            return self.literal()
        if roll < 0.93:
            return self.parameter()
        return self.scalar()

    # -- compound forms --------------------------------------------------
    def expression(self, depth: int = 3) -> ast.Expression:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.2:
            return self.leaf()
        form = rng.choice(("compare", "compare", "logic", "logic",
                           "arith", "not", "negate", "null", "between",
                           "in", "like", "case", "function"))
        sub = depth - 1
        if form == "compare":
            return ast.BinaryOp(rng.choice(("=", "<>", "<", "<=", ">",
                                            ">=")),
                                self.expression(sub), self.expression(sub))
        if form == "logic":
            return ast.BinaryOp(rng.choice(("AND", "OR")),
                                self.expression(sub), self.expression(sub))
        if form == "arith":
            return ast.BinaryOp(rng.choice(("+", "-", "*", "/", "||")),
                                self.expression(sub), self.expression(sub))
        if form == "not":
            return ast.UnaryOp("NOT", self.expression(sub))
        if form == "negate":
            return ast.UnaryOp("-", self.expression(sub))
        if form == "null":
            return ast.IsNull(self.expression(sub), rng.random() < 0.5)
        if form == "between":
            return ast.Between(self.expression(sub), self.expression(sub),
                               self.expression(sub), rng.random() < 0.3)
        if form == "in":
            items = tuple(self.literal() if rng.random() < 0.6
                          else self.expression(sub)
                          for _ in range(rng.randint(1, 4)))
            return ast.InList(self.expression(sub), items,
                              rng.random() < 0.3)
        if form == "like":
            if rng.random() < 0.7:
                value = rng.choice(LIKE_PATTERNS)
                self.literals.append(value)
                pattern = ast.Literal(value)
            else:
                pattern = rng.choice((self.column("str"),
                                      ast.Literal(None)))
            return ast.Like(rng.choice((self.column("str"),
                                        self.column("mixed"))),
                            pattern, rng.random() < 0.3)
        if form == "case":
            whens = tuple((self.expression(sub), self.expression(sub))
                          for _ in range(rng.randint(1, 3)))
            default = self.expression(sub) if rng.random() < 0.6 else None
            return ast.CaseWhen(whens, default)
        name = rng.choice(("COALESCE", "UPPER", "ABS", "MOD", "LENGTH"))
        arity = {"COALESCE": rng.randint(1, 3), "MOD": 2}.get(name, 1)
        return ast.FunctionCall(name, tuple(self.expression(sub)
                                            for _ in range(arity)))


def outcome(run):
    """``('value', type, value)`` or ``('error', class, message)``."""
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001 - errors are outcomes here
        return ("error", type(exc), str(exc))
    return ("value", type(value), value)


def error_class(result):
    """An outcome up to the message (and the value's identity)."""
    return result[:2] if result[0] == "error" else ("value",)


def assert_not_spliced(kernel, literals) -> None:
    source = kernel.source
    for value in literals:
        if isinstance(value, str) and len(value) > 2:
            assert repr(value) not in source and value not in source, \
                (value, source)


@pytest.mark.parametrize("seed", _seeds())
def test_value_kernels_match_reference(seed):
    rng = random.Random(seed)
    generator = Generator(rng)
    rows = generator.rows()
    for _ in range(EXPRESSIONS_PER_SEED):
        generator.literals = []
        expression = generator.expression()
        kernel_compiler = ExpressionCompiler(generator.layout)
        reference_compiler = reference.ExpressionCompiler(generator.layout)
        got = outcome(lambda: kernel_compiler.compile(expression))
        expected = outcome(lambda: reference_compiler.compile(expression))
        assert error_class(got) == error_class(expected), expression
        if got[0] == "error":
            continue
        kernel = kernel_compiler.compile(expression)
        oracle = reference_compiler.compile(expression)
        assert_not_spliced(kernel, generator.literals)
        for bound in (True, False):
            for row in rows:
                kernel_ctx, oracle_ctx = Context(bound), Context(bound)
                got = outcome(lambda: kernel(row, kernel_ctx))
                expected = outcome(lambda: oracle(row, oracle_ctx))
                assert got == expected, (expression, row, bound)
                assert kernel_ctx.evaluations == oracle_ctx.evaluations
        # No context at all: parameters and subqueries cannot resolve.
        got = outcome(lambda: kernel(rows[0], None))
        expected = outcome(lambda: oracle(rows[0], None))
        assert error_class(got) == error_class(expected), expression
        if got[0] == "value" or got[1] is ExecutionError:
            assert got == expected, expression


@pytest.mark.parametrize("seed", _seeds())
def test_filters_match_reference(seed):
    rng = random.Random(seed + 1000)
    generator = Generator(rng)
    rows = generator.rows()
    for _ in range(EXPRESSIONS_PER_SEED):
        generator.literals = []
        conjuncts = [generator.expression(2)
                     for _ in range(rng.randint(1, 3))]
        predicate = ast.conjoin(conjuncts)
        kernel_compiler = ExpressionCompiler(generator.layout)
        reference_compiler = reference.ExpressionCompiler(generator.layout)
        try:
            oracle = reference_compiler.compile_filter(predicate)
        except ExecutionError:
            with pytest.raises(ExecutionError):
                kernel_compiler.compile_filter(predicate)
            continue
        kernel = kernel_compiler.compile_filter(predicate)
        assert_not_spliced(kernel, generator.literals)
        for batch in (rows, rows[:1], rows[3:7]):
            got = outcome(lambda: kernel(list(batch), Context()))
            expected = outcome(lambda: oracle(list(batch), Context()))
            assert error_class(got) == error_class(expected), predicate
            if got[0] == "value":
                assert got == expected, predicate


@pytest.mark.parametrize("seed", _seeds())
def test_projections_and_keys_match_reference(seed):
    rng = random.Random(seed + 2000)
    generator = Generator(rng)
    rows = generator.rows()
    for _ in range(EXPRESSIONS_PER_SEED // 3):
        expressions = []
        while len(expressions) < rng.randint(1, 3):
            expression = generator.expression(2)
            try:
                reference.ExpressionCompiler(generator.layout).compile(
                    expression)
            except ExecutionError:
                continue
            expressions.append(expression)
        compiler = ExpressionCompiler(generator.layout)
        oracles = [reference.ExpressionCompiler(generator.layout)
                   .compile(e) for e in expressions]
        where = generator.expression(2) if rng.random() < 0.4 else None
        project = compiler.compile_project(expressions, where)
        keys = compiler.compile_keys(expressions)

        def expected_projection(ctx):
            kept = rows
            if where is not None:
                kept = reference.ExpressionCompiler(generator.layout) \
                    .compile_filter(where)(list(rows), ctx)
            return [tuple(fn(row, ctx) for fn in oracles) for row in kept]

        def expected_keys(ctx):
            if len(oracles) == 1:
                return [oracles[0](row, ctx) for row in rows]
            found = [tuple(fn(row, ctx) for fn in oracles) for row in rows]
            return [None if None in key else key for key in found]
        got = outcome(lambda: project(list(rows), Context()))
        expected = outcome(lambda: expected_projection(Context()))
        if where is None or expected[0] == "value":
            assert got == expected, (expressions, where)
        else:
            assert got[0] == "error", (expressions, where)
        got = outcome(lambda: keys(list(rows), Context()))
        expected = outcome(lambda: expected_keys(Context()))
        assert got == expected, expressions


class TestNamedCases:
    """The cases the sweep must cover, pinned."""

    def setup_method(self):
        self.generator = Generator(random.Random(0))
        self.compiler = ExpressionCompiler(self.generator.layout)
        self.oracle = reference.ExpressionCompiler(self.generator.layout)

    def column(self, name):
        return QRef(self.generator.quantifier, name)

    def both(self, expression, row, ctx_bound=True):
        got = outcome(lambda: self.compiler.compile(expression)(
            row, Context(ctx_bound)))
        expected = outcome(lambda: self.oracle.compile(expression)(
            row, Context(ctx_bound)))
        assert got == expected, expression
        return got

    def test_literal_that_looks_like_code_stays_data(self):
        text = "x) or (1"
        predicate = ast.BinaryOp("=", self.column("S"), ast.Literal(text))
        kernel = self.compiler.compile_filter(predicate)
        assert text not in kernel.source
        rows = [(1, 1, text, "", 0.5, 1), (1, 1, "a", "", 0.5, 1)]
        assert kernel(rows, None) == rows[:1]
        value = self.compiler.compile(
            ast.BinaryOp("||", ast.Literal(text), self.column("T")))
        assert value(rows[0], None) == text
        assert text not in value.source

    def test_literal_variants_share_source(self):
        first = self.compiler.compile_filter(
            ast.BinaryOp("<", self.column("I"), ast.Literal(3)))
        second = self.compiler.compile_filter(
            ast.BinaryOp("<", self.column("I"), ast.Literal(9)))
        assert first.source == second.source

    def test_unbound_parameter_message(self):
        expression = ast.BinaryOp("+", self.column("I"),
                                  ast.Parameter(name="ABSENT"))
        got = self.both(expression, (1, 2, "a", "b", 0.5, 3))
        assert got[:2] == ("error", ExecutionError)
        assert ":ABSENT" in got[2]
        kernel = self.compiler.compile(expression)
        with pytest.raises(ExecutionError, match=r"\?|:ABSENT"):
            kernel((1, 2, "a", "b", 0.5, 3), None)

    def test_unbound_parameter_in_untaken_branch_is_not_evaluated(self):
        expression = ast.CaseWhen(
            ((ast.Literal(False), ast.Parameter(name="ABSENT")),),
            self.column("I"))
        assert self.both(expression, (4, 2, "a", "b", 0.5, 3)) \
            == ("value", int, 4)

    def test_division_by_zero_and_mixed_types(self):
        row = (1, 0, "a", "b", 0.5, "m")
        division = ast.BinaryOp("/", self.column("I"), self.column("J"))
        assert self.both(division, row)[:2] == ("error", ExecutionError)
        mixed = ast.BinaryOp("<", self.column("I"), self.column("S"))
        got = self.both(mixed, row)
        assert got[:2] == ("error", ExecutionError)
        assert "cannot compare" in got[2]

    def test_kleene_and_or_with_unknown(self):
        unknown = ast.BinaryOp("=", self.column("I"), ast.Literal(None))
        true = ast.BinaryOp("=", ast.Literal(1), self.column("I"))
        false = ast.BinaryOp("<>", ast.Literal(1), self.column("I"))
        row = (1, 0, "a", "b", 0.5, 1)
        for op in ("AND", "OR"):
            for left in (unknown, true, false):
                for right in (unknown, true, false):
                    self.both(ast.BinaryOp(op, left, right), row)

    def test_null_in_every_operand_position(self):
        null = ast.Literal(None)
        row = (None, None, None, None, None, None)
        for expression in (
                ast.Between(self.column("I"), null, ast.Literal(3)),
                ast.Between(ast.Literal(2), self.column("J"), null, True),
                ast.InList(self.column("I"), (ast.Literal(1), null)),
                ast.InList(ast.Literal(1), (self.column("J"),), True),
                ast.Like(self.column("S"), ast.Literal("a%")),
                ast.Like(ast.Literal("ab"), self.column("T")),
                ast.CaseWhen(((self.column("I"), ast.Literal(1)),), null),
                ast.UnaryOp("NOT", self.column("M")),
                ast.UnaryOp("-", self.column("F")),
                ast.FunctionCall("COALESCE", (self.column("S"), null)),
                ast.BinaryOp("*", null, self.column("I"))):
            self.both(expression, row)
            self.both(expression, (1, 2, "ab", "a%", 0.5, 1))

    def test_correlated_scalar_subquery(self):
        scalar = self.generator.scalar()
        while not scalar.quantifier.correlation:
            scalar = self.generator.scalar()
        expression = ast.BinaryOp(">", scalar, self.column("J"))
        for row in ((1, 0, "a", "b", 0.5, 1), (None, 3, "a", "b", 0.5, 1)):
            self.both(expression, row)
