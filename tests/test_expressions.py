"""Unit tests for expression compilation and three-valued logic."""

import pytest

from repro.errors import ExecutionError
from repro.executor.expressions import (ExpressionCompiler, like_to_regex,
                                        sql_and, sql_not, sql_or)
from repro.qgm.model import QRef, Quantifier, SelectBox
from repro.sql.parser import parse_expression


def evaluate(text, **bindings):
    """Compile against a one-row layout where unqualified columns map to
    positions in alphabetical order."""
    box = SelectBox("env")
    from repro.qgm.model import HeadColumn
    names = sorted(bindings)
    box.head = [HeadColumn(n.upper()) for n in names]
    quantifier = Quantifier(box, Quantifier.F, name="env")
    layout = {(quantifier.qid, n.upper()): i for i, n in enumerate(names)}
    expression = parse_expression(text)

    def resolve(node):
        from repro.sql import ast
        if isinstance(node, ast.ColumnRef):
            return QRef(quantifier, node.column.upper())
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(node.op, resolve(node.left),
                                resolve(node.right))
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(node.op, resolve(node.operand))
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(node.name.upper(),
                                    tuple(resolve(a) for a in node.args),
                                    node.distinct)
        if isinstance(node, ast.IsNull):
            return ast.IsNull(resolve(node.operand), node.negated)
        if isinstance(node, ast.Between):
            return ast.Between(resolve(node.operand), resolve(node.low),
                               resolve(node.high), node.negated)
        if isinstance(node, ast.Like):
            return ast.Like(resolve(node.operand), resolve(node.pattern),
                            node.negated)
        if isinstance(node, ast.InList):
            return ast.InList(resolve(node.operand),
                              tuple(resolve(i) for i in node.items),
                              node.negated)
        if isinstance(node, ast.CaseWhen):
            return ast.CaseWhen(
                tuple((resolve(c), resolve(r)) for c, r in node.whens),
                None if node.default is None else resolve(node.default))
        return node

    fn = ExpressionCompiler(layout).compile(resolve(expression))
    row = tuple(bindings[n] for n in names)
    return fn(row, None)


class TestKleeneLogic:
    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, None) is False
        assert sql_and(True, None) is None
        assert sql_and(None, None) is None

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, None) is True
        assert sql_or(False, None) is None
        assert sql_or(None, None) is None

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(None) is None


class TestComparisons:
    def test_basic(self):
        assert evaluate("a < b", a=1, b=2) is True
        assert evaluate("a >= b", a=1, b=2) is False

    def test_null_propagates(self):
        assert evaluate("a = b", a=None, b=1) is None
        assert evaluate("a <> b", a=None, b=None) is None

    def test_incomparable_types_raise(self):
        with pytest.raises(ExecutionError, match="cannot compare"):
            evaluate("a < b", a=1, b="x")

    def test_string_comparison(self):
        assert evaluate("a < b", a="apple", b="banana") is True


class TestArithmetic:
    def test_operations(self):
        assert evaluate("a + b * 2", a=1, b=3) == 7
        assert evaluate("a - b", a=1, b=3) == -2

    def test_integer_division_stays_int(self):
        assert evaluate("a / b", a=6, b=3) == 2
        assert isinstance(evaluate("a / b", a=6, b=3), int)

    def test_fractional_division(self):
        assert evaluate("a / b", a=7, b=2) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            evaluate("a / b", a=1, b=0)

    def test_null_propagates(self):
        assert evaluate("a + b", a=None, b=1) is None

    def test_concat(self):
        assert evaluate("a || b", a="x", b="y") == "xy"

    def test_unary_minus_null(self):
        assert evaluate("-a", a=None) is None


class TestPredicates:
    def test_between(self):
        assert evaluate("a BETWEEN 1 AND 3", a=2) is True
        assert evaluate("a BETWEEN 1 AND 3", a=4) is False
        assert evaluate("a BETWEEN 1 AND 3", a=None) is None

    def test_not_between_unknown_stays_unknown(self):
        assert evaluate("a NOT BETWEEN 1 AND 3", a=None) is None

    def test_in_list(self):
        assert evaluate("a IN (1, 2)", a=2) is True
        assert evaluate("a IN (1, 2)", a=3) is False

    def test_in_list_null_semantics(self):
        assert evaluate("a IN (1, NULL)", a=2) is None
        assert evaluate("a IN (1, NULL)", a=1) is True
        assert evaluate("a NOT IN (1, NULL)", a=2) is None
        assert evaluate("a IN (1)", a=None) is None

    def test_is_null(self):
        assert evaluate("a IS NULL", a=None) is True
        assert evaluate("a IS NOT NULL", a=None) is False

    def test_like(self):
        assert evaluate("a LIKE 'ab%'", a="abc") is True
        assert evaluate("a LIKE 'ab_'", a="abcd") is False
        assert evaluate("a LIKE '%c'", a=None) is None

    def test_like_dynamic_pattern(self):
        assert evaluate("a LIKE b", a="xyz", b="x%") is True

    def test_like_special_chars_escaped(self):
        assert evaluate("a LIKE 'a.c'", a="abc") is False
        assert evaluate("a LIKE 'a.c'", a="a.c") is True


class TestCase:
    def test_first_matching_when_wins(self):
        text = "CASE WHEN a > 2 THEN 'big' WHEN a > 0 THEN 'small' END"
        assert evaluate(text, a=3) == "big"
        assert evaluate(text, a=1) == "small"

    def test_no_match_no_else_is_null(self):
        assert evaluate("CASE WHEN a > 2 THEN 1 END", a=0) is None

    def test_unknown_condition_skipped(self):
        assert evaluate("CASE WHEN a > 2 THEN 1 ELSE 0 END",
                        a=None) == 0


class TestScalarFunctions:
    def test_upper_lower(self):
        assert evaluate("UPPER(a)", a="abc") == "ABC"
        assert evaluate("LOWER(a)", a="ABC") == "abc"

    def test_length(self):
        assert evaluate("LENGTH(a)", a="abcd") == 4
        assert evaluate("LENGTH(a)", a=None) is None

    def test_abs_mod_round(self):
        assert evaluate("ABS(a)", a=-5) == 5
        assert evaluate("MOD(a, 3)", a=7) == 1
        assert evaluate("ROUND(a, 1)", a=1.26) == 1.3

    def test_mod_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("MOD(a, 0)", a=7)

    def test_substr(self):
        assert evaluate("SUBSTR(a, 2, 3)", a="abcdef") == "bcd"
        assert evaluate("SUBSTR(a, 3)", a="abcdef") == "cdef"

    def test_trim(self):
        assert evaluate("TRIM(a)", a="  x ") == "x"

    def test_coalesce(self):
        assert evaluate("COALESCE(a, b, 9)", a=None, b=None) == 9
        assert evaluate("COALESCE(a, 5)", a=3) == 3

    def test_unknown_function(self):
        with pytest.raises(ExecutionError, match="unknown function"):
            evaluate("FROBNICATE(a)", a=1)


class TestLikeRegex:
    def test_translation(self):
        assert like_to_regex("a%b_c").pattern == "^a.*b.c$"

    def test_regex_metachars_escaped(self):
        assert like_to_regex("a+b").match("a+b")
        assert not like_to_regex("a+b").match("aab")


class TestConstantFolding:
    def fold(self, text):
        from repro.executor.expressions import fold_constants
        return fold_constants(parse_expression(text))

    def test_arithmetic_folds_to_literal(self):
        from repro.sql import ast
        assert self.fold("1 + 2 * 3") == ast.Literal(7)

    def test_comparison_folds(self):
        from repro.sql import ast
        assert self.fold("2 > 1") == ast.Literal(True)
        assert self.fold("1 = 2") == ast.Literal(False)

    def test_boolean_connectives_fold(self):
        from repro.sql import ast
        assert self.fold("1 < 2 AND 3 < 4") == ast.Literal(True)
        assert self.fold("NOT (1 < 2)") == ast.Literal(False)

    def test_null_propagates(self):
        from repro.sql import ast
        assert self.fold("1 + NULL") == ast.Literal(None)
        assert self.fold("NULL = NULL") == ast.Literal(None)

    def test_scalar_function_folds(self):
        from repro.sql import ast
        assert self.fold("UPPER('abc')") == ast.Literal("ABC")
        assert self.fold("COALESCE(NULL, 5)") == ast.Literal(5)

    def test_division_by_zero_left_for_runtime(self):
        from repro.sql import ast
        folded = self.fold("1 / 0")
        assert not isinstance(folded, ast.Literal)
        with pytest.raises(ExecutionError, match="division by zero"):
            evaluate("1 / 0")

    def test_folding_matches_runtime(self):
        for text in ["1 + 2 * 3", "10 - 4 / 2", "'a' || 'b'",
                     "2 BETWEEN 1 AND 3", "ABS(0 - 7)",
                     "CASE WHEN 1 < 2 THEN 10 ELSE 20 END"]:
            from repro.sql import ast
            folded = self.fold(text)
            from repro.executor.expressions import ExpressionCompiler
            direct = ExpressionCompiler({}).compile(
                parse_expression(text))((), None)
            if isinstance(folded, ast.Literal):
                assert folded.value == direct
            else:
                assert ExpressionCompiler({}).compile(folded)((), None) \
                    == direct


class TestBatchFilters:
    """compile_filter vs compile: identical survivors on NULL-rich data."""

    def env(self, names):
        from repro.qgm.model import HeadColumn
        box = SelectBox("env")
        box.head = [HeadColumn(n) for n in names]
        quantifier = Quantifier(box, Quantifier.F, name="env")
        layout = {(quantifier.qid, n): i for i, n in enumerate(names)}
        return quantifier, ExpressionCompiler(layout)

    def both_ways(self, predicate, rows):
        """Filter rows through the row closure and the batch filter."""
        _q, compiler = self.predicate_env
        row_fn = compiler.compile(predicate)
        batch_fn = compiler.compile_filter(predicate)
        row_result = [r for r in rows if row_fn(r, None) is True]
        batch_result = batch_fn(list(rows), None)
        assert batch_result == row_result
        return row_result

    @pytest.fixture(autouse=True)
    def _env(self):
        self.predicate_env = self.env(["A", "B"])

    def rows(self):
        return [(1, "x"), (2, "y"), (None, "x"), (3, None), (None, None),
                (2, "x")]

    def qref(self, column):
        quantifier, _c = self.predicate_env
        return QRef(quantifier, column)

    def test_comparison_fast_paths(self):
        from repro.sql import ast
        for op in ("=", "<>", "<", "<=", ">", ">="):
            predicate = ast.BinaryOp(op, self.qref("A"), ast.Literal(2))
            self.both_ways(predicate, self.rows())
            # Flipped: constant on the left.
            flipped = ast.BinaryOp(op, ast.Literal(2), self.qref("A"))
            self.both_ways(flipped, self.rows())

    def test_column_column_comparison(self):
        from repro.sql import ast
        rows = [(1, 2), (2, 2), (None, 1), (3, None), (None, None), (4, 1)]
        for op in ("=", "<>", "<", "<=", ">", ">="):
            self.both_ways(ast.BinaryOp(op, self.qref("A"), self.qref("B")),
                           rows)

    def test_column_column_type_mismatch_raises(self):
        from repro.sql import ast
        predicate = ast.BinaryOp("<", self.qref("A"), self.qref("B"))
        _q, compiler = self.predicate_env
        batch_fn = compiler.compile_filter(predicate)
        with pytest.raises(ExecutionError, match="cannot compare"):
            batch_fn([(1, 2), (1, "x")], None)

    def test_comparison_with_null_literal_keeps_nothing(self):
        from repro.sql import ast
        predicate = ast.BinaryOp("=", self.qref("A"), ast.Literal(None))
        assert self.both_ways(predicate, self.rows()) == []

    def test_is_null_fast_paths(self):
        from repro.sql import ast
        self.both_ways(ast.IsNull(self.qref("A")), self.rows())
        self.both_ways(ast.IsNull(self.qref("B"), negated=True),
                       self.rows())

    def test_and_short_circuits_per_conjunct(self):
        from repro.sql import ast
        predicate = ast.BinaryOp(
            "AND",
            ast.BinaryOp(">", self.qref("A"), ast.Literal(1)),
            ast.BinaryOp("=", self.qref("B"), ast.Literal("x")))
        assert self.both_ways(predicate, self.rows()) == [(2, "x")]

    def test_or_uses_generic_path(self):
        from repro.sql import ast
        predicate = ast.BinaryOp(
            "OR",
            ast.BinaryOp("=", self.qref("B"), ast.Literal("y")),
            ast.BinaryOp("<", self.qref("A"), ast.Literal(2)))
        self.both_ways(predicate, self.rows())

    def test_constant_false_predicate(self):
        from repro.sql import ast
        predicate = ast.BinaryOp(">", ast.Literal(1), ast.Literal(2))
        assert self.both_ways(predicate, self.rows()) == []

    def test_constant_true_predicate(self):
        from repro.sql import ast
        predicate = ast.BinaryOp("<", ast.Literal(1), ast.Literal(2))
        assert self.both_ways(predicate, self.rows()) == self.rows()

    def test_type_mismatch_raises_like_row_mode(self):
        from repro.sql import ast
        predicate = ast.BinaryOp("<", self.qref("A"), ast.Literal(5))
        _q, compiler = self.predicate_env
        batch_fn = compiler.compile_filter(predicate)
        with pytest.raises(ExecutionError, match="cannot compare"):
            batch_fn([(1, "x"), ("oops", "y")], None)

    def test_and_error_parity_between_condition_and_batch(self):
        """A right conjunct that would raise on rows the left conjunct
        excludes: the filter may not surface that error, whether it
        runs one row at a time (the matview delta joins) or over a
        batch — and must raise it for rows that do reach the right
        conjunct."""
        from repro.sql import ast
        predicate = ast.BinaryOp(
            "AND",
            ast.BinaryOp(">", self.qref("A"), ast.Literal(1)),
            ast.BinaryOp("<", self.qref("B"), ast.Literal(5)))
        _q, compiler = self.predicate_env
        batch_fn = compiler.compile_filter(predicate)

        def condition(row, ctx):
            return bool(batch_fn([row], ctx))
        # Row (0, 'oops') fails the left conjunct; the right conjunct
        # (which would raise on 'oops' < 5) must never run.
        safe_rows = [(0, "oops"), (2, 3)]
        assert [r for r in safe_rows if condition(r, None) is True] == \
            [(2, 3)]
        assert batch_fn(safe_rows, None) == [(2, 3)]
        # Row (2, 'oops') reaches the right conjunct: both raise.
        with pytest.raises(ExecutionError, match="cannot compare"):
            condition((2, "oops"), None)
        with pytest.raises(ExecutionError, match="cannot compare"):
            batch_fn([(2, "oops")], None)
