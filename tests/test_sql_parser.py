"""Unit tests for the SQL + XNF parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_script, parse_statement


class TestSelectCore:
    def test_select_star(self):
        statement = parse_statement("SELECT * FROM T")
        assert isinstance(statement.select_items[0].expression, ast.Star)
        assert statement.from_items == (ast.TableRef("T"),)

    def test_qualified_star(self):
        statement = parse_statement("SELECT t.* FROM T t")
        assert statement.select_items[0].expression == ast.Star("t")

    def test_column_alias_with_and_without_as(self):
        statement = parse_statement("SELECT a AS x, b y FROM T")
        assert statement.select_items[0].alias == "x"
        assert statement.select_items[1].alias == "y"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM T").distinct

    def test_where(self):
        statement = parse_statement("SELECT a FROM T WHERE a > 1")
        assert isinstance(statement.where, ast.BinaryOp)

    def test_table_alias(self):
        statement = parse_statement("SELECT a FROM T AS x")
        assert statement.from_items[0].alias == "x"

    def test_multiple_from_items(self):
        statement = parse_statement("SELECT a FROM T, S")
        assert len(statement.from_items) == 2

    def test_select_without_from(self):
        statement = parse_statement("SELECT 1")
        assert statement.from_items == ()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_statement("SELECT a FROM T garbage blah")

    def test_xnf_component_reference(self):
        statement = parse_statement("SELECT a FROM v.comp")
        assert statement.from_items[0].name == "v.comp"


class TestExpressions:
    def test_precedence_or_and(self):
        expression = parse_expression("a OR b AND c")
        assert expression.op == "OR"
        assert expression.right.op == "AND"

    def test_precedence_arithmetic(self):
        expression = parse_expression("1 + 2 * 3")
        assert expression.op == "+"
        assert expression.right.op == "*"

    def test_parentheses(self):
        expression = parse_expression("(1 + 2) * 3")
        assert expression.op == "*"

    def test_comparison_chain_rejected(self):
        expression = parse_expression("a = b")
        assert expression.op == "="

    def test_bang_equals_normalized(self):
        assert parse_expression("a != b").op == "<>"

    def test_not(self):
        expression = parse_expression("NOT a = b")
        assert isinstance(expression, ast.UnaryOp)

    def test_between(self):
        expression = parse_expression("a BETWEEN 1 AND 5")
        assert isinstance(expression, ast.Between)

    def test_not_between(self):
        assert parse_expression("a NOT BETWEEN 1 AND 5").negated

    def test_like(self):
        expression = parse_expression("name LIKE 'A%'")
        assert isinstance(expression, ast.Like)

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("a IS NULL").negated
        assert parse_expression("a IS NOT NULL").negated

    def test_in_list(self):
        expression = parse_expression("a IN (1, 2, 3)")
        assert isinstance(expression, ast.InList)
        assert len(expression.items) == 3

    def test_not_in_list(self):
        assert parse_expression("a NOT IN (1)").negated

    def test_case_when(self):
        expression = parse_expression(
            "CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(expression, ast.CaseWhen)
        assert expression.default == ast.Literal("small")

    def test_case_requires_when(self):
        with pytest.raises(ParseError, match="WHEN"):
            parse_expression("CASE ELSE 1 END")

    def test_unary_minus(self):
        expression = parse_expression("-a")
        assert isinstance(expression, ast.UnaryOp)

    def test_string_concat(self):
        assert parse_expression("a || b").op == "||"

    def test_function_call(self):
        expression = parse_expression("UPPER(name)")
        assert expression == ast.FunctionCall(
            "UPPER", (ast.ColumnRef(None, "name"),))

    def test_literals(self):
        assert parse_expression("NULL") == ast.Literal(None)
        assert parse_expression("TRUE") == ast.Literal(True)
        assert parse_expression("3.5") == ast.Literal(3.5)


class TestSubqueries:
    def test_exists(self):
        statement = parse_statement(
            "SELECT a FROM T WHERE EXISTS (SELECT 1 FROM S)")
        assert isinstance(statement.where, ast.Exists)

    def test_in_subquery(self):
        statement = parse_statement(
            "SELECT a FROM T WHERE a IN (SELECT b FROM S)")
        assert isinstance(statement.where, ast.InSubquery)

    def test_scalar_subquery(self):
        statement = parse_statement(
            "SELECT a FROM T WHERE a = (SELECT MAX(b) FROM S)")
        assert isinstance(statement.where.right, ast.ScalarSubquery)

    def test_derived_table(self):
        statement = parse_statement(
            "SELECT a FROM (SELECT b FROM S) AS d")
        assert isinstance(statement.from_items[0], ast.SubqueryRef)
        assert statement.from_items[0].alias == "d"

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM (SELECT b FROM S)")


class TestJoins:
    def test_inner_join(self):
        statement = parse_statement(
            "SELECT * FROM A JOIN B ON A.x = B.y")
        join = statement.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "INNER"

    def test_left_join(self):
        statement = parse_statement(
            "SELECT * FROM A LEFT OUTER JOIN B ON A.x = B.y")
        assert statement.from_items[0].kind == "LEFT"

    def test_cross_join_has_no_on(self):
        statement = parse_statement("SELECT * FROM A CROSS JOIN B")
        assert statement.from_items[0].condition is None

    def test_chained_joins(self):
        statement = parse_statement(
            "SELECT * FROM A JOIN B ON A.x=B.x JOIN C ON B.y=C.y")
        outer = statement.from_items[0]
        assert isinstance(outer.left, ast.Join)


class TestGroupingAndOrdering:
    def test_group_by_having(self):
        statement = parse_statement(
            "SELECT a, COUNT(*) FROM T GROUP BY a HAVING COUNT(*) > 1")
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_aggregates(self):
        statement = parse_statement(
            "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM T")
        names = [i.expression.name for i in statement.select_items]
        assert names == ["COUNT", "SUM", "AVG", "MIN", "MAX"]

    def test_count_distinct(self):
        statement = parse_statement("SELECT COUNT(DISTINCT x) FROM T")
        assert statement.select_items[0].expression.distinct

    def test_order_by_asc_desc(self):
        statement = parse_statement(
            "SELECT a FROM T ORDER BY a DESC, b ASC")
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending

    def test_limit_offset(self):
        statement = parse_statement("SELECT a FROM T LIMIT 5 OFFSET 2")
        assert statement.limit == 5 and statement.offset == 2

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError, match="integer"):
            parse_statement("SELECT a FROM T LIMIT 1.5")


class TestSetOperations:
    def test_union(self):
        statement = parse_statement("SELECT a FROM T UNION SELECT b FROM S")
        assert statement.set_operation.operator == "UNION"
        assert not statement.set_operation.all

    def test_union_all(self):
        statement = parse_statement(
            "SELECT a FROM T UNION ALL SELECT b FROM S")
        assert statement.set_operation.all

    def test_intersect_and_except(self):
        for word in ("INTERSECT", "EXCEPT"):
            statement = parse_statement(
                f"SELECT a FROM T {word} SELECT b FROM S")
            assert statement.set_operation.operator == word

    def test_order_by_applies_to_whole_union(self):
        statement = parse_statement(
            "SELECT a FROM T UNION SELECT b FROM S ORDER BY 1")
        assert statement.order_by


class TestDML:
    def test_insert_values(self):
        statement = parse_statement("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse_statement("INSERT INTO T (a, b) VALUES (1, 2)")
        assert statement.columns == ("a", "b")

    def test_insert_select(self):
        statement = parse_statement("INSERT INTO T SELECT * FROM S")
        assert statement.query is not None

    def test_update(self):
        statement = parse_statement("UPDATE T SET a = 1, b = b + 1 WHERE c = 2")
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse_statement("DELETE FROM T WHERE a = 1")
        assert statement.table == "T"


class TestDDL:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE T (A INT PRIMARY KEY, B VARCHAR(10) NOT NULL)")
        assert statement.columns[0].primary_key
        assert statement.columns[1].type_length == 10
        assert not statement.columns[1].nullable

    def test_table_level_primary_key(self):
        statement = parse_statement(
            "CREATE TABLE T (A INT, B INT, PRIMARY KEY (A, B))")
        assert statement.primary_key == ("A", "B")

    def test_foreign_key_clause(self):
        statement = parse_statement(
            "CREATE TABLE T (A INT, FOREIGN KEY (A) REFERENCES P (X))")
        fk = statement.foreign_keys[0]
        assert fk.columns == ("A",) and fk.parent_table == "P"

    def test_named_constraint(self):
        statement = parse_statement(
            "CREATE TABLE T (A INT, CONSTRAINT FK1 FOREIGN KEY (A) "
            "REFERENCES P (X))")
        assert statement.foreign_keys[0].name == "FK1"

    def test_create_index(self):
        statement = parse_statement("CREATE UNIQUE INDEX IX ON T (A, B)")
        assert statement.unique and statement.columns == ("A", "B")

    def test_create_view(self):
        statement = parse_statement("CREATE VIEW V AS SELECT a FROM T")
        assert not statement.is_xnf

    def test_drop_statements(self):
        for kind in ("TABLE", "VIEW", "INDEX"):
            statement = parse_statement(f"DROP {kind} X")
            assert statement.kind == kind

    def test_empty_create_table_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE T (PRIMARY KEY (A))")


class TestXNFSyntax:
    QUERY = """
    OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
           xemp AS EMP,
           employment AS (RELATE xdept VIA EMPLOYS, xemp
                          WHERE xdept.dno = xemp.edno)
    TAKE *
    """

    def test_components_and_relationships_split(self):
        query = parse_statement(self.QUERY)
        assert isinstance(query, ast.XNFQuery)
        assert [c.name for c in query.components] == ["xdept", "xemp"]
        assert [r.name for r in query.relationships] == ["employment"]

    def test_shortcut_component_becomes_select_star(self):
        query = parse_statement(self.QUERY)
        shortcut = query.components[1].query
        assert isinstance(shortcut.select_items[0].expression, ast.Star)
        assert shortcut.from_items == (ast.TableRef("EMP"),)

    def test_relationship_parts(self):
        query = parse_statement(self.QUERY)
        relationship = query.relationships[0]
        assert relationship.parent == "xdept"
        assert relationship.role == "EMPLOYS"
        assert relationship.children == ("xemp",)
        assert relationship.where is not None

    def test_take_star(self):
        assert parse_statement(self.QUERY).take_all

    def test_take_items_with_projection(self):
        query = parse_statement("""
        OUT OF a AS T, b AS S,
               r AS (RELATE a VIA HAS, b WHERE a.x = b.y)
        TAKE a(x, y), r
        """)
        assert not query.take_all
        assert query.take_items[0].columns == ("x", "y")
        assert query.take_items[1].columns is None

    def test_using_clause(self):
        query = parse_statement("""
        OUT OF a AS T, b AS S,
               r AS (RELATE a VIA HAS, b USING M m
                     WHERE a.x = m.ax AND m.bx = b.x)
        TAKE *
        """)
        using = query.relationships[0].using
        assert using == (ast.TableRef("M", "m"),)

    def test_bare_relate_without_parens(self):
        query = parse_statement("""
        OUT OF a AS T, b AS S,
               r AS RELATE a VIA HAS, b WHERE a.x = b.y
        TAKE *
        """)
        assert query.relationships[0].parent == "a"

    def test_nary_relationship(self):
        query = parse_statement("""
        OUT OF a AS T, b AS S, c AS U,
               r AS (RELATE a VIA LINKS, b, c
                     WHERE a.x = b.y AND a.x = c.z)
        TAKE *
        """)
        assert query.relationships[0].children == ("b", "c")

    def test_relate_requires_child(self):
        with pytest.raises(ParseError, match="at least one child"):
            parse_statement(
                "OUT OF a AS T, r AS (RELATE a VIA X WHERE 1=1) TAKE *")

    def test_create_xnf_view(self):
        statement = parse_statement(f"CREATE VIEW v AS {self.QUERY}")
        assert statement.is_xnf


class TestScripts:
    def test_multiple_statements(self):
        statements = parse_script(
            "CREATE TABLE T (A INT); INSERT INTO T VALUES (1); "
            "SELECT * FROM T;")
        assert len(statements) == 3

    def test_trailing_semicolon_optional(self):
        assert len(parse_script("SELECT 1")) == 1


class TestMalformedNumbers:
    """The lexer reads any ``str.isdigit`` character as a digit; a
    number ``int()`` / ``float()`` cannot read is a ParseError at the
    token, whether it is an operand, a LIMIT or a partition bound."""

    @pytest.mark.parametrize("sql, column", [
        ("SELECT a FROM T WHERE a = 1²", 27),
        ("SELECT a FROM T WHERE a = 2.5³", 27),
        ("SELECT a FROM T LIMIT 3²", 23),
        ("CREATE TABLE P (A INT) PARTITION BY RANGE (A) "
         "VALUES LESS THAN (1²)", 65),
    ])
    def test_parse_error_at_the_token(self, sql, column):
        with pytest.raises(ParseError, match="malformed number") as error:
            parse_statement(sql)
        assert f"line 1, column {column}" in str(error.value)

    def test_engine_reports_it_after_a_cached_variant(self):
        from repro import Engine

        session = Engine().connect()
        session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        session.execute("INSERT INTO T VALUES (1)")
        assert session.query("SELECT a FROM T WHERE a = 1").rows == [(1,)]
        # The variant's skeleton is cached; its literal is not a number.
        with pytest.raises(ParseError, match="column 27"):
            session.query("SELECT a FROM T WHERE a = 1²")
