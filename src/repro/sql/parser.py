"""Recursive-descent parser for the SQL subset and the XNF extension.

Grammar notes (Sect. 2 of the paper):

* An XNF query is ``OUT OF <definition>, ... TAKE <projection>``.
* A definition is either a component table
  (``name AS (table expression)`` or the shortcut ``name AS BASETABLE``)
  or a relationship
  (``name AS (RELATE parent VIA role, child [, child]*
  [USING table [alias] [, ...]] WHERE predicate)``).
* ``TAKE *`` projects everything; otherwise TAKE lists components and
  relationships, optionally with column projections ``name(col, ...)``.

Everything else is ordinary SQL.  The parser produces the AST of
:mod:`repro.sql.ast`; no name resolution happens here.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, literal_value, tokenize

#: Binary comparison operators in the grammar.
COMPARISONS = ("=", "<>", "!=", "<", ">", "<=", ">=")

AGGREGATE_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class Parser:
    """One-token-lookahead parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        #: Positional ``?`` markers seen so far; numbers them 0, 1, ...
        self._positional_parameters = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None
               ) -> ParseError:
        token = token or self.current
        return ParseError(
            f"{message} at line {token.line}, column {token.column} "
            f"(near {token.value!r})"
        )

    def _number(self) -> int | float:
        """Consume a NUMBER token and return its value.  The lexer reads
        any ``str.isdigit`` character as a digit, and not every one is
        a digit ``int()`` / ``float()`` reads (``1²``)."""
        token = self._advance()
        try:
            return literal_value(token.value)
        except ValueError:
            raise self._error("malformed number", token) from None

    def _expect_keyword(self, *words: str) -> Token:
        if self.current.is_keyword(*words):
            return self._advance()
        raise self._error(f"expected {' or '.join(words)}")

    def _accept_keyword(self, *words: str) -> bool:
        if self.current.is_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_punct(self, char: str) -> Token:
        if (self.current.type is TokenType.PUNCTUATION
                and self.current.value == char):
            return self._advance()
        raise self._error(f"expected {char!r}")

    def _accept_punct(self, char: str) -> bool:
        if (self.current.type is TokenType.PUNCTUATION
                and self.current.value == char):
            self._advance()
            return True
        return False

    def _accept_operator(self, *ops: str) -> Optional[str]:
        if self.current.type is TokenType.OPERATOR and self.current.value in ops:
            return self._advance().value
        return None

    def _expect_identifier(self, what: str = "identifier") -> str:
        if self.current.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Allow non-reserved use of some keywords as identifiers (e.g. a
        # table named KEY would be unusual; aggregates are common names).
        if self.current.is_keyword(*AGGREGATE_KEYWORDS):
            return self._advance().value
        raise self._error(f"expected {what}")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        statement = self._parse_statement_body()
        self._accept_punct(";")
        if self.current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def parse_script(self) -> list[ast.Statement]:
        """Parse a ;-separated sequence of statements."""
        statements: list[ast.Statement] = []
        while self.current.type is not TokenType.EOF:
            statements.append(self._parse_statement_body())
            if not self._accept_punct(";"):
                break
        if self.current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statements

    def _parse_statement_body(self) -> ast.Statement:
        # Positional markers number per statement, so each statement in
        # a script binds its own params list starting at 0.
        self._positional_parameters = 0
        token = self.current
        if token.is_keyword("SELECT"):
            return self.parse_select()
        if token.is_keyword("OUT"):
            return self.parse_xnf_query()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("REFRESH"):
            return self._parse_refresh()
        if token.is_keyword("ANALYZE"):
            return self._parse_analyze()
        raise self._error("expected a statement")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def parse_select(self) -> ast.SelectStatement:
        statement = self._parse_select_core()
        statement = self._parse_set_operations(statement)
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        if order_by or limit is not None or offset is not None:
            statement = ast.SelectStatement(
                select_items=statement.select_items,
                from_items=statement.from_items,
                where=statement.where,
                group_by=statement.group_by,
                having=statement.having,
                order_by=order_by,
                distinct=statement.distinct,
                limit=limit,
                offset=offset,
                set_operation=statement.set_operation,
            )
        return statement

    def _parse_select_core(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")
        select_items = self._parse_select_items()
        from_items: tuple[ast.FromItem, ...] = ()
        if self._accept_keyword("FROM"):
            from_items = self._parse_from_items()
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        group_by: tuple[ast.Expression, ...] = ()
        having = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._parse_expression()]
            while self._accept_punct(","):
                exprs.append(self._parse_expression())
            group_by = tuple(exprs)
        if self._accept_keyword("HAVING"):
            having = self._parse_expression()
        return ast.SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_set_operations(
            self, left: ast.SelectStatement) -> ast.SelectStatement:
        if self.current.is_keyword("UNION", "INTERSECT", "EXCEPT"):
            operator = self._advance().value
            all_flag = self._accept_keyword("ALL")
            right = self._parse_select_core()
            right = self._parse_set_operations(right)
            return ast.SelectStatement(
                select_items=left.select_items,
                from_items=left.from_items,
                where=left.where,
                group_by=left.group_by,
                having=left.having,
                distinct=left.distinct,
                set_operation=ast.SetOperation(operator, all_flag, right),
            )
        return left

    def _parse_order_by(self) -> tuple[ast.OrderItem, ...]:
        if not self._accept_keyword("ORDER"):
            return ()
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._accept_punct(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expression, descending)

    def _parse_limit_offset(self) -> tuple[Optional[int], Optional[int]]:
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_integer("LIMIT value")
        if self._accept_keyword("OFFSET"):
            offset = self._parse_integer("OFFSET value")
        return limit, offset

    def _parse_integer(self, what: str) -> int:
        if self.current.type is not TokenType.NUMBER:
            raise self._error(f"expected integer {what}")
        if "." in self.current.value:
            raise self._error(f"expected integer {what}")
        return self._number()

    def _parse_select_items(self) -> tuple[ast.SelectItem, ...]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> ast.SelectItem:
        if self._accept_operator("*"):
            return ast.SelectItem(ast.Star())
        # table.* form
        if (self.current.type is TokenType.IDENTIFIER
                and self._peek().value == "."
                and self._peek(2).value == "*"):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return ast.SelectItem(ast.Star(table))
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("column alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    # ------------------------------------------------------------------
    # FROM
    # ------------------------------------------------------------------
    def _parse_from_items(self) -> tuple[ast.FromItem, ...]:
        items = [self._parse_joined_table()]
        while self._accept_punct(","):
            items.append(self._parse_joined_table())
        return tuple(items)

    def _parse_joined_table(self) -> ast.FromItem:
        left = self._parse_table_primary()
        while True:
            kind = self._parse_join_kind()
            if kind is None:
                return left
            right = self._parse_table_primary()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._parse_expression()
            left = ast.Join(left, right, kind, condition)

    def _parse_join_kind(self) -> Optional[str]:
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "CROSS"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        if self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "LEFT"
        if self._accept_keyword("JOIN"):
            return "INNER"
        return None

    def _parse_table_primary(self) -> ast.FromItem:
        if self._accept_punct("("):
            if self.current.is_keyword("SELECT"):
                query = self.parse_select()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._expect_identifier("derived table alias")
                return ast.SubqueryRef(query, alias)
            item = self._parse_joined_table()
            self._expect_punct(")")
            return item
        name = self._expect_identifier("table name")
        # Dotted form references a component of an XNF view: view.component
        if self._accept_punct("."):
            name = f"{name}.{self._expect_identifier('component name')}"
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("table alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        if self.current.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self.parse_select()
            self._expect_punct(")")
            return ast.Exists(subquery)
        left = self._parse_additive()
        return self._parse_predicate_tail(left)

    def _parse_predicate_tail(self, left: ast.Expression) -> ast.Expression:
        op = self._accept_operator(*COMPARISONS)
        if op is not None:
            if op == "!=":
                op = "<>"
            right = self._parse_additive()
            return ast.BinaryOp(op, left, right)
        negated = False
        if self.current.is_keyword("NOT") and self._peek().is_keyword(
                "IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        if self._accept_keyword("IN"):
            return self._parse_in_tail(left, negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return ast.Like(left, pattern, negated)
        if negated:
            raise self._error("expected IN, BETWEEN or LIKE after NOT")
        return left

    def _parse_in_tail(self, left: ast.Expression,
                       negated: bool) -> ast.Expression:
        self._expect_punct("(")
        if self.current.is_keyword("SELECT"):
            subquery = self.parse_select()
            self._expect_punct(")")
            return ast.InSubquery(left, subquery, negated)
        items = [self._parse_expression()]
        while self._accept_punct(","):
            items.append(self._parse_expression())
        self._expect_punct(")")
        return ast.InList(left, tuple(items), negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self._accept_operator("*", "/")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.current
        if token.type is TokenType.PARAMETER:
            self._advance()
            if token.value == "?":
                index = self._positional_parameters
                self._positional_parameters += 1
                return ast.Parameter(index=index)
            return ast.Parameter(name=token.value.upper())
        if token.type is TokenType.NUMBER:
            slot = self.position
            return ast.Literal(self._number(), slot)
        if token.type is TokenType.STRING:
            slot = self.position
            self._advance()
            return ast.Literal(token.value, slot)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword(*AGGREGATE_KEYWORDS):
            return self._parse_aggregate()
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            if self.current.is_keyword("SELECT"):
                subquery = self.parse_select()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expression()
        raise self._error("expected an expression")

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        # Simple form — CASE operand WHEN value THEN result ... END —
        # desugars into the searched form with equality conditions.
        operand = None
        if not self.current.is_keyword("WHEN", "ELSE", "END"):
            operand = self._parse_expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expression()
            if operand is not None:
                condition = ast.BinaryOp("=", operand, condition)
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        return ast.CaseWhen(tuple(whens), default)

    def _parse_aggregate(self) -> ast.Expression:
        name = self._advance().value
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT")
        if self._accept_operator("*"):
            args: tuple[ast.Expression, ...] = (ast.Star(),)
        else:
            args = (self._parse_expression(),)
        self._expect_punct(")")
        return ast.FunctionCall(name, args, distinct)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self._advance().value
        if self._accept_punct("."):
            column = self._expect_identifier("column name")
            return ast.ColumnRef(name, column)
        if self.current.type is TokenType.PUNCTUATION and self.current.value == "(":
            self._advance()
            args: list[ast.Expression] = []
            if not (self.current.type is TokenType.PUNCTUATION
                    and self.current.value == ")"):
                args.append(self._parse_expression())
                while self._accept_punct(","):
                    args.append(self._parse_expression())
            self._expect_punct(")")
            return ast.FunctionCall(name.upper(), tuple(args))
        return ast.ColumnRef(None, name)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _parse_dml_target(self) -> str:
        """A DML target: base table, view, or ``view.component`` (one
        component of an XNF view, updated through put-back)."""
        name = self._expect_identifier("table name")
        if self._accept_punct("."):
            name = f"{name}.{self._expect_identifier('component name')}"
        return name

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_dml_target()
        columns: tuple[str, ...] = ()
        if self._accept_punct("("):
            names = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                names.append(self._expect_identifier("column name"))
            self._expect_punct(")")
            columns = tuple(names)
        if self._accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self._accept_punct(","):
                rows.append(self._parse_value_row())
            return ast.InsertStatement(table, columns, tuple(rows))
        if self.current.is_keyword("SELECT"):
            return ast.InsertStatement(table, columns, (),
                                       query=self.parse_select())
        raise self._error("expected VALUES or SELECT")

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self._expect_punct("(")
        values = [self._parse_expression()]
        while self._accept_punct(","):
            values.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(values)

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._parse_dml_target()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        return ast.UpdateStatement(table, tuple(assignments), where)

    def _parse_assignment(self) -> ast.Assignment:
        column = self._expect_identifier("column name")
        if self._accept_operator("=") is None:
            raise self._error("expected '=' in assignment")
        return ast.Assignment(column, self._parse_expression())

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_dml_target()
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        return ast.DeleteStatement(table, where)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        if self._accept_keyword("VIEW"):
            return self._parse_create_view()
        if self._accept_keyword("MATERIALIZED"):
            self._expect_keyword("VIEW")
            return self._parse_create_materialized_view()
        unique = self._accept_keyword("UNIQUE")
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        raise self._error(
            "expected TABLE, VIEW, MATERIALIZED VIEW or INDEX after CREATE"
        )

    def _parse_create_table(self) -> ast.CreateTableStatement:
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ast.ForeignKeyDef] = []
        while True:
            if self.current.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                primary_key = self._parse_column_name_list()
            elif self.current.is_keyword("FOREIGN"):
                foreign_keys.append(self._parse_foreign_key(None))
            elif self.current.is_keyword("CONSTRAINT"):
                self._advance()
                constraint_name = self._expect_identifier("constraint name")
                foreign_keys.append(self._parse_foreign_key(constraint_name))
            else:
                columns.append(self._parse_column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if not columns:
            raise self._error("CREATE TABLE requires at least one column")
        partition_by = self._parse_partition_clause()
        return ast.CreateTableStatement(
            name, tuple(columns), primary_key, tuple(foreign_keys),
            partition_by
        )

    # PARTITION, PARTITIONS, HASH, RANGE, LESS and THAN are contextual
    # (non-reserved) words: they only mean anything in this clause, so
    # they stay out of the lexer's keyword set and remain usable as
    # ordinary identifiers everywhere else.
    def _accept_word(self, word: str) -> bool:
        token = self.current
        if token.type is TokenType.IDENTIFIER and token.value.upper() == word:
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise self._error(f"expected {word}")

    def _parse_partition_clause(self) -> Optional[ast.PartitionSpec]:
        if not self._accept_word("PARTITION"):
            return None
        self._expect_keyword("BY")
        if self._accept_word("HASH"):
            self._expect_punct("(")
            columns = [self._expect_identifier("partition column")]
            while self._accept_punct(","):
                columns.append(self._expect_identifier("partition column"))
            self._expect_punct(")")
            self._expect_word("PARTITIONS")
            count = self._parse_integer("partition count")
            if count < 1:
                raise self._error("PARTITIONS count must be >= 1")
            return ast.PartitionSpec("HASH", tuple(columns),
                                     partitions=count)
        if self._accept_word("RANGE"):
            self._expect_punct("(")
            column = self._expect_identifier("partition column")
            self._expect_punct(")")
            self._expect_keyword("VALUES")
            self._expect_word("LESS")
            self._expect_word("THAN")
            self._expect_punct("(")
            bounds = [self._parse_scalar_literal("partition bound")]
            while self._accept_punct(","):
                bounds.append(self._parse_scalar_literal("partition bound"))
            self._expect_punct(")")
            return ast.PartitionSpec("RANGE", (column,),
                                     bounds=tuple(bounds))
        raise self._error("expected HASH or RANGE after PARTITION BY")

    def _parse_scalar_literal(self, what: str):
        negative = False
        if self.current.type is TokenType.OPERATOR \
                and self.current.value == "-":
            self._advance()
            negative = True
        token = self.current
        if token.type is TokenType.NUMBER:
            value = self._number()
            return -value if negative else value
        if token.type is TokenType.STRING and not negative:
            self._advance()
            return token.value
        raise self._error(f"expected literal {what}")

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier("column name")
        type_name = self._expect_identifier("type name")
        type_length = None
        if self._accept_punct("("):
            type_length = self._parse_integer("type length")
            self._expect_punct(")")
        nullable = True
        primary_key = False
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
                nullable = False
            elif self._accept_keyword("NULL"):
                pass  # explicit NULL marker: default anyway
            else:
                break
        return ast.ColumnDef(name, type_name, type_length, nullable, primary_key)

    def _parse_foreign_key(self,
                           name: Optional[str]) -> ast.ForeignKeyDef:
        self._expect_keyword("FOREIGN")
        self._expect_keyword("KEY")
        columns = self._parse_column_name_list()
        self._expect_keyword("REFERENCES")
        parent = self._expect_identifier("table name")
        parent_columns = self._parse_column_name_list()
        return ast.ForeignKeyDef(columns, parent, parent_columns, name)

    def _parse_column_name_list(self) -> tuple[str, ...]:
        self._expect_punct("(")
        names = [self._expect_identifier("column name")]
        while self._accept_punct(","):
            names.append(self._expect_identifier("column name"))
        self._expect_punct(")")
        return tuple(names)

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self._expect_identifier("index name")
        self._expect_keyword("ON")
        table = self._expect_identifier("table name")
        columns = self._parse_column_name_list()
        return ast.CreateIndexStatement(name, table, columns, unique)

    def _parse_create_view(self) -> ast.CreateViewStatement:
        name = self._expect_identifier("view name")
        column_names: tuple[str, ...] = ()
        if (self.current.type is TokenType.PUNCTUATION
                and self.current.value == "("):
            column_names = self._parse_column_name_list()
        self._expect_keyword("AS")
        if self.current.is_keyword("OUT"):
            query: ast.SelectStatement | ast.XNFQuery = self.parse_xnf_query()
        else:
            query = self.parse_select()
        return ast.CreateViewStatement(name, query, column_names)

    def _parse_create_materialized_view(
            self) -> ast.CreateMaterializedViewStatement:
        name = self._expect_identifier("materialized view name")
        policy = "eager"
        if self._accept_keyword("REFRESH"):
            word = self._expect_identifier("staleness policy").upper()
            if word not in ("EAGER", "DEFERRED"):
                raise self._error(
                    "expected EAGER or DEFERRED after REFRESH"
                )
            policy = word.lower()
        self._expect_keyword("AS")
        if not self.current.is_keyword("OUT"):
            raise self._error(
                "materialized views require an XNF query (OUT OF ... TAKE)"
            )
        return ast.CreateMaterializedViewStatement(
            name, self.parse_xnf_query(), policy)

    def _parse_refresh(self) -> ast.RefreshStatement:
        self._expect_keyword("REFRESH")
        self._expect_keyword("MATERIALIZED")
        self._expect_keyword("VIEW")
        name = self._expect_identifier("materialized view name")
        full = False
        if self.current.type is TokenType.IDENTIFIER \
                and self.current.value.upper() == "FULL":
            self._advance()
            full = True
        return ast.RefreshStatement(name, full)

    def _parse_analyze(self) -> ast.AnalyzeStatement:
        self._expect_keyword("ANALYZE")
        table = None
        if self.current.type is TokenType.IDENTIFIER \
                or self.current.is_keyword(*AGGREGATE_KEYWORDS):
            table = self._expect_identifier("table name")
        return ast.AnalyzeStatement(table)

    def _parse_drop(self) -> ast.DropStatement:
        self._expect_keyword("DROP")
        if self._accept_keyword("MATERIALIZED"):
            self._expect_keyword("VIEW")
            name = self._expect_identifier("object name")
            return ast.DropStatement("MATERIALIZED VIEW", name)
        kind_token = self._expect_keyword("TABLE", "VIEW", "INDEX")
        name = self._expect_identifier("object name")
        return ast.DropStatement(kind_token.value, name)

    # ------------------------------------------------------------------
    # XNF (Sect. 2)
    # ------------------------------------------------------------------
    def parse_xnf_query(self) -> ast.XNFQuery:
        self._expect_keyword("OUT")
        self._expect_keyword("OF")
        definitions = [self._parse_xnf_definition()]
        while self._accept_punct(","):
            definitions.append(self._parse_xnf_definition())
        self._expect_keyword("TAKE")
        take_all, take_items = self._parse_take_clause()
        return ast.XNFQuery(tuple(definitions), take_all, take_items)

    def _parse_xnf_definition(self):
        name = self._expect_identifier("component or relationship name")
        self._expect_keyword("AS")
        # Parenthesized definition: (SELECT ...) or (RELATE ...)
        if (self.current.type is TokenType.PUNCTUATION
                and self.current.value == "("):
            self._advance()
            if self.current.is_keyword("RELATE"):
                definition = self._parse_relate(name)
            elif self.current.is_keyword("SELECT"):
                definition = ast.XNFComponentDef(name, self.parse_select())
            else:
                raise self._error("expected SELECT or RELATE")
            self._expect_punct(")")
            return definition
        # Bare RELATE (paper prints it without surrounding parens too)
        if self.current.is_keyword("RELATE"):
            return self._parse_relate(name)
        # Shortcut: name AS BASETABLE  ==  SELECT * FROM BASETABLE
        base = self._expect_identifier("base table name")
        shortcut = ast.SelectStatement(
            select_items=(ast.SelectItem(ast.Star()),),
            from_items=(ast.TableRef(base),),
        )
        return ast.XNFComponentDef(name, shortcut)

    def _parse_relate(self, name: str) -> ast.XNFRelationshipDef:
        self._expect_keyword("RELATE")
        parent = self._expect_identifier("parent component name")
        self._expect_keyword("VIA")
        role = self._expect_identifier("role name")
        children: list[str] = []
        while self._accept_punct(","):
            children.append(self._expect_identifier("child component name"))
        if not children:
            raise self._error("RELATE requires at least one child component")
        using: list[ast.TableRef] = []
        if self._accept_keyword("USING"):
            using.append(self._parse_using_table())
            while self._accept_punct(","):
                using.append(self._parse_using_table())
        attributes: list[ast.SelectItem] = []
        if self._accept_keyword("WITH"):
            attributes.append(self._parse_relationship_attribute())
            while self._accept_punct(","):
                attributes.append(self._parse_relationship_attribute())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.XNFRelationshipDef(
            name, parent, role, tuple(children), tuple(using), where,
            tuple(attributes),
        )

    def _parse_relationship_attribute(self) -> ast.SelectItem:
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("attribute name")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    def _parse_using_table(self) -> ast.TableRef:
        table = self._expect_identifier("USING table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("USING table alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(table, alias)

    def _parse_take_clause(self) -> tuple[bool, tuple[ast.TakeItem, ...]]:
        if self._accept_operator("*"):
            return True, ()
        items = [self._parse_take_item()]
        while self._accept_punct(","):
            items.append(self._parse_take_item())
        return False, tuple(items)

    def _parse_take_item(self) -> ast.TakeItem:
        name = self._expect_identifier("TAKE item name")
        columns = None
        if (self.current.type is TokenType.PUNCTUATION
                and self.current.value == "("):
            columns = self._parse_column_name_list()
        return ast.TakeItem(name, columns)


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL or XNF statement."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ;-separated script of statements."""
    return Parser(text).parse_script()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used by tests and the API layer)."""
    parser = Parser(text)
    expression = parser._parse_expression()
    if parser.current.type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing input in expression: {text!r}")
    return expression
