"""Error-path coverage: the failure messages users actually see."""

import pytest

from repro.api.engine import Engine
from repro.errors import (CatalogError, ExecutionError, ParseError,
                          ReproError, SemanticError, XNFError)


class TestErrorHierarchy:
    def test_every_layer_is_a_repro_error(self):
        from repro import errors
        families = [errors.StorageError, errors.TypeCheckError,
                    errors.CatalogError, errors.TransactionError,
                    errors.LexerError, errors.ParseError,
                    errors.SemanticError, errors.RewriteError,
                    errors.PlanningError, errors.ExecutionError,
                    errors.XNFError, errors.CacheError,
                    errors.UpdateError, errors.NotUpdatableError]
        for family in families:
            assert issubclass(family, ReproError)

    def test_not_updatable_is_update_error(self):
        from repro.errors import NotUpdatableError, UpdateError
        assert issubclass(NotUpdatableError, UpdateError)

    def test_single_catch_all(self, simple_db):
        with pytest.raises(ReproError):
            simple_db.query("SELECT * FROM GHOST")


class TestParserMessages:
    @pytest.mark.parametrize("sql, fragment", [
        ("SELECT FROM T", "expected an expression"),
        ("SELECT * FROM", "table name"),
        ("SELECT * FROM T WHERE", "expected an expression"),
        ("INSERT INTO T", "VALUES or SELECT"),
        ("CREATE NONSENSE X", "TABLE, VIEW, MATERIALIZED VIEW or INDEX"),
        ("UPDATE T SET", "column name"),
        ("SELECT * FROM T ORDER", "BY"),
    ])
    def test_common_typos(self, sql, fragment):
        from repro.sql.parser import parse_statement
        with pytest.raises(ParseError, match=fragment):
            parse_statement(sql)

    def test_position_in_message(self):
        from repro.sql.parser import parse_statement
        with pytest.raises(ParseError, match=r"line 1, column"):
            parse_statement("SELECT a FROM t WHERE AND")


class TestSemanticMessages:
    def test_unknown_objects_named(self, simple_db):
        with pytest.raises(SemanticError, match="GHOST"):
            simple_db.query("SELECT * FROM GHOST")
        with pytest.raises(SemanticError, match="ghostcol"):
            simple_db.query("SELECT ghostcol FROM DEPT")

    def test_view_dependency_errors_surface_at_definition(self,
                                                          simple_db):
        with pytest.raises(SemanticError):
            simple_db.execute(
                "CREATE VIEW v AS SELECT nothere FROM DEPT")
        assert not simple_db.engine.catalog.has_view("v")

    def test_xnf_unknown_view(self, simple_db):
        with pytest.raises(ReproError):
            simple_db.xnf("no_such_view")

    def test_disconnected_islands_become_roots(self, org_db):
        """Root inference keeps every component reachable: a component
        no relationship targets anchors its own island (so the
        translator's unreachability guard is defense-in-depth only)."""
        result = org_db.xnf("""
        OUT OF root AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               island AS EMP,
               bridge AS (RELATE island VIA X, island2
                          WHERE island.eno = island2.sno),
               island2 AS SKILLS
        TAKE *
        """)
        # 'island' has no incoming edge: it is a root and fully present.
        assert len(result.component("island")) == \
            len(org_db.table("EMP"))

    def test_component_name_collision_with_table(self, org_db):
        # component names live in their own namespace; this is legal
        result = org_db.xnf("""
        OUT OF emp AS (SELECT * FROM EMP WHERE sal > 0) TAKE *
        """)
        assert "EMP" in result.components


class TestExecutionMessages:
    def test_division_by_zero_at_runtime(self, simple_db):
        with pytest.raises(ExecutionError, match="division by zero"):
            simple_db.query("SELECT sal / (sal - sal) FROM EMP")

    def test_type_mismatch_at_runtime(self, simple_db):
        with pytest.raises(ExecutionError, match="cannot compare"):
            simple_db.query("SELECT 1 FROM EMP WHERE ename > 5")

    def test_drop_unknown_objects(self, simple_db):
        with pytest.raises(CatalogError):
            simple_db.execute("DROP TABLE GHOST")
        with pytest.raises(CatalogError):
            simple_db.execute("DROP VIEW GHOST")
        with pytest.raises(CatalogError):
            simple_db.execute("DROP INDEX GHOST")


class TestStateAfterFailure:
    def test_failed_statement_leaves_tables_intact(self, simple_db):
        before = list(simple_db.table("EMP").rows())
        with pytest.raises(ExecutionError):
            simple_db.execute("UPDATE EMP SET sal = sal / (sal - sal)")
        assert list(simple_db.table("EMP").rows()) == before
        assert not simple_db.in_transaction

    def test_failed_xnf_leaves_no_partial_view(self, simple_db):
        db = Engine().connect()
        db.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        with pytest.raises(ReproError):
            db.execute("CREATE VIEW v AS OUT OF x AS GHOST TAKE *")
        assert not db.engine.catalog.has_view("v")
