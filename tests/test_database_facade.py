"""Session statements: dispatch by kind, DDL, XNF views, composition,
explain."""

import pytest

from repro.api.engine import Engine
from repro.errors import CatalogError, SemanticError
from repro.executor.runtime import QueryResult
from repro.xnf.result import COResult


class TestExecuteDispatch:
    def test_select_returns_query_result(self, simple_db):
        assert isinstance(simple_db.execute("SELECT 1"), QueryResult)

    def test_dml_returns_counts(self, simple_db):
        assert simple_db.execute(
            "INSERT INTO DEPT VALUES (7, 'x', 'y')") == 1
        assert simple_db.execute(
            "UPDATE DEPT SET loc = 'z' WHERE dno = 7") == 1
        assert simple_db.execute("DELETE FROM DEPT WHERE dno = 7") == 1

    def test_ddl_returns_none(self, simple_db):
        assert simple_db.execute("CREATE TABLE X (A INT)") is None
        assert simple_db.execute("DROP TABLE X") is None

    def test_xnf_query_returns_co_result(self, org_db):
        result = org_db.execute(
            "OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC') TAKE *")
        assert isinstance(result, COResult)

    def test_query_rejects_non_select(self, simple_db):
        with pytest.raises(SemanticError):
            simple_db.query("DELETE FROM DEPT")

    def test_execute_script(self, simple_db):
        results = simple_db.execute_script(
            "CREATE TABLE S1 (A INT); INSERT INTO S1 VALUES (1); "
            "SELECT * FROM S1")
        assert results[1] == 1
        assert results[2].rows == [(1,)]


class TestDDL:
    def test_create_table_with_fk(self):
        session = Engine().connect()
        session.execute("CREATE TABLE P (ID INT PRIMARY KEY)")
        session.execute("CREATE TABLE C (ID INT PRIMARY KEY, PID INT, "
                        "FOREIGN KEY (PID) REFERENCES P (ID))")
        assert session.engine.catalog.foreign_keys()[0].parent_table == "P"

    def test_create_unique_index_enforced(self, simple_db):
        simple_db.execute("CREATE UNIQUE INDEX UX ON DEPT (DNAME)")
        from repro.errors import TypeCheckError
        with pytest.raises(TypeCheckError):
            simple_db.execute("INSERT INTO DEPT VALUES (8, 'Tools', 'q')")

    def test_create_view_validates_eagerly(self, simple_db):
        with pytest.raises(SemanticError):
            simple_db.execute("CREATE VIEW broken AS SELECT ghost "
                              "FROM DEPT")

    def test_drop_view(self, simple_db):
        simple_db.execute("CREATE VIEW v AS SELECT * FROM DEPT")
        simple_db.execute("DROP VIEW v")
        assert not simple_db.engine.catalog.has_view("v")

    def test_primary_key_implies_not_null(self, simple_db):
        simple_db.execute("CREATE TABLE PK (ID INT PRIMARY KEY)")
        from repro.errors import TypeCheckError
        with pytest.raises(TypeCheckError):
            simple_db.execute("INSERT INTO PK VALUES (NULL)")


class TestXNFViews:
    def test_view_by_name(self, org_db):
        result = org_db.xnf("deps_arc")
        assert "XDEPT" in result.components

    def test_non_xnf_view_rejected_for_xnf(self, org_db):
        org_db.execute("CREATE VIEW plain AS SELECT * FROM DEPT")
        with pytest.raises(SemanticError, match="not an XNF view"):
            org_db.xnf("plain")

    def test_xnf_view_rejected_in_plain_from(self, org_db):
        with pytest.raises(SemanticError, match="component"):
            org_db.query("SELECT * FROM deps_arc")

    def test_component_reference_in_from(self, org_db):
        composed = org_db.query(
            "SELECT COUNT(*) FROM deps_arc.xemp").rows[0][0]
        direct = len(org_db.xnf("deps_arc").component("xemp"))
        assert composed == direct

    def test_component_reference_is_reachability_restricted(self, org_db):
        restricted = org_db.query(
            "SELECT COUNT(*) FROM deps_arc.xskills").rows[0][0]
        unrestricted = org_db.query(
            "SELECT COUNT(*) FROM SKILLS").rows[0][0]
        assert restricted < unrestricted

    def test_unknown_component_reference(self, org_db):
        with pytest.raises(CatalogError, match="no component"):
            org_db.query("SELECT * FROM deps_arc.ghost")

    def test_component_join_with_base_table(self, org_db):
        result = org_db.query(
            "SELECT COUNT(*) FROM deps_arc.xemp x, EMP e "
            "WHERE x.eno = e.eno")
        assert result.rows[0][0] == \
            len(org_db.xnf("deps_arc").component("xemp"))

    def test_xnf_view_composition_into_new_view(self, org_db):
        org_db.execute("""
        CREATE VIEW rich_arc AS
        OUT OF star AS (SELECT * FROM deps_arc.xemp WHERE sal > 100000),
               skills AS SKILLS,
               holds AS (RELATE star VIA HOLDS, skills USING EMPSKILLS es
                         WHERE star.eno = es.eseno AND
                               es.essno = skills.sno)
        TAKE *
        """)
        result = org_db.xnf("rich_arc")
        assert all(row[3] > 100000
                   for row in result.component("star").rows)


class TestExplain:
    def test_explain_select(self, org_db):
        text = org_db.explain("SELECT * FROM EMP WHERE edno = 1")
        assert "QGM" in text and "plan" in text

    def test_explain_xnf(self, org_db):
        text = org_db.explain(
            "OUT OF d AS (SELECT * FROM DEPT WHERE loc='ARC'), "
            "e AS EMP, r AS (RELATE d VIA X, e WHERE d.dno = e.edno) "
            "TAKE *")
        assert "output" in text and "D" in text

    def test_explain_rejects_dml(self, org_db):
        # INSERT has no plan to show; UPDATE/DELETE explain the plan
        # qualifying their rows, without running the statement.
        with pytest.raises(SemanticError):
            org_db.explain("INSERT INTO EMP (ENO) VALUES (1)")
        count = org_db.query("SELECT COUNT(*) FROM EMP").rows
        assert "qualification plan" in org_db.explain("DELETE FROM EMP")
        assert org_db.query("SELECT COUNT(*) FROM EMP").rows == count

    def test_explain_dml_variant_hits(self, org_db):
        # EXPLAIN takes the write as the front end lifts it: after one
        # write, a literal variant shows the qualification plan that
        # write cached, for base-table and view DML alike.
        for write, variant in (
                ("UPDATE EMP SET sal = sal + 1 WHERE eno = 1",
                 "UPDATE EMP SET sal = sal + 5 WHERE eno = 2"),
                ("DELETE FROM EMP WHERE eno = -1",
                 "DELETE FROM EMP WHERE eno = -2"),
                ("UPDATE deps_arc.XEMP SET sal = sal + 1 WHERE eno = 1",
                 "UPDATE deps_arc.XEMP SET sal = sal + 2 WHERE eno = 3")):
            org_db.execute(write)
            plan, cache = org_db.explain(variant).split("-- plan cache --")
            assert plan.startswith("-- qualification plan --")
            assert "status: hit" in cache, variant
