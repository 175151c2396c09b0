"""SQL DML against views: the lens-style put-back translation.

Covers the translatable-shape matrix (projections, selections, renames,
nested views, key-preserved joins, XNF component paths), the rejection
catalog (every refusal is a ``ViewUpdateError`` naming the box/column
and reason, leaving the database bit-for-bit unchanged), atomicity
inside open transactions, and the delta protocol (view writes emit
ordinary ``TableDelta``s).
"""

import pytest

from repro.api.engine import Engine
from repro.errors import CatalogError, SemanticError, ViewUpdateError


@pytest.fixture
def session():
    engine = Engine()
    s = engine.connect()
    s.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, DNAME CHAR(10),"
              " BUDGET INT)")
    s.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, ENAME CHAR(10),"
              " SAL INT, DNO INT)")
    s.execute("INSERT INTO DEPT VALUES (10,'eng',500),(20,'ops',300)")
    s.execute("INSERT INTO EMP VALUES (1,'a',100,10),(2,'b',200,20),"
              "(3,'c',300,10)")
    yield s
    s.close()
    engine.close()


def emp_rows(session):
    return sorted(session.query("SELECT * FROM EMP").rows)


class TestSingleSourceShapes:
    def test_update_through_selection(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP"
                        " WHERE SAL > 50")
        assert session.execute("UPDATE V SET SAL = 150 WHERE ENO = 1") == 1
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(150,)]

    def test_update_through_rename(self, session):
        session.execute("CREATE VIEW V (ID, PAY) AS"
                        " SELECT ENO, SAL FROM EMP")
        assert session.execute(
            "UPDATE V SET PAY = PAY + 1 WHERE ID <= 2") == 2
        assert [r[0] for r in sorted(
            session.query("SELECT SAL FROM EMP").rows)] == [101, 201, 300]

    def test_update_through_nested_view(self, session):
        session.execute("CREATE VIEW V1 (ID, PAY) AS"
                        " SELECT ENO, SAL FROM EMP WHERE SAL > 50")
        session.execute("CREATE VIEW V2 AS SELECT ID, PAY FROM V1"
                        " WHERE PAY < 250")
        assert session.execute(
            "UPDATE V2 SET PAY = 120 WHERE ID = 1") == 1
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(120,)]

    def test_insert_through_view(self, session):
        session.execute("CREATE VIEW V (ID, NAME, PAY) AS"
                        " SELECT ENO, ENAME, SAL FROM EMP WHERE SAL > 50")
        assert session.execute(
            "INSERT INTO V VALUES (9, 'z', 90)") == 1
        assert session.query(
            "SELECT SAL, DNO FROM EMP WHERE ENO = 9").rows == [(90, None)]

    def test_insert_with_column_list(self, session):
        session.execute("CREATE VIEW V (ID, PAY) AS"
                        " SELECT ENO, SAL FROM EMP")
        assert session.execute("INSERT INTO V (ID) VALUES (9)") == 1
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 9").rows == [(None,)]

    def test_delete_through_view(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO FROM EMP"
                        " WHERE SAL > 150")
        assert session.execute("DELETE FROM V WHERE ENO = 2") == 1
        assert [r[0] for r in emp_rows(session)] == [1, 3]

    def test_parameterized_view_dml(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP")
        assert session.execute("UPDATE V SET SAL = ? WHERE ENO = ?",
                               [999, 3]) == 1
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 3").rows == [(999,)]

    def test_view_where_predicate_narrows_writes(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP"
                        " WHERE DNO = 10")
        # Only the two DNO=10 rows are visible, so only they update.
        assert session.execute("UPDATE V SET SAL = 0 WHERE SAL > 0") == 2
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 2").rows == [(200,)]


class TestKeyPreservedJoins:
    def test_update_anchor_column(self, session):
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, E.SAL, D.BUDGET"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        assert session.execute(
            "UPDATE V SET SAL = SAL + 5 WHERE BUDGET > 400") == 2
        assert [r[2] for r in emp_rows(session)] == [105, 200, 305]

    def test_delete_anchor_rows(self, session):
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, D.BUDGET"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        assert session.execute("DELETE FROM V WHERE BUDGET < 400") == 1
        assert [r[0] for r in emp_rows(session)] == [1, 3]

    def test_write_to_key_bound_side_rejected(self, session):
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, E.SAL, D.DNAME"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE V SET DNAME = 'x' WHERE ENO = 1")
        assert info.value.column == "DNAME"
        assert "key-bound" in str(info.value)

    def test_insert_into_join_view_rejected(self, session):
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, E.SAL, D.DNAME"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("INSERT INTO V VALUES (9, 50, 'eng')")
        assert "ambiguous" in str(info.value)
        assert len(emp_rows(session)) == 3

    def test_non_key_preserved_join_rejected(self, session):
        # Joining on a non-key column: neither side is key-bound.
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, D.DNO"
            " FROM EMP E, DEPT D WHERE E.SAL = D.BUDGET")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE V SET ENO = 1")
        assert "not key-preserving" in str(info.value)

    def test_update_escaping_join_scope_aborts(self, session):
        # Moving the anchor's FK away from its joined parent makes the
        # view row vanish: get∘put violated, statement rolled back.
        session.execute(
            "CREATE VIEW V AS SELECT E.ENO, E.DNO, D.BUDGET"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        with pytest.raises(ViewUpdateError):
            session.execute("UPDATE V SET DNO = 99 WHERE ENO = 1")
        assert session.query(
            "SELECT DNO FROM EMP WHERE ENO = 1").rows == [(10,)]


class TestRejectionCatalog:
    def check_rejected(self, session, view_sql, dml, needle):
        session.execute(view_sql)
        before = emp_rows(session)
        with pytest.raises(ViewUpdateError) as info:
            session.execute(dml)
        assert needle in str(info.value)
        assert info.value.reason or info.value.column
        assert emp_rows(session) == before

    def test_aggregate_view(self, session):
        self.check_rejected(
            session,
            "CREATE VIEW V (DNO, TOTAL) AS SELECT DNO, SUM(SAL)"
            " FROM EMP GROUP BY DNO",
            "UPDATE V SET TOTAL = 0",
            "aggregation collapses base rows")

    def test_distinct_view(self, session):
        self.check_rejected(
            session,
            "CREATE VIEW V AS SELECT DISTINCT DNO FROM EMP",
            "DELETE FROM V",
            "DISTINCT merges duplicate rows")

    def test_setop_view(self, session):
        self.check_rejected(
            session,
            "CREATE VIEW V AS SELECT ENO FROM EMP UNION"
            " SELECT DNO FROM DEPT",
            "DELETE FROM V",
            "set operations lose row provenance")

    def test_computed_column_write(self, session):
        session.execute("CREATE VIEW V (ID, DOUBLED) AS"
                        " SELECT ENO, SAL * 2 FROM EMP")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE V SET DOUBLED = 10")
        assert info.value.column == "DOUBLED"
        assert "computed" in str(info.value)

    def test_unknown_view_column(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO FROM EMP")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE V SET NOPE = 1")
        assert info.value.column == "NOPE"

    def test_subquery_in_where_rejected(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE V SET SAL = 0 WHERE ENO IN"
                            " (SELECT DNO FROM DEPT)")
        assert "subquer" in str(info.value)

    def test_materialized_view_rejected(self, session):
        session.execute(
            "CREATE MATERIALIZED VIEW MV AS OUT OF"
            " xemp AS EMP TAKE xemp")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE MV SET SAL = 0")
        assert "materialized" in str(info.value)

    def test_bare_xnf_view_name_rejected(self, session):
        session.execute("CREATE VIEW X AS OUT OF xemp AS EMP TAKE xemp")
        with pytest.raises(ViewUpdateError) as info:
            session.execute("UPDATE X SET SAL = 0")
        assert "component" in str(info.value)

    def test_insert_select_rejected(self, session):
        session.execute("CREATE VIEW V (ID) AS SELECT ENO FROM EMP")
        with pytest.raises(SemanticError):
            session.execute("INSERT INTO V SELECT DNO FROM DEPT")

    def test_unknown_target_still_catalog_error(self, session):
        with pytest.raises(CatalogError):
            session.execute("UPDATE NO_SUCH SET X = 1")


class TestXNFComponentDML:
    @pytest.fixture
    def xnf(self, session):
        session.execute(
            "CREATE VIEW ORG AS OUT OF"
            " xdept AS (SELECT * FROM DEPT WHERE BUDGET > 0),"
            " xemp AS EMP,"
            " employment AS (RELATE xdept VIA EMPLOYS, xemp"
            " WHERE xdept.dno = xemp.dno)"
            " TAKE xdept, employment")
        return session

    def test_update_component(self, xnf):
        assert xnf.execute(
            "UPDATE ORG.XEMP SET SAL = 1 WHERE ENO = 1") == 1
        assert xnf.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(1,)]

    def test_insert_component(self, xnf):
        assert xnf.execute(
            "INSERT INTO ORG.XEMP (ENO, SAL, DNO)"
            " VALUES (9, 5, 10)") == 1
        assert xnf.query(
            "SELECT SAL FROM EMP WHERE ENO = 9").rows == [(5,)]

    def test_component_predicate_is_enforced(self, xnf):
        # xdept only shows BUDGET > 0; writing a row out of that slice
        # fails the dynamic check and rolls back.
        with pytest.raises(ViewUpdateError):
            xnf.execute("UPDATE ORG.XDEPT SET BUDGET = -1 WHERE DNO = 10")
        assert xnf.query(
            "SELECT BUDGET FROM DEPT WHERE DNO = 10").rows == [(500,)]


class TestAtomicityAndDeltas:
    def test_rejection_inside_txn_leaves_txn_usable(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP"
                        " WHERE SAL > 50")
        session.begin()
        session.execute("UPDATE V SET SAL = 160 WHERE ENO = 1")
        with pytest.raises(ViewUpdateError):
            # second statement escapes the view; only it rolls back
            session.execute("UPDATE V SET SAL = 0 WHERE ENO = 2")
        session.commit()
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(160,)]
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 2").rows == [(200,)]

    def test_rollback_undoes_view_write(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP")
        session.begin()
        session.execute("UPDATE V SET SAL = 1 WHERE ENO = 1")
        session.rollback()
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(100,)]

    def test_view_write_emits_table_deltas(self, session, monkeypatch):
        session.execute("CREATE VIEW V (ID, PAY) AS"
                        " SELECT ENO, SAL FROM EMP")
        seen = []
        engine = session.engine
        publish = engine.publish

        def observe(delta):
            seen.append(delta)
            publish(delta)
        monkeypatch.setattr(engine, "publish", observe)
        session.execute("UPDATE V SET PAY = 110 WHERE ID = 1")
        assert [d.table for d in seen] == ["EMP"]
        (delta,) = seen
        assert len(delta.inserted) == 1 and len(delta.deleted) == 1
        assert delta.inserted[0][1][2] == 110

    def test_multi_row_failure_rolls_all_rows_back(self, session):
        # Third row's write escapes the view; the first two must not
        # stick (no silent partial writes).
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP"
                        " WHERE SAL > 250")
        before = emp_rows(session)
        with pytest.raises(ViewUpdateError):
            session.execute("UPDATE V SET SAL = 0")
        assert emp_rows(session) == before


class TestPlanCaching:
    def test_repeated_view_dml_reuses_translation(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP")
        manager = session.engine.viewupdates
        session.execute("UPDATE V SET SAL = ? WHERE ENO = ?", [110, 1])
        plans = len(manager._plans)
        session.execute("UPDATE V SET SAL = ? WHERE ENO = ?", [120, 1])
        assert len(manager._plans) == plans
        assert session.query(
            "SELECT SAL FROM EMP WHERE ENO = 1").rows == [(120,)]

    def test_schema_change_invalidates_plan(self, session):
        session.execute("CREATE VIEW V AS SELECT ENO, SAL FROM EMP")
        session.execute("UPDATE V SET SAL = 110 WHERE ENO = 1")
        session.execute("CREATE TABLE T2 (A INT)")  # bumps schema_version
        assert session.execute(
            "UPDATE V SET SAL = 111 WHERE ENO = 1") == 1
