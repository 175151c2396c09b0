"""INSERT / UPDATE / DELETE behaviour, including constraint checks."""

import pytest

from repro.errors import SemanticError, TypeCheckError, UpdateError


class TestInsert:
    def test_insert_values(self, simple_db):
        assert simple_db.execute(
            "INSERT INTO DEPT VALUES (4, 'Lab', 'NY')") == 1
        assert len(simple_db.table("DEPT")) == 4

    def test_insert_multiple_rows(self, simple_db):
        count = simple_db.execute(
            "INSERT INTO DEPT VALUES (4,'a','x'), (5,'b','y')")
        assert count == 2

    def test_insert_with_column_list_fills_nulls(self, simple_db):
        simple_db.execute("INSERT INTO EMP (ENO, ENAME) VALUES (99, 'zed')")
        row = simple_db.query(
            "SELECT edno, sal FROM EMP WHERE eno = 99").rows[0]
        assert row == (None, None)

    def test_insert_select(self, simple_db):
        simple_db.execute("CREATE TABLE EMP2 (ENO INT, ENAME VARCHAR, "
                          "EDNO INT, SAL INT)")
        count = simple_db.execute(
            "INSERT INTO EMP2 SELECT * FROM EMP WHERE sal > 100")
        assert count == 3

    def test_width_mismatch_rejected(self, simple_db):
        with pytest.raises(SemanticError, match="values"):
            simple_db.execute("INSERT INTO DEPT VALUES (4, 'short')")

    def test_pk_conflict_rejected_and_rolled_back(self, simple_db):
        with pytest.raises(TypeCheckError):
            simple_db.execute(
                "INSERT INTO DEPT VALUES (9,'ok','x'), (1,'dup','y')")
        # Atomicity: the first row must not survive.
        assert simple_db.query(
            "SELECT COUNT(*) FROM DEPT WHERE dno = 9").rows == [(0,)]

    def test_arithmetic_in_values(self, simple_db):
        simple_db.execute("INSERT INTO DEPT VALUES (2 + 2, 'calc', 'x')")
        assert simple_db.query(
            "SELECT dname FROM DEPT WHERE dno = 4").rows == [("calc",)]


class TestUpdate:
    def test_update_with_expression(self, simple_db):
        count = simple_db.execute(
            "UPDATE EMP SET sal = sal * 2 WHERE edno = 1")
        assert count == 2
        assert sorted(simple_db.query(
            "SELECT sal FROM EMP WHERE edno = 1").rows) == [(180,), (200,)]

    def test_update_all_rows(self, simple_db):
        assert simple_db.execute("UPDATE EMP SET sal = 1") == 5

    def test_update_with_subquery_predicate(self, simple_db):
        count = simple_db.execute(
            "UPDATE EMP SET sal = 0 WHERE edno IN "
            "(SELECT dno FROM DEPT WHERE loc = 'SF')")
        assert count == 1

    def test_update_multiple_columns(self, simple_db):
        simple_db.execute(
            "UPDATE EMP SET ename = 'x', sal = 1 WHERE eno = 10")
        assert simple_db.query(
            "SELECT ename, sal FROM EMP WHERE eno = 10").rows == \
            [("x", 1)]

    def test_swap_update_reads_old_values(self, simple_db):
        simple_db.execute("UPDATE EMP SET sal = eno, eno = sal "
                          "WHERE eno = 10")
        assert simple_db.query(
            "SELECT eno, sal FROM EMP WHERE sal = 10").rows == [(100, 10)]


class TestDelete:
    def test_delete_with_predicate(self, simple_db):
        assert simple_db.execute("DELETE FROM EMP WHERE sal < 100") == 1
        assert len(simple_db.table("EMP")) == 4

    def test_delete_all(self, simple_db):
        assert simple_db.execute("DELETE FROM EMP") == 5
        assert len(simple_db.table("EMP")) == 0


class TestForeignKeyEnforcement:
    def test_insert_orphan_child_rejected(self, org_db):
        with pytest.raises(UpdateError, match="no parent"):
            org_db.execute("INSERT INTO EMP VALUES (900, 'x', 999, 1)")

    def test_delete_parent_with_children_rejected(self, org_db):
        with pytest.raises(UpdateError, match="still references"):
            org_db.execute("DELETE FROM DEPT WHERE dno = 1")

    def test_delete_after_children_gone(self, org_db):
        org_db.execute("DELETE FROM EMPSKILLS WHERE eseno IN "
                       "(SELECT eno FROM EMP WHERE edno = 1)")
        org_db.execute("DELETE FROM EMP WHERE edno = 1")
        org_db.execute("DELETE FROM PROJSKILLS WHERE pspno IN "
                       "(SELECT pno FROM PROJ WHERE pdno = 1)")
        org_db.execute("DELETE FROM PROJ WHERE pdno = 1")
        assert org_db.execute("DELETE FROM DEPT WHERE dno = 1") == 1

    def test_update_fk_to_missing_parent_rejected(self, org_db):
        with pytest.raises(UpdateError, match="no parent"):
            org_db.execute("UPDATE EMP SET edno = 999 WHERE eno = 1")

    def test_update_parent_key_with_children_rejected(self, org_db):
        with pytest.raises(UpdateError):
            org_db.execute("UPDATE DEPT SET dno = 99 WHERE dno = 1")

    def test_null_fk_allowed(self, simple_db):
        simple_db.engine.catalog.add_foreign_key("FK", "EMP", ["EDNO"],
                                                 "DEPT", ["DNO"])
        simple_db.execute("INSERT INTO EMP VALUES (77, 'n', NULL, 1)")


class TestTransactionsThroughDatabase:
    def test_rollback_undoes_dml(self, simple_db):
        simple_db.begin()
        simple_db.execute("DELETE FROM EMP")
        simple_db.rollback()
        assert len(simple_db.table("EMP")) == 5

    def test_commit_keeps_dml(self, simple_db):
        simple_db.begin()
        simple_db.execute("UPDATE EMP SET sal = 1 WHERE eno = 10")
        simple_db.commit()
        assert simple_db.query(
            "SELECT sal FROM EMP WHERE eno = 10").rows == [(1,)]

    def test_statement_inside_open_txn_uses_savepoint(self, simple_db):
        simple_db.begin()
        simple_db.execute("UPDATE EMP SET sal = 1 WHERE eno = 10")
        with pytest.raises(TypeCheckError):
            simple_db.execute("INSERT INTO EMP VALUES (10,'dup',1,1)")
        simple_db.commit()  # the failed statement rolled back alone
        assert simple_db.query(
            "SELECT sal FROM EMP WHERE eno = 10").rows == [(1,)]


class TestForeignKeyCheckOnUpdate:
    """An UPDATE checks its row's foreign keys only when a referencing
    column changed (PostgreSQL's rule for the referencing side)."""

    @staticmethod
    def parent_probes(monkeypatch) -> list:
        from repro.storage.catalog import Catalog

        probes = []
        real = Catalog._key_exists

        def counting(table, columns, values):
            if table.name == "DEPT":
                probes.append(values)
            return real(table, columns, values)

        monkeypatch.setattr(Catalog, "_key_exists", staticmethod(counting))
        return probes

    @staticmethod
    def org_session():
        from repro import Engine
        from repro.workloads.orgdb import (OrgScale, create_org_schema,
                                           populate_org)

        engine = Engine()
        create_org_schema(engine.catalog)
        populate_org(engine.catalog, OrgScale(seed=3))
        return engine.connect()

    def test_non_key_updates_do_not_probe_the_parent(self, monkeypatch):
        session = self.org_session()
        probes = self.parent_probes(monkeypatch)
        for eno in range(1, 101):
            assert session.execute(
                f"UPDATE EMP SET sal = sal + 1 WHERE eno = {eno % 40 + 1}"
            ) == 1
        assert probes == []
        # Moving the referencing column still checks, once per row.
        session.execute("UPDATE EMP SET edno = 2 WHERE eno = 1")
        assert probes == [(2,)]
        with pytest.raises(UpdateError, match="no parent"):
            session.execute("UPDATE EMP SET edno = 999 WHERE eno = 1")

    def test_orphan_older_than_its_key_keeps_other_columns_writable(self):
        from repro import Engine

        session = Engine().connect()
        session.execute("CREATE TABLE P (ID INT PRIMARY KEY)")
        session.execute("CREATE TABLE C (ID INT PRIMARY KEY, PID INT, "
                        "V INT)")
        session.execute("INSERT INTO C VALUES (1, 42, 0)")
        # add_foreign_key does not validate the rows already there.
        session.engine.catalog.add_foreign_key("FK_C_P", "C", ["PID"],
                                               "P", ["ID"])
        session.execute("UPDATE C SET v = 1 WHERE id = 1")
        with pytest.raises(UpdateError, match="no parent"):
            session.execute("UPDATE C SET pid = 43 WHERE id = 1")
        assert session.query("SELECT * FROM C").rows == [(1, 42, 1)]
