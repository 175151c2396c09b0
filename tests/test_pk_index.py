"""The primary key as a unique hash index (``PK_<table>``).

Point SELECTs, UPDATE/DELETE qualification and view-DML put-back all
probe it instead of scanning the table; reads under another session's
uncommitted writes see the committed image through it; and, being
implied by the schema, it is rebuilt on recovery without ever appearing
in the WAL or a snapshot.
"""

import pytest

from repro.api.engine import Engine
from repro.cache.objects import bind_classes
from repro.errors import TypeCheckError
from repro.storage import recovery as rec
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

ROWS = 500
SMALL_ORG = OrgScale(departments=4, employees_per_dept=5,
                     projects_per_dept=1, skills=4, arc_fraction=0.5,
                     seed=3)


def make_keyed(session, rows=ROWS):
    session.execute("CREATE TABLE T (A INT PRIMARY KEY, B INT)")
    session.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(rows)))


@pytest.fixture
def session():
    s = Engine().connect()
    make_keyed(s)
    return s


def make_org(engine):
    session = engine.connect()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, SMALL_ORG)
    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return session


class TestAccessPath:
    def test_point_select_probes_pk(self, session):
        assert "IndexScan(T via PK_T on A)" in session.explain(
            "SELECT * FROM T WHERE a = ?")

    @pytest.mark.parametrize("sql", [
        "UPDATE T SET b = b + 1 WHERE a = ?",
        "DELETE FROM T WHERE a = ?",
    ])
    def test_dml_qualification_probes_pk(self, session, sql):
        plan = session.explain(sql)
        assert plan.startswith("-- qualification plan --")
        assert "IndexScan(T via PK_T on A)" in plan

    @pytest.mark.parametrize("sql", [
        "UPDATE deps_arc.XEMP SET sal = sal + 1 WHERE eno = 3",
        "UPDATE paid SET pay = 5 WHERE id = 3",
        "DELETE FROM paid WHERE id = 3",
    ])
    def test_view_put_back_probes_pk(self, sql):
        session = make_org(Engine())
        session.execute("CREATE VIEW paid (ID, PAY) AS "
                        "SELECT ENO, SAL FROM EMP")
        assert "IndexScan(EMP via PK_EMP on ENO)" in session.explain(sql)

    def test_point_read_scans_one_row(self, session):
        cursor = session.cursor()
        cursor.execute("SELECT * FROM T WHERE a = ?", [7])
        assert cursor.fetchall() == [(7, 70)]
        assert cursor.counters["rows_scanned"] == 1
        assert cursor.counters["index_lookups"] == 1

    def test_point_update_and_delete(self, session):
        assert session.execute("UPDATE T SET b = -1 WHERE a = 9") == 1
        assert session.execute("DELETE FROM T WHERE a = ?", [8]) == 1
        assert session.query(
            "SELECT * FROM T WHERE a IN (8, 9) ORDER BY a").rows \
            == [(9, -1)]

    def test_pk_changing_update_moves_the_key(self, session):
        session.execute("UPDATE T SET a = 9000 WHERE a = 3")
        assert session.query("SELECT b FROM T WHERE a = 3").rows == []
        assert session.query("SELECT b FROM T WHERE a = 9000").rows \
            == [(30,)]
        with pytest.raises(TypeCheckError,
                           match=r"duplicate primary key \(A\) = \(4,\)"):
            session.execute("UPDATE T SET a = 4 WHERE a = 5")

    def test_second_equality_on_the_key_still_filters(self, session):
        # The probe keys on one equality; the other must not vanish.
        cursor = session.cursor()
        cursor.execute("SELECT * FROM T WHERE a = ? AND a = ?", [1, 2])
        assert cursor.fetchall() == []
        assert session.execute(
            "UPDATE T SET b = 0 WHERE a = ? AND a = ?", [1, 2]) == 0

    def test_pk_index_is_not_a_catalog_index(self, session):
        table = session.engine.catalog.table("T")
        assert table.indexes == ()
        assert [i.name for i in table.access_indexes] == ["PK_T"]
        assert session.engine.catalog.indexes_on("T") == []


class TestReadCommittedThroughPk:
    """A reader probing the PK while another session holds uncommitted
    writes to the probed keys sees the committed image."""

    @pytest.fixture
    def pair(self):
        engine = Engine()
        writer = engine.connect(label="writer")
        make_keyed(writer)
        reader = engine.connect(label="reader")
        yield writer, reader
        writer.rollback()

    @staticmethod
    def probe(session, key):
        cursor = session.cursor()
        cursor.execute("SELECT * FROM T WHERE a = ?", [key])
        return cursor.fetchall()

    def test_uncommitted_key_change(self, pair):
        writer, reader = pair
        writer.begin()
        writer.execute("UPDATE T SET a = 7000 WHERE a = 7")
        assert self.probe(writer, 7000) == [(7000, 70)]
        assert self.probe(reader, 7) == [(7, 70)]
        assert self.probe(reader, 7000) == []

    def test_uncommitted_delete(self, pair):
        writer, reader = pair
        writer.begin()
        writer.execute("DELETE FROM T WHERE a = 11")
        assert self.probe(writer, 11) == []
        assert self.probe(reader, 11) == [(11, 110)]

    def test_uncommitted_insert(self, pair):
        writer, reader = pair
        writer.begin()
        writer.execute("INSERT INTO T VALUES (6000, 1)")
        assert self.probe(writer, 6000) == [(6000, 1)]
        assert self.probe(reader, 6000) == []

    def test_uncommitted_delete_then_reinsert_of_the_key(self, pair):
        writer, reader = pair
        writer.begin()
        writer.execute("DELETE FROM T WHERE a = 12")
        writer.execute("INSERT INTO T VALUES (12, -5)")
        assert self.probe(writer, 12) == [(12, -5)]
        assert self.probe(reader, 12) == [(12, 120)]
        table = reader.engine.catalog.table("T")
        assert table.lookup_pk((12,)) is not None


class TestDurability:
    def test_reopen_restores_pk_lookups_without_logging_them(self,
                                                             tmp_path):
        directory = str(tmp_path / "db")
        engine = Engine(path=directory)
        session = engine.connect()
        make_keyed(session, rows=50)
        snapshot = engine.checkpoint()
        session.execute("INSERT INTO T VALUES (77, 770)")
        engine.close()

        payload = rec.read_snapshot(snapshot)
        assert payload is not None and payload["indexes"] == []

        engine2 = Engine(path=directory)
        session2 = engine2.connect()
        table = engine2.catalog.table("T")
        assert table.lookup_pk((77,)) is not None
        assert "IndexScan(T via PK_T on A)" in session2.explain(
            "SELECT * FROM T WHERE a = 5")
        assert session2.query("SELECT b FROM T WHERE a = 5").rows \
            == [(50,)]
        with pytest.raises(TypeCheckError, match="duplicate primary key"):
            session2.execute("INSERT INTO T VALUES (5, 0)")
        engine2.close()

    def test_gateway_autocommit_writes_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        engine = Engine(path=directory)
        session = make_org(engine)
        engine.checkpoint()

        live = session.open_cache("deps_arc", write_through=True)
        through = min(bind_classes(live)["XEMP"].extent,
                      key=lambda e: e.eno)
        through.sal = 777
        deferred = session.open_cache("deps_arc")
        later = max(bind_classes(deferred)["XEMP"].extent,
                    key=lambda e: e.eno)
        later.sal = 888
        deferred.write_back()
        engine.close()

        engine2 = Engine(path=directory)
        assert engine2.connect().query(
            "SELECT eno, sal FROM EMP WHERE eno IN (?, ?) ORDER BY eno",
            [through.eno, later.eno]).rows \
            == [(through.eno, 777), (later.eno, 888)]
        engine2.close()
