"""Engine/session/cursor surface: lifecycle, streaming, isolation.

Single-threaded tests of the new public API; the threaded counterpart
lives in tests/test_sessions_concurrency.py.
"""

import pytest

from repro.api.engine import Engine
from repro.errors import CatalogError, InterfaceError, TransactionError


def make_engine_with_data(rows=5):
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE T (ID INT PRIMARY KEY, V VARCHAR)")
    for i in range(rows):
        session.execute(f"INSERT INTO T VALUES ({i}, 'v{i}')")
    return engine, session


class TestLifecycle:
    def test_connect_and_close(self):
        engine = Engine()
        session = engine.connect()
        assert session in engine.sessions()
        session.close()
        assert session.closed
        assert session not in engine.sessions()

    def test_closed_session_raises(self):
        engine, session = make_engine_with_data()
        session.close()
        with pytest.raises(InterfaceError, match="closed session"):
            session.execute("SELECT * FROM T")
        with pytest.raises(InterfaceError, match="closed session"):
            session.cursor()

    def test_closed_engine_raises(self):
        engine, session = make_engine_with_data()
        engine.close()
        assert engine.closed and session.closed
        with pytest.raises(InterfaceError, match="closed engine"):
            engine.connect()
        with pytest.raises(InterfaceError):
            session.query("SELECT * FROM T")

    def test_close_rolls_back_open_transaction(self):
        engine, session = make_engine_with_data()
        other = engine.connect()
        other.begin()
        other.execute("INSERT INTO T VALUES (97, 'doomed')")
        other.close()
        assert session.query(
            "SELECT * FROM T WHERE id = 97").rows == []

    def test_session_context_manager_commits_on_success(self):
        engine, session = make_engine_with_data()
        with engine.connect() as other:
            other.begin()
            other.execute("INSERT INTO T VALUES (98, 'kept')")
        assert len(session.query(
            "SELECT * FROM T WHERE id = 98").rows) == 1

    def test_session_context_manager_rolls_back_on_error(self):
        engine, session = make_engine_with_data()
        with pytest.raises(RuntimeError):
            with engine.connect() as other:
                other.begin()
                other.execute("INSERT INTO T VALUES (99, 'doomed')")
                raise RuntimeError("boom")
        assert session.query(
            "SELECT * FROM T WHERE id = 99").rows == []

    def test_engine_context_manager(self):
        with Engine() as engine:
            session = engine.connect()
            session.execute("CREATE TABLE X (A INT)")
        assert engine.closed


class TestCursor:
    def test_fetchone_fetchmany_fetchall(self):
        _engine, session = make_engine_with_data(10)
        cur = session.cursor()
        cur.execute("SELECT ID, V FROM T ORDER BY ID")
        assert cur.fetchone() == (0, "v0")
        assert cur.fetchmany(3) == [(1, "v1"), (2, "v2"), (3, "v3")]
        rest = cur.fetchall()
        assert rest[0] == (4, "v4") and len(rest) == 6
        assert cur.rowcount == 10
        assert cur.fetchone() is None

    def test_description(self):
        _engine, session = make_engine_with_data(1)
        cur = session.cursor().execute("SELECT V, ID FROM T")
        assert [d[0] for d in cur.description] == ["V", "ID"]
        cur.execute("INSERT INTO T VALUES (50, 'x')")
        assert cur.description is None

    def test_iteration_matches_query(self):
        _engine, session = make_engine_with_data(7)
        sql = "SELECT * FROM T WHERE id >= 2 ORDER BY id"
        cur = session.cursor().execute(sql)
        assert list(cur) == session.query(sql).rows

    def test_rowcount_for_dml(self):
        _engine, session = make_engine_with_data(5)
        cur = session.cursor()
        cur.execute("UPDATE T SET v = 'u' WHERE id < 3")
        assert cur.rowcount == 3
        cur.execute("DELETE FROM T WHERE id = 4")
        assert cur.rowcount == 1

    def test_executemany(self):
        _engine, session = make_engine_with_data(0)
        cur = session.cursor()
        cur.executemany("INSERT INTO T VALUES (?, ?)",
                        [(i, f"m{i}") for i in range(4)])
        assert cur.rowcount == 4
        assert session.query("SELECT COUNT(*) FROM T").rows == [(4,)]

    def test_executemany_rejects_select(self):
        _engine, session = make_engine_with_data(1)
        with pytest.raises(InterfaceError, match="executemany"):
            session.cursor().executemany("SELECT * FROM T", [[]])

    def test_fetch_without_result_raises(self):
        _engine, session = make_engine_with_data(1)
        cur = session.cursor()
        with pytest.raises(InterfaceError, match="no result set"):
            cur.fetchall()
        cur.execute("DELETE FROM T WHERE id = 99")
        with pytest.raises(InterfaceError, match="no result set"):
            cur.fetchone()

    def test_xnf_through_cursor_rejected(self, org_db):
        cur = org_db.cursor()
        with pytest.raises(InterfaceError, match="Session.xnf"):
            cur.execute("OUT OF d AS DEPT TAKE *")

    def test_closed_cursor_raises(self):
        _engine, session = make_engine_with_data(1)
        cur = session.cursor().execute("SELECT * FROM T")
        cur.close()
        with pytest.raises(InterfaceError, match="closed cursor"):
            cur.fetchone()
        with pytest.raises(InterfaceError, match="closed cursor"):
            cur.execute("SELECT * FROM T")

    def test_cursor_context_manager(self):
        _engine, session = make_engine_with_data(1)
        with session.cursor() as cur:
            cur.execute("SELECT * FROM T")
        assert cur.closed

    def test_fetch_streams_batchwise(self):
        """The acceptance criterion: no full materialization before the
        first fetch.  With a batch width of 10 over 100 rows, the first
        fetchone must have scanned at most one batch."""
        engine, session = make_engine_with_data(0)
        for i in range(100):
            session.execute(f"INSERT INTO T VALUES ({i}, 'v{i}')")
        stream_session = engine.connect(batch_size=10)
        cur = stream_session.cursor()
        cur.execute("SELECT * FROM T")
        assert cur.fetchone() is not None
        assert 0 < cur.counters["rows_scanned"] <= 10
        cur.fetchmany(25)
        assert cur.counters["rows_scanned"] <= 40
        rest = cur.fetchall()
        assert cur.counters["rows_scanned"] == 100
        assert 1 + 25 + len(rest) == 100

    def test_stream_equals_fetchall_equals_query(self):
        _engine, session = make_engine_with_data(37)
        sql = "SELECT * FROM T WHERE id >= 5 ORDER BY id"
        streamed = []
        cur = session.cursor().execute(sql)
        while True:
            block = cur.fetchmany(7)
            if not block:
                break
            streamed.extend(block)
        assert streamed == session.cursor().execute(sql).fetchall()
        assert streamed == session.query(sql).rows

    def test_arraysize_defaults_from_session(self):
        engine, _session = make_engine_with_data(30)
        fat = engine.connect(arraysize=17)
        cur = fat.cursor().execute("SELECT * FROM T")
        assert cur.arraysize == 17
        assert len(cur.fetchmany()) == 17


class TestInterleavedTransactions:
    def test_reader_never_sees_uncommitted_rows(self):
        engine, a = make_engine_with_data(5)
        b = engine.connect()
        a.begin()
        a.execute("INSERT INTO T VALUES (90, 'phantom')")
        a.execute("UPDATE T SET v = 'changed' WHERE id = 0")
        a.execute("DELETE FROM T WHERE id = 1")
        # The writer sees its own changes ...
        assert a.query("SELECT COUNT(*) FROM T").rows == [(5,)]
        assert a.query("SELECT v FROM T WHERE id = 0").rows \
            == [("changed",)]
        # ... the other session sees only committed state.
        assert b.query("SELECT COUNT(*) FROM T").rows == [(5,)]
        assert b.query("SELECT * FROM T WHERE id = 90").rows == []
        assert b.query("SELECT v FROM T WHERE id = 0").rows == [("v0",)]
        assert len(b.query("SELECT * FROM T WHERE id = 1").rows) == 1
        a.commit()
        assert b.query("SELECT * FROM T WHERE id = 90").rows \
            == [(90, "phantom")]
        assert b.query("SELECT v FROM T WHERE id = 0").rows \
            == [("changed",)]
        assert b.query("SELECT * FROM T WHERE id = 1").rows == []

    def test_rollback_restores_for_everyone(self):
        engine, a = make_engine_with_data(3)
        b = engine.connect()
        a.begin()
        a.execute("DELETE FROM T WHERE id >= 0")
        assert a.query("SELECT COUNT(*) FROM T").rows == [(0,)]
        assert b.query("SELECT COUNT(*) FROM T").rows == [(3,)]
        a.rollback()
        assert a.query("SELECT COUNT(*) FROM T").rows == [(3,)]
        assert b.query("SELECT COUNT(*) FROM T").rows == [(3,)]

    def test_pk_lookup_sees_committed_key(self):
        engine, a = make_engine_with_data(3)
        b = engine.connect()
        a.begin()
        a.execute("UPDATE T SET id = 77 WHERE id = 2")
        # B finds the row under its committed key, not the new one.
        assert len(b.query("SELECT * FROM T WHERE id = 2").rows) == 1
        assert b.query("SELECT * FROM T WHERE id = 77").rows == []
        a.rollback()

    def test_indexed_lookup_sees_committed_value(self):
        engine, a = make_engine_with_data(4)
        a.execute("CREATE INDEX IX_V ON T (V)")
        b = engine.connect()
        a.begin()
        a.execute("UPDATE T SET v = 'moved' WHERE id = 2")
        a.execute("INSERT INTO T VALUES (91, 'fresh')")
        assert b.query("SELECT id FROM T WHERE v = 'v2'").rows == [(2,)]
        assert b.query("SELECT id FROM T WHERE v = 'moved'").rows == []
        assert b.query("SELECT id FROM T WHERE v = 'fresh'").rows == []
        assert a.query("SELECT id FROM T WHERE v = 'moved'").rows \
            == [(2,)]
        a.commit()
        assert b.query("SELECT id FROM T WHERE v = 'moved'").rows \
            == [(2,)]

    def test_open_cursor_honors_view_installed_mid_stream(self):
        # Read-committed *per pull*: a cursor opened before another
        # session begins writing must not serve that session's dirty
        # rows on later pulls.
        engine, a = make_engine_with_data(0)
        for i in range(60):
            a.execute(f"INSERT INTO T VALUES ({i}, 'v{i}')")
        reader = engine.connect(batch_size=5)
        cur = reader.cursor().execute("SELECT V FROM T")
        assert cur.fetchone() is not None  # stream already open
        a.begin()
        a.execute("UPDATE T SET v = 'DIRTY' WHERE id >= 0")
        rest = cur.fetchall()
        assert all(v != "DIRTY" for (v,) in rest)
        a.rollback()

    def test_table_created_inside_txn_rolls_back_rows(self):
        engine, a = make_engine_with_data(0)
        a.begin()
        a.execute("CREATE TABLE LATE (A INT PRIMARY KEY)")
        a.execute("INSERT INTO LATE VALUES (1)")
        a.rollback()
        # DDL survives (documented), the row does not.
        assert a.query("SELECT COUNT(*) FROM LATE").rows == [(0,)]

    def test_second_writer_on_same_thread_fails_fast(self):
        engine, a = make_engine_with_data(3)
        b = engine.connect()
        a.begin()
        a.execute("INSERT INTO T VALUES (95, 'w')")
        with pytest.raises(TransactionError, match="uncommitted writes"):
            b.execute("INSERT INTO T VALUES (96, 'x')")
        a.commit()
        assert b.execute("INSERT INTO T VALUES (96, 'x')") == 1

    def test_read_only_transactions_interleave_freely(self):
        engine, a = make_engine_with_data(3)
        b = engine.connect()
        a.begin()
        b.begin()
        assert a.query("SELECT COUNT(*) FROM T").rows == [(3,)]
        assert b.query("SELECT COUNT(*) FROM T").rows == [(3,)]
        b.commit()
        a.commit()

    def test_per_session_transaction_scoping(self):
        engine, a = make_engine_with_data(2)
        b = engine.connect()
        a.begin()
        with pytest.raises(TransactionError, match="no transaction"):
            b.commit()  # B has no transaction, A's is untouched
        assert a.in_transaction and not b.in_transaction
        a.commit()


class TestMatviewsUnderSessions:
    def _org_engine(self):
        from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                           create_org_schema,
                                           populate_org)
        engine = Engine()
        session = engine.connect()
        create_org_schema(engine.catalog)
        populate_org(engine.catalog, OrgScale(
            departments=4, employees_per_dept=3, projects_per_dept=2,
            skills=6, skills_per_employee=2, skills_per_project=2,
            arc_fraction=0.5, seed=11))
        session.execute(
            f"CREATE MATERIALIZED VIEW m AS {DEPS_ARC_QUERY}")
        return engine, session

    @staticmethod
    def _shape(co):
        return {
            name: sorted(co.component(name).rows)
            for name in co.components
        }

    def test_matview_keyed_off_commit_not_statement(self):
        engine, a = self._org_engine()
        b = engine.connect()
        view = engine.matviews.get("m")
        a.begin()
        a.execute("INSERT INTO EMP VALUES (900, 'mid-txn', 1, 500)")
        # B's matview read reflects committed state only; the view was
        # not invalidated by the uncommitted statement.
        names = {row[1] for row in b.matview("m").component("xemp").rows}
        assert "mid-txn" not in names
        a.commit()
        names = {row[1] for row in b.matview("m").component("xemp").rows}
        assert "mid-txn" in names
        assert view.fresh

    def test_matview_equals_fresh_after_interleaving(self):
        from repro.workloads.orgdb import DEPS_ARC_QUERY
        engine, a = self._org_engine()
        b = engine.connect()
        a.begin()
        a.execute("INSERT INTO EMP VALUES (901, 'kept', 1, 500)")
        a.commit()
        b.begin()
        b.execute("INSERT INTO EMP VALUES (902, 'dropped', 1, 500)")
        b.rollback()
        served = a.matview("m")
        fresh = a.xnf(DEPS_ARC_QUERY)
        assert self._shape(served) == self._shape(fresh)


class TestPreparedRevalidation:
    def test_run_after_drop_raises_descriptive_error(self):
        _engine, session = make_engine_with_data(3)
        stmt = session.prepare("SELECT V FROM T WHERE ID = ?")
        assert stmt.run([1]).rows == [("v1",)]
        session.execute("DROP TABLE T")
        with pytest.raises(CatalogError, match="re-prepare"):
            stmt.run([1])

    def test_run_after_unrelated_ddl_recompiles(self):
        _engine, session = make_engine_with_data(3)
        stmt = session.prepare("SELECT V FROM T WHERE ID = ?")
        assert stmt.run([1]).rows == [("v1",)]
        session.execute("CREATE TABLE OTHER (A INT)")
        assert stmt.run([2]).rows == [("v2",)]

    def test_dml_handle_after_drop(self):
        _engine, session = make_engine_with_data(3)
        stmt = session.prepare("DELETE FROM T WHERE ID = ?")
        assert stmt.run([0]) == 1
        session.execute("DROP TABLE T")
        with pytest.raises(CatalogError, match="no longer valid"):
            stmt.run([1])

    def test_run_on_closed_session_raises(self):
        _engine, session = make_engine_with_data(2)
        stmt = session.prepare("SELECT V FROM T WHERE ID = ?")
        session.close()
        with pytest.raises(InterfaceError, match="closed session"):
            stmt.run([1])

    def test_view_reference_revalidated(self, org_db):
        stmt = org_db.prepare("SELECT COUNT(*) FROM deps_arc.xemp")
        baseline = stmt.run().rows
        org_db.execute("CREATE TABLE UNRELATED (A INT)")
        assert stmt.run().rows == baseline
        org_db.execute("DROP VIEW deps_arc")
        with pytest.raises(CatalogError, match="DEPS_ARC"):
            stmt.run()


class TestExecuteScriptAtomicity:
    def test_mid_script_failure_rolls_back_data(self):
        _engine, session = make_engine_with_data(0)
        with pytest.raises(Exception):
            session.execute_script(
                "INSERT INTO T VALUES (1, 'a');"
                "INSERT INTO T VALUES (2, 'b');"
                "INSERT INTO T VALUES (1, 'dupe')"  # PK violation
            )
        assert session.query("SELECT COUNT(*) FROM T").rows == [(0,)]

    def test_script_succeeds_atomically(self):
        _engine, session = make_engine_with_data(0)
        results = session.execute_script(
            "INSERT INTO T VALUES (1, 'a'); SELECT COUNT(*) FROM T")
        assert results[0] == 1 and results[1].rows == [(1,)]
        assert not session.in_transaction

    def test_script_rolls_back_tables_it_created(self):
        # The created table's rows vanish with the rollback even though
        # the table itself (DDL) survives.
        _engine, session = make_engine_with_data(0)
        with pytest.raises(Exception):
            session.execute_script(
                "CREATE TABLE S (A INT PRIMARY KEY);"
                "INSERT INTO S VALUES (1);"
                "INSERT INTO NOPE VALUES (2)")
        assert session.query("SELECT COUNT(*) FROM S").rows == [(0,)]

    def test_script_inside_transaction_uses_savepoint(self):
        _engine, session = make_engine_with_data(0)
        session.begin()
        session.execute("INSERT INTO T VALUES (10, 'outer')")
        with pytest.raises(Exception):
            session.execute_script(
                "INSERT INTO T VALUES (11, 'inner');"
                "INSERT INTO T VALUES (11, 'dupe')")
        session.commit()
        assert session.query("SELECT ID FROM T ORDER BY ID").rows \
            == [(10,)]

    def test_facade_script_failure_path(self, simple_db):
        before = simple_db.query("SELECT COUNT(*) FROM DEPT").rows
        with pytest.raises(Exception):
            simple_db.execute_script(
                "INSERT INTO DEPT VALUES (50, 'new', 'x');"
                "INSERT INTO DEPT VALUES (1, 'dupe', 'x')")
        assert simple_db.query("SELECT COUNT(*) FROM DEPT").rows \
            == before


class TestSharedCompiledState:
    def test_plan_cache_shared_across_sessions(self):
        engine, a = make_engine_with_data(5)
        b = engine.connect()
        cache = engine.pipeline.plan_cache
        a.query("SELECT V FROM T WHERE ID = 1")
        hits = cache.stats.hits
        b.query("SELECT V FROM T WHERE ID = 3")  # same shape, new lits
        assert cache.stats.hits == hits + 1

    def test_statement_cache_is_shared_across_sessions(self):
        engine, a = make_engine_with_data(3)
        b = engine.connect()
        cache = engine.statements
        a.query("SELECT * FROM T WHERE ID = 1")
        entries, hits = len(cache), cache.stats.hits
        # a's parse serves b, for another literal too.
        assert b.query("SELECT * FROM T WHERE ID = 2").rows == \
            a.query("select * from T where ID = 2").rows
        assert cache.stats.hits == hits + 2
        assert len(cache) == entries

    def test_gateway_over_session(self, org_db):
        from repro.api.gateway import ObjectGateway
        session = org_db.engine.connect()
        view = ObjectGateway(session).open("deps_arc")
        emp = next(iter(view.XEMP.extent))
        emp.sal = 999111
        assert view.commit() == 1
        assert org_db.query(
            f"SELECT sal FROM EMP WHERE eno = {emp.eno}").rows \
            == [(999111,)]

    def test_gateway_over_bare_engine_closes_private_session(self):
        from repro.api.gateway import ObjectGateway
        engine, session = make_engine_with_data(0)
        session.execute("CREATE VIEW v AS OUT OF x AS T TAKE *")
        before = len(engine.sessions())
        with ObjectGateway(engine) as gateway:
            gateway.open("v")
            assert len(engine.sessions()) == before + 1
        assert len(engine.sessions()) == before

    def test_transport_cursor_stream(self):
        from repro.api.transport import TransportSimulator
        _engine, session = make_engine_with_data(50)
        cur = session.cursor().execute("SELECT * FROM T")
        stats = TransportSimulator().cursor_stream(cur, block_rows=10)
        assert stats.tuples == 50
        # 1 request + 5 blocks + 1 end-of-stream
        assert stats.messages == 7
