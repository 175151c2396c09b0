"""Materialized CO views: SQL surface, policies, maintenance, fallbacks."""

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.cache.matview import co_canonical, co_results_equal
from repro.errors import CacheError, CatalogError, ParseError
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.workloads.bom import (BOMScale, bom_view_query,
                                 create_bom_schema, populate_bom)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


def make_org_db() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=6,
                                             employees_per_dept=4,
                                             projects_per_dept=2, skills=10,
                                             arc_fraction=0.4, seed=5))
    return db


@pytest.fixture
def org_mv_db() -> Session:
    db = make_org_db()
    db.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return db


def assert_fresh_equal(db: Session, name: str) -> None:
    """The stored result must equal a from-scratch recomputation."""
    view = db.engine.matviews.get(name)
    stored = view.read()
    recomputed = view.executable.run()
    assert co_canonical(stored) == co_canonical(recomputed)


# ----------------------------------------------------------------------
# SQL surface
# ----------------------------------------------------------------------
class TestParsing:
    def test_create_materialized_view(self):
        statement = parse_statement(
            "CREATE MATERIALIZED VIEW m AS OUT OF x AS T TAKE *")
        assert isinstance(statement,
                          ast.CreateMaterializedViewStatement)
        assert statement.name == "m"
        assert statement.policy == "eager"
        assert isinstance(statement.query, ast.XNFQuery)

    def test_policy_clause(self):
        statement = parse_statement(
            "CREATE MATERIALIZED VIEW m REFRESH DEFERRED "
            "AS OUT OF x AS T TAKE *")
        assert statement.policy == "deferred"
        statement = parse_statement(
            "CREATE MATERIALIZED VIEW m REFRESH EAGER "
            "AS OUT OF x AS T TAKE *")
        assert statement.policy == "eager"

    def test_bad_policy_rejected(self):
        with pytest.raises(ParseError, match="EAGER or DEFERRED"):
            parse_statement("CREATE MATERIALIZED VIEW m REFRESH SOMETIME "
                            "AS OUT OF x AS T TAKE *")

    def test_select_body_rejected(self):
        with pytest.raises(ParseError, match="XNF query"):
            parse_statement(
                "CREATE MATERIALIZED VIEW m AS SELECT * FROM T")

    def test_refresh_statement(self):
        statement = parse_statement("REFRESH MATERIALIZED VIEW m")
        assert statement == ast.RefreshStatement("m", full=False)
        statement = parse_statement("REFRESH MATERIALIZED VIEW m FULL")
        assert statement == ast.RefreshStatement("m", full=True)

    def test_drop_statement(self):
        statement = parse_statement("DROP MATERIALIZED VIEW m")
        assert statement == ast.DropStatement("MATERIALIZED VIEW", "m")


# ----------------------------------------------------------------------
# Eager maintenance
# ----------------------------------------------------------------------
class TestEagerMaintenance:
    def test_created_view_matches_direct_evaluation(self, org_mv_db):
        stored = org_mv_db.matview("deps_arc")
        direct = org_mv_db.engine.matviews.get("deps_arc").executable.run()
        assert co_results_equal(stored, direct)

    def test_insert_propagates_without_recompute(self, org_mv_db):
        view = org_mv_db.engine.matviews.get("deps_arc")
        org_mv_db.execute(
            "INSERT INTO EMP VALUES (900, 'delta-emp', 1, 70000)")
        assert view.stats["full_refreshes"] == 1  # only the initial one
        result = org_mv_db.matview("deps_arc")
        name_position = result.component("xemp").columns.index("ENAME")
        assert "delta-emp" in {row[name_position]
                               for row in result.component("xemp").rows}
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_delete_cascades_reachability(self, org_mv_db):
        # Dropping the EMPSKILLS pairs of one employee prunes skills
        # that were only reachable through that employee.
        org_mv_db.execute("DELETE FROM EMPSKILLS WHERE ESENO = 1")
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_dept_move_cascades_through_three_levels(self, org_mv_db):
        # Moving a department out of ARC removes it, its employees and
        # projects, and any skills now unreachable — a three-level
        # cascade driven purely by deltas.
        view = org_mv_db.engine.matviews.get("deps_arc")
        before = len(org_mv_db.matview("deps_arc").component("xdept"))
        org_mv_db.execute("UPDATE DEPT SET LOC = 'NY' WHERE DNO = 1")
        after = org_mv_db.matview("deps_arc")
        assert len(after.component("xdept")) == before - 1
        assert view.stats["full_refreshes"] == 1
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_update_value_change_propagates(self, org_mv_db):
        org_mv_db.execute("UPDATE EMP SET SAL = 1 WHERE ENO = 2")
        result = org_mv_db.matview("deps_arc")
        emp = dict(zip(result.component("xemp").oids,
                       result.component("xemp").rows))
        assert_fresh_equal(org_mv_db, "deps_arc")
        sal_position = result.component("xemp").columns.index("SAL")
        assert any(row[sal_position] == 1 for row in emp.values())

    def test_irrelevant_table_is_ignored(self, org_mv_db):
        view = org_mv_db.engine.matviews.get("deps_arc")
        org_mv_db.execute("CREATE TABLE UNRELATED (X INT PRIMARY KEY)")
        org_mv_db.execute("INSERT INTO UNRELATED VALUES (1)")
        assert view.fresh
        assert view.stats["incremental_refreshes"] == 0

    def test_write_back_maintains_view(self, org_mv_db):
        view = org_mv_db.engine.matviews.get("deps_arc")
        cache = org_mv_db.open_cache("deps_arc")
        employee = cache.extent("xemp")[0]
        employee.set("SAL", 123456)
        cache.write_back()
        assert view.stats["full_refreshes"] == 1
        assert_fresh_equal(org_mv_db, "deps_arc")


# ----------------------------------------------------------------------
# Value-only replacement
# ----------------------------------------------------------------------
def lens_db(policy: str = "EAGER") -> Session:
    """The org database with the ``deps_arc`` view for lens writes and
    a materialized ``deps_m`` of the same definition."""
    db = make_org_db()
    db.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    db.execute(f"CREATE MATERIALIZED VIEW deps_m REFRESH {policy} "
               f"AS {DEPS_ARC_QUERY}")
    return db


def arc_employees(db: Session) -> list[int]:
    return [row[0] for row in db.query(
        "SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno "
        "AND d.loc = 'ARC' ORDER BY e.eno").rows]


class TestValueOnlyReplacement:
    """An update that changes no column a predicate, join or attribute
    of the view reads replaces rows in place: no delta join runs."""

    def test_lens_salary_updates_probe_nothing(self):
        db = lens_db()
        view = db.engine.matviews.get("deps_m")
        employees = arc_employees(db)
        assert employees
        for step in range(50):
            eno = employees[step % len(employees)]
            probed = view.stats["rows_probed"]
            full = view.stats["full_refreshes"]
            incremental = view.stats["incremental_refreshes"]
            assert db.execute(f"UPDATE deps_arc.XEMP SET sal = sal + 1 "
                              f"WHERE eno = {eno}") == 1
            assert view.stats["rows_probed"] == probed
            assert view.stats["full_refreshes"] == full
            assert view.stats["incremental_refreshes"] == incremental + 1
            assert co_results_equal(view.result, view.refresh(full=True))
        sal = dict(db.query("SELECT eno, sal FROM EMP").rows)
        assert all(row["SAL"] == sal[row["ENO"]] for row in
                   view.result.component("xemp").as_dicts())

    def test_department_move_still_probes(self):
        db = lens_db()
        view = db.engine.matviews.get("deps_m")
        eno = arc_employees(db)[0]
        edno, = db.query(f"SELECT edno FROM EMP WHERE eno = {eno}").rows[0]
        other = next(dno for dno, in db.query(
            "SELECT dno FROM DEPT WHERE loc = 'ARC'").rows if dno != edno)
        probed = view.stats["rows_probed"]
        db.execute(f"UPDATE deps_arc.XEMP SET edno = {other} "
                   f"WHERE eno = {eno}")
        assert view.stats["rows_probed"] > probed
        assert co_results_equal(view.result, view.refresh(full=True))

    def test_computed_column_follows_a_value_only_update(self):
        db = make_org_db()
        view = db.create_materialized_view("doubled", """
            OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                   xemp AS (SELECT eno, edno, sal * 2 AS dsal FROM EMP),
                   employment AS (RELATE xdept VIA EMPLOYS, xemp
                                  WHERE xdept.dno = xemp.edno)
            TAKE *
        """)
        eno = arc_employees(db)[0]
        db.execute(f"UPDATE EMP SET SAL = 7 WHERE ENO = {eno}")
        assert view.stats["rows_probed"] == 0
        rows = {row["eno"]: row["dsal"]
                for row in view.result.component("xemp").as_dicts()}
        assert rows[eno] == 14
        assert_fresh_equal(db, "doubled")

    def test_predicate_column_takes_the_general_path(self):
        # SAL feeds the component predicate here, so a salary update
        # is structural: it can move the employee out of the view.
        db = make_org_db()
        view = db.create_materialized_view("rich", """
            OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                   xemp AS (SELECT * FROM EMP WHERE sal > 10),
                   employment AS (RELATE xdept VIA EMPLOYS, xemp
                                  WHERE xdept.dno = xemp.edno)
            TAKE *
        """)
        eno = arc_employees(db)[0]
        before = len(view.result.component("xemp"))
        db.execute(f"UPDATE EMP SET SAL = 1 WHERE ENO = {eno}")
        assert view.stats["rows_probed"] > 0
        assert len(view.result.component("xemp")) == before - 1
        assert_fresh_equal(db, "rich")

    def test_deferred_queue_mixes_both_paths_on_one_rid(self):
        db = lens_db("DEFERRED")
        view = db.engine.matviews.get("deps_m")
        eno = arc_employees(db)[0]
        other = db.query("SELECT dno FROM DEPT WHERE loc <> 'ARC'").rows[0][0]
        db.execute(f"UPDATE deps_arc.XEMP SET sal = sal + 1 "
                   f"WHERE eno = {eno}")
        db.execute(f"UPDATE EMP SET EDNO = {other} WHERE ENO = {eno}")
        db.execute(f"UPDATE EMP SET SAL = SAL + 1 WHERE ENO = {eno}")
        assert len(view.pending) == 3
        assert_fresh_equal(db, "deps_m")
        assert eno not in {row["ENO"] for row in
                           view.result.component("xemp").as_dicts()}


# ----------------------------------------------------------------------
# Deferred policy
# ----------------------------------------------------------------------
class TestDeferredPolicy:
    def test_deltas_queue_until_read(self):
        db = make_org_db()
        db.execute(f"CREATE MATERIALIZED VIEW lazy REFRESH DEFERRED "
                   f"AS {DEPS_ARC_QUERY}")
        view = db.engine.matviews.get("lazy")
        db.execute("INSERT INTO EMP VALUES (901, 'queued', 1, 50000)")
        db.execute("UPDATE EMP SET SAL = 60000 WHERE ENO = 901")
        assert len(view.pending) == 2
        assert not view.fresh
        db.matview("lazy")  # the read applies the queue
        assert view.fresh
        assert view.stats["incremental_refreshes"] == 1
        assert_fresh_equal(db, "lazy")

    def test_refresh_statement_applies_queue(self):
        db = make_org_db()
        db.execute(f"CREATE MATERIALIZED VIEW lazy REFRESH DEFERRED "
                   f"AS {DEPS_ARC_QUERY}")
        view = db.engine.matviews.get("lazy")
        db.execute("INSERT INTO EMP VALUES (902, 'q2', 1, 50000)")
        db.execute("REFRESH MATERIALIZED VIEW lazy")
        assert view.fresh
        assert view.stats["full_refreshes"] == 1
        assert_fresh_equal(db, "lazy")

    def test_refresh_full_forces_recompute(self):
        db = make_org_db()
        db.execute(f"CREATE MATERIALIZED VIEW lazy REFRESH DEFERRED "
                   f"AS {DEPS_ARC_QUERY}")
        view = db.engine.matviews.get("lazy")
        db.execute("REFRESH MATERIALIZED VIEW lazy FULL")
        assert view.stats["full_refreshes"] == 2


# ----------------------------------------------------------------------
# Fallback shapes (documented in docs/MATVIEWS.md)
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_recursive_view_falls_back(self):
        db = Engine().connect()
        create_bom_schema(db.engine.catalog)
        summary = populate_bom(db.engine.catalog, BOMScale(roots=2, depth=3,
                                                           fanout=2, seed=9))
        view = db.create_materialized_view(
            "bom", bom_view_query(summary["roots"]))
        assert not view.is_incremental
        assert "recursive" in view.fallback_reason
        db.execute("INSERT INTO PART VALUES (7777, 'extra', 'atomic', 5)")
        assert_fresh_equal(db, "bom")

    def test_join_component_falls_back(self):
        db = make_org_db()
        view = db.create_materialized_view("joined", """
            OUT OF pairs AS (SELECT e.eno, d.dname FROM EMP e, DEPT d
                             WHERE e.edno = d.dno)
            TAKE *
        """)
        assert not view.is_incremental
        assert "joins multiple tables" in view.fallback_reason
        db.execute("INSERT INTO EMP VALUES (903, 'via-full', 2, 1000)")
        assert_fresh_equal(db, "joined")

    def test_distinct_component_falls_back(self):
        db = make_org_db()
        view = db.create_materialized_view("locs", """
            OUT OF xloc AS (SELECT DISTINCT loc FROM DEPT) TAKE *
        """)
        assert not view.is_incremental
        assert "DISTINCT" in view.fallback_reason

    def test_nary_relationship_falls_back(self):
        db = make_org_db()
        view = db.create_materialized_view("nary", """
            OUT OF xdept AS DEPT, xemp AS EMP, xproj AS PROJ,
                   triple AS (RELATE xdept VIA OWNS, xemp, xproj
                              WHERE xdept.dno = xemp.edno AND
                                    xdept.dno = xproj.pdno)
            TAKE *
        """)
        assert not view.is_incremental
        assert "n-ary" in view.fallback_reason
        db.execute("INSERT INTO EMP VALUES (904, 'n-ary', 3, 1000)")
        assert_fresh_equal(db, "nary")

    def test_non_equi_join_falls_back(self):
        db = make_org_db()
        view = db.create_materialized_view("rangey", """
            OUT OF xdept AS DEPT, xemp AS EMP,
                   below AS (RELATE xdept VIA ABOVE, xemp
                             WHERE xdept.dno > xemp.edno)
            TAKE *
        """)
        assert not view.is_incremental
        assert "equi-join" in view.fallback_reason
        db.execute("INSERT INTO EMP VALUES (905, 'range', 1, 1000)")
        assert_fresh_equal(db, "rangey")

    def test_fallback_recomputes_once_on_read(self):
        db = make_org_db()
        view = db.create_materialized_view("locs2", """
            OUT OF xloc AS (SELECT DISTINCT loc FROM DEPT) TAKE *
        """)
        refreshes = view.stats["full_refreshes"]
        # Writes mark the view stale instead of recomputing per
        # statement (a fallback view has no incremental path).
        db.execute("INSERT INTO DEPT VALUES (99, 'new-dept', 'MOON')")
        db.execute("INSERT INTO DEPT VALUES (98, 'other', 'MARS')")
        assert view.stale
        assert view.stats["full_refreshes"] == refreshes
        rows = set(db.matview("locs2").component("xloc").rows)
        assert ("MOON",) in rows and ("MARS",) in rows
        assert view.stats["full_refreshes"] == refreshes + 1


# ----------------------------------------------------------------------
# Shapes inside the incremental fragment
# ----------------------------------------------------------------------
class TestIncrementalShapes:
    def test_take_projection(self):
        db = make_org_db()
        view = db.create_materialized_view("slim", """
            OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
                   xemp AS EMP,
                   employment AS (RELATE xdept VIA EMPLOYS, xemp
                                  WHERE xdept.dno = xemp.edno)
            TAKE xdept(dname), xemp(ename, sal), employment
        """)
        assert view.is_incremental
        assert db.matview("slim").component("xdept").columns == ["DNAME"]
        db.execute("INSERT INTO EMP VALUES (906, 'slim-emp', 1, 4000)")
        assert_fresh_equal(db, "slim")

    def test_relationship_attributes(self):
        db = make_org_db()
        view = db.create_materialized_view("tagged", """
            OUT OF xemp AS EMP, xskills AS SKILLS,
                   has AS (RELATE xemp VIA HAS, xskills
                           USING EMPSKILLS es
                           WITH es.essno AS tag
                           WHERE xemp.eno = es.eseno AND
                                 es.essno = xskills.sno)
            TAKE *
        """)
        assert view.is_incremental
        db.execute("INSERT INTO EMPSKILLS VALUES (1, 9)")
        result = db.matview("tagged")
        assert result.relationship("has").attribute_names == ("TAG",)
        assert_fresh_equal(db, "tagged")
        db.execute("DELETE FROM EMPSKILLS WHERE ESENO = 1 AND ESSNO = 9")
        assert_fresh_equal(db, "tagged")

    def test_composite_key_join_with_null_keys(self):
        # A two-column equi-join probes with tuple keys; a NULL in
        # either column never matches, in the index as in recomputation.
        db = Engine().connect()
        db.execute("CREATE TABLE CUST (CID INT PRIMARY KEY, REGION INT, "
                   "CNO INT)")
        db.execute("CREATE TABLE ORD (ONO INT PRIMARY KEY, REGION INT, "
                   "CNO INT, AMT INT)")
        db.execute("INSERT INTO CUST VALUES (1, 1, 1), (2, 1, 2), "
                   "(3, 2, 1), (4, NULL, 1)")
        db.execute("INSERT INTO ORD VALUES (10, 1, 1, 5), (11, 1, 2, 6), "
                   "(12, 2, 1, 7), (13, NULL, 1, 8), (14, 1, NULL, 9)")
        view = db.create_materialized_view("orders", """
            OUT OF xcust AS CUST, xord AS ORD,
                   placed AS (RELATE xcust VIA PLACED, xord
                              WHERE xcust.region = xord.region AND
                                    xcust.cno = xord.cno)
            TAKE *
        """)
        assert view.is_incremental
        for sql in ("UPDATE ORD SET REGION = 2 WHERE ONO = 10",
                    "UPDATE ORD SET REGION = 1 WHERE ONO = 13",
                    "UPDATE CUST SET REGION = NULL WHERE CID = 2",
                    "UPDATE ORD SET CNO = NULL WHERE ONO = 12",
                    "INSERT INTO CUST VALUES (5, 1, NULL)",
                    "UPDATE CUST SET REGION = 1 WHERE CID = 4",
                    "DELETE FROM CUST WHERE CID = 3"):
            db.execute(sql)
            assert_fresh_equal(db, "orders")
        for extent in view._state.extents.values():
            for index in extent.indexes.values():
                assert all(None not in key for key in index.buckets)
        assert len(db.matview("orders").relationship("placed")) == 2

    def test_multi_parent_union_reachability(self):
        # XSKILLS is reachable through employees OR projects; losing one
        # path must keep objects alive through the other (support
        # counting, not set difference).
        db = make_org_db()
        db.execute(f"CREATE MATERIALIZED VIEW m AS {DEPS_ARC_QUERY}")
        db.execute("DELETE FROM PROJSKILLS WHERE PSPNO >= 0")
        assert_fresh_equal(db, "m")
        db.execute("DELETE FROM EMPSKILLS WHERE ESENO >= 0")
        assert_fresh_equal(db, "m")
        assert len(db.matview("m").component("xskills")) == 0


# ----------------------------------------------------------------------
# Transactions, registry and catalog integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_rollback_leaves_view_consistent(self, org_mv_db):
        # Deltas are buffered on the open transaction and flushed at
        # commit only; a rollback discards them, so the view never saw
        # the phantom row and needs no invalidation — it stays fresh.
        view = org_mv_db.engine.matviews.get("deps_arc")
        org_mv_db.begin()
        org_mv_db.execute(
            "INSERT INTO EMP VALUES (907, 'phantom', 1, 1000)")
        org_mv_db.rollback()
        assert view.fresh
        result = org_mv_db.matview("deps_arc")
        names = {row[result.component("xemp").columns.index("ENAME")]
                 for row in result.component("xemp").rows}
        assert "phantom" not in names
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_savepoint_rollback_invalidates(self, org_mv_db):
        # A partial rollback that undoes an emitted delta must not
        # leave the eagerly maintained view believing it.
        org_mv_db.engine.matviews.get("deps_arc")  # ensure registered
        org_mv_db.begin()
        org_mv_db.savepoint("s")
        org_mv_db.execute(
            "INSERT INTO EMP VALUES (910, 'savepoint-emp', 1, 1000)")
        org_mv_db.rollback_to_savepoint("s")
        org_mv_db.commit()
        result = org_mv_db.matview("deps_arc")
        names = {row[result.component("xemp").columns.index("ENAME")]
                 for row in result.component("xemp").rows}
        assert "savepoint-emp" not in names
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_failed_statement_in_txn_does_not_invalidate(self,
                                                         org_mv_db):
        # run_atomic's internal savepoint rollback of a statement that
        # emitted nothing must not force a full refresh.
        view = org_mv_db.engine.matviews.get("deps_arc")
        org_mv_db.begin()
        org_mv_db.execute(
            "INSERT INTO EMP VALUES (911, 'kept', 1, 1000)")
        with pytest.raises(Exception):
            org_mv_db.execute(
                "INSERT INTO EMP VALUES (911, 'dupe', 1, 1000)")
        org_mv_db.commit()
        assert not view.stale
        assert view.stats["full_refreshes"] == 1
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_drop_base_table_rejected(self, org_mv_db):
        with pytest.raises(CatalogError, match="materialized views"):
            org_mv_db.execute("DROP TABLE SKILLS")
        # After dropping the view, the table can go (modulo FKs).
        org_mv_db.execute("DROP MATERIALIZED VIEW deps_arc")
        with pytest.raises(CatalogError, match="foreign keys"):
            org_mv_db.execute("DROP TABLE SKILLS")

    def test_statement_failure_emits_nothing(self, org_mv_db):
        view = org_mv_db.engine.matviews.get("deps_arc")
        with pytest.raises(Exception):
            # Second row violates the primary key: the whole statement
            # rolls back and no delta reaches the view.
            org_mv_db.execute("INSERT INTO EMP VALUES "
                              "(908, 'a', 1, 1), (908, 'b', 1, 1)")
        assert view.fresh
        assert_fresh_equal(org_mv_db, "deps_arc")

    def test_read_through_serves_materialization(self, org_mv_db):
        view = org_mv_db.engine.matviews.get("deps_arc")
        reads = view.stats["reads"]
        result = org_mv_db.xnf("deps_arc")
        assert view.stats["reads"] == reads + 1
        assert result is view.result

    def test_components_compose_into_sql(self, org_mv_db):
        rows = org_mv_db.query(
            "SELECT COUNT(*) FROM deps_arc.xemp").rows
        assert rows[0][0] == len(
            org_mv_db.matview("deps_arc").component("xemp"))

    def test_drop_materialized_view(self, org_mv_db):
        org_mv_db.execute("DROP MATERIALIZED VIEW deps_arc")
        assert not org_mv_db.engine.matviews.has("deps_arc")
        assert not org_mv_db.engine.catalog.has_view("deps_arc")

    def test_drop_view_on_matview_rejected(self, org_mv_db):
        with pytest.raises(CatalogError, match="DROP MATERIALIZED VIEW"):
            org_mv_db.execute("DROP VIEW deps_arc")

    def test_duplicate_name_rejected(self, org_mv_db):
        with pytest.raises(CatalogError):
            org_mv_db.execute(
                f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")

    def test_unknown_view_errors(self, org_mv_db):
        with pytest.raises(CatalogError, match="ghost"):
            org_mv_db.execute("REFRESH MATERIALIZED VIEW ghost")
        with pytest.raises(CatalogError, match="ghost"):
            org_mv_db.execute("DROP MATERIALIZED VIEW ghost")

    def test_bad_policy_value_rejected(self):
        db = make_org_db()
        with pytest.raises(CacheError, match="policy"):
            db.create_materialized_view("m", DEPS_ARC_QUERY,
                                        policy="sometimes")

    def test_matview_from_existing_view_name(self):
        db = make_org_db()
        db.execute(f"CREATE VIEW base_view AS {DEPS_ARC_QUERY}")
        view = db.create_materialized_view("mat", "base_view")
        assert view.is_incremental
        db.execute("INSERT INTO EMP VALUES (909, 'via-view', 1, 2000)")
        assert_fresh_equal(db, "mat")
