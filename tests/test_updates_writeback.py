"""Updatability analysis and cache write-back (Sect. 2 update model)."""

import pytest

from repro.api.engine import Engine
from repro.errors import NotUpdatableError, UpdateError
from repro.qgm.builder import QGMBuilder
from repro.sql.parser import parse_statement
from repro.viewupdate.executor import CompiledWritePlan
from repro.viewupdate.objects import analyze_xnf
from repro.workloads.orgdb import create_org_schema, populate_org
from tests.conftest import SMALL_ORG

#: A component with a computed column next to its stored ones.
COMPUTED_VIEW = ("CREATE VIEW cv AS OUT OF e AS (SELECT eno, ename, edno, "
                 "sal, sal * 2 AS dsal FROM EMP) TAKE *")


def analysis_for(db, query_text):
    builder = QGMBuilder(db.engine.catalog)
    graph = builder.build_xnf(parse_statement(query_text), "V")
    return analyze_xnf(graph.xnf_box(), db.engine.catalog)


def updatable(found) -> bool:
    return isinstance(found, CompiledWritePlan)


class TestComponentAnalysis:
    def test_simple_restriction_is_updatable(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC') TAKE *
        """)
        info = components["D"]
        assert updatable(info)
        assert info.plan.table == "DEPT"
        assert info.plan.column_map["DNO"] == "DNO"
        assert info.checks  # the loc predicate became a check

    def test_projection_is_updatable(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF d AS (SELECT dno, dname FROM DEPT) TAKE *
        """)
        assert updatable(components["D"])

    def test_join_is_read_only(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT e.eno, d.dname FROM EMP e, DEPT d
                     WHERE e.edno = d.dno) TAKE *
        """)
        assert not updatable(components["X"])
        assert "joins" in str(components["X"])

    def test_aggregate_is_read_only(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT loc, COUNT(*) AS n FROM DEPT GROUP BY loc)
        TAKE *
        """)
        assert not updatable(components["X"])

    def test_computed_column_is_read_only(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT eno, sal * 2 AS double_sal FROM EMP) TAKE *
        """)
        info = components["X"]
        # the column is read-only, the stored ones stay writable
        with pytest.raises(NotUpdatableError, match="computed"):
            info.plan.writable_base_column("DOUBLE_SAL")
        assert info.plan.writable_base_column("ENO") == "ENO"

    def test_distinct_is_read_only(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT DISTINCT loc FROM DEPT) TAKE *
        """)
        assert not updatable(components["X"])


class TestRelationshipAnalysis:
    def test_fk_relationship(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF d AS DEPT, e AS EMP,
               r AS (RELATE d VIA EMPLOYS, e WHERE d.dno = e.edno)
        TAKE *
        """)
        info = rels["R"]
        assert info.kind == "foreign_key"
        assert info.fk_pairs == [("EDNO", "DNO")]

    def test_connect_table_relationship(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF e AS EMP, s AS SKILLS,
               r AS (RELATE e VIA POSSESSES, s USING EMPSKILLS es
                     WHERE e.eno = es.eseno AND es.essno = s.sno)
        TAKE *
        """)
        info = rels["R"]
        assert info.kind == "connect_table"
        assert info.table == "EMPSKILLS"
        assert info.parent_pairs == [("ESENO", "ENO")]
        assert info.child_pairs == [("ESSNO", "SNO")]

    def test_nary_is_readonly(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF d AS DEPT, e AS EMP, p AS PROJ,
               r AS (RELATE d VIA RUNS, e, p
                     WHERE d.dno = e.edno AND d.dno = p.pdno)
        TAKE *
        """)
        assert rels["R"].kind == "readonly"

    def test_inequality_predicate_is_readonly(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF a AS (SELECT * FROM EMP WHERE sal > 150000), b AS EMP,
               r AS (RELATE a VIA DOMINATES, b WHERE a.sal > b.sal)
        TAKE *
        """)
        assert rels["R"].kind == "readonly"


class TestWriteBack:
    def test_update_reaches_base_table(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        emp.set("SAL", 123456)
        cache.write_back()
        assert org_db.query(
            f"SELECT sal FROM EMP WHERE eno = {emp.eno}").rows == \
            [(123456,)]
        assert not cache.dirty

    def test_insert_then_update_new_object(self, org_db):
        cache = org_db.open_cache("deps_arc")
        dept = cache.extent("xdept")[0]
        new = cache.insert("xemp", ENO=500, ENAME="n", EDNO=dept.dno,
                           SAL=1)
        new.set("SAL", 2)
        cache.write_back()
        assert org_db.query(
            "SELECT sal FROM EMP WHERE eno = 500").rows == [(2,)]

    def test_inserted_object_takes_its_rid_at_commit(self, org_db):
        # a later batch must still address the object it inserted
        cache = org_db.open_cache("deps_arc")
        dept = cache.extent("xdept")[0]
        new = cache.insert("xemp", ENO=502, ENAME="n", EDNO=dept.dno,
                           SAL=1)
        cache.write_back()
        assert isinstance(new.oid, int) and not new.is_new
        new.set("SAL", 3)
        cache.write_back()
        assert org_db.query(
            "SELECT sal FROM EMP WHERE eno = 502").rows == [(3,)]

    @pytest.mark.parametrize("write_through", [False, True])
    def test_insert_into_component_with_computed_column(self, org_db,
                                                        write_through):
        # Only the given columns are put back, so the cache inserts the
        # base row the SQL INSERT inserts; giving the computed column
        # is rejected, as in SQL.
        org_db.execute(COMPUTED_VIEW)
        twin = Engine().connect()
        create_org_schema(twin.engine.catalog)
        populate_org(twin.engine.catalog, SMALL_ORG)
        twin.execute(COMPUTED_VIEW)
        assert twin.execute("INSERT INTO cv.E (ENO, ENAME, EDNO, SAL) "
                            "VALUES (901, 'y', 1, 6)") == 1
        cache = org_db.open_cache("cv", write_through=write_through)
        cache.insert("E", ENO=901, ENAME="y", EDNO=1, SAL=6)
        cache.write_back()
        row = "SELECT * FROM EMP WHERE eno = 901"
        assert org_db.query(row).rows == twin.query(row).rows \
            == [(901, "y", 1, 6)]
        with pytest.raises(NotUpdatableError, match="computed"):
            twin.execute("INSERT INTO cv.E (ENO, ENAME, EDNO, SAL, DSAL) "
                         "VALUES (902, 'z', 1, 6, 12)")
        with pytest.raises(NotUpdatableError, match="computed"):
            cache.insert("E", ENO=902, ENAME="z", EDNO=1, SAL=6, DSAL=12)
            cache.write_back()
        assert org_db.query("SELECT * FROM EMP WHERE eno = 902").rows \
            == []

    @pytest.mark.parametrize("write_through", [False, True])
    def test_put_back_re_derives_computed_columns(self, org_db,
                                                  write_through):
        # After a put-back the cached objects read what a fresh open
        # reads, computed columns included.
        org_db.execute(COMPUTED_VIEW)
        cache = org_db.open_cache("cv", write_through=write_through)
        new = cache.insert("E", ENO=901, ENAME="y", EDNO=1, SAL=6)
        old = cache.extent("E")[0]
        old.set("SAL", 10)
        cache.write_back()
        fresh = org_db.open_cache("cv")
        for obj in (new, old):
            assert obj.as_dict() == fresh.find("E", eno=obj.eno)[0] \
                .as_dict()
        assert new.get("DSAL") == 12
        assert old.get("DSAL") == 20

    @pytest.mark.parametrize("write_through", [False, True])
    def test_put_back_refreshes_every_object_of_the_row(self, org_db,
                                                        write_through):
        # Two components over EMP: a write through one shows in the
        # other's object for the same row, as a fresh open shows it.
        org_db.execute("CREATE VIEW two AS OUT OF a AS (SELECT eno, sal, "
                       "sal + 1 AS nsal FROM EMP), b AS EMP TAKE *")
        cache = org_db.open_cache("two", write_through=write_through)
        target = cache.extent("b")[0]
        twin = next(obj for obj in cache.extent("a")
                    if obj.oid == target.oid)
        target.set("SAL", 41)
        cache.write_back()
        assert (twin.get("SAL"), twin.get("NSAL")) == (41, 42)

    def test_delete_reaches_base_table(self, org_db):
        org_db.execute("INSERT INTO DEPT VALUES (99, 'empty', 'ARC')")
        cache = org_db.open_cache("deps_arc")
        victim = cache.find("xdept", dno=99)[0]
        cache.delete(victim)
        cache.write_back()
        assert org_db.query(
            "SELECT COUNT(*) FROM DEPT WHERE dno = 99").rows == [(0,)]

    def test_insert_deleted_in_cache_never_ships(self, org_db):
        before = org_db.query("SELECT COUNT(*) FROM EMP").rows[0][0]
        cache = org_db.open_cache("deps_arc")
        ghost = cache.insert("xemp", ENO=501, EDNO=1, SAL=1)
        cache.delete(ghost)
        cache.write_back()
        assert org_db.query("SELECT COUNT(*) FROM EMP").rows[0][0] == \
            before

    def test_check_option_rejects_escaping_row(self, org_db):
        cache = org_db.open_cache("deps_arc")
        dept = cache.extent("xdept")[0]
        dept.set("LOC", "SF")  # would leave the deps_ARC view
        with pytest.raises(UpdateError, match="view predicate"):
            cache.write_back()

    def test_failed_writeback_rolls_back_everything(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emps = cache.extent("xemp")
        emps[0].set("SAL", 1)
        dept = cache.extent("xdept")[0]
        dept.set("LOC", "SF")  # fails the check option
        with pytest.raises(UpdateError):
            cache.write_back()
        eno = emps[0].eno
        salary = org_db.query(
            f"SELECT sal FROM EMP WHERE eno = {eno}").rows[0][0]
        assert salary != 1  # the first update was rolled back too

    def test_connect_fk_sets_foreign_key(self, org_db):
        cache = org_db.open_cache("deps_arc")
        depts = cache.extent("xdept")
        emp = depts[0].children("employment")[0]
        cache.disconnect("employment", depts[0], emp)
        cache.connect("employment", depts[1], emp)
        cache.write_back()
        assert org_db.query(
            f"SELECT edno FROM EMP WHERE eno = {emp.eno}").rows == \
            [(depts[1].dno,)]

    def test_connect_table_insert_and_delete(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        skills = cache.extent("xskills")
        target = [s for s in skills
                  if emp not in s.parents("empproperty")][0]
        cache.connect("empproperty", emp, target)
        cache.write_back()
        assert org_db.query(
            f"SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = {emp.eno} "
            f"AND essno = {target.sno}").rows == [(1,)]
        cache2 = org_db.open_cache("deps_arc")
        emp2 = cache2.find("xemp", eno=emp.eno)[0]
        skill2 = cache2.find("xskills", sno=target.sno)[0]
        cache2.disconnect("empproperty", emp2, skill2)
        cache2.write_back()
        assert org_db.query(
            f"SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = {emp.eno} "
            f"AND essno = {target.sno}").rows == [(0,)]

    def test_disconnect_removes_every_duplicate_row(self, org_db):
        # the relationship stream is DISTINCT: one cached connection
        # stands for both rows, so disconnecting it removes both
        emp = org_db.open_cache("deps_arc").extent("xemp")[0]
        sno = org_db.query(
            f"SELECT essno FROM EMPSKILLS WHERE eseno = {emp.eno}").rows[0][0]
        org_db.execute(f"INSERT INTO EMPSKILLS VALUES ({emp.eno}, {sno})")
        cache = org_db.open_cache("deps_arc")
        emp = cache.find("xemp", eno=emp.eno)[0]
        skill = cache.find("xskills", sno=sno)[0]
        assert emp.children("empproperty").count(skill) == 1
        cache.disconnect("empproperty", emp, skill)
        cache.write_back()
        assert org_db.query(
            f"SELECT COUNT(*) FROM EMPSKILLS WHERE eseno = {emp.eno} "
            f"AND essno = {sno}").rows == [(0,)]
        fresh = org_db.open_cache("deps_arc").find("xemp", eno=emp.eno)[0]
        assert sno not in [s.sno for s in fresh.children("empproperty")]

    def test_readonly_component_rejected(self, org_db):
        cache = org_db.open_cache("""
        OUT OF x AS (SELECT loc, COUNT(*) AS n FROM DEPT GROUP BY loc)
        TAKE *
        """)
        obj = cache.extent("x")[0]
        obj.set("N", 0)
        with pytest.raises(NotUpdatableError, match="read-only"):
            cache.write_back()

    def test_fk_violation_detected_at_writeback(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        emp.set("EDNO", 9999)
        with pytest.raises(UpdateError, match="no parent"):
            cache.write_back()
