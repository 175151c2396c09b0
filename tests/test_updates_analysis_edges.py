"""Edge cases of the updatability analysis and write-back machinery."""

import pytest

from repro.errors import NotUpdatableError, UpdateError
from repro.qgm.builder import QGMBuilder
from repro.sql.parser import parse_statement
from repro.viewupdate.executor import CompiledWritePlan
from repro.viewupdate.objects import analyze_xnf


def analysis_for(db, query_text):
    builder = QGMBuilder(db.engine.catalog)
    graph = builder.build_xnf(parse_statement(query_text), "V")
    return analyze_xnf(graph.xnf_box(), db.engine.catalog)


def updatable(found) -> bool:
    return isinstance(found, CompiledWritePlan)


class TestComponentEdges:
    def test_subquery_component_readonly(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT * FROM EMP e WHERE EXISTS
                     (SELECT 1 FROM DEPT d WHERE d.dno = e.edno))
        TAKE *
        """)
        assert not updatable(components["X"])
        assert "subquery" in str(components["X"])

    def test_union_component_readonly(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT eno FROM EMP UNION SELECT dno FROM DEPT)
        TAKE *
        """)
        assert not updatable(components["X"])

    def test_renamed_columns_still_map(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT eno AS badge, ename AS who FROM EMP)
        TAKE *
        """)
        info = components["X"]
        assert updatable(info)
        assert info.plan.column_map == {"BADGE": "ENO", "WHO": "ENAME"}

    def test_multiple_checks_recorded(self, org_db):
        components, _rels = analysis_for(org_db, """
        OUT OF x AS (SELECT * FROM EMP WHERE sal > 10 AND eno < 500)
        TAKE *
        """)
        assert len(components["X"].checks) == 2


COMPUTED_CHILD = """
OUT OF d AS DEPT,
       e AS (SELECT eno, edno, sal * 1 AS pay FROM EMP),
       r AS (RELATE d VIA X, e WHERE d.dno = e.edno)
TAKE *
"""


class TestRelationshipEdges:
    def test_multi_column_fk(self, simple_db):
        simple_db.execute("CREATE TABLE PAIRS (A INT, B INT)")
        simple_db.execute("CREATE TABLE ITEMS (PA INT, PB INT, V INT)")
        _components, rels = analysis_for(simple_db, """
        OUT OF p AS PAIRS, i AS ITEMS,
               r AS (RELATE p VIA OWNS, i
                     WHERE p.a = i.pa AND p.b = i.pb)
        TAKE *
        """)
        assert rels["R"].kind == "foreign_key"
        assert sorted(rels["R"].fk_pairs) == [("PA", "A"), ("PB", "B")]

    def test_predicate_with_constant_readonly(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF d AS DEPT, e AS EMP,
               r AS (RELATE d VIA X, e
                     WHERE d.dno = e.edno AND e.sal = 100)
        TAKE *
        """)
        assert rels["R"].kind == "readonly"

    def test_computed_child_column_keeps_fk_kind(self, org_db):
        # a computed column makes that column read-only, not the child
        # component: the stored join column still carries connects
        _components, rels = analysis_for(org_db, COMPUTED_CHILD)
        assert rels["R"].kind == "foreign_key"
        assert rels["R"].fk_pairs == [("EDNO", "DNO")]

    def test_computed_join_column_blocks_fk_kind(self, org_db):
        _components, rels = analysis_for(org_db, """
        OUT OF d AS DEPT,
               e AS (SELECT eno, edno + 0 AS home FROM EMP),
               r AS (RELATE d VIA X, e WHERE d.dno = e.home)
        TAKE *
        """)
        assert rels["R"].kind == "readonly"
        assert "not a stored column" in rels["R"].reason

    def test_connect_through_computed_child_round_trips(self, org_db):
        cache = org_db.open_cache(COMPUTED_CHILD)
        depts = cache.extent("d")
        emp = depts[0].children("r")[0]
        cache.disconnect("r", depts[0], emp)
        cache.connect("r", depts[1], emp)
        cache.write_back()
        assert org_db.query(
            f"SELECT edno FROM EMP WHERE eno = {emp.eno}").rows == \
            [(depts[1].dno,)]
        assert emp.edno == depts[1].dno  # the cache shows the write
        fresh = org_db.open_cache(COMPUTED_CHILD)
        moved = fresh.find("e", eno=emp.eno)[0]
        assert [d.dno for d in moved.parents("r")] == [depts[1].dno]
        assert moved.pay == emp.pay


class TestWriteBackEdges:
    def test_disconnect_fk_nulls_out(self, org_db):
        cache = org_db.open_cache("deps_arc")
        dept = cache.extent("xdept")[0]
        emp = dept.children("employment")[0]
        cache.disconnect("employment", dept, emp)
        cache.write_back()
        assert org_db.query(
            f"SELECT edno FROM EMP WHERE eno = {emp.eno}").rows == \
            [(None,)]

    def test_disconnect_missing_connect_table_row(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        skill = emp.children("empproperty")[0]
        # Remove the mapping row behind the cache's back, then try to
        # disconnect: write-back must fail loudly, not silently no-op.
        org_db.execute(
            f"DELETE FROM EMPSKILLS WHERE eseno = {emp.eno} AND "
            f"essno = {skill.sno}")
        cache.disconnect("empproperty", emp, skill)
        with pytest.raises(UpdateError, match="no connect-table row"):
            cache.write_back()

    def test_update_of_unmapped_column_rejected(self, org_db):
        cache = org_db.open_cache("""
        OUT OF x AS (SELECT eno, sal * 2 AS double_sal FROM EMP)
        TAKE *
        """)
        obj = cache.extent("x")[0]
        obj.set("DOUBLE_SAL", 0)
        with pytest.raises(NotUpdatableError):
            cache.write_back()

    def test_nary_connect_rejected(self, org_db):
        cache = org_db.open_cache("""
        OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               e AS EMP, p AS PROJ,
               staffing AS (RELATE d VIA RUNS, e, p
                            WHERE d.dno = e.edno AND d.dno = p.pdno)
        TAKE *
        """)
        depts = cache.extent("d")
        assert len(depts) >= 2
        # A combination that cannot pre-exist: first dept with another
        # dept's employee and project.
        foreign_emp = depts[1].children("staffing")[0][0]
        foreign_proj = depts[1].children("staffing")[0][1]
        cache.connect("staffing", depts[0], foreign_emp, foreign_proj)
        assert cache.dirty
        with pytest.raises(NotUpdatableError, match="read-only"):
            cache.write_back()
