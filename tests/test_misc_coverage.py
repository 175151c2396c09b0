"""Remaining corners: empty COs, plan explain, n-ary paths, naming."""

import pytest

from repro.api.engine import Engine
from repro.api.transport import TransportSimulator
from repro.workloads.orgdb import DEPS_ARC_QUERY


class TestEmptyCO:
    def test_transport_of_empty_extraction(self, empty_org_db):
        empty_org_db.execute(f"CREATE VIEW v AS {DEPS_ARC_QUERY}")
        co = empty_org_db.xnf("v")
        simulator = TransportSimulator()
        blocked = simulator.block_shipping(co)
        assert blocked.tuples == 0
        assert blocked.messages == 2  # request + empty answer
        one_at_a_time = simulator.tuple_at_a_time(co)
        assert one_at_a_time.messages == 2  # the end-of-stream fetch

    def test_empty_cache_operations(self, empty_org_db):
        empty_org_db.execute(f"CREATE VIEW v AS {DEPS_ARC_QUERY}")
        cache = empty_org_db.open_cache("v")
        assert cache.object_count() == 0
        assert len(cache.independent_cursor("xdept")) == 0
        assert len(cache.path_cursor("xdept.xemp")) == 0
        assert cache.to_documents() == []

    def test_empty_documents_and_dot(self, empty_org_db):
        empty_org_db.execute(f"CREATE VIEW v AS {DEPS_ARC_QUERY}")
        cache = empty_org_db.open_cache("v")
        assert "digraph" in cache.schema_dot()
        assert "digraph" in cache.instance_dot()


class TestPlanExplain:
    def test_tree_renders_each_operator_once(self, org_db):
        executable = org_db.xnf_executable("deps_arc")
        text = executable.explain()
        assert text.count("output ") == \
            len(executable.translated.graph.top.outputs)
        assert "Spool" in text  # shared subexpressions visible

    def test_estimated_rows_displayed(self, simple_db):
        compiled = simple_db.engine.pipeline.compile_select(
            __import__("repro.sql.parser", fromlist=["parse_statement"])
            .parse_statement("SELECT * FROM EMP"))
        assert "rows]" in compiled.plan.explain()

    def test_project_and_sort_carry_their_input_estimate(self, org_db):
        # Under a Dedup (every XNF component is DISTINCT) or a Sort,
        # the Project keeps its filtered input's estimate.
        text = org_db.xnf_executable("deps_arc").explain() + \
            org_db.explain("SELECT DISTINCT edno FROM EMP "
                           "WHERE sal > 0 ORDER BY edno")
        lines = [line.strip() for line in text.splitlines()
                 if line.strip().startswith(("Project", "FilterProject",
                                             "Sort"))]
        assert any(line.startswith("Sort") for line in lines)
        assert [line for line in lines if "[~0 rows" in line] == []


class TestNAryPaths:
    @pytest.fixture
    def nary_cache(self, org_db):
        return org_db.open_cache("""
        OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               e AS EMP, p AS PROJ,
               staffing AS (RELATE d VIA RUNS, e, p
                            WHERE d.dno = e.edno AND d.dno = p.pdno)
        TAKE *
        """)

    def test_nary_children_are_tuples(self, nary_cache):
        dept = nary_cache.extent("d")[0]
        combos = dept.children("staffing")
        assert combos and all(isinstance(c, tuple) and len(c) == 2
                              for c in combos)

    def test_nary_path_cursor_picks_named_target(self, nary_cache):
        projects = nary_cache.path_cursor("d.staffing.p")
        employees = nary_cache.path_cursor("d.staffing.e")
        assert all(o.component == "P" for o in projects)
        assert all(o.component == "E" for o in employees)
        assert len(projects) > 0 and len(employees) > 0

    def test_nary_parents(self, nary_cache):
        employee = nary_cache.extent("e")[0]
        assert all(p.component == "D"
                   for p in employee.parents("staffing"))


class TestNamingRobustness:
    def test_component_named_like_python_keyword(self, org_db):
        cache = org_db.open_cache("""
        OUT OF lambda_ AS (SELECT * FROM SKILLS) TAKE *
        """)
        from repro.cache.objects import bind_classes
        classes = bind_classes(cache)
        assert "LAMBDA_" in classes

    def test_role_colliding_with_column_name(self, org_db):
        cache = org_db.open_cache("""
        OUT OF d AS DEPT, e AS EMP,
               r AS (RELATE d VIA DNAME, e WHERE d.dno = e.edno)
        TAKE *
        """)
        from repro.cache.objects import bind_classes
        classes = bind_classes(cache)
        dept = next(iter(classes["D"].extent))
        # The navigation method shadows the column property (documented
        # behaviour of the generated namespace); get() still reads it.
        assert dept.get("DNAME").startswith("dept-")

    def test_quoted_identifier_table(self):
        db = Engine().connect()
        db.execute('CREATE TABLE "Mixed" (A INT)')
        db.execute('INSERT INTO "Mixed" VALUES (1)')
        assert db.query('SELECT * FROM "Mixed"').rows == [(1,)]


class TestDocumentsOnProjectedViews:
    def test_documents_skip_untaken_branches(self, org_db):
        co_query = DEPS_ARC_QUERY.replace(
            "TAKE *", "TAKE xdept, xemp, employment")
        cache = org_db.open_cache(co_query)
        documents = cache.to_documents()
        assert documents
        for document in documents:
            assert "employs" in document
            assert "has" not in document  # ownership not taken
