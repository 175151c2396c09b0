"""QGM dump rendering and operation counting."""

from repro.qgm.builder import QGMBuilder
from repro.qgm.dump import dump_graph
from repro.qgm.ops import (box_signature, count_operations,
                           distinct_operations, replicated_operations)
from repro.rewrite.engine import RuleEngine
from repro.rewrite.nf_rules import DEFAULT_NF_RULES
from repro.sql.parser import parse_statement


def graph_for(db, sql, rewrite=False):
    graph = QGMBuilder(db.engine.catalog).build_select(parse_statement(sql))
    if rewrite:
        RuleEngine(DEFAULT_NF_RULES).run(graph, db.engine.catalog)
    return graph


class TestDump:
    def test_renders_boxes_and_quantifiers(self, simple_db):
        text = dump_graph(graph_for(
            simple_db,
            "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno"))
        assert "TopBox" in text
        assert "quantifier F e over EMP" in text
        assert "predicate: (e.EDNO = d.DNO)" in text

    def test_renders_shared_boxes_as_references(self, simple_db):
        simple_db.execute("CREATE VIEW arc AS SELECT DISTINCT dno "
                          "FROM DEPT WHERE loc = 'ARC'")
        text = dump_graph(graph_for(
            simple_db,
            "SELECT x.dno FROM (SELECT dno FROM arc LIMIT 5) x, "
            "(SELECT dno FROM arc LIMIT 5) y"))
        # The shared view box prints once; later visits are references.
        assert text.count("predicate: (DEPT.LOC = 'ARC')") == 1
        assert "[ref ->" in text

    def test_same_box_under_two_quantifiers_prints_once(self, simple_db):
        text = dump_graph(graph_for(
            simple_db, "SELECT a.eno FROM EMP a, EMP b"))
        assert text.count("BaseBox") == 1

    def test_renders_groupby(self, simple_db):
        text = dump_graph(graph_for(
            simple_db, "SELECT loc, COUNT(*) FROM DEPT GROUP BY loc"))
        assert "GroupByBox" in text
        assert "aggregate" in text and "COUNT" in text

    def test_renders_setop(self, simple_db):
        text = dump_graph(graph_for(
            simple_db, "SELECT dno FROM DEPT UNION SELECT eno FROM EMP"))
        assert "operator: UNION" in text

    def test_renders_order_and_limit(self, simple_db):
        text = dump_graph(graph_for(
            simple_db, "SELECT eno FROM EMP ORDER BY eno DESC LIMIT 2"))
        assert "order by" in text and "DESC" in text
        assert "limit: 2" in text

    def test_renders_xnf_box(self, org_db):
        builder = QGMBuilder(org_db.engine.catalog)
        graph = builder.build_xnf(
            org_db.engine.catalog.view("deps_arc").definition, "deps_arc")
        text = dump_graph(graph)
        assert "XNFBox" in text
        assert "component XDEPT (root)" in text
        assert "relationship EMPLOYMENT" in text
        assert "take: *" in text


class TestOperationCounting:
    def test_selection_only(self, simple_db):
        ops = count_operations(graph_for(
            simple_db, "SELECT * FROM DEPT WHERE loc = 'ARC'"))
        assert ops.selections == 1 and ops.joins == 0

    def test_join_counting(self, simple_db):
        ops = count_operations(graph_for(
            simple_db,
            "SELECT 1 FROM DEPT d, EMP e, EMP f "
            "WHERE d.dno = e.edno AND e.eno = f.eno"))
        assert ops.joins == 2  # three quantifiers, one box

    def test_local_and_join_in_one_box(self, simple_db):
        ops = count_operations(graph_for(
            simple_db,
            "SELECT 1 FROM DEPT d, EMP e "
            "WHERE d.dno = e.edno AND d.loc = 'ARC'"))
        assert ops.selections == 1 and ops.joins == 1

    def test_shared_boxes_counted_once(self, simple_db):
        simple_db.execute("CREATE VIEW arc AS SELECT DISTINCT dno "
                          "FROM DEPT WHERE loc = 'ARC'")
        ops = count_operations(graph_for(
            simple_db,
            "SELECT a.dno FROM arc a, arc b WHERE a.dno = b.dno",
            rewrite=True))
        assert ops.selections == 1  # the shared view's restriction

    def test_signatures_distinguish_predicates(self, simple_db):
        first = graph_for(simple_db,
                          "SELECT * FROM DEPT WHERE loc = 'ARC'")
        second = graph_for(simple_db,
                           "SELECT * FROM DEPT WHERE loc = 'SF'")
        sig_a = box_signature(first.top.single_output().box)
        sig_b = box_signature(second.top.single_output().box)
        assert sig_a != sig_b

    def test_signatures_match_identical_structure(self, simple_db):
        first = graph_for(simple_db,
                          "SELECT * FROM DEPT d WHERE d.loc = 'ARC'")
        second = graph_for(simple_db,
                           "SELECT * FROM DEPT d WHERE d.loc = 'ARC'")
        assert box_signature(first.top.single_output().box) == \
            box_signature(second.top.single_output().box)

    def test_replicated_operations_ordering(self, simple_db):
        graphs = [
            graph_for(simple_db, "SELECT * FROM DEPT WHERE loc = 'ARC'"),
            graph_for(simple_db, "SELECT * FROM DEPT WHERE loc = 'ARC'"),
            graph_for(simple_db, "SELECT * FROM DEPT WHERE loc = 'SF'"),
        ]
        counts = [count_operations(g) for g in graphs]
        assert replicated_operations(counts) == [0, 1, 0]
        assert distinct_operations(counts) == 2

    def test_merge_and_total(self, simple_db):
        first = count_operations(graph_for(
            simple_db, "SELECT * FROM DEPT WHERE loc = 'ARC'"))
        second = count_operations(graph_for(
            simple_db,
            "SELECT 1 FROM DEPT d, EMP e WHERE d.dno = e.edno"))
        merged = first.merge(second)
        assert merged.total == first.total + second.total
        assert len(merged.signatures) == \
            len(first.signatures) + len(second.signatures)


class TestSimpleCaseForm:
    def test_simple_case_desugars(self, simple_db):
        result = simple_db.query(
            "SELECT ename, CASE edno WHEN 1 THEN 'tools' "
            "WHEN 2 THEN 'apps' ELSE 'other' END FROM EMP ORDER BY eno")
        bands = [band for _n, band in result.rows]
        assert bands == ["tools", "apps", "tools", "other", "other"]

    def test_simple_case_null_operand_falls_through(self, simple_db):
        result = simple_db.query(
            "SELECT CASE edno WHEN 1 THEN 'x' ELSE 'none' END "
            "FROM EMP WHERE edno IS NULL")
        assert result.rows == [("none",)]
