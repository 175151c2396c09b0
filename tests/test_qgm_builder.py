"""Unit tests for AST -> QGM construction (shapes and resolution)."""

import pytest

from repro.errors import SemanticError
from repro.qgm.builder import QGMBuilder
from repro.qgm.model import (BaseBox, GroupByBox, OuterJoinBox,
                             SelectBox, SetOpBox, XNFBox)
from repro.sql.parser import parse_statement


@pytest.fixture
def builder(simple_db):
    return QGMBuilder(simple_db.engine.catalog)


def build(builder, sql):
    return builder.build_select(parse_statement(sql))


class TestBasicShapes:
    def test_single_table(self, builder):
        graph = build(builder, "SELECT ename FROM EMP")
        box = graph.top.single_output().box
        assert isinstance(box, SelectBox)
        assert len(box.foreach_quantifiers()) == 1
        assert isinstance(box.foreach_quantifiers()[0].box, BaseBox)

    def test_join_creates_two_quantifiers(self, builder):
        graph = build(builder,
                      "SELECT * FROM DEPT d, EMP e WHERE d.dno = e.edno")
        box = graph.top.single_output().box
        assert len(box.foreach_quantifiers()) == 2
        assert len(box.predicates) == 1

    def test_star_expansion_preserves_order(self, builder):
        graph = build(builder, "SELECT * FROM DEPT")
        names = [c.name for c in graph.top.single_output().box.head]
        assert names == ["DNO", "DNAME", "LOC"]

    def test_duplicate_output_names_uniquified(self, builder):
        graph = build(builder,
                      "SELECT d.dno, e.eno AS dno FROM DEPT d, EMP e")
        names = [c.name for c in graph.top.single_output().box.head]
        assert len(set(n.upper() for n in names)) == 2

    def test_base_boxes_shared_within_statement(self, builder):
        graph = build(builder, "SELECT a.eno FROM EMP a, EMP b")
        box = graph.top.single_output().box
        quantifiers = box.foreach_quantifiers()
        assert quantifiers[0].box is quantifiers[1].box

    def test_on_condition_joins_predicates(self, builder):
        graph = build(builder,
                      "SELECT * FROM DEPT d JOIN EMP e ON d.dno = e.edno")
        assert len(graph.top.single_output().box.predicates) == 1


class TestResolutionErrors:
    def test_unknown_table(self, builder):
        with pytest.raises(SemanticError, match="unknown table"):
            build(builder, "SELECT * FROM GHOST")

    def test_unknown_column(self, builder):
        with pytest.raises(SemanticError, match="unknown column"):
            build(builder, "SELECT ghost FROM EMP")

    def test_unknown_qualified_column(self, builder):
        with pytest.raises(SemanticError, match="no column"):
            build(builder, "SELECT e.ghost FROM EMP e")

    def test_ambiguous_column(self, builder):
        with pytest.raises(SemanticError, match="ambiguous"):
            build(builder, "SELECT dno FROM DEPT, EMP, DEPT d2")

    def test_duplicate_binding(self, builder):
        with pytest.raises(SemanticError, match="duplicate table binding"):
            build(builder, "SELECT 1 FROM EMP e, DEPT e")

    def test_alias_hides_table_name(self, builder):
        with pytest.raises(SemanticError, match="unknown table"):
            build(builder, "SELECT EMP.eno FROM EMP e")

    def test_star_outside_select_list(self, builder):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            build(builder, "SELECT ename FROM EMP WHERE * = 1")


class TestSubqueryShapes:
    def test_exists_becomes_e_quantifier(self, builder):
        graph = build(builder,
                      "SELECT ename FROM EMP e WHERE EXISTS "
                      "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno)")
        box = graph.top.single_output().box
        kinds = sorted(q.qtype for q in box.body_quantifiers)
        assert kinds == ["E", "F"]

    def test_correlation_predicate_pulled_up(self, builder):
        graph = build(builder,
                      "SELECT ename FROM EMP e WHERE EXISTS "
                      "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno)")
        box = graph.top.single_output().box
        # The join predicate lives in the outer box, not the inner one.
        assert any(len({q.qtype for q in []} | set()) == 0 or True
                   for _ in [0])
        inner = [q.box for q in box.body_quantifiers
                 if q.qtype == "E"][0]
        assert inner.predicates == []
        assert len(box.predicates) == 1

    def test_not_exists_becomes_a_quantifier(self, builder):
        graph = build(builder,
                      "SELECT ename FROM EMP e WHERE NOT EXISTS "
                      "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno)")
        box = graph.top.single_output().box
        assert any(q.qtype == "A" for q in box.body_quantifiers)

    def test_not_in_sets_null_poison(self, builder):
        graph = build(builder,
                      "SELECT ename FROM EMP WHERE edno NOT IN "
                      "(SELECT dno FROM DEPT)")
        box = graph.top.single_output().box
        anti = [q for q in box.body_quantifiers if q.qtype == "A"][0]
        assert anti.null_poison

    def test_in_subquery_single_column_enforced(self, builder):
        with pytest.raises(SemanticError, match="exactly one column"):
            build(builder,
                  "SELECT 1 FROM EMP WHERE edno IN "
                  "(SELECT dno, loc FROM DEPT)")

    def test_scalar_quantifier(self, builder):
        graph = build(builder,
                      "SELECT ename FROM EMP WHERE sal > "
                      "(SELECT AVG(sal) FROM EMP)")
        box = graph.top.single_output().box
        assert any(q.qtype == "S" for q in box.body_quantifiers)


class TestGroupingShapes:
    def test_sandwich_structure(self, builder):
        graph = build(builder,
                      "SELECT loc, COUNT(*) FROM DEPT GROUP BY loc")
        upper = graph.top.single_output().box
        assert isinstance(upper, SelectBox)
        groupby = upper.body_quantifiers[0].box
        assert isinstance(groupby, GroupByBox)
        lower = groupby.input.box
        assert isinstance(lower, SelectBox)

    def test_aggregate_specs_recorded(self, builder):
        graph = build(builder,
                      "SELECT COUNT(*), SUM(sal), COUNT(DISTINCT edno) "
                      "FROM EMP")
        groupby = graph.top.single_output().box.body_quantifiers[0].box
        specs = list(groupby.aggregates.values())
        assert [s.function for s in specs] == ["COUNT", "SUM", "COUNT"]
        assert specs[0].argument is None
        assert specs[2].distinct

    def test_having_predicate_on_upper_box(self, builder):
        graph = build(builder,
                      "SELECT loc FROM DEPT GROUP BY loc "
                      "HAVING COUNT(*) > 1")
        upper = graph.top.single_output().box
        assert len(upper.predicates) == 1

    def test_group_keys_precede_aggregates(self, builder):
        graph = build(builder,
                      "SELECT loc, COUNT(*) FROM DEPT GROUP BY loc")
        groupby = graph.top.single_output().box.body_quantifiers[0].box
        assert groupby.head[0].name.upper() == "LOC"
        assert groupby.head[1].name in groupby.aggregates

    def test_having_subquery_rejected(self, builder):
        with pytest.raises(SemanticError, match="HAVING"):
            build(builder,
                  "SELECT loc FROM DEPT GROUP BY loc HAVING EXISTS "
                  "(SELECT 1 FROM EMP)")


class TestSetOpShapes:
    def test_union_box(self, builder):
        graph = build(builder,
                      "SELECT dno FROM DEPT UNION SELECT eno FROM EMP")
        box = graph.top.single_output().box
        assert isinstance(box, SetOpBox)
        assert box.operator == "UNION" and not box.all_rows

    def test_chained_set_ops_nest(self, builder):
        graph = build(builder,
                      "SELECT dno FROM DEPT UNION SELECT eno FROM EMP "
                      "EXCEPT SELECT 1")
        box = graph.top.single_output().box
        assert isinstance(box, SetOpBox)
        assert isinstance(box.inputs[1].box, SetOpBox)

    def test_order_by_wraps_setop(self, builder):
        graph = build(builder,
                      "SELECT dno FROM DEPT UNION SELECT eno FROM EMP "
                      "ORDER BY 1")
        box = graph.top.single_output().box
        assert isinstance(box, SelectBox)
        assert box.order_by


class TestOuterJoinShapes:
    def test_left_join_box(self, builder):
        graph = build(builder,
                      "SELECT * FROM DEPT d LEFT JOIN EMP e "
                      "ON d.dno = e.edno")
        box = graph.top.single_output().box
        inner = box.body_quantifiers[0].box
        assert isinstance(inner, OuterJoinBox)

    def test_column_collision_renamed(self, simple_db):
        simple_db.execute("CREATE TABLE OTHER (DNO INT, EXTRA VARCHAR)")
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = build(builder,
                      "SELECT d.dno, o.dno FROM DEPT d LEFT JOIN OTHER o "
                      "ON d.dno = o.dno")
        head = graph.top.single_output().box.head
        assert len(head) == 2

    def test_subquery_in_on_rejected(self, builder):
        with pytest.raises(SemanticError, match="LEFT JOIN"):
            build(builder,
                  "SELECT 1 FROM DEPT d LEFT JOIN EMP e ON "
                  "EXISTS (SELECT 1 FROM EMP)")


class TestXNFBuild:
    QUERY = """
    OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
           xemp AS EMP,
           employment AS (RELATE xdept VIA EMPLOYS, xemp
                          WHERE xdept.dno = xemp.edno)
    TAKE *
    """

    def test_xnf_box_created(self, builder):
        graph = builder.build_xnf(parse_statement(self.QUERY), "V")
        xnf = graph.xnf_box()
        assert isinstance(xnf, XNFBox)
        assert set(xnf.components) == {"XDEPT", "XEMP"}
        assert set(xnf.relationships) == {"EMPLOYMENT"}

    def test_roots_inferred(self, builder):
        graph = builder.build_xnf(parse_statement(self.QUERY), "V")
        xnf = graph.xnf_box()
        assert xnf.components["XDEPT"].is_root
        assert not xnf.components["XEMP"].is_root
        assert xnf.components["XEMP"].reachability_required

    def test_duplicate_definition_rejected(self, builder):
        with pytest.raises(SemanticError, match="duplicate"):
            builder.build_xnf(parse_statement(
                "OUT OF a AS EMP, a AS DEPT TAKE *"), "V")

    def test_unknown_partner_rejected(self, builder):
        with pytest.raises(SemanticError, match="unknown parent"):
            builder.build_xnf(parse_statement(
                "OUT OF a AS EMP, r AS (RELATE ghost VIA X, a "
                "WHERE 1 = 1) TAKE *"), "V")

    def test_unknown_take_item_rejected(self, builder):
        with pytest.raises(SemanticError, match="TAKE"):
            builder.build_xnf(parse_statement(
                "OUT OF a AS EMP TAKE ghost"), "V")

    def test_role_binds_parent_for_self_loops(self, builder):
        query = parse_statement("""
        OUT OF p AS DEPT,
               r AS (RELATE p VIA SUPER, p WHERE SUPER.dno = p.dno)
        TAKE *
        """)
        graph = builder.build_xnf(query, "V")
        relationship = graph.xnf_box().relationships["R"]
        assert relationship.predicate is not None

    def test_relationship_subquery_rejected(self, builder):
        with pytest.raises(SemanticError, match="RELATE"):
            builder.build_xnf(parse_statement(
                "OUT OF a AS EMP, b AS DEPT, "
                "r AS (RELATE a VIA X, b WHERE EXISTS "
                "(SELECT 1 FROM DEPT)) TAKE *"), "V")
