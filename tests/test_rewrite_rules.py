"""Unit tests for the rewrite engine and the NF rules (Fig. 3)."""

import pytest

from repro.errors import RewriteError
from repro.qgm.builder import QGMBuilder
from repro.qgm.model import Quantifier, SelectBox
from repro.rewrite.engine import Rule, RuleEngine
from repro.rewrite.nf_rules import (DEFAULT_NF_RULES, columns_unique_in,
                                    prune_unused_columns)
from repro.sql.parser import parse_statement


def rewrite(db, sql):
    builder = QGMBuilder(db.engine.catalog)
    graph = builder.build_select(parse_statement(sql))
    context = RuleEngine(DEFAULT_NF_RULES).run(graph, db.engine.catalog)
    return graph, context


class TestEngine:
    def test_budget_guards_against_loops(self, simple_db):
        class Pathological(Rule):
            name = "loop"

            def matches(self, box, context):
                return isinstance(box, SelectBox)

            def apply(self, box, context):
                return True  # claims progress forever

        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement("SELECT 1"))
        with pytest.raises(RewriteError, match="budget"):
            RuleEngine([Pathological()], budget=10).run(graph,
                                                        simple_db.engine.catalog)

    def test_applications_recorded(self, simple_db):
        _graph, context = rewrite(
            simple_db,
            "SELECT ename FROM EMP e WHERE EXISTS "
            "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno)")
        assert context.applications.get("E2F", 0) >= 1
        assert context.applications.get("SelectMerge", 0) >= 1


class TestExistentialToJoin:
    def test_fig3_exists_becomes_join(self, simple_db):
        graph, _context = rewrite(
            simple_db,
            "SELECT ename FROM EMP e WHERE EXISTS "
            "(SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND "
            "d.dno = e.edno)")
        box = graph.top.single_output().box
        assert all(q.qtype == Quantifier.F for q in box.body_quantifiers)
        # Merged into a single select box over the two base tables.
        labels = sorted(q.box.label for q in box.body_quantifiers)
        assert labels == ["DEPT", "EMP"]

    def test_non_unique_match_stays_semijoin(self, simple_db):
        # DEPT.loc is not unique: converting would duplicate employees.
        graph, _context = rewrite(
            simple_db,
            "SELECT ename FROM EMP e WHERE EXISTS "
            "(SELECT 1 FROM DEPT d WHERE d.loc = 'ARC')")
        box = graph.top.single_output().box
        kinds = {q.qtype for q in box.body_quantifiers}
        assert Quantifier.E in kinds

    def test_distinct_box_converts_freely(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT DISTINCT e.edno FROM EMP e WHERE EXISTS "
            "(SELECT 1 FROM DEPT d WHERE d.loc = 'ARC')")
        assert context.applications.get("E2F", 0) >= 1
        del graph

    def test_existential_other_side_blocks_conversion(self, org_db):
        # The nested-EXISTS regression: e.eno = es.eseno with es
        # existential must not license converting e to ForEach.
        result = org_db.query(
            "SELECT COUNT(*) FROM SKILLS s WHERE EXISTS ("
            "SELECT 1 FROM EMPSKILLS es WHERE es.essno = s.sno "
            "AND EXISTS (SELECT 1 FROM EMP e, DEPT d WHERE "
            "e.eno = es.eseno AND e.edno = d.dno AND d.loc = 'ARC'))")
        assert result.rows[0][0] <= len(org_db.table("SKILLS"))


class TestSelectMerge:
    def test_derived_table_flattened(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT x.ename FROM (SELECT ename FROM EMP "
            "WHERE sal > 100) x")
        box = graph.top.single_output().box
        assert context.applications.get("SelectMerge", 0) == 1
        assert box.body_quantifiers[0].box.label == "EMP"

    def test_distinct_derived_table_not_merged(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT x.loc FROM (SELECT DISTINCT loc FROM DEPT) x")
        assert context.applications.get("SelectMerge", 0) == 0
        del graph

    def test_limit_blocks_merge(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT x.eno FROM (SELECT eno FROM EMP LIMIT 2) x")
        assert context.applications.get("SelectMerge", 0) == 0
        del graph

    def test_nested_views_collapse(self, simple_db):
        simple_db.execute(
            "CREATE VIEW v1 AS SELECT * FROM EMP WHERE sal > 100")
        graph, context = rewrite(simple_db,
                                 "SELECT ename FROM v1 WHERE eno > 10")
        box = graph.top.single_output().box
        assert box.body_quantifiers[0].box.label == "EMP"
        assert len(box.predicates) == 2
        del context


class TestUniquenessInference:
    def test_base_table_primary_key(self, simple_db):
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement("SELECT * FROM DEPT"))
        base = graph.top.single_output().box.body_quantifiers[0].box
        assert columns_unique_in(base, {"DNO"})
        assert columns_unique_in(base, {"DNO", "LOC"})
        assert not columns_unique_in(base, {"LOC"})

    def test_unique_index_counts(self, simple_db):
        simple_db.execute("CREATE UNIQUE INDEX UX ON EMP (ENAME)")
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement("SELECT * FROM EMP"))
        base = graph.top.single_output().box.body_quantifiers[0].box
        assert columns_unique_in(base, {"ENAME"})

    def test_selection_preserves_uniqueness(self, simple_db):
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement(
            "SELECT dno, loc FROM DEPT WHERE loc = 'ARC'"))
        box = graph.top.single_output().box
        assert columns_unique_in(box, {"DNO"})

    def test_join_breaks_uniqueness(self, simple_db):
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement(
            "SELECT d.dno AS dno FROM DEPT d, EMP e"))
        box = graph.top.single_output().box
        assert not columns_unique_in(box, {"DNO"})

    def test_group_keys_unique(self, simple_db):
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement(
            "SELECT loc, COUNT(*) AS n FROM DEPT GROUP BY loc"))
        upper = graph.top.single_output().box
        groupby = upper.body_quantifiers[0].box
        assert columns_unique_in(groupby, {"LOC"})
        assert columns_unique_in(groupby, {"LOC", "COUNT1"})


class TestPruning:
    def test_unused_view_columns_removed(self, simple_db):
        simple_db.execute("CREATE VIEW wide AS SELECT DISTINCT dno, "
                          "dname, loc FROM DEPT")
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement(
            "SELECT dno FROM wide"))
        # DISTINCT views keep their heads (semantics depend on them).
        removed = prune_unused_columns(graph)
        assert removed == 0

    def test_projection_pruned_below(self, simple_db):
        builder = QGMBuilder(simple_db.engine.catalog)
        graph = builder.build_select(parse_statement(
            "SELECT x.eno FROM (SELECT eno, ename, sal FROM EMP "
            "LIMIT 3) x"))
        removed = prune_unused_columns(graph)
        assert removed == 2  # ename, sal disappear from the inner head

    def test_pruned_plan_still_runs(self, simple_db):
        result = simple_db.query(
            "SELECT x.eno FROM (SELECT eno, ename, sal FROM EMP "
            "LIMIT 3) x ORDER BY 1")
        assert result.rows == [(10,), (11,), (12,)]
