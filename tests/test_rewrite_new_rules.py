"""The expanded rule catalog: fire and no-fire conditions per rule.

Every rule added by the unified-compile-pipeline issue is exercised
both ways: a shape it must transform and the documented conditions
under which it must leave the graph alone (with result correctness
asserted through the untransformed path).  Golden before/after shapes
use :func:`repro.qgm.dump.canonical_dump`, whose numbering is
deterministic per graph.
"""

from __future__ import annotations

import pytest

from repro.compiler.pipeline import rewrite_fixpoint
from repro.qgm.dump import canonical_dump
from repro.qgm.model import BaseBox, GroupByBox, Quantifier
from repro.sql.parser import parse_statement


def compile_traced(db, sql):
    """Compile through the shared pipeline; returns (graph, context)."""
    compiled = db.engine.pipeline.compile_select(parse_statement(sql))
    return compiled.graph, compiled.rewrite_context


def rewrite(db, sql):
    graph = db.engine.pipeline.compiler.build_select(parse_statement(sql))
    context = rewrite_fixpoint(graph, db.engine.catalog)
    return graph, context


def top_box(graph):
    return graph.top.single_output().box


# ----------------------------------------------------------------------
# ConstantPropagation
# ----------------------------------------------------------------------
class TestConstantPropagation:
    def test_constant_crosses_join_equality(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT e.ename FROM EMP e, DEPT d "
            "WHERE e.edno = d.dno AND d.dno = 1")
        assert context.applications.get("ConstProp", 0) == 1
        box = top_box(graph)
        derived = [str(p) for p in box.predicates]
        assert "(e.EDNO = 1)" in derived

    def test_no_fire_without_constant(self, simple_db):
        _graph, context = rewrite(
            simple_db,
            "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno")
        assert context.applications.get("ConstProp", 0) == 0

    def test_no_fire_when_already_present(self, simple_db):
        _graph, context = rewrite(
            simple_db,
            "SELECT e.ename FROM EMP e, DEPT d "
            "WHERE e.edno = d.dno AND d.dno = 1 AND e.edno = 1")
        assert context.applications.get("ConstProp", 0) == 0

    def test_propagated_plan_still_correct(self, simple_db):
        result = simple_db.query(
            "SELECT e.ename FROM EMP e, DEPT d "
            "WHERE e.edno = d.dno AND d.dno = 1 ORDER BY e.eno")
        assert result.rows == [("ann",), ("carl",)]

    def test_no_ping_pong_with_pushdown(self, simple_db):
        # Pushdown moves the derived constant equality into the
        # DISTINCT view box; ConstProp must not re-derive it forever
        # (regression: rewrite budget exhaustion).
        simple_db.execute(
            "CREATE VIEW dlocs AS SELECT DISTINCT dno, loc FROM DEPT")
        graph, context = rewrite(
            simple_db,
            "SELECT e.ename, v.loc FROM EMP e, dlocs v "
            "WHERE e.edno = v.dno AND e.edno = 1")
        assert context.applications.get("ConstProp", 0) <= 2
        result = simple_db.query(
            "SELECT e.ename, v.loc FROM EMP e, dlocs v "
            "WHERE e.edno = v.dno AND e.edno = 1 ORDER BY e.eno")
        assert result.rows == [("ann", "ARC"), ("carl", "ARC")]
        del graph


# ----------------------------------------------------------------------
# RedundantJoinElimination
# ----------------------------------------------------------------------
class TestRedundantJoinElimination:
    def test_self_join_on_primary_key_eliminated(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT a.ename FROM EMP a, EMP b "
            "WHERE a.eno = b.eno AND b.sal > 100")
        assert context.applications.get("JoinElim", 0) == 1
        box = top_box(graph)
        assert len(box.body_quantifiers) == 1
        # b's residual predicate was remapped onto a.
        assert any("SAL > 100" in str(p) for p in box.predicates)

    def test_self_join_results_match(self, simple_db):
        result = simple_db.query(
            "SELECT a.ename FROM EMP a, EMP b "
            "WHERE a.eno = b.eno AND b.sal > 100 ORDER BY a.eno")
        assert result.rows == [("bob",), ("dee",), ("eve",)]

    def test_no_fire_on_non_unique_columns(self, simple_db):
        # EDNO is not unique: a self-join on it multiplies rows.
        _graph, context = rewrite(
            simple_db,
            "SELECT a.ename FROM EMP a, EMP b WHERE a.edno = b.edno")
        assert context.applications.get("JoinElim", 0) == 0

    def test_substitution_reaches_outer_join_conditions(self, simple_db):
        # Elimination must remap references hiding in an outer-join
        # condition of a correlated subquery (regression: dangling
        # quantifier -> PlanningError).
        simple_db.execute("CREATE TABLE T (K INT PRIMARY KEY, V INT)")
        simple_db.execute("CREATE TABLE U (K INT PRIMARY KEY)")
        simple_db.execute("INSERT INTO T VALUES (10, 100)")
        simple_db.execute("INSERT INTO U VALUES (10)")
        result = simple_db.query(
            "SELECT e.ename, (SELECT t.v FROM T t LEFT JOIN U u "
            "ON u.k = e2.eno) FROM EMP e, EMP e2 "
            "WHERE e.eno = e2.eno AND e.eno = 10")
        assert result.rows == [("ann", 100)]

    def test_parent_join_eliminated_with_fk(self, org_db):
        # EMPSKILLS.ESENO is non-nullable and carries an FK to EMP:
        # the EMP quantifier is referenced only by the join conjunct.
        graph, context = rewrite(
            org_db,
            "SELECT es.essno FROM EMPSKILLS es, EMP e "
            "WHERE es.eseno = e.eno")
        assert context.applications.get("JoinElim", 0) == 1
        box = top_box(graph)
        labels = [q.box.label for q in box.body_quantifiers]
        assert labels == ["EMPSKILLS"]

    def test_parent_join_results_match(self, org_db):
        eliminated = org_db.query(
            "SELECT es.essno FROM EMPSKILLS es, EMP e "
            "WHERE es.eseno = e.eno")
        plain = org_db.query("SELECT essno FROM EMPSKILLS")
        assert sorted(eliminated.rows) == sorted(plain.rows)

    def test_no_fire_when_parent_columns_used(self, org_db):
        _graph, context = rewrite(
            org_db,
            "SELECT e.ename, es.essno FROM EMPSKILLS es, EMP e "
            "WHERE es.eseno = e.eno")
        assert context.applications.get("JoinElim", 0) == 0

    @pytest.mark.parametrize("index_ddl", [
        None, "CREATE INDEX IX_P2 ON P2 (ID)"], ids=["pk", "secondary"])
    def test_no_fire_when_two_child_columns_equate_one_pk(self, simple_db,
                                                           index_ddl):
        # p.id = c.fk AND p.id = c.other implies c.fk = c.other;
        # dropping the parent join must not lose that constraint.  An
        # index-nested-loop probe of P2 (through its PK or a secondary
        # index) keys on one equality; the other must stay a residual.
        simple_db.execute(
            "CREATE TABLE P2 (ID INT PRIMARY KEY)")
        simple_db.execute(
            "CREATE TABLE C2 (CID INT PRIMARY KEY, FK_ID INT NOT NULL, "
            "OTHER_COL INT, FOREIGN KEY (FK_ID) REFERENCES P2 (ID))")
        if index_ddl is not None:
            simple_db.execute(index_ddl)
        simple_db.execute("INSERT INTO P2 VALUES (1), (2)")
        simple_db.execute("INSERT INTO C2 VALUES (10, 1, 2), (11, 2, 2)")
        _graph, context = rewrite(
            simple_db,
            "SELECT c.cid FROM C2 c, P2 p "
            "WHERE p.id = c.other_col AND p.id = c.fk_id")
        assert context.applications.get("JoinElim", 0) == 0
        result = simple_db.query(
            "SELECT c.cid FROM C2 c, P2 p "
            "WHERE p.id = c.other_col AND p.id = c.fk_id")
        assert result.rows == [(11,)]

    def test_no_fire_on_nullable_fk(self, simple_db):
        # EMP.EDNO is nullable: the DEPT join filters eve (NULL dept),
        # so eliminating it would change the result.
        _graph, context = rewrite(
            simple_db,
            "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno")
        assert context.applications.get("JoinElim", 0) == 0
        result = simple_db.query(
            "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno")
        assert len(result.rows) == 4  # eve filtered by the join


# ----------------------------------------------------------------------
# ViewMerge
# ----------------------------------------------------------------------
class TestViewMerge:
    def test_dual_view_reference_cloned_and_merged(self, simple_db):
        simple_db.execute(
            "CREATE VIEW rich AS SELECT eno, ename, sal FROM EMP "
            "WHERE sal > 90")
        graph, context = rewrite(
            simple_db,
            "SELECT a.ename FROM rich a, rich b WHERE a.eno = b.eno")
        assert context.applications.get("ViewMerge", 0) >= 1
        assert context.applications.get("SelectMerge", 0) >= 2
        box = top_box(graph)
        # Both view copies flattened to base scans (then the self-join
        # collapses them to one).
        assert all(isinstance(q.box, BaseBox)
                   for q in box.body_quantifiers)

    def test_dual_view_results_match(self, simple_db):
        simple_db.execute(
            "CREATE VIEW rich AS SELECT eno, ename, sal FROM EMP "
            "WHERE sal > 90")
        result = simple_db.query(
            "SELECT a.ename FROM rich a, rich b WHERE a.eno = b.eno "
            "ORDER BY a.eno")
        assert result.rows == [("ann",), ("bob",), ("dee",), ("eve",)]

    def test_no_fire_on_distinct_view(self, simple_db):
        # DISTINCT views stay shared: their deduped evaluation is the
        # common subexpression the Spool operator materializes once.
        simple_db.execute(
            "CREATE VIEW locs AS SELECT DISTINCT loc FROM DEPT")
        _graph, context = rewrite(
            simple_db,
            "SELECT a.loc FROM locs a, locs b WHERE a.loc = b.loc")
        assert context.applications.get("ViewMerge", 0) == 0

    def test_no_fire_on_single_reference(self, simple_db):
        simple_db.execute(
            "CREATE VIEW rich2 AS SELECT eno, sal FROM EMP "
            "WHERE sal > 90")
        _graph, context = rewrite(simple_db, "SELECT eno FROM rich2")
        assert context.applications.get("ViewMerge", 0) == 0
        assert context.applications.get("SelectMerge", 0) >= 1


# ----------------------------------------------------------------------
# ScalarAggToJoin
# ----------------------------------------------------------------------
SCALAR_AVG_SQL = (
    "SELECT e.ename FROM EMP e WHERE e.sal > "
    "(SELECT AVG(e2.sal) FROM EMP e2 WHERE e2.edno = e.edno)"
)


class TestScalarAggToJoin:
    def test_correlated_avg_becomes_groupby_join(self, simple_db):
        graph, context = rewrite(simple_db, SCALAR_AVG_SQL)
        assert context.applications.get("ScalarAggToJoin", 0) == 1
        box = top_box(graph)
        assert all(q.qtype != Quantifier.S for q in box.body_quantifiers)
        assert any(isinstance(q.box, GroupByBox)
                   for q in box.body_quantifiers)

    def test_no_fire_on_count(self, simple_db):
        # COUNT over an empty group is 0, not NULL: the join form would
        # drop rows the nested form keeps.
        _graph, context = rewrite(
            simple_db,
            "SELECT d.dname FROM DEPT d WHERE 0 < "
            "(SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno)")
        assert context.applications.get("ScalarAggToJoin", 0) == 0
        result = simple_db.query(
            "SELECT d.dname FROM DEPT d WHERE 0 < "
            "(SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno) "
            "ORDER BY d.dno")
        assert result.rows == [("Tools",), ("Apps",), ("DB",)]

    def test_count_correct_for_empty_group(self, simple_db):
        simple_db.execute("INSERT INTO DEPT VALUES (9, 'Ghost', 'NOWHERE')")
        result = simple_db.query(
            "SELECT d.dname FROM DEPT d WHERE 0 = "
            "(SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno)")
        assert result.rows == [("Ghost",)]

    def test_no_fire_when_scalar_in_head(self, simple_db):
        # In the head an empty group must surface as NULL, which only
        # the nested form produces.
        _graph, context = rewrite(
            simple_db,
            "SELECT d.dname, (SELECT MAX(e.sal) FROM EMP e "
            "WHERE e.edno = d.dno) FROM DEPT d")
        assert context.applications.get("ScalarAggToJoin", 0) == 0

    def test_head_scalar_yields_null_for_empty_group(self, simple_db):
        simple_db.execute("INSERT INTO DEPT VALUES (9, 'Ghost', 'NOWHERE')")
        result = simple_db.query(
            "SELECT d.dname, (SELECT MAX(e.sal) FROM EMP e "
            "WHERE e.edno = d.dno) FROM DEPT d ORDER BY d.dno")
        assert result.rows == [("Tools", 100), ("Apps", 120),
                               ("DB", 200), ("Ghost", None)]

    def test_no_fire_on_is_null_usage(self, simple_db):
        # IS NULL is satisfied by the empty group: not null-rejecting.
        _graph, context = rewrite(
            simple_db,
            "SELECT d.dname FROM DEPT d WHERE "
            "(SELECT MAX(e.sal) FROM EMP e WHERE e.edno = d.dno) "
            "IS NULL")
        assert context.applications.get("ScalarAggToJoin", 0) == 0

    def test_no_fire_on_non_equality_correlation(self, simple_db):
        _graph, context = rewrite(
            simple_db,
            "SELECT e.ename FROM EMP e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM EMP e2 WHERE e2.eno <> e.eno)")
        assert context.applications.get("ScalarAggToJoin", 0) == 0

    def test_non_equality_nested_execution_correct(self, simple_db):
        result = simple_db.query(
            "SELECT e.ename FROM EMP e WHERE e.sal > "
            "(SELECT AVG(e2.sal) FROM EMP e2 WHERE e2.eno <> e.eno) "
            "ORDER BY e.eno")
        # avg of the other four salaries, per employee.
        assert result.rows == [("dee",), ("eve",)]

    def test_uncorrelated_scalar_untouched(self, simple_db):
        graph, context = rewrite(
            simple_db,
            "SELECT ename FROM EMP WHERE sal > "
            "(SELECT AVG(sal) FROM EMP)")
        assert context.applications.get("ScalarAggToJoin", 0) == 0
        box = top_box(graph)
        assert any(q.qtype == Quantifier.S for q in box.body_quantifiers)


# ----------------------------------------------------------------------
# PruneColumns as a rule
# ----------------------------------------------------------------------
class TestPruneColumnsRule:
    def test_prune_participates_in_fixpoint(self, simple_db):
        _graph, context = rewrite(
            simple_db,
            "SELECT x.eno FROM (SELECT eno, ename, sal FROM EMP "
            "LIMIT 3) x")
        assert context.applications.get("PruneColumns", 0) >= 1
        assert context.pruned_columns == 2

    def test_prune_counts_surface_in_compile(self, simple_db):
        compiled = simple_db.engine.pipeline.compile_select(parse_statement(
            "SELECT x.eno FROM (SELECT eno, ename, sal FROM EMP "
            "LIMIT 3) x"))
        assert compiled.pruned_columns == 2
        assert compiled.rewrite_context.applications.get(
            "PruneColumns", 0) >= 1


# ----------------------------------------------------------------------
# Golden before/after canonical dumps
# ----------------------------------------------------------------------
class TestGoldenDumps:
    def test_scalar_decorrelation_golden(self, simple_db):
        statement = parse_statement(SCALAR_AVG_SQL)
        before = simple_db.engine.pipeline.compiler.build_select(statement)
        before_dump = canonical_dump(before)
        assert "q1 S -> b3" in before_dump          # the S quantifier
        assert "keys: []" in before_dump            # ungrouped aggregate

        graph, _context = rewrite(simple_db, SCALAR_AVG_SQL)
        after = canonical_dump(graph)
        assert after == "\n".join([
            "output RESULT [table] -> b1",
            "b1 select",
            "  q0 F -> b2",
            "  q1 F -> b3",
            "  head: ENAME=q0.ENAME",
            "  pred: (q0.EDNO = q1.CK1)",
            "  pred: (q0.SAL > q1.AVG1)",
            "b2 base EMP",
            "b3 groupby",
            "  q2 F -> b4",
            "  head: CK1=q2.EDNO, AVG1",
            "  keys: [q2.EDNO]",
            "  agg AVG1 = AVG(q2.SAL)",
            "b4 select",
            "  q3 F -> b2",
            "  head: SAL=q3.SAL, EDNO=q3.EDNO",
        ])

    def test_canonical_dump_stable_across_compiles(self, simple_db):
        sql = ("SELECT e.ename FROM EMP e, DEPT d "
               "WHERE e.edno = d.dno AND d.loc = 'ARC'")
        first, _c1 = rewrite(simple_db, sql)
        second, _c2 = rewrite(simple_db, sql)
        assert canonical_dump(first) == canonical_dump(second)

    def test_view_vs_inline_converge(self, simple_db):
        simple_db.execute(
            "CREATE VIEW arc_emp AS SELECT e.eno, e.ename FROM EMP e, "
            "DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'")
        through_view, _c = rewrite(
            simple_db, "SELECT v.ename FROM arc_emp v WHERE v.eno > 10")
        inlined, _c = rewrite(
            simple_db,
            "SELECT v.ename FROM (SELECT e.eno, e.ename FROM EMP e, "
            "DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC') v "
            "WHERE v.eno > 10")
        assert canonical_dump(through_view) == canonical_dump(inlined)
