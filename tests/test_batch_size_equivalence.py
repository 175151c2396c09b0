"""Batch-size equivalence.

Property-style guarantee for the batch executor: for every query shape
the executor suite exercises, executing one compiled plan with batch
sizes 1, 2, 7 and the default returns exactly the same rows (same
order), and the ``ExecutionContext`` instrumentation counters agree.
``batch_size=1`` is the reference run: one row per batch, the finest
granularity the protocol has.

Counters are bumped at batch granularity, so a pipeline that stops
early (LIMIT without a total-order barrier underneath) may scan up to
one extra batch at larger sizes; counters are therefore compared for
every query whose pipeline runs to completion.  The SQLite
differential suite is the independent oracle for the rows themselves.
"""

from __future__ import annotations

import pytest

from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement
from repro.xnf.result import XNFExecutable

#: (sql, runs_to_completion) — the second flag is False only for
#: LIMIT-style queries that may abandon a pipeline mid-batch, where
#: larger-batch counters legitimately over-count.
QUERIES = [
    # Projection / filter.
    ("SELECT * FROM DEPT ORDER BY dno", True),
    ("SELECT sal * 2 FROM EMP WHERE eno = 10", True),
    ("SELECT ename FROM EMP WHERE sal >= 150 ORDER BY ename", True),
    ("SELECT ename FROM EMP WHERE edno = 1 OR edno <> 1 ORDER BY 1", True),
    ("SELECT ename FROM EMP WHERE edno IS NULL", True),
    ("SELECT ename FROM EMP WHERE edno IS NOT NULL AND sal < 150", True),
    ("SELECT 1 + 1 AS two", True),
    ("SELECT ename FROM EMP WHERE sal BETWEEN 100 AND 150 ORDER BY 1", True),
    ("SELECT ename FROM EMP WHERE ename LIKE 'a%'", True),
    ("SELECT ename FROM EMP WHERE edno IN (1, 3) ORDER BY 1", True),
    ("SELECT ename FROM EMP WHERE edno NOT IN (1, 3) ORDER BY 1", True),
    ("SELECT UPPER(ename) FROM EMP WHERE LENGTH(ename) = 3 ORDER BY 1",
     True),
    # Constant-foldable predicates and projections.
    ("SELECT eno FROM EMP WHERE 1 + 1 = 2 ORDER BY eno", True),
    ("SELECT eno FROM EMP WHERE 1 > 2", True),
    ("SELECT 2 * 3 + 1, UPPER('x') FROM DEPT", True),
    # Joins.
    ("SELECT d.dname, e.ename FROM DEPT d, EMP e "
     "WHERE d.dno = e.edno ORDER BY e.eno", True),
    ("SELECT e.ename FROM EMP e JOIN DEPT d ON d.dno = e.edno "
     "WHERE d.loc = 'ARC' ORDER BY 1", True),
    ("SELECT * FROM DEPT CROSS JOIN EMP", True),
    ("SELECT d.dname, e.ename FROM DEPT d "
     "LEFT JOIN EMP e ON d.dno = e.edno AND e.sal > 150 ORDER BY d.dno",
     True),
    ("SELECT a.ename, b.ename FROM EMP a, EMP b "
     "WHERE a.edno = b.edno AND a.eno < b.eno", True),
    # Subqueries (semi/anti joins, scalar subqueries).
    ("SELECT ename FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d "
     "WHERE d.dno = e.edno AND d.loc = 'ARC') ORDER BY 1", True),
    ("SELECT ename FROM EMP e WHERE NOT EXISTS (SELECT 1 FROM DEPT d "
     "WHERE d.dno = e.edno) ORDER BY 1", True),
    ("SELECT ename FROM EMP WHERE edno IN "
     "(SELECT dno FROM DEPT WHERE loc = 'SF')", True),
    ("SELECT ename FROM EMP WHERE edno NOT IN "
     "(SELECT dno FROM DEPT WHERE loc = 'ARC') ORDER BY 1", True),
    ("SELECT ename FROM EMP WHERE sal = (SELECT MAX(sal) FROM EMP)", True),
    ("SELECT ename FROM EMP e WHERE sal >= (SELECT AVG(e2.sal) FROM EMP e2 "
     "WHERE e2.edno = e.edno) ORDER BY 1", True),
    # Aggregation.
    ("SELECT COUNT(*), SUM(sal), MIN(sal), MAX(sal) FROM EMP", True),
    ("SELECT COUNT(edno) FROM EMP", True),
    ("SELECT COUNT(*), SUM(sal) FROM EMP WHERE sal > 9999", True),
    ("SELECT loc, COUNT(*) FROM DEPT GROUP BY loc ORDER BY loc", True),
    ("SELECT d.loc, SUM(e.sal) FROM DEPT d, EMP e "
     "WHERE d.dno = e.edno GROUP BY d.loc ORDER BY 1", True),
    ("SELECT edno, COUNT(*) AS n FROM EMP GROUP BY edno "
     "HAVING COUNT(*) > 1", True),
    ("SELECT COUNT(DISTINCT loc) FROM DEPT", True),
    # DISTINCT / ORDER BY / LIMIT.
    ("SELECT DISTINCT loc FROM DEPT ORDER BY loc", True),
    ("SELECT ename FROM EMP ORDER BY sal DESC LIMIT 2", True),
    ("SELECT eno FROM EMP ORDER BY eno LIMIT 2 OFFSET 1", True),
    ("SELECT eno FROM EMP LIMIT 3", False),
    ("SELECT d.dname, e.ename FROM DEPT d, EMP e "
     "WHERE d.dno = e.edno LIMIT 2", False),
    ("SELECT edno FROM EMP ORDER BY edno", True),
    # Set operations.
    ("SELECT loc FROM DEPT UNION SELECT loc FROM DEPT", True),
    ("SELECT loc FROM DEPT UNION ALL SELECT loc FROM DEPT", True),
    ("SELECT dno FROM DEPT INTERSECT SELECT edno FROM EMP", True),
    ("SELECT eno FROM EMP EXCEPT SELECT eno FROM EMP WHERE sal > 100",
     True),
    # CASE.
    ("SELECT ename, CASE WHEN sal >= 150 THEN 'high' ELSE 'low' END "
     "FROM EMP ORDER BY eno", True),
    ("SELECT ename FROM EMP WHERE "
     "CASE WHEN edno IS NULL THEN 0 ELSE edno END = 0", True),
]

ORG_QUERIES = [
    ("SELECT COUNT(*) FROM DEPT d, EMP e, EMPSKILLS es "
     "WHERE d.dno = e.edno AND e.eno = es.eseno AND d.loc = 'ARC'", True),
    ("SELECT d.dname, p.pname FROM DEPT d, PROJ p "
     "WHERE d.dno = p.pdno AND d.loc = 'ARC' ORDER BY p.pno", True),
    ("SELECT s.sname, COUNT(*) FROM SKILLS s, EMPSKILLS es "
     "WHERE s.sno = es.essno GROUP BY s.sname ORDER BY 1", True),
]


def run_sizes(db, sql):
    """Compile once; execute at batch sizes 1 (the reference), 2, 7
    and the planner's default.  Returns [(batch_size, rows, counters)]
    in that order."""
    compiled = db.engine.pipeline.compile_select(parse_statement(sql))
    plan = compiled.plan
    default = plan.batch_size
    runs = []
    for batch_size in (1, 2, 7, default):
        plan.batch_size = batch_size
        try:
            ctx = plan.new_context()
            result = db.engine.pipeline.run_compiled(compiled, ctx)
        finally:
            plan.batch_size = default
        runs.append((batch_size, result.rows, dict(ctx.counters)))
    return runs


def assert_sizes_agree(db, sql, complete):
    (_one, reference_rows, reference_counters), *others = run_sizes(db, sql)
    for batch_size, rows, counters in others:
        assert rows == reference_rows, f"batch_size={batch_size}"
        if complete:
            assert counters == reference_counters, f"batch_size={batch_size}"


@pytest.mark.parametrize("sql,complete", QUERIES,
                         ids=[q[:56] for q, _c in QUERIES])
def test_simple_db_equivalence(simple_db, sql, complete):
    assert_sizes_agree(simple_db, sql, complete)


@pytest.mark.parametrize("sql,complete", ORG_QUERIES,
                         ids=[q[:56] for q, _c in ORG_QUERIES])
def test_org_db_equivalence(org_db, sql, complete):
    assert_sizes_agree(org_db, sql, complete)


def test_xnf_view_equivalence(org_db):
    """The multi-output XNF pipeline (spools included) agrees between
    ``batch_size=1`` and the default, stream by stream, counters
    included."""
    results = {}
    for label, options in (("one", PlannerOptions(batch_size=1)),
                           ("default", PlannerOptions())):
        executable = XNFExecutable(
            org_db.xnf_executable("deps_arc").translated,
            org_db.engine.catalog, org_db.engine.stats, options)
        results[label] = executable.run()
    one_co, default_co = results["one"], results["default"]
    assert set(one_co.components) == set(default_co.components)
    for name in one_co.components:
        assert one_co.component(name).rows == \
            default_co.component(name).rows
        assert one_co.component(name).oids == \
            default_co.component(name).oids
    for name in one_co.relationships:
        assert one_co.relationship(name).connections == \
            default_co.relationship(name).connections
    assert one_co.counters == default_co.counters


def test_batch_size_sweep(simple_db):
    """Row stream identical across pathological batch sizes."""
    sql = ("SELECT d.dname, e.ename FROM DEPT d, EMP e "
           "WHERE d.dno = e.edno AND e.sal > 90 ORDER BY e.eno")
    compiled = simple_db.engine.pipeline.compile_select(parse_statement(sql))
    plan = compiled.plan
    plan.batch_size = 1
    reference = simple_db.engine.pipeline.run_compiled(
        compiled, plan.new_context()).rows
    for batch_size in (2, 3, 7, 1024):
        plan.batch_size = batch_size
        got = simple_db.engine.pipeline.run_compiled(
            compiled, plan.new_context()).rows
        assert got == reference, f"batch_size={batch_size}"


def test_scalar_subqueries_run_at_the_plan_batch_size(simple_db):
    """Scalar subquery plans run at the outer plan's batch width, so the
    ``batch_size=1`` reference covers them too."""
    sql = "SELECT ename FROM EMP WHERE sal = (SELECT MAX(sal) FROM EMP)"
    compiled = simple_db.engine.pipeline.compile_select(parse_statement(sql))
    plan = compiled.plan
    assert plan.scalar_plans
    seen = []
    for node in plan.scalar_plans.values():
        def spy(ctx, batch_size, _run=node.execute_batches):
            seen.append(batch_size)
            return _run(ctx, batch_size)
        node.execute_batches = spy
    default = plan.batch_size
    for batch_size in (1, 7, default):
        plan.batch_size = batch_size
        try:
            simple_db.engine.pipeline.run_compiled(compiled, plan.new_context())
        finally:
            plan.batch_size = default
    assert seen == [1, 7, default]
