"""Differential oracle for the rewrite layer: rewritten == unrewritten.

Every query runs through two engines over identical data — one with the
full rule catalog, one with ``apply_nf_rewrite=False`` — and the row
multisets must match.  The generator is biased toward the new rules'
territory: join + constant equalities (ConstProp), self-joins and FK
parent joins (JoinElim), stacked/dual view references (ViewMerge), and
correlated scalar aggregates (ScalarAggToJoin), so any soundness slip
in a rule shows up as a result difference.  A fixed set of view shapes
ViewMerge must deep-copy (GROUP BY, LEFT OUTER JOIN and set-operation
bodies), a predicate over a UNION view (SetOpPushdown), a TRUE
conjunct the statement wrote (DropTrue), and DISTINCT queries whose
Dedup the planner keeps or drops are also checked against SQLite.

Tier-1 runs one fixed seed; ``REPRO_DIFF_SEEDS=<n>`` sweeps ``n``
additional seeds (the CI rewrite-bench job widens it).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions
from repro.qgm.clone import _Cloner
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org
from tests.test_differential_sqlite import mirror_to_sqlite

VIEW_DDL = (
    "CREATE VIEW V_EMP_DEPT AS SELECT e.eno, e.ename, e.sal, e.edno, "
    "d.dname, d.loc FROM EMP e, DEPT d WHERE e.edno = d.dno",
    "CREATE VIEW V_EMP_RICH AS SELECT eno, ename, sal, loc "
    "FROM V_EMP_DEPT WHERE sal > 10",
)

#: Views whose bodies only a deep copy can specialize per consumer:
#: ViewMerge clones a GROUP BY, an outer join and (under a selection
#: view) a UNION; a predicate over the UNION view pushes into its arms.
SHAPE_VIEW_DDL = (
    "CREATE VIEW V_DEPT_PAY AS SELECT edno, COUNT(*) AS n, "
    "SUM(sal) AS total FROM EMP GROUP BY edno",
    "CREATE VIEW V_DEPT_EMP AS SELECT d.dno, d.dname, e.eno, e.sal "
    "FROM DEPT d LEFT OUTER JOIN EMP e ON e.edno = d.dno",
    "CREATE VIEW V_PEOPLE AS SELECT eno AS id, ename AS name FROM EMP "
    "UNION SELECT pno AS id, pname AS name FROM PROJ",
    "CREATE VIEW V_NAMED AS SELECT id, name FROM V_PEOPLE WHERE id > 2",
)

#: (query, the cloner method or rule it must reach)
SHAPE_QUERIES = (
    ("SELECT a.edno, a.total FROM V_DEPT_PAY a, V_DEPT_PAY b "
     "WHERE a.edno = b.edno AND b.n > 1", "_clone_groupby"),
    ("SELECT a.dname, a.eno FROM V_DEPT_EMP a, V_DEPT_EMP b "
     "WHERE a.dno = b.dno AND a.eno = b.eno", "_clone_outer_join"),
    ("SELECT a.name FROM V_NAMED a, V_NAMED b "
     "WHERE a.id = b.id AND b.id > 3", "_clone_setop"),
    ("SELECT id, name FROM V_PEOPLE WHERE id > 2", "SetOpPushdown"),
    # The parser yields Literal(True); the builder keeps it for the rule.
    ("SELECT e.eno, d.dname FROM EMP e, DEPT d "
     "WHERE TRUE AND e.edno = d.dno AND e.sal > 10", "DropTrue"),
    ("SELECT eno FROM EMP WHERE TRUE", "DropTrue"),
)

#: A table with a nullable UNIQUE column holding two NULL rows.
BADGE_DDL = (
    "CREATE TABLE BADGE (BNO INT PRIMARY KEY, CODE INT, HOLDER INT)",
    "CREATE UNIQUE INDEX IX_BADGE_CODE ON BADGE (CODE)",
    "INSERT INTO BADGE VALUES (1, NULL, 1), (2, NULL, 2), (3, 7, 3)",
)

#: (query, whether its plan keeps a Dedup): DISTINCT is enforced unless
#: the head carries, for every F quantifier, its RID or a NOT NULL
#: unique column set.
DISTINCT_QUERIES = (
    # One F quantifier's key (DEPT's) is not enough.
    ("SELECT DISTINCT d.dno, d.dname FROM DEPT d, EMP e "
     "WHERE e.edno = d.dno", True),
    # Two rows with a NULL in a UNIQUE column repeat.
    ("SELECT DISTINCT code FROM BADGE", True),
    # An E quantifier over EMP (E2F turns it into a join under DISTINCT).
    ("SELECT DISTINCT d.dno FROM DEPT d WHERE EXISTS "
     "(SELECT 1 FROM EMP e WHERE e.edno = d.dno)", True),
    # A join with a residual (the probe's folded local filter).
    ("SELECT DISTINCT d.dno, d.dname FROM DEPT d, EMP e "
     "WHERE e.edno = d.dno AND d.loc = 'ARC' AND e.sal > 20", True),
    # A scalar subquery in the head.
    ("SELECT DISTINCT e.eno, (SELECT MAX(sal) FROM EMP) FROM EMP e",
     True),
    # Every F quantifier's key in the head: no Dedup.
    ("SELECT DISTINCT e.eno, d.dno FROM DEPT d, EMP e "
     "WHERE e.edno = d.dno", False),
    ("SELECT DISTINCT e.eno, d.dno FROM DEPT d, EMP e "
     "WHERE e.edno = d.dno AND d.loc = 'ARC' AND e.sal > 20", False),
    ("SELECT DISTINCT bno, code FROM BADGE", False),
)

BOM_VIEW_DDL = (
    "CREATE VIEW V_ASSEMBLY AS SELECT p.pno, p.pname, p.cost, c.child, "
    "c.qty FROM PART p, CONTAINS c WHERE c.parent = p.pno",
)


def build_pair(seed: int) -> tuple[Session, Session]:
    databases = []
    for rewrite in (True, False):
        db = Engine(PipelineOptions(apply_nf_rewrite=rewrite)).connect()
        create_org_schema(db.engine.catalog)
        populate_org(db.engine.catalog, OrgScale(
            departments=8, employees_per_dept=4, projects_per_dept=3,
            skills=12, skills_per_employee=2, skills_per_project=2,
            arc_fraction=0.3, seed=seed,
        ))
        for ddl in VIEW_DDL:
            db.execute(ddl)
        databases.append(db)
    return databases[0], databases[1]


def build_bom_pair(seed: int) -> tuple[Session, Session]:
    databases = []
    for rewrite in (True, False):
        db = Engine(PipelineOptions(apply_nf_rewrite=rewrite)).connect()
        create_bom_schema(db.engine.catalog)
        populate_bom(db.engine.catalog, BOMScale(roots=2, depth=3, fanout=3,
                                                 seed=seed))
        for ddl in BOM_VIEW_DDL:
            db.execute(ddl)
        databases.append(db)
    return databases[0], databases[1]


def org_queries(rng: random.Random) -> list[str]:
    dno = rng.randint(1, 8)
    sal = rng.randint(10, 120)
    eno = rng.randint(1, 32)
    return [
        # ConstProp territory: join + constant equality chains.
        f"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno "
        f"AND d.dno = {dno}",
        f"SELECT e.ename, p.pname FROM EMP e, DEPT d, PROJ p "
        f"WHERE e.edno = d.dno AND p.pdno = d.dno AND d.dno = {dno}",
        # JoinElim: self-join on the primary key.
        f"SELECT a.ename FROM EMP a, EMP b WHERE a.eno = b.eno "
        f"AND b.sal > {sal}",
        # JoinElim: FK parent join (EMPSKILLS.ESENO non-nullable).
        "SELECT es.essno FROM EMPSKILLS es, EMP e WHERE es.eseno = e.eno",
        # ...and the guarded nullable-FK case that must NOT fire.
        "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno",
        # ViewMerge: dual reference plus a view stack.
        f"SELECT a.ename FROM V_EMP_DEPT a, V_EMP_DEPT b "
        f"WHERE a.eno = b.eno AND b.sal > {sal}",
        f"SELECT ename, sal FROM V_EMP_RICH WHERE eno = {eno}",
        f"SELECT loc, sal FROM V_EMP_RICH WHERE sal > {sal}",
        # ScalarAggToJoin: correlated aggregate in a comparison.
        "SELECT e.ename FROM EMP e WHERE e.sal > "
        "(SELECT AVG(e2.sal) FROM EMP e2 WHERE e2.edno = e.edno)",
        f"SELECT d.dname FROM DEPT d WHERE {sal} < "
        f"(SELECT MAX(e.sal) FROM EMP e WHERE e.edno = d.dno)",
        # No-fire shapes served by nested execution in both engines.
        "SELECT d.dname, (SELECT MIN(e.sal) FROM EMP e "
        "WHERE e.edno = d.dno) FROM DEPT d",
        f"SELECT d.dname FROM DEPT d WHERE {rng.randint(0, 2)} < "
        f"(SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno)",
        # EXISTS/E2F interplay with the new rules.
        f"SELECT s.sname FROM SKILLS s WHERE EXISTS "
        f"(SELECT 1 FROM EMPSKILLS es, EMP e WHERE es.essno = s.sno "
        f"AND es.eseno = e.eno AND e.edno = {dno})",
    ]


def bom_queries(rng: random.Random) -> list[str]:
    cost = rng.randint(1, 80)
    return [
        # FK parent join over the BOM mapping table.
        "SELECT c.child, c.qty FROM CONTAINS c, PART p "
        "WHERE c.parent = p.pno",
        f"SELECT p.pname FROM PART p, CONTAINS c "
        f"WHERE c.parent = p.pno AND p.cost > {cost}",
        # Self-join elimination on PART.
        f"SELECT a.pname FROM PART a, PART b WHERE a.pno = b.pno "
        f"AND b.cost > {cost}",
        # View over the assembly join, referenced twice.
        f"SELECT a.pname FROM V_ASSEMBLY a, V_ASSEMBLY b "
        f"WHERE a.pno = b.pno AND a.cost > {cost}",
        # Correlated aggregate: parts costlier than their average child.
        "SELECT p.pname FROM PART p WHERE p.cost > "
        "(SELECT AVG(p2.cost) FROM PART p2, CONTAINS c2 "
        "WHERE c2.child = p2.pno AND c2.parent = p.pno)",
    ]


def assert_equivalent(rewritten: Session, raw: Session,
                      queries: list[str]) -> None:
    for sql in queries:
        left = sorted(rewritten.query(sql).rows)
        right = sorted(raw.query(sql).rows)
        assert left == right, f"rewrite changed the result of: {sql}"


def sweep(seed: int) -> None:
    rng = random.Random(seed)
    rewritten, raw = build_pair(seed)
    assert_equivalent(rewritten, raw, org_queries(rng))
    bom_rewritten, bom_raw = build_bom_pair(seed)
    assert_equivalent(bom_rewritten, bom_raw, bom_queries(rng))


def test_rewrite_differential_fixed_seed():
    sweep(1994)


@pytest.fixture(scope="module")
def shape_trio():
    """Rewritten and raw engines plus SQLite, all holding the shape
    views."""
    rewritten, raw = build_pair(1994)
    conn = mirror_to_sqlite(raw)
    for ddl in SHAPE_VIEW_DDL:
        rewritten.execute(ddl)
        raw.execute(ddl)
        conn.execute(ddl)
    yield rewritten, raw, conn
    conn.close()


@pytest.mark.parametrize("sql,reaches", SHAPE_QUERIES,
                         ids=[reaches for _sql, reaches in SHAPE_QUERIES])
def test_view_shape_matches_sqlite(shape_trio, monkeypatch, sql, reaches):
    rewritten, raw, conn = shape_trio
    calls = []
    for method in ("_clone_groupby", "_clone_outer_join", "_clone_setop"):
        original = getattr(_Cloner, method)

        def spy(self, box, _original=original, _method=method):
            calls.append(_method)
            return _original(self, box)
        monkeypatch.setattr(_Cloner, method, spy)
    expected = sorted(conn.execute(sql).fetchall())
    assert sorted(rewritten.query(sql).rows) == expected
    assert sorted(raw.query(sql).rows) == expected
    if reaches.startswith("_clone"):
        assert reaches in calls
    else:
        assert f"'{reaches}'" in rewritten.explain(sql)


@pytest.fixture(scope="module")
def distinct_trio():
    """Rewritten and raw engines plus SQLite, all holding BADGE."""
    rewritten, raw = build_pair(1994)
    for ddl in BADGE_DDL:
        rewritten.execute(ddl)
        raw.execute(ddl)
    conn = mirror_to_sqlite(raw)
    yield rewritten, raw, conn
    conn.close()


@pytest.mark.parametrize("sql,dedup", DISTINCT_QUERIES)
def test_distinct_matches_sqlite(distinct_trio, sql, dedup):
    rewritten, raw, conn = distinct_trio
    expected = sorted(conn.execute(sql).fetchall(), key=repr)
    assert sorted(rewritten.query(sql).rows, key=repr) == expected
    assert sorted(raw.query(sql).rows, key=repr) == expected
    plan = rewritten.explain(sql).split("-- plan --")[1]
    assert ("Dedup" in plan) == dedup, plan


def extra_seeds() -> list[int]:
    count = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [2000 + i for i in range(count)]


@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_rewrite_differential_extended(seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    sweep(seed)
