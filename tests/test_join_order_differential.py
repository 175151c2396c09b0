"""Plan-equivalence differential harness for join-order enumeration.

Cost choices may change *speed*, never *answers*: for each query in a
seeded org/BOM workload the harness captures the join fan the planner
enumerated (via ``PlannerOptions.join_order_hook``), then forces every
permutation of that fan through the hook and asserts each forced plan
returns the same multiset of rows as the planner's own choice.

The hook is debug-only and deliberately outside the plan-cache options
signature, so every forced compile here goes through the *uncached*
``compile_select`` path.  Queries use explicit FROM aliases: alias
names are the quantifier names the hook sees, and (unlike generated
``q<n>`` names) they are stable across compiles.

Tier-1 sweeps a fixed query list; ``REPRO_DIFF_SEEDS=<n>`` adds ``n``
seeds of randomly generated join queries, like the other differential
suites.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from itertools import permutations

import pytest

from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement

#: Join fans beyond this many sources are spot-checked (all rotations)
#: instead of fully enumerated, to keep the sweep bounded.
FULL_ENUMERATION_LIMIT = 4

ORG_QUERIES = [
    # Two-way FK join with a filter on either side.
    "SELECT d.dname, e.ename FROM DEPT d, EMP e "
    "WHERE d.dno = e.edno AND d.loc = 'ARC'",
    "SELECT d.dname, e.ename FROM DEPT d, EMP e "
    "WHERE d.dno = e.edno AND e.sal > 50",
    # Three-way chain through the association table.
    "SELECT e.ename, s.sname FROM EMP e, EMPSKILLS es, SKILLS s "
    "WHERE es.eseno = e.eno AND es.essno = s.sno",
    # Four-way: department -> employee -> skills, filtered.
    "SELECT d.dname, e.ename, s.sname "
    "FROM DEPT d, EMP e, EMPSKILLS es, SKILLS s "
    "WHERE d.dno = e.edno AND es.eseno = e.eno AND es.essno = s.sno "
    "AND d.loc = 'ARC'",
    # Mixed: an equi-join fan with one cross-joined source.
    "SELECT d.dname, s.sname FROM DEPT d, EMP e, SKILLS s "
    "WHERE d.dno = e.edno AND e.sal > 100",
    # Aggregation on top of a join fan.
    "SELECT d.dname, COUNT(e.eno) FROM DEPT d, EMP e "
    "WHERE d.dno = e.edno GROUP BY d.dname",
]

BOM_QUERIES = [
    "SELECT p.pname, c.qty, q.pname "
    "FROM PART p, CONTAINS c, PART q "
    "WHERE c.parent = p.pno AND c.child = q.pno",
    "SELECT p.pname, c.qty FROM PART p, CONTAINS c "
    "WHERE c.parent = p.pno AND p.kind = 'assembly'",
]


def _pipeline(db, order=None, capture=None):
    """A fresh uncached pipeline whose hook forces ``order`` (when the
    fan matches) and records every fan it is consulted about."""

    def hook(names):
        if capture is not None:
            capture.append(tuple(names))
        if order is not None and sorted(names) == sorted(order):
            return list(order)
        return None

    options = PipelineOptions(planner=PlannerOptions(
        join_order_hook=hook))
    return QueryPipeline(db.engine.catalog, db.engine.stats, options,
                         db.engine.pipeline.xnf_component_resolver)


def _run(db, sql, order=None, capture=None):
    pipeline = _pipeline(db, order=order, capture=capture)
    compiled = pipeline.compile_select(parse_statement(sql))
    return pipeline.run_compiled(compiled)


def _orders_to_force(names):
    if len(names) <= FULL_ENUMERATION_LIMIT:
        return list(permutations(names))
    return [names[i:] + names[:i] for i in range(len(names))]


def assert_order_independent(db, sql):
    """The core differential check for one query."""
    fans: list[tuple] = []
    baseline = _run(db, sql, capture=fans)
    expected = Counter(baseline.rows)
    forced_any = False
    for fan in set(fans):
        if len(fan) < 2:
            continue
        for order in _orders_to_force(list(fan)):
            result = _run(db, sql, order=list(order))
            assert Counter(result.rows) == expected, (
                f"forced join order {order} changed the answer of "
                f"{sql!r}"
            )
            forced_any = True
    return forced_any


class TestForcedOrdersOrg:
    @pytest.mark.parametrize("sql", ORG_QUERIES)
    def test_every_order_same_rows(self, org_db, sql):
        assert assert_order_independent(org_db, sql)


class TestForcedOrdersBom:
    @pytest.mark.parametrize("sql", BOM_QUERIES)
    def test_every_order_same_rows(self, bom_db, sql):
        db, _info = bom_db
        assert assert_order_independent(db, sql)


class TestHookContract:
    def test_hook_sees_alias_names(self, org_db):
        fans: list[tuple] = []
        _run(org_db,
             "SELECT d.dname, e.ename FROM DEPT d, EMP e "
             "WHERE d.dno = e.edno", capture=fans)
        assert ("d", "e") in {tuple(sorted(fan)) for fan in fans}

    def test_bad_permutation_rejected(self, org_db):
        from repro.errors import PlanningError
        options = PipelineOptions(planner=PlannerOptions(
            join_order_hook=lambda names: ["d", "GHOST"]))
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options,
                                 org_db.engine.pipeline.xnf_component_resolver)
        with pytest.raises(PlanningError):
            pipeline.compile_select(parse_statement(
                "SELECT d.dname, e.ename FROM DEPT d, EMP e "
                "WHERE d.dno = e.edno AND d.loc = 'ARC'"))

    def test_forced_order_recorded_in_plan(self, org_db):
        pipeline = _pipeline(org_db, order=["e", "d"])
        compiled = pipeline.compile_select(parse_statement(
            "SELECT d.dname, e.ename FROM DEPT d, EMP e "
            "WHERE d.dno = e.edno"))
        records = compiled.plan.join_orders
        assert any(r.method == "forced" and r.names == ("e", "d")
                   for r in records)


# ----------------------------------------------------------------------
# Seeded random sweep (REPRO_DIFF_SEEDS widens it, like the other
# differential suites)
# ----------------------------------------------------------------------
#: (child, fk column, parent, pk column) edges the generator joins on.
ORG_EDGES = [
    ("EMP", "EDNO", "DEPT", "DNO"),
    ("PROJ", "PDNO", "DEPT", "DNO"),
    ("EMPSKILLS", "ESENO", "EMP", "ENO"),
    ("EMPSKILLS", "ESSNO", "SKILLS", "SNO"),
    ("PROJSKILLS", "PSPNO", "PROJ", "PNO"),
    ("PROJSKILLS", "PSSNO", "SKILLS", "SNO"),
]
FILTERS = {
    "DEPT": ["loc = 'ARC'", "dno > 2"],
    "EMP": ["sal > 80", "sal < 160"],
    "PROJ": ["budget > 50"],
    "SKILLS": ["level > 1", "level < 9"],
}


def random_join_query(rng: random.Random) -> str:
    """A connected 2-4 way join over the org FK graph, with aliases."""
    edges = rng.sample(ORG_EDGES, k=rng.randint(1, 2))
    alias_of: dict[str, str] = {}
    conditions: list[str] = []

    def alias(table: str) -> str:
        if table not in alias_of:
            alias_of[table] = f"T{len(alias_of)}"
        return alias_of[table]

    for child, fk, parent, pk in edges:
        conditions.append(
            f"{alias(child)}.{fk} = {alias(parent)}.{pk}")
    for table, name in list(alias_of.items()):
        choices = FILTERS.get(table, [])
        if choices and rng.random() < 0.5:
            conditions.append(f"{name}.{rng.choice(choices)}")
    head = ", ".join(f"{name}.{'*'}" for name in alias_of.values())
    from_clause = ", ".join(f"{table} {name}"
                            for table, name in alias_of.items())
    return (f"SELECT {head} FROM {from_clause} "
            f"WHERE {' AND '.join(conditions)}")


def seed_range():
    count = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return range(count)


# Tier-1 runs the single fixed seed 0; REPRO_DIFF_SEEDS=<n> sweeps n.
@pytest.mark.parametrize("seed", list(seed_range()) or [0])
def test_random_query_sweep(org_db, seed):
    rng = random.Random(19940328 + seed)
    for _ in range(5):
        sql = random_join_query(rng)
        assert_order_independent(org_db, sql)
