"""Prepared statements + plan cache vs full recompilation: the A/B.

The ISSUE-3 tentpole claim: repeated point lookups and navigation
queries spend most of their wall-clock re-deriving the same plan
through parse -> QGM -> rewrite -> optimize, so a parameterized plan
cache ("compile once, execute many", Starburst's stored-plan stance)
must lift repeated-query throughput by at least 5x.

Methodology: each workload runs the same query mix against two
identically populated databases — one with the default plan cache, one
with ``plan_cache_size=0`` (every statement recompiles) — under a
best-of-N harness (N timed repetitions, fastest wins, so scheduler
noise can only *hurt* the reported speedup).  Result equality between
the two engines is asserted on every query, so the benchmark doubles
as an end-to-end soundness check.  Results land in
``BENCH_plan_cache.json`` at the repository root under
``REPRO_BENCH_WRITE=1``.  No wall-clock bound is asserted by its test
(the ratios move with machine load): each test asserts equal results
and records its unrounded ``speedup`` with its ``floor``; the CI
``plan-cache-bench`` job fails the build when a recorded speedup is
below its floor (``tools/check_bench.py``).  ``dml_update_adhoc``
(literal-text UPDATE variants through the statement front end) has a
floor of 1.0: the front end must not make them slower.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions
from repro.workloads.oo1 import OO1Scale, create_oo1_schema, populate_oo1
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

#: Acceptance floor for cached-vs-uncached repeated point queries.
REQUIRED_SPEEDUP = 5.0

#: Timed repetitions; the fastest one is reported.
BEST_OF = 3

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_plan_cache.json"

_results: dict[str, dict] = {}

ORG_SCALE = OrgScale(departments=20, employees_per_dept=10,
                     projects_per_dept=4, skills=40,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.25, seed=1994)

OO1_SCALE = OO1Scale(parts=400, fanout=3, seed=1994)


def build_org(cache_enabled: bool) -> Session:
    options = PipelineOptions()
    if not cache_enabled:
        options.plan_cache_size = 0
    db = Engine(options).connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, ORG_SCALE)
    # Point lookups go through an index, like any OLTP key access.
    db.execute("CREATE INDEX IX_EMP_ENO ON EMP (ENO)")
    return db


def build_oo1(cache_enabled: bool) -> Session:
    options = PipelineOptions()
    if not cache_enabled:
        options.plan_cache_size = 0
    db = Engine(options).connect()
    create_oo1_schema(db.engine.catalog)
    populate_oo1(db.engine.catalog, OO1_SCALE)
    return db


def best_of(measure, repetitions: int = BEST_OF) -> float:
    """Run ``measure()`` (returns elapsed seconds) N times; keep the
    fastest — classic best-of-N to shed scheduler noise."""
    return min(measure() for _ in range(repetitions))


def timed(run_all) -> float:
    start = time.perf_counter()
    run_all()
    return time.perf_counter() - start


def record(name: str, queries: int, cached_s: float, uncached_s: float,
           floor: float | None = REQUIRED_SPEEDUP) -> float:
    cached_qps = queries / cached_s
    uncached_qps = queries / uncached_s
    speedup = cached_qps / uncached_qps
    entry = {
        "queries": queries,
        "uncached_seconds": round(uncached_s, 6),
        "cached_seconds": round(cached_s, 6),
        "uncached_qps": round(uncached_qps, 1),
        "cached_qps": round(cached_qps, 1),
        # Unrounded: CI compares it with the floor.
        "speedup": speedup,
        "best_of": BEST_OF,
    }
    if floor is not None:
        entry["floor"] = floor
    _results[name] = entry
    write_results(RESULTS_PATH, _results)
    print_table(
        f"plan cache A/B: {name} (best of {BEST_OF})",
        ["pipeline", "queries/sec", "speedup"],
        [["uncached (recompile)", f"{uncached_qps:,.0f}", "1.0x"],
         ["plan cache", f"{cached_qps:,.0f}", f"{speedup:.1f}x"]],
    )
    return speedup


# ----------------------------------------------------------------------
# Workload 1: org point lookups, ad-hoc literal SQL (auto-param path)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def org_ab() -> tuple[Session, Session]:
    return build_org(True), build_org(False)


@pytest.fixture(scope="module")
def oo1_ab() -> tuple[Session, Session]:
    return build_oo1(True), build_oo1(False)


def test_org_point_lookup_speedup(org_ab):
    cached, uncached = org_ab
    employees = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    ids = [1 + (i * 37) % employees for i in range(300)]
    sqls = [f"SELECT ENAME, SAL FROM EMP WHERE ENO = {eno}"
            for eno in ids]

    # Soundness: both engines agree on every query.
    for sql in sqls[:50]:
        assert cached.query(sql).rows == uncached.query(sql).rows

    cached_s = best_of(lambda: timed(
        lambda: [cached.query(sql) for sql in sqls]))
    uncached_s = best_of(lambda: timed(
        lambda: [uncached.query(sql) for sql in sqls]))
    record("org_point_lookup_adhoc", len(sqls), cached_s, uncached_s)


def test_org_point_lookup_prepared_speedup(org_ab):
    cached, uncached = org_ab
    employees = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    ids = [1 + (i * 53) % employees for i in range(300)]
    sql = "SELECT ENAME, SAL FROM EMP WHERE ENO = ?"
    stmt = cached.prepare(sql)

    for eno in ids[:50]:
        assert stmt.run([eno]).rows == uncached.query(sql, [eno]).rows

    cached_s = best_of(lambda: timed(
        lambda: [stmt.run([eno]) for eno in ids]))
    uncached_s = best_of(lambda: timed(
        lambda: [uncached.query(sql, [eno]) for eno in ids]))
    record("org_point_lookup_prepared", len(ids), cached_s, uncached_s)


# ----------------------------------------------------------------------
# Workload 2: OO1 navigation (part -> connections -> parts)
# ----------------------------------------------------------------------
def test_oo1_navigation_speedup(oo1_ab):
    cached, uncached = oo1_ab
    sql = ("SELECT p.id, p.ptype, c.length FROM CONNECTION c, PART p "
           "WHERE c.from_id = ? AND p.id = c.to_id")
    stmt = cached.prepare(sql)
    starts = [1 + (i * 17) % OO1_SCALE.parts for i in range(200)]

    def navigate(run_one) -> None:
        # OO1-style traversal: hop from each start through its
        # connections, then one level further from the first neighbor.
        for part_id in starts:
            neighbors = run_one(part_id).rows
            if neighbors:
                run_one(neighbors[0][0])

    for part_id in starts[:20]:
        assert sorted(stmt.run([part_id]).rows) \
            == sorted(uncached.query(sql, [part_id]).rows)

    cached_s = best_of(lambda: timed(
        lambda: navigate(lambda pid: stmt.run([pid]))))
    uncached_s = best_of(lambda: timed(
        lambda: navigate(lambda pid: uncached.query(sql, [pid]))))
    record("oo1_navigation", 2 * len(starts), cached_s, uncached_s)


# ----------------------------------------------------------------------
# Workload 3: cached DML qualification (repeated UPDATE by key)
# ----------------------------------------------------------------------
def test_dml_qualification_speedup(org_ab):
    cached, uncached = org_ab
    employees = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    ids = [1 + (i * 41) % employees for i in range(200)]
    sql = "UPDATE EMP SET SAL = ? WHERE ENO = ?"

    cached_s = best_of(lambda: timed(lambda: [
        cached.execute(sql, [90000 + eno, eno]) for eno in ids]))
    uncached_s = best_of(lambda: timed(lambda: [
        uncached.execute(sql, [90000 + eno, eno]) for eno in ids]))
    # Both databases converge to the same salaries; spot-check.
    probe = ids[0]
    assert cached.query("SELECT SAL FROM EMP WHERE ENO = ?",
                        [probe]).rows \
        == uncached.query("SELECT SAL FROM EMP WHERE ENO = ?",
                          [probe]).rows
    # DML spends real time in constraint checks and storage mutation,
    # so the cache's share of the win is smaller than for pure reads;
    # the floor (enforced by CI on the recorded speedup) is
    # correspondingly lower.
    record("dml_update_by_key", len(ids), cached_s, uncached_s, floor=2.0)


def test_dml_update_adhoc_speedup(org_ab):
    """Literal-text UPDATE variants: the front end lifts each once per
    shape, so a variant skips the parser and the qualification
    compile.  Recorded with a 1.0 floor."""
    cached, uncached = org_ab
    employees = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    ids = [1 + (i * 43) % employees for i in range(200)]
    sqls = [f"UPDATE EMP SET SAL = SAL + 1 WHERE ENO = {eno}"
            for eno in ids]

    cached_s = best_of(lambda: timed(
        lambda: [cached.execute(sql) for sql in sqls]))
    uncached_s = best_of(lambda: timed(
        lambda: [uncached.execute(sql) for sql in sqls]))
    # Both databases ran the same writes the same number of times.
    salaries = "SELECT ENO, SAL FROM EMP ORDER BY ENO"
    assert cached.query(salaries).rows == uncached.query(salaries).rows
    record("dml_update_adhoc", len(sqls), cached_s, uncached_s, floor=1.0)
