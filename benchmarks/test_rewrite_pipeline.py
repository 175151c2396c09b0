"""Rewrite layer A/B: decorrelation + view merging vs raw compilation.

The ISSUE-4 tentpole claim: the expanded rewrite catalog must pay
measurable speed, not just cleaner graphs.  Two workloads, each run
against two identically populated databases — one compiling through the
full rule catalog, one with ``apply_nf_rewrite=False`` — under the same
best-of-N harness as the plan-cache benchmark:

* **correlated subquery**: a per-department AVG filter.  Unrewritten,
  the S quantifier re-executes its subquery plan per distinct outer
  binding (memoized nested re-execution); ScalarAggToJoin turns it into
  one group-by plus a hash join.  Floor: >= 3x.
* **view stack**: selective queries through a two-deep SQL view chain
  plus a dual view reference.  Unrewritten, every execution evaluates
  the whole chain and filters on top; ViewMerge + SelectMerge +
  pushdown collapse it into a single indexed join (and JoinElim drops
  the redundant self-join of the dual reference).  Floor: >= 2x.

Timing: the two sides run in alternating repetitions (which side goes
first alternates too), each repetition long enough to take at least
``MIN_REPETITION_S``; the recorded speedup is the median of the
per-repetition ratios, with their range as ``spread``.

Result equality between the two engines is asserted on every workload,
so the benchmark doubles as a soundness check.  Results land in
``BENCH_rewrite.json`` at the repository root under
``REPRO_BENCH_WRITE=1``; CI uploads the file and enforces the floors.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

#: Acceptance floors.  Both are recorded in ``BENCH_rewrite.json`` and
#: enforced by the CI rewrite-bench job, not asserted here.
REQUIRED_CORRELATED_SPEEDUP = 3.0
REQUIRED_VIEW_STACK_SPEEDUP = 2.0

#: Timed repetitions per side, interleaved; the median ratio is
#: reported.
REPETITIONS = 5

#: Each timed repetition runs enough executions to take this long.
MIN_REPETITION_S = 0.2

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_rewrite.json"

_results: dict[str, dict] = {}

ORG_SCALE = OrgScale(departments=30, employees_per_dept=12,
                     projects_per_dept=4, skills=40,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.25, seed=1994)

VIEW_DDL = (
    "CREATE VIEW V_ARC_EMP AS SELECT e.eno, e.ename, e.edno, e.sal "
    "FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
    "CREATE VIEW V_ARC_RICH AS SELECT eno, ename, sal FROM V_ARC_EMP "
    "WHERE sal > 0",
)


def build_db(rewrite: bool) -> Session:
    options = PipelineOptions(apply_nf_rewrite=rewrite)
    db = Engine(options).connect()
    # No join indexes: the correlation column (EDNO) is deliberately
    # unindexed, as in any schema where not every predicate column has
    # an access path — nested re-execution then pays a scan per
    # distinct binding, which is the cost decorrelation removes.
    create_org_schema(db.engine.catalog, with_indexes=False)
    populate_org(db.engine.catalog, ORG_SCALE)
    # The view-stack point queries go through a key index like any
    # OLTP access; only the *merged* plan can reach it.
    db.execute("CREATE INDEX IX_EMP_ENO ON EMP (ENO)")
    for ddl in VIEW_DDL:
        db.execute(ddl)
    db.analyze()
    return db


@pytest.fixture(scope="module")
def ab() -> tuple[Session, Session]:
    return build_db(True), build_db(False)


def timed(run_once, executions: int) -> float:
    """Seconds per execution of ``run_once`` over ``executions``."""
    start = time.perf_counter()
    for _ in range(executions):
        run_once()
    return (time.perf_counter() - start) / executions


def executions_for(run_once) -> int:
    """Executions of ``run_once`` that take ``MIN_REPETITION_S``, with
    a quarter to spare (estimated from ten warm executions)."""
    per_execution = timed(run_once, 10)
    return max(10, math.ceil(1.25 * MIN_REPETITION_S / per_execution))


def interleaved_ab(name: str, queries_per_execution: int,
                   rewritten_once, raw_once, floor: float) -> float:
    """Time both sides in interleaved repetitions and record the median
    per-repetition speedup; returns it."""
    counts = {"rewritten": executions_for(rewritten_once),
              "raw": executions_for(raw_once)}
    runs = {"rewritten": rewritten_once, "raw": raw_once}
    seconds: dict[str, list[float]] = {"rewritten": [], "raw": []}
    for repetition in range(REPETITIONS):
        order = ("rewritten", "raw") if repetition % 2 == 0 \
            else ("raw", "rewritten")
        for side in order:
            seconds[side].append(timed(runs[side], counts[side]))
    ratios = sorted(raw / rewritten for raw, rewritten
                    in zip(seconds["raw"], seconds["rewritten"]))
    speedup = statistics.median(ratios)
    raw_s = statistics.median(seconds["raw"])
    rewritten_s = statistics.median(seconds["rewritten"])
    _results[name] = {
        "queries_per_execution": queries_per_execution,
        "executions": counts,
        "raw_seconds_per_execution": raw_s,
        "rewritten_seconds_per_execution": rewritten_s,
        # Unrounded: CI compares it with the floor.
        "speedup": speedup,
        "spread": [ratios[0], ratios[-1]],
        "floor": floor,
        "repetitions": REPETITIONS,
    }
    write_results(RESULTS_PATH, _results)
    qps = queries_per_execution
    print_table(
        f"rewrite A/B: {name} (median of {REPETITIONS} interleaved "
        f"repetitions)",
        ["pipeline", "queries/sec", "speedup"],
        [["rewrite disabled", f"{qps / raw_s:,.0f}", "1.0x"],
         ["full rule catalog", f"{qps / rewritten_s:,.0f}",
          f"{speedup:.1f}x [{ratios[0]:.1f}, {ratios[-1]:.1f}]"]],
    )
    return speedup


# ----------------------------------------------------------------------
# Workload 1: correlated scalar aggregate subquery
# ----------------------------------------------------------------------
CORRELATED_SQL = (
    "SELECT e.eno, e.ename FROM EMP e WHERE e.sal > "
    "(SELECT AVG(e2.sal) FROM EMP e2 WHERE e2.edno = e.edno)"
)


def test_correlated_subquery_speedup(ab):
    rewritten, raw = ab
    assert sorted(rewritten.query(CORRELATED_SQL).rows) \
        == sorted(raw.query(CORRELATED_SQL).rows)
    # The rewritten plan joins a grouped box instead of re-executing
    # the subquery per department.
    trace = rewritten.explain(CORRELATED_SQL, rewrite_trace=True)
    assert "ScalarAggToJoin" in trace

    interleaved_ab("correlated_subquery", 1,
                   lambda: rewritten.query(CORRELATED_SQL),
                   lambda: raw.query(CORRELATED_SQL),
                   REQUIRED_CORRELATED_SPEEDUP)


# ----------------------------------------------------------------------
# Workload 2: view stack + dual view reference
# ----------------------------------------------------------------------
def view_stack_queries() -> list[str]:
    employees = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    ids = [1 + (i * 37) % employees for i in range(12)]
    queries = [
        f"SELECT ename, sal FROM V_ARC_RICH WHERE eno = {eno}"
        for eno in ids
    ]
    queries.append(
        "SELECT a.ename FROM V_ARC_EMP a, V_ARC_EMP b "
        "WHERE a.eno = b.eno AND a.sal > 50"
    )
    return queries


def test_view_stack_speedup(ab):
    rewritten, raw = ab
    queries = view_stack_queries()
    for sql in queries:
        assert sorted(rewritten.query(sql).rows) \
            == sorted(raw.query(sql).rows), sql

    interleaved_ab("view_stack", len(queries),
                   lambda: [rewritten.query(sql) for sql in queries],
                   lambda: [raw.query(sql) for sql in queries],
                   REQUIRED_VIEW_STACK_SPEEDUP)
