"""Default-size batches vs one-row batches: the A/B benchmark.

The batch executor amortizes per-row interpreter overhead over
per-batch comprehensions.  Each workload compiles one plan and executes
it twice — with ``batch_size=1`` (the per-row side: one row per batch,
so every row pays the full per-batch cost) and with the default batch
size — same plan, same data, only the batch width differs, so the
measured delta is purely the overhead batching removes.

The tests assert equal row counts and the plan shapes.  Each records
its ratio beside its bound in ``BENCH_batch_executor.json`` at the
repository root under ``REPRO_BENCH_WRITE=1``; CI enforces the bounds
with ``tools/check_bench.py``: default batches beat one-row batches on
the scan+filter and hash-join workloads (``speedup`` at least the
``floor`` of 1.0), and the index-nested-loop and aggregation workloads
stay under 1.6x the one-row time (``overhead`` at most the
``ceiling``).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions
from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement
from repro.workloads.oo1 import OO1Scale, create_oo1_schema, populate_oo1
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

BENCH_ORG_SCALE = OrgScale(departments=250, employees_per_dept=40,
                           projects_per_dept=8, skills=120,
                           skills_per_employee=3, skills_per_project=3,
                           arc_fraction=0.2, seed=1994)

BENCH_OO1_SCALE = OO1Scale(parts=12000, fanout=3, seed=7)

#: Batches must beat one-row batches on scans and hash joins ...
SPEEDUP_FLOOR = 1.0
#: ... and stay within this factor of them on index joins and
#: aggregation, which gain little from batching (loose, to ride out
#: scheduler noise on shared CI runners).
OVERHEAD_CEILING = 1.6

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_batch_executor.json"
_results: dict = {}


def record_speedup(name: str, row_time: float, batch_time: float) -> None:
    """Record batch=1 time / batch time beside its floor (unrounded: CI
    compares the two)."""
    _results[name] = {"speedup": row_time / batch_time,
                      "floor": SPEEDUP_FLOOR}
    write_results(RESULTS_PATH, _results)


def record_overhead(name: str, row_time: float, batch_time: float) -> None:
    """Record batch time / batch=1 time beside its ceiling."""
    _results[name] = {"overhead": batch_time / row_time,
                      "ceiling": OVERHEAD_CEILING}
    write_results(RESULTS_PATH, _results)


@pytest.fixture(scope="module")
def org_db() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, BENCH_ORG_SCALE)
    return db


@pytest.fixture(scope="module")
def org_db_noindex() -> Session:
    db = Engine(PipelineOptions(planner=PlannerOptions(
        use_indexes=False))).connect()
    create_org_schema(db.engine.catalog, with_indexes=False)
    populate_org(db.engine.catalog, BENCH_ORG_SCALE)
    return db


@pytest.fixture(scope="module")
def oo1_db() -> Session:
    db = Engine().connect()
    create_oo1_schema(db.engine.catalog)
    populate_oo1(db.engine.catalog, BENCH_OO1_SCALE)
    return db


def ab_measure(db: Session, sql: str, repeats: int = 9):
    """Compile once; run with one-row batches ("row") and default-size
    batches ("batch"), best-of-N each.

    Best-of-9 because the recorded ratios gate CI: with a 2x+
    underlying gap, nine samples make a scheduler-noise loss of the
    *minimum* vanishingly unlikely on shared runners.

    Returns (row_time, batch_time, row_count, plan_text).
    """
    compiled = db.engine.pipeline.compile_select(parse_statement(sql))
    plan = compiled.plan
    default_batch_size = plan.batch_size

    def run() -> int:
        return len(db.engine.pipeline.run_compiled(compiled, plan.new_context()))

    timings = {}
    counts = {}
    # Alternate modes so cache warming effects hit both equally.
    for mode in ("warmup", "row", "batch"):
        plan.batch_size = 1 if mode == "row" else default_batch_size
        best = float("inf")
        for _ in range(1 if mode == "warmup" else repeats):
            start = time.perf_counter()
            counts[mode] = run()
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
    plan.batch_size = default_batch_size
    assert counts["row"] == counts["batch"]
    return (timings["row"], timings["batch"], counts["batch"],
            compiled.plan.explain())


def report(title: str, results: list[tuple[str, float, float, int]]):
    rows = []
    for name, row_time, batch_time, count in results:
        speedup = row_time / batch_time if batch_time else float("inf")
        rows.append([name, count, f"{row_time * 1e3:.2f}",
                     f"{batch_time * 1e3:.2f}", f"{speedup:.2f}x"])
    print_table(title,
                ["workload", "rows out", "batch=1 (ms)", "batch (ms)",
                 "speedup"], rows)


@pytest.mark.benchmark(group="batch-executor")
def test_scan_filter_speedup(oo1_db, org_db, benchmark):
    """Scans + filters: the OO1 parts table and the org EMP table."""
    oo1_sql = ("SELECT id, x, y FROM PART "
               "WHERE x < 50000 AND y >= 20000")
    org_sql = ("SELECT ename, sal FROM EMP "
               "WHERE sal >= 100000 AND sal < 180000")
    oo1_row, oo1_batch, oo1_count, oo1_plan = ab_measure(oo1_db, oo1_sql)
    org_row, org_batch, org_count, _ = ab_measure(org_db, org_sql)
    assert "TableScan" in oo1_plan and "Filter" in oo1_plan
    assert oo1_count > 1000 and org_count > 1000

    report("Batch executor — scan + filter",
           [["OO1 PART scan+filter", oo1_row, oo1_batch, oo1_count],
            ["org EMP scan+filter", org_row, org_batch, org_count]])
    compiled = oo1_db.engine.pipeline.compile_select(parse_statement(oo1_sql))
    benchmark(lambda: oo1_db.engine.pipeline.run_compiled(
        compiled, compiled.plan.new_context()))

    record_speedup("oo1_scan_filter", oo1_row, oo1_batch)
    record_speedup("org_scan_filter", org_row, org_batch)


@pytest.mark.benchmark(group="batch-executor")
def test_hash_join_speedup(org_db_noindex, benchmark):
    """Equi join without indexes: forced HashJoin on EMP x DEPT."""
    sql = ("SELECT e.ename, d.dname FROM DEPT d, EMP e "
           "WHERE d.dno = e.edno AND e.sal >= 60000")
    row_time, batch_time, count, plan_text = ab_measure(org_db_noindex,
                                                        sql)
    assert "HashJoin" in plan_text
    assert count > 5000

    report("Batch executor — hash join",
           [["EMP x DEPT hash join", row_time, batch_time, count]])
    compiled = org_db_noindex.engine.pipeline.compile_select(parse_statement(sql))
    benchmark(lambda: org_db_noindex.engine.pipeline.run_compiled(
        compiled, compiled.plan.new_context()))

    record_speedup("hash_join", row_time, batch_time)


@pytest.mark.benchmark(group="batch-executor")
def test_index_join_and_aggregate_no_regression(org_db, benchmark):
    """Index-nested-loop join and hash aggregation: batch mode must not
    regress.  These paths gain little from batching, so the recorded
    bound is deliberately loose (1.6x); the speedup claims are the
    scan/hash-join records, whose margins are wide."""
    join_sql = ("SELECT e.ename, d.dname FROM DEPT d, EMP e "
                "WHERE d.dno = e.edno AND d.loc = 'ARC'")
    agg_sql = ("SELECT d.loc, COUNT(*), SUM(e.sal) FROM DEPT d, EMP e "
               "WHERE d.dno = e.edno GROUP BY d.loc")
    join_row, join_batch, join_count, join_plan = ab_measure(org_db,
                                                             join_sql)
    agg_row, agg_batch, agg_count, _ = ab_measure(org_db, agg_sql)
    assert "IndexNLJoin" in join_plan

    report("Batch executor — index join / aggregation",
           [["DEPT->EMP index NL join", join_row, join_batch, join_count],
            ["group-by aggregation", agg_row, agg_batch, agg_count]])
    compiled = org_db.engine.pipeline.compile_select(parse_statement(join_sql))
    benchmark(lambda: org_db.engine.pipeline.run_compiled(
        compiled, compiled.plan.new_context()))

    record_overhead("index_join", join_row, join_batch)
    record_overhead("aggregate", agg_row, agg_batch)
