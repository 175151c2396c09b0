"""Statistics-driven join ordering vs every forced order: the A/B.

The claim: on skewed data a 95%-frequent filter value must be priced
as such, or the planner drives the join from the wrong side.  A 1/NDV
estimate prices ``STATUS = 'HOT'`` at ~20 rows instead of ~5,700 and
starts from ORDERS; the statistics-driven planner (MCV/histogram
selectivities, DP join enumeration, cost-compared access paths) starts
from the 10 'NORTH' customers.

Methodology: one shared database.  The planner compiles each workload
once with default options.  Then ``PlannerOptions.join_order_hook``
forces every permutation of the workload's join fan, each compiled
once.  Every plan executes repeatedly under a best-of-N harness
(fastest repetition wins).  The baseline is the *slowest* forced
order — on this data the ORDERS-first order that a 1/NDV estimate
picks — so ``speedup`` is what the statistics buy over the worst
order a planner could reach.  ``chosen_vs_best`` (chosen time over
the fastest forced order's) is recorded with no bound: it says how
close the cost model gets to the best order it could have picked.

Tier-1 asserts only clock-free facts: the chosen order starts at
``c``, and every forced order returns the chosen plan's rows.  The
timed ratios land in ``BENCH_cost.json`` at the repository root under
``REPRO_BENCH_WRITE=1``, the 3-way speedup unrounded next to its
``floor``; the CI ``optimizer`` job fails the build when the speedup
is below the floor (``tools/check_bench.py``).
"""

from __future__ import annotations

import time
from itertools import permutations
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement

#: Floor for the 3-way skewed join: slowest forced order over the
#: chosen plan.  Recorded in ``BENCH_cost.json``; the CI ``optimizer``
#: job fails the build when the recorded speedup is below it.
REQUIRED_SPEEDUP = 3.0

#: Timed repetitions; the fastest one is reported.
BEST_OF = 5

#: Executions per timed repetition (amortizes timer resolution).
RUNS_PER_REP = 5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_cost.json"

_results: dict[str, dict] = {}

CUSTOMERS = 2_000
ORDERS = 6_000
LINES = 12_000


def build_skew_db() -> Session:
    """CUST -> ORDERS -> LINES with a 95%-hot ORDERS.STATUS.

    * CUST.REGION: 3 heavy regions (~663 rows each, MCV territory) and
      a rare 'NORTH' with 10 rows — truly selective.
    * ORDERS.STATUS: 'HOT' on 95% of rows plus 300 rare statuses, so
      NDV ~301 and a 1/NDV guess prices ``STATUS = 'HOT'`` at ~20 rows
      instead of 5700.
    * LINES.KIND: ~99 kinds with 'RARE' on 2% of rows, phased so the
      3-way workload returns a non-empty answer.
    """
    db = Engine().connect()
    db.execute("CREATE TABLE CUST (CID INT PRIMARY KEY, REGION VARCHAR)")
    db.execute("CREATE TABLE ORDERS (OID INT PRIMARY KEY, CID INT, "
               "STATUS VARCHAR)")
    db.execute("CREATE TABLE LINES (LID INT PRIMARY KEY, OID INT, "
               "KIND VARCHAR)")
    db.execute("CREATE INDEX ORD_CID ON ORDERS (CID)")
    db.execute("CREATE INDEX ORD_STATUS ON ORDERS (STATUS)")
    db.execute("CREATE INDEX LINES_OID ON LINES (OID)")
    cust = db.table("CUST")
    orders = db.table("ORDERS")
    lines = db.table("LINES")
    hot_regions = ("EAST", "WEST", "SOUTH")
    for cid in range(CUSTOMERS):
        region = "NORTH" if cid < 10 else hot_regions[cid % 3]
        cust.insert((cid, region))
    for oid in range(ORDERS):
        status = "HOT" if oid % 20 else f"S{oid // 20}"
        orders.insert((oid, oid % CUSTOMERS, status))
    for lid in range(LINES):
        kind = "RARE" if lid % 50 == 1 else f"K{lid % 100}"
        lines.insert((lid, lid % ORDERS, kind))
    db.analyze()
    return db


WORKLOADS = {
    "skew_join_2way": (
        "SELECT c.cid, o.oid FROM CUST c, ORDERS o "
        "WHERE o.cid = c.cid AND c.region = 'NORTH' "
        "AND o.status = 'HOT'"
    ),
    "skew_join_3way": (
        "SELECT c.cid, o.oid, l.lid FROM CUST c, ORDERS o, LINES l "
        "WHERE o.cid = c.cid AND l.oid = o.oid "
        "AND c.region = 'NORTH' AND o.status = 'HOT' "
        "AND l.kind = 'RARE'"
    ),
}


def compile_order(db: Session, sql: str, order=None):
    """Compile ``sql`` uncached; ``order`` forces the join fan's order
    through the hook, None keeps the planner's choice."""
    hook = None if order is None else (lambda names: list(order))
    pipeline = QueryPipeline(db.engine.catalog, db.engine.stats,
                             PipelineOptions(planner=PlannerOptions(
                                 join_order_hook=hook)),
                             db.engine.pipeline.xnf_component_resolver)
    compiled = pipeline.compile_select(parse_statement(sql))
    return pipeline, compiled


def measure(pipeline, compiled) -> float:
    start = time.perf_counter()
    for _ in range(RUNS_PER_REP):
        pipeline.run_compiled(compiled)
    return time.perf_counter() - start


def best_of(pipeline, compiled, repetitions: int = BEST_OF) -> float:
    return min(measure(pipeline, compiled) for _ in range(repetitions))


@pytest.fixture(scope="module")
def skew_db() -> Session:
    return build_skew_db()


def run_workload(db: Session, name: str, floor: float | None = None):
    sql = WORKLOADS[name]
    pipeline, chosen = compile_order(db, sql)
    record = chosen.plan.join_orders[0]
    # The statistics see the 10 NORTH customers as the small side.
    assert record.names[0] == "c", record
    rows = sorted(pipeline.run_compiled(chosen).rows)
    forced: dict[tuple, float] = {}
    for order in permutations(record.names):
        forced_pipe, plan = compile_order(db, sql, order)
        # Soundness: join order changes speed, never answers.
        assert sorted(forced_pipe.run_compiled(plan).rows) == rows, order
        forced[order] = best_of(forced_pipe, plan)
    chosen_s = best_of(pipeline, chosen)
    slowest = max(forced, key=forced.get)
    fastest = min(forced, key=forced.get)
    speedup = forced[slowest] / chosen_s
    entry = {
        "runs_per_rep": RUNS_PER_REP,
        "best_of": BEST_OF,
        "rows": len(rows),
        "join_order_chosen": " -> ".join(record.names),
        "chosen_seconds": round(chosen_s, 6),
        "forced_seconds": {" -> ".join(order): round(seconds, 6)
                           for order, seconds in forced.items()},
        "join_order_slowest": " -> ".join(slowest),
        "join_order_fastest": " -> ".join(fastest),
        # Unrounded: CI compares it with the floor.
        "speedup": speedup,
        "chosen_vs_best": chosen_s / forced[fastest],
    }
    if floor is not None:
        entry["floor"] = floor
    _results[name] = entry
    print_table(
        f"join order A/B: {name} (best of {BEST_OF} x {RUNS_PER_REP})",
        ["order", "seconds", "vs chosen"],
        [[f"chosen {entry['join_order_chosen']}", f"{chosen_s:.4f}",
          "1.0x"]]
        + [[" -> ".join(order), f"{seconds:.4f}",
            f"{seconds / chosen_s:.1f}x"]
           for order, seconds in sorted(forced.items(),
                                        key=lambda item: item[1])],
    )


def test_skew_join_2way(skew_db):
    run_workload(skew_db, "skew_join_2way")


def test_skew_join_3way_headline(skew_db):
    run_workload(skew_db, "skew_join_3way", floor=REQUIRED_SPEEDUP)


@pytest.fixture(scope="module", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
