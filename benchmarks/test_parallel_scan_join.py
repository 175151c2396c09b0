"""Parallel speedup floor: scan and hash join at ``parallel_degree=4``.

The ISSUE-8 tentpole claim: a morsel-driven worker pool turns cores
into query speedup — CPython threads interleave, but forked worker
*processes* do not.  The A/B runs the same queries over identical
200k-row data twice: a serial engine (``parallel_degree=1``, plans
bit-identical to the pre-parallel engine) and a parallel engine
(``parallel_degree=4`` over a hash-partitioned fact table).  Result
equality is asserted; wall-clock speedup is recorded to
``BENCH_parallel.json`` under ``REPRO_BENCH_WRITE=1``.

The >= 2x acceptance floor is only *enforced* when the host actually
has 4+ cores (CI does; a 1-core container cannot speed anything up by
forking).  ``floor_enforced`` in the JSON says which case ran.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.executor.runtime import PipelineOptions
from repro.optimizer.optimizer import PlannerOptions
from repro.storage.partition import HashPartitioning
from repro.storage.types import Column, INTEGER, VARCHAR

REQUIRED_SPEEDUP = 2.0
DEGREE = 4
N_ROWS = 200_000
BEST_OF = 3

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_parallel.json"

#: The scan is made compute-bound (arithmetic in the predicate) and
#: result-light (aggregated), so the measurement is the morsel fan-out,
#: not result pickling.
SCAN_SQL = ("SELECT COUNT(*), SUM(V) FROM FACT "
            "WHERE (V * 17 + W * 5) - (V / 3) > 900 AND G <> 6")

JOIN_SQL = ("SELECT d.LABEL, COUNT(*), SUM(f.V), AVG(f.W) "
            "FROM FACT f, DIM d "
            "WHERE f.G = d.G AND f.V + f.W > 120 GROUP BY d.LABEL")

_results: dict[str, dict] = {}


def build_db(degree: int) -> Session:
    options = PipelineOptions(planner=PlannerOptions(
        parallel_degree=degree, parallel_row_threshold=1024))
    db = Engine(pipeline_options=options).connect()
    partitioning = HashPartitioning(("ID",), DEGREE) if degree > 1 \
        else None
    fact = db.engine.catalog.create_table("FACT", [
        Column("ID", INTEGER, primary_key=True),
        Column("G", INTEGER), Column("V", INTEGER),
        Column("W", INTEGER),
    ], partitioning=partitioning)
    dim = db.engine.catalog.create_table("DIM", [
        Column("G", INTEGER, primary_key=True),
        Column("LABEL", VARCHAR),
    ])
    rng = random.Random(1994)
    for i in range(N_ROWS):
        fact.insert((i, rng.randrange(16), rng.randrange(100),
                     rng.randrange(40)))
    for g in range(16):
        dim.insert((g, f"label{g}"))
    db.analyze()
    return db


def best_time(db: Session, sql: str) -> tuple[float, list]:
    rows = None
    best = None
    for _ in range(BEST_OF):
        start = time.perf_counter()
        rows = db.query(sql).rows
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


@pytest.fixture(scope="module")
def ab_pair():
    serial = build_db(degree=1)
    parallel = build_db(degree=DEGREE)
    # Warm both plan caches and the worker pool outside the timing.
    serial.query(SCAN_SQL)
    parallel.query(SCAN_SQL)
    yield serial, parallel
    parallel.close()
    serial.close()


def run_case(name: str, sql: str, ab_pair) -> None:
    serial, parallel = ab_pair
    serial_s, serial_rows = best_time(serial, sql)
    parallel_s, parallel_rows = best_time(parallel, sql)
    assert Counter(parallel_rows) == Counter(serial_rows)
    counters = parallel.engine.parallel.counters
    assert counters["parallel_queries"] > 0, \
        f"parallel engine never went parallel: {counters}"
    cores = os.cpu_count() or 1
    floor_enforced = cores >= DEGREE
    speedup = serial_s / parallel_s
    _results[name] = {
        "rows": N_ROWS,
        "degree": DEGREE,
        "cores": cores,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(speedup, 2),
        "floor": REQUIRED_SPEEDUP,
        "floor_enforced": floor_enforced,
    }
    print_table(
        f"parallel {name}: {N_ROWS} rows, degree {DEGREE}, "
        f"{cores} cores",
        ["engine", "seconds"],
        [["serial (degree 1)", f"{serial_s:.4f}"],
         [f"parallel (degree {DEGREE})", f"{parallel_s:.4f}"],
         ["speedup", f"{speedup:.2f}x (floor {REQUIRED_SPEEDUP}x, "
          f"{'enforced' if floor_enforced else 'not enforced: <4 cores'}"
          ")"]],
    )
    if floor_enforced:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"{name}: parallel only {speedup:.2f}x faster at degree "
            f"{DEGREE} on {cores} cores (floor {REQUIRED_SPEEDUP}x)")


def test_parallel_scan_speedup(ab_pair):
    run_case("scan", SCAN_SQL, ab_pair)


def test_parallel_hash_join_speedup(ab_pair):
    run_case("hash_join", JOIN_SQL, ab_pair)


@pytest.fixture(scope="session", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
