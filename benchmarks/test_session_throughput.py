"""Multi-session throughput over one shared engine: the A/B.

The ISSUE-5 tentpole claim: serving N clients from one shared
:class:`~repro.api.engine.Engine` beats the old architecture's answer
to multi-client access — one private engine per client — because
sessions share the compiled state (plan cache, XNF compiles, statistics
snapshots): a statement shape any client has run is a cache hit for
every other client.

Methodology: the same workload (4 clients x M point/navigation
queries, literals varying per query) runs twice —

* **per-client engines**: four fresh ``Engine`` instances, each
  compiling every statement shape from scratch (cold caches), issued
  serially;
* **shared engine**: four sessions of one fresh ``Engine``, each
  driven by its own thread through streaming cursors.

Both sides start cold; the shared side pays each compile once in
total, the per-client side once *per client*.  That is what the test
asserts, from the engines' own plan-cache counters: the shared engine
misses and stores each shape exactly once and hits it N-1 times, even
though its sessions miss each shape at about the same moment
(compiles are single-flight per key); each private engine misses every
shape.  Result equality between both sides is asserted
query-for-query.

The timed A/B runs as well: it is printed and lands in
``BENCH_sessions.json`` at the repository root under
``REPRO_BENCH_WRITE=1`` with its ``speedup`` and ``floor``.  The
wall-clock floor (:data:`REQUIRED_SPEEDUP`) is not asserted here: the
ratio moves with machine load and with how compile cost compares with
execute cost, so it is enforced by the CI ``sessions`` job, which
fails the build when the recorded speedup is below the floor.  CPython
threads interleave rather than parallelize, so the speedup is the
shared-compiled-state effect of the engine/session split, not
thread-level parallelism.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

#: Wall-clock floor: 4 sessions on one engine vs 4 private engines.
#: Recorded in ``BENCH_sessions.json``; the CI ``sessions`` job fails
#: the build when the recorded speedup is below it.
REQUIRED_SPEEDUP = 2.0

#: Timed repetitions; the fastest one is reported.
BEST_OF = 3

N_CLIENTS = 4

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_sessions.json"

ORG_SCALE = OrgScale(departments=20, employees_per_dept=10,
                     projects_per_dept=4, skills=40,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.25, seed=1994)

_results: dict[str, dict] = {}


#: Distinct statement *shapes* — the workload knob that matters.  A
#: multi-client application's ad-hoc surface is shape-diverse; each
#: client compiles every shape once in the per-client architecture,
#: while the shared engine compiles it once in total.
_PROJECTIONS = ["ename, sal", "eno, edno", "ename", "sal, edno, eno"]
_FILTERS = [
    "eno = ?", "eno = ? AND sal > ?", "eno = ? AND edno = ?",
    "eno = ? OR eno = ?", "eno IN (?, ?)", "eno = ? AND ename LIKE '%'",
    "eno = ? AND sal + 1 > ?", "eno = ? AND NOT (sal < ?)",
]
_SUFFIXES = ["", " ORDER BY eno", " ORDER BY sal, eno",
             " ORDER BY ename, eno"]


def statement_shapes():
    shapes = []
    for projection in _PROJECTIONS:
        for where in _FILTERS:
            for suffix in _SUFFIXES:
                shapes.append(
                    f"SELECT {projection} FROM EMP WHERE {where}{suffix}")
    shapes.append("SELECT d.dname, e.ename FROM DEPT d, EMP e "
                  "WHERE d.dno = e.edno AND e.eno = ?")
    return shapes


def client_workload(client: int, rounds: int = 1):
    """One client's (sql, params) list: every shape, fresh literals."""
    n_emps = ORG_SCALE.departments * ORG_SCALE.employees_per_dept
    out = []
    for round_no in range(rounds):
        for number, sql in enumerate(statement_shapes()):
            n_params = sql.count("?")
            seedling = client * 131 + number * 17 + round_no * 7
            params = [1 + (seedling + p * 13) % n_emps
                      for p in range(n_params)]
            if "BETWEEN" in sql:
                params = sorted(params)
            out.append((sql, params))
    return out


def populate(catalog) -> None:
    create_org_schema(catalog)
    populate_org(catalog, ORG_SCALE)
    # Point lookups go through an index, like any OLTP key access.
    catalog.create_index("IX_EMP_ENO", "EMP", ["ENO"])


def run_per_client_engines(workloads) -> tuple[float, list, list]:
    """The old architecture: one cold private engine per client.

    Returns the elapsed time, each client's rows, and each private
    engine's plan-cache counters."""
    databases = []
    for _ in workloads:
        db = Engine().connect()
        populate(db.engine.catalog)
        databases.append(db)
    results = [None] * len(workloads)
    start = time.perf_counter()
    for index, (db, workload) in enumerate(zip(databases, workloads)):
        results[index] = [tuple(db.query(sql, params).rows)
                          for sql, params in workload]
    elapsed = time.perf_counter() - start
    return elapsed, results, [db.engine.pipeline.plan_cache.stats.as_dict()
                              for db in databases]


def run_shared_engine(workloads) -> tuple[float, list, dict]:
    """The new architecture: N sessions, one engine, one plan cache.

    Returns the elapsed time, each client's rows, and the engine's
    plan-cache counters."""
    engine = Engine()
    populate(engine.catalog)
    sessions = [engine.connect(label=f"client-{i}")
                for i in range(len(workloads))]
    results = [None] * len(workloads)
    errors = []

    def client(index: int):
        try:
            session = sessions[index]
            out = []
            with session.cursor() as cursor:
                for sql, params in workloads[index]:
                    cursor.execute(sql, params)
                    out.append(tuple(cursor.fetchall()))
            results[index] = out
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(workloads))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    stats = engine.pipeline.plan_cache.stats.as_dict()
    engine.close()
    return elapsed, results, stats


def test_shared_engine_beats_per_client_engines():
    workloads = [client_workload(c) for c in range(N_CLIENTS)]
    shapes = len(statement_shapes())

    baseline_time = None
    shared_time = None
    for _ in range(BEST_OF):
        b_time, b_results, b_stats = run_per_client_engines(workloads)
        s_time, s_results, s_stats = run_shared_engine(workloads)
        assert b_results == s_results, \
            "shared-engine sessions returned different rows"
        # The shared side compiles each shape once in total, however
        # its sessions interleave; the others take it as a hit.
        assert s_stats["misses"] == s_stats["stores"] == shapes, s_stats
        assert s_stats["hits"] == (N_CLIENTS - 1) * shapes, s_stats
        # The per-client side compiles each shape once per client.
        for stats in b_stats:
            assert stats["misses"] == shapes, stats
        baseline_time = b_time if baseline_time is None \
            else min(baseline_time, b_time)
        shared_time = s_time if shared_time is None \
            else min(shared_time, s_time)

    speedup = baseline_time / shared_time
    statements = sum(len(w) for w in workloads)
    _results["shared_vs_per_client"] = {
        "clients": N_CLIENTS,
        "statements_total": statements,
        "per_client_engines_s": round(baseline_time, 6),
        "shared_engine_sessions_s": round(shared_time, 6),
        # Unrounded: CI compares it with the floor.
        "speedup": speedup,
        "floor": REQUIRED_SPEEDUP,
        "shared_engine_plan_cache": s_stats,
        "note": ("speedup comes from shared compiled state (plan cache "
                 "hits across sessions); CPython threads interleave, "
                 "they do not parallelize; the floor is enforced by "
                 "the CI sessions job, not by this test"),
    }
    print_table(
        "session throughput: 4 clients, same workload",
        ["architecture", "seconds"],
        [["4x private Engine (serial, cold)",
          f"{baseline_time:.4f}"],
         ["1x Engine + 4 sessions (threads)", f"{shared_time:.4f}"],
         ["speedup", f"{speedup:.2f}x (floor {REQUIRED_SPEEDUP}x, "
          "enforced in CI)"]],
    )


def test_streaming_cursor_first_row_latency():
    """Streaming bonus: first row of a large scan arrives after one
    batch, independent of table size."""
    engine = Engine()
    populate(engine.catalog)
    session = engine.connect(batch_size=32)
    with session.cursor() as cursor:
        cursor.execute("SELECT * FROM EMPSKILLS")
        first = cursor.fetchone()
        scanned_at_first = cursor.counters["rows_scanned"]
        total = 1 + len(cursor.fetchall())
    assert first is not None
    assert scanned_at_first <= 32
    _results["streaming_first_fetch"] = {
        "rows_total": total,
        "rows_scanned_at_first_fetch": scanned_at_first,
        "batch_size": 32,
    }


@pytest.fixture(scope="session", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
