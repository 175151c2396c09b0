"""Incremental matview maintenance vs full recomputation: the A/B.

The ISSUE-2 tentpole claim: on single-row-delta workloads a
materialized CO view maintained by delta propagation beats re-running
the view query by a wide margin (>= 5x is the acceptance floor; the
measured gap is usually far larger, since a delta touches a handful of
hash probes while recomputation re-plans and re-joins every stream).

Methodology: one deferred-policy view per schema; for each generated
single-row DML statement we time ``view.refresh()`` (applies exactly
one queued delta incrementally) against ``view.refresh(full=True)``
(recompute from base tables).  Equality of the two results is asserted
at every step, so the benchmark doubles as an end-to-end check.

The wall-clock floor moves with machine load, so the speedup tests
assert no wall-clock bound: they assert equal results and record the
unrounded ``speedup`` beside its ``floor`` in
``BENCH_matview.json`` under ``REPRO_BENCH_WRITE=1``; the CI ``docs``
job fails the build when a recorded speedup is below its floor.

The clock-free shape check: a maintenance round starts from its delta
rows and probes the view's persistent hash indexes, so the extent rows
it probes (``view.stats["rows_probed"]``) per single-row statement must
not grow with the size of the extents.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.api.session import Session
from repro.cache.matview import co_canonical
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

#: Acceptance floor for incremental-vs-full speedup, recorded in
#: ``BENCH_matview.json`` and enforced by CI, not asserted here.
REQUIRED_SPEEDUP = 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_matview.json"

_results: dict[str, dict] = {}

BOM_LEVELS_QUERY = """
OUT OF xassembly AS (SELECT * FROM PART WHERE kind = 'assembly'),
       xpart AS PART,
       holds AS (RELATE xassembly VIA HOLDS, xpart
                 USING CONTAINS c
                 WITH c.qty AS qty
                 WHERE xassembly.pno = c.parent AND c.child = xpart.pno)
TAKE *
"""


def measure_maintenance(session: Session, name: str,
                        statements: list[str]) -> tuple[float, float]:
    """Per-statement maintenance cost: (incremental, full), seconds.

    Each statement is executed once; its queued delta is applied
    incrementally (timed), then the view is also recomputed fully
    (timed) and the two results are checked for equality.
    """
    view = session.engine.matviews.get(name)
    incremental_total = 0.0
    full_total = 0.0
    for sql in statements:
        session.execute(sql)
        start = time.perf_counter()
        view.refresh()
        incremental_total += time.perf_counter() - start
        maintained = co_canonical(view.result)
        start = time.perf_counter()
        view.refresh(full=True)
        full_total += time.perf_counter() - start
        assert co_canonical(view.result) == maintained, (
            f"incremental and full refresh disagree after {sql!r}"
        )
    count = len(statements)
    return incremental_total / count, full_total / count


def record(name: str, incremental: float, full: float) -> float:
    speedup = full / incremental
    _results[name] = {
        "incremental_s_per_stmt": incremental,
        "full_s_per_stmt": full,
        # Unrounded: CI compares it with the floor.
        "speedup": speedup,
        "floor": REQUIRED_SPEEDUP,
    }
    return speedup


def org_single_row_statements() -> list[str]:
    statements = []
    for index in range(10):
        eno = 80000 + index
        statements.append(
            f"INSERT INTO EMP VALUES ({eno}, 'bench-{eno}', 1, 90000)")
        statements.append(
            f"UPDATE EMP SET SAL = {91000 + index} WHERE ENO = {eno}")
        statements.append(f"INSERT INTO EMPSKILLS VALUES ({eno}, 1)")
        statements.append(
            f"DELETE FROM EMPSKILLS WHERE ESENO = {eno} AND ESSNO = 1")
    return statements


def bom_single_row_statements(max_part: int) -> list[str]:
    statements = []
    for index in range(10):
        pno = 90000 + index
        statements.append(
            f"INSERT INTO PART VALUES ({pno}, 'bench-{pno}', "
            f"'atomic', 7)")
        statements.append(
            f"INSERT INTO CONTAINS VALUES (1, {pno}, 2)")
        statements.append(
            f"UPDATE PART SET COST = {index + 1} WHERE PNO = {pno}")
        statements.append(
            f"DELETE FROM CONTAINS WHERE CHILD = {pno}")
    return statements


def org_matview_session(employees_per_dept: int = 12) -> Session:
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(
        departments=80, employees_per_dept=employees_per_dept,
        projects_per_dept=4, skills=60, skills_per_employee=3,
        skills_per_project=3, arc_fraction=0.25, seed=1994))
    session = engine.connect()
    session.execute(f"CREATE MATERIALIZED VIEW deps_arc REFRESH DEFERRED "
                    f"AS {DEPS_ARC_QUERY}")
    return session


@pytest.fixture(scope="module")
def org_matview_db() -> Session:
    session = org_matview_session()
    yield session
    session.engine.close()


@pytest.fixture(scope="module")
def bom_matview_db() -> Session:
    engine = Engine()
    create_bom_schema(engine.catalog)
    populate_bom(engine.catalog, BOMScale(roots=6, depth=5, fanout=3,
                                          seed=1994))
    session = engine.connect()
    session.execute(f"CREATE MATERIALIZED VIEW levels REFRESH DEFERRED "
                    f"AS {BOM_LEVELS_QUERY}")
    yield session
    engine.close()


def rows_probed_per_statement(session: Session, name: str,
                              statements: list[str]) -> list[int]:
    """Extent rows each statement's maintenance round probes."""
    view = session.engine.matviews.get(name)
    probed = []
    for sql in statements:
        session.execute(sql)
        before = view.stats["rows_probed"]
        view.refresh()
        probed.append(view.stats["rows_probed"] - before)
    assert co_canonical(view.result) == \
        co_canonical(view.refresh(full=True))
    return probed


def test_org_rows_probed_independent_of_extent_size():
    """Maintenance cost follows the delta: quadrupling the employees
    per department leaves every statement's probe count unchanged."""
    # Besides fresh rows, rows of existing objects whose join partners
    # do not grow with the scale: employee 1 and project 1 (department
    # 1 is at 'ARC'; each has three skills) and an EMPSKILLS row.
    statements = org_single_row_statements() + [
        "UPDATE EMP SET SAL = SAL + 1 WHERE ENO = 1",
        "UPDATE PROJ SET BUDGET = BUDGET + 1 WHERE PNO = 1",
        "INSERT INTO EMPSKILLS VALUES (2, 60)",
    ]
    counts = {}
    for scale in (1, 4):
        session = org_matview_session(employees_per_dept=12 * scale)
        try:
            counts[scale] = rows_probed_per_statement(
                session, "deps_arc", statements)
        finally:
            session.engine.close()
    print_table(
        "matview maintenance, extent rows probed per statement",
        ["employees/dept", "total probed", "max per statement"],
        [[12 * scale, sum(c), max(c)] for scale, c in counts.items()],
    )
    assert counts[1] == counts[4]


def test_org_single_row_delta_speedup(org_matview_db):
    incremental, full = measure_maintenance(
        org_matview_db, "deps_arc", org_single_row_statements())
    speedup = record("org_single_row_delta", incremental, full)
    print_table(
        "matview maintenance, org schema (per single-row statement)",
        ["strategy", "seconds/stmt", "speedup"],
        [["full recompute", f"{full:.6f}", "1.0x"],
         ["incremental delta", f"{incremental:.6f}",
          f"{speedup:.1f}x"]],
    )


def test_bom_single_row_delta_speedup(bom_matview_db):
    parts = len(bom_matview_db.engine.catalog.table("PART"))
    incremental, full = measure_maintenance(
        bom_matview_db, "levels", bom_single_row_statements(parts))
    speedup = record("bom_single_row_delta", incremental, full)
    print_table(
        "matview maintenance, BOM two-level view (per statement)",
        ["strategy", "seconds/stmt", "speedup"],
        [["full recompute", f"{full:.6f}", "1.0x"],
         ["incremental delta", f"{incremental:.6f}",
          f"{speedup:.1f}x"]],
    )


@pytest.fixture(scope="module", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
