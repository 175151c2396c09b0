"""Overhead of CRUD through the view put-back path (ISSUE 10).

The lens claim: routing DML through a composite-object view — static
classification, WHERE/SET translation, and the dynamic get∘put identity
check — costs a bounded constant factor over hand-written base-table
DML.  The A/B, same engine, same rows:

* **base**: UPDATE/INSERT/DELETE statements naming the base table —
  the floor, the plain DML executor;
* **view**: the identical logical statements naming a single-source
  view (so the put-back translator runs on every statement, plan
  caches warm after the first).

Acceptance ceiling: the view path is at most ``2x`` the hand-written
per-statement time.  The ceiling moves with machine load, so the test
asserts only the clock-free part (both sides run every statement with
the same row counts and end with equal base tables) and records the
unrounded ``overhead`` beside its ``ceiling`` in
``BENCH_view_update.json`` under ``REPRO_BENCH_WRITE=1``; the CI
``view-updates`` job fails the build when the overhead is above it.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine

#: Acceptance ceiling: view-path CRUD vs hand-written base DML,
#: recorded in ``BENCH_view_update.json`` and enforced by CI.
MAX_OVERHEAD = 2.0

#: Timed repetitions; the best (lowest-overhead) one is reported.
BEST_OF = 3

N_ROWS = 400
N_STATEMENTS = 300

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_view_update.json"

_results: dict[str, dict] = {}


def build_session():
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY,"
                    " ENAME CHAR(12), SAL INT, DNO INT)")
    session.begin()
    for e in range(N_ROWS):
        session.execute("INSERT INTO EMP VALUES (?, ?, ?, ?)",
                        [e, f"e{e}", 100 + e, e % 10])
    session.commit()
    session.execute("CREATE VIEW VEMP (ID, NAME, PAY) AS"
                    " SELECT ENO, ENAME, SAL FROM EMP WHERE SAL >= 0")
    return engine, session


def drive(session, target: str, columns: tuple[str, str, str]
          ) -> tuple[float, list]:
    """Run a mixed CRUD loop against ``target``: seconds of wall and
    each statement's row count."""
    key, name, pay = columns
    counts = []
    start = time.perf_counter()
    for i in range(N_STATEMENTS):
        kind = i % 3
        if kind == 0:
            counts.append(session.execute(
                f"UPDATE {target} SET {pay} = {pay} + 1"
                f" WHERE {key} = ?", [i % N_ROWS]))
        elif kind == 1:
            counts.append(session.execute(
                f"INSERT INTO {target} ({key}, {name}, {pay})"
                f" VALUES (?, ?, ?)", [10_000 + i, f"n{i}", 7]))
        else:
            counts.append(session.execute(
                f"DELETE FROM {target} WHERE {key} = ?",
                [10_000 + i - 1]))  # the row inserted just before
    return time.perf_counter() - start, counts


def kind_totals(counts: list) -> dict:
    """Rows touched per statement kind of :func:`drive`."""
    return {kind: sum(counts[index::3]) for index, kind
            in enumerate(("UPDATE", "INSERT", "DELETE"))}


def base_rows(session) -> list:
    return sorted(session.query("SELECT * FROM EMP").rows)


def test_view_crud_overhead_bounded():
    best = None
    for _ in range(BEST_OF):
        engine, session = build_session()
        base_s, base_counts = drive(session, "EMP",
                                    ("ENO", "ENAME", "SAL"))
        expected = base_rows(session)
        engine.close()

        engine, session = build_session()
        view_s, view_counts = drive(session, "VEMP",
                                    ("ID", "NAME", "PAY"))
        assert view_counts == base_counts
        assert kind_totals(view_counts) == {"UPDATE": N_STATEMENTS // 3,
                                            "INSERT": N_STATEMENTS // 3,
                                            "DELETE": N_STATEMENTS // 3}
        assert base_rows(session) == expected
        engine.close()

        measurement = {"base_s": base_s, "view_s": view_s,
                       "overhead": view_s / base_s}
        if best is None or measurement["overhead"] < best["overhead"]:
            best = measurement

    base_us = best["base_s"] / N_STATEMENTS * 1e6
    view_us = best["view_s"] / N_STATEMENTS * 1e6
    _results["view_crud"] = {
        "rows": N_ROWS,
        "statements": N_STATEMENTS,
        "base_per_stmt_us": round(base_us, 1),
        "view_per_stmt_us": round(view_us, 1),
        # Unrounded: CI compares it with the ceiling.
        "overhead": best["overhead"],
        "ceiling": MAX_OVERHEAD,
        "note": ("overhead = identical logical CRUD through the "
                 "put-back translator (incl. the get-put round-trip "
                 "check) vs naming the base table directly"),
    }
    print_table(
        f"view-path CRUD ({N_STATEMENTS} statements over "
        f"{N_ROWS} rows)",
        ["configuration", "per-statement"],
        [["base-table DML (hand-written)", f"{base_us:.0f} us"],
         ["view DML (lens put-back)", f"{view_us:.0f} us"],
         ["overhead",
          f"{best['overhead']:.2f}x (ceiling {MAX_OVERHEAD}x)"]],
    )


@pytest.fixture(scope="session", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
