"""Fig. 5/6: reachability rewrite — one multi-output plan vs. eight
independent single-component queries.

"Comparing single component derivation in SQL (Fig. 6) with multi-table
derivation as applied by XNF (Fig. 5b) clearly shows the impact of XNF's
inherent treatment of common subexpressions."

We execute both sides on the same engine and report wall-clock, rows
scanned, and join work.  The XNF side evaluates every shared derivation
once (spools); the SQL side recomputes parent derivations inside every
query.

The tests assert that both derivations give the same rows and that the
XNF side shares its work (spool materializations).  Each records its
single-component / XNF time ratio beside its floor in
``BENCH_fig5.json`` at the repository root under
``REPRO_BENCH_WRITE=1``; CI enforces the floors with
``tools/check_bench.py`` (``speedup`` at least ``floor``): 1.5x at
medium scale, 1x (the shared plan wins) at every point of the sweep.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import make_org_db, print_table, write_results
from repro.baseline.single_component import SingleComponentDerivation
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY, OrgScale

#: One shared multi-output plan beats eight fragmented queries by this
#: factor at medium scale ...
COMPARISON_FLOOR = 1.5
#: ... and wins at every scale of the sweep.
SWEEP_FLOOR = 1.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fig5.json"
_results: dict = {}


def record_speedup(name: str, ratio: float, floor: float) -> None:
    """Record a single-component / XNF time ratio beside its floor
    (unrounded: CI compares the two)."""
    _results[name] = {"speedup": ratio, "floor": floor}
    write_results(RESULTS_PATH, _results)


def run_baseline(db, queries):
    derivation = SingleComponentDerivation(db.engine.catalog)
    return derivation.run_queries(queries)


def timed(fn, repeat=3):
    """Best-of-N wall clock: robust against scheduler noise."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="fig5")
def test_fig5_multi_output_vs_single_component(benchmark):
    scale = OrgScale(departments=40, employees_per_dept=12,
                     projects_per_dept=6, skills=60,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.25, seed=5)
    db = make_org_db(scale)
    derivation = SingleComponentDerivation(db.engine.catalog)
    queries = derivation.build_queries(parse_statement(DEPS_ARC_QUERY))
    executable = db.xnf_executable("deps_arc")

    baseline_results = run_baseline(db, queries)
    baseline_time = timed(lambda: run_baseline(db, queries))
    co = executable.run()
    xnf_time = timed(executable.run)

    benchmark(executable.run)

    # Same data comes out of both derivations.
    for name in ("XDEPT", "XEMP", "XPROJ", "XSKILLS"):
        assert sorted(set(baseline_results[name])) == \
            sorted(co.component(name).rows), name

    ratio = baseline_time / xnf_time
    print_table(
        "Fig. 5/6 — derivation strategies (deps_ARC, medium scale)",
        ["strategy", "queries", "time (ms)", "relative"],
        [["single-component SQL (Fig. 6)", len(queries),
          f"{baseline_time * 1e3:.2f}", f"{ratio:.2f}x"],
         ["XNF multi-output plan (Fig. 5b)", 1,
          f"{xnf_time * 1e3:.2f}", "1.00x"]],
    )
    print(f"XNF counters: {co.counters}")

    # Shape: the shared plan evaluates common derivations once; the
    # ratio is recorded for CI.
    assert co.counters["spool_materializations"] >= 3
    record_speedup("comparison", ratio, COMPARISON_FLOOR)


@pytest.mark.benchmark(group="fig5")
def test_fig5_scale_sweep(benchmark):
    rows = []
    ratios = []
    for departments in (10, 30, 60):
        scale = OrgScale(departments=departments, employees_per_dept=10,
                         projects_per_dept=4, skills=40,
                         skills_per_employee=2, skills_per_project=2,
                         arc_fraction=0.3, seed=6)
        db = make_org_db(scale)
        derivation = SingleComponentDerivation(db.engine.catalog)
        queries = derivation.build_queries(
            parse_statement(DEPS_ARC_QUERY))
        executable = db.xnf_executable("deps_arc")

        baseline_results = run_baseline(db, queries)
        co = executable.run()
        for name in ("XDEPT", "XEMP", "XPROJ", "XSKILLS"):
            assert sorted(set(baseline_results[name])) == \
                sorted(co.component(name).rows), (departments, name)
        baseline_time = timed(lambda: run_baseline(db, queries))
        xnf_time = timed(executable.run)
        ratios.append(baseline_time / xnf_time)
        rows.append([departments, f"{baseline_time * 1e3:.2f}",
                     f"{xnf_time * 1e3:.2f}",
                     f"{ratios[-1]:.2f}x"])
    print_table("Fig. 5/6 — scale sweep (#departments)",
                ["departments", "SQL 8-query (ms)", "XNF (ms)",
                 "SQL/XNF"], rows)
    benchmark(lambda: ratios)
    for departments, ratio in zip((10, 30, 60), ratios):
        record_speedup(f"sweep_{departments}", ratio, SWEEP_FLOOR)
