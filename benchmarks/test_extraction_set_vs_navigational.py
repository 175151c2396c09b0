"""Sect. 1: set-oriented extraction vs. query-per-parent navigation.

"This style of data extraction leads to numerous queries, and does not
lend itself to effective set-oriented processing ...  the number of
fragments is in the order of number of instances of parent components
...  set-oriented processing could lead to significant improvement in
performance, even in orders of magnitude."

The tests assert that both strategies extract the same rows and how many
queries navigation sends.  Each records its navigational / XNF time
ratio beside its floor in ``BENCH_extraction.json`` at the repository
root under ``REPRO_BENCH_WRITE=1``; CI enforces the floors with
``tools/check_bench.py`` (``speedup`` at least ``floor``): 5x on the
comparison, 3x at every point of the scale sweep.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import make_org_db, print_table, write_results
from repro.baseline.navigational import NavigationalExtractor
from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY, OrgScale

#: Set-oriented extraction beats navigation by this factor ...
COMPARISON_FLOOR = 5
#: ... and by this one at every scale of the sweep (looser: the smallest
#: scale has few parents to navigate).
SWEEP_FLOOR = 3

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_extraction.json"
_results: dict = {}


def record_speedup(name: str, ratio: float, floor: float) -> None:
    """Record a navigational / XNF time ratio beside its floor
    (unrounded: CI compares the two)."""
    _results[name] = {"speedup": ratio, "floor": floor}
    write_results(RESULTS_PATH, _results)


def extract_both(db):
    query = parse_statement(DEPS_ARC_QUERY)
    # The navigational baseline models Sect. 1's query-per-parent
    # client: each fragment is an independent ad-hoc statement, so it
    # runs through a cache-disabled pipeline (the server-side plan
    # cache is this repo's addition and would mask the paper's shape).
    nav_pipeline = QueryPipeline(db.engine.catalog, db.engine.stats,
                                 PipelineOptions(plan_cache_size=0))
    navigator = NavigationalExtractor(nav_pipeline)
    start = time.perf_counter()
    fragmented = navigator.extract(query)
    nav_time = time.perf_counter() - start

    executable = db.xnf_executable("deps_arc")
    start = time.perf_counter()
    co = executable.run()
    xnf_time = time.perf_counter() - start
    return fragmented, nav_time, co, xnf_time


@pytest.mark.benchmark(group="extraction")
def test_extraction_comparison(benchmark):
    scale = OrgScale(departments=25, employees_per_dept=8,
                     projects_per_dept=4, skills=40,
                     skills_per_employee=2, skills_per_project=2,
                     arc_fraction=0.4, seed=8)
    db = make_org_db(scale)
    fragmented, nav_time, co, xnf_time = extract_both(db)
    benchmark(db.xnf_executable("deps_arc").run)

    # Semantics agree.
    for name in co.components:
        assert sorted(fragmented.components[name]) == \
            sorted(co.component(name).rows), name

    ratio = nav_time / xnf_time
    print_table(
        "Sect. 1 — extraction strategies",
        ["strategy", "queries issued", "time (ms)", "relative"],
        [["navigational (query per parent)",
          fragmented.queries_issued, f"{nav_time * 1e3:.2f}",
          f"{ratio:.1f}x"],
         ["set-oriented XNF", 1, f"{xnf_time * 1e3:.2f}", "1.0x"]],
    )
    assert fragmented.queries_issued > 50  # fragments ~ parent instances
    record_speedup("comparison", ratio, COMPARISON_FLOOR)


@pytest.mark.benchmark(group="extraction")
def test_extraction_scale_sweep(benchmark):
    """The gap grows with the number of parent instances."""
    rows = []
    ratios = []
    queries_issued = []
    for departments in (5, 15, 40):
        scale = OrgScale(departments=departments, employees_per_dept=8,
                         projects_per_dept=3, skills=30,
                         skills_per_employee=2, skills_per_project=2,
                         arc_fraction=0.5, seed=9)
        db = make_org_db(scale)
        fragmented, nav_time, _co, xnf_time = extract_both(db)
        ratios.append(nav_time / xnf_time)
        queries_issued.append(fragmented.queries_issued)
        rows.append([departments, fragmented.queries_issued,
                     f"{nav_time * 1e3:.1f}", f"{xnf_time * 1e3:.1f}",
                     f"{ratios[-1]:.1f}x"])
    print_table("Sect. 1 — extraction scale sweep",
                ["departments", "nav queries", "nav (ms)", "XNF (ms)",
                 "nav/XNF"], rows)
    benchmark(lambda: ratios)
    # Query count scales with parent instances; the advantage at each
    # scale is recorded for CI.
    assert queries_issued[2] > queries_issued[0] * 4
    for departments, ratio in zip((5, 15, 40), ratios):
        record_speedup(f"sweep_{departments}", ratio, SWEEP_FLOOR)
