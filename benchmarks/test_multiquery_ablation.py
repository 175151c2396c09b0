"""Sect. 5.1: multi-query optimization — common subexpression sharing.

"Processing an XNF view is equivalent to processing a set of SQL
queries.  The difference is, that the scope for the optimizer is larger,
because all these queries can be optimized together, avoiding
unnecessary duplication of work.  Here we can use results from research
on multiple query optimization [41]."

Ablation: the planner's spooling of shared boxes is switched off, so
every output stream re-derives its inputs — the work the paper's shared
evaluation avoids.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import make_org_db, print_table
from repro.optimizer.optimizer import PlannerOptions
from repro.workloads.orgdb import OrgScale
from repro.xnf.result import XNFExecutable


def executables(db):
    shared = db.xnf_executable("deps_arc")
    unshared = XNFExecutable(
        shared.translated, db.engine.catalog, db.engine.stats,
        PlannerOptions(share_common_subexpressions=False),
        bindings=shared.bindings,
    )
    return shared, unshared


@pytest.mark.benchmark(group="multiquery")
def test_sharing_ablation(benchmark):
    scale = OrgScale(departments=50, employees_per_dept=12,
                     projects_per_dept=6, skills=80,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.3, seed=41)
    db = make_org_db(scale)
    shared, unshared = executables(db)

    start = time.perf_counter()
    co_shared = shared.run()
    shared_time = time.perf_counter() - start
    start = time.perf_counter()
    co_unshared = unshared.run()
    unshared_time = time.perf_counter() - start
    benchmark(shared.run)

    for name in co_shared.components:
        assert sorted(co_shared.component(name).rows) == \
            sorted(co_unshared.component(name).rows)

    print_table(
        "Sect. 5.1 — common-subexpression sharing ablation",
        ["variant", "rows scanned", "rows joined", "time (ms)"],
        [["shared (spooled)", co_shared.counters["rows_scanned"],
          co_shared.counters["rows_joined"],
          f"{shared_time * 1e3:.2f}"],
         ["re-evaluated", co_unshared.counters["rows_scanned"],
          co_unshared.counters["rows_joined"],
          f"{unshared_time * 1e3:.2f}"]],
    )
    print(f"spool materializations: "
          f"{co_shared.counters['spool_materializations']} "
          f"(reads: {co_shared.counters['spool_reads']})")

    assert co_shared.counters["spool_materializations"] >= 3
    assert co_unshared.counters["spool_materializations"] == 0
    assert co_shared.counters["rows_scanned"] < \
        co_unshared.counters["rows_scanned"]
    assert co_shared.counters["rows_joined"] <= \
        co_unshared.counters["rows_joined"]


@pytest.mark.benchmark(group="multiquery")
def test_sharing_gap_grows_with_scale(benchmark):
    rows = []
    scan_ratios = []
    for departments in (10, 30, 60):
        scale = OrgScale(departments=departments,
                         employees_per_dept=10, projects_per_dept=5,
                         skills=50, skills_per_employee=2,
                         skills_per_project=2, arc_fraction=0.3,
                         seed=42)
        db = make_org_db(scale)
        shared, unshared = executables(db)
        co_shared = shared.run()
        co_unshared = unshared.run()
        ratio = (co_unshared.counters["rows_scanned"]
                 / max(co_shared.counters["rows_scanned"], 1))
        scan_ratios.append(ratio)
        rows.append([departments,
                     co_shared.counters["rows_scanned"],
                     co_unshared.counters["rows_scanned"],
                     f"{ratio:.2f}x"])
    print_table("Sect. 5.1 — scan work vs scale",
                ["departments", "shared scans", "unshared scans",
                 "ratio"], rows)
    benchmark(lambda: scan_ratios)
    assert all(r > 1.0 for r in scan_ratios)
