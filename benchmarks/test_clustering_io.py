"""Sect. 5.1 / Sect. 6: CO clustering for I/O reduction.

"the plan optimizer should take into account any parent/child links
present in the database, and clustering of data on disk for I/O and
pathlength reduction ...  Together with adequate CO clustering
strategies ... these steps lead to a relatively fast extraction of COs."

The paper defers CO clustering to future work; this bench quantifies
the projected benefit on our simulated page store: the CO-shaped access
pattern (parent, then its children) is replayed against a sequential
layout and a CO-clustered layout under a small LRU buffer.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_org_db, print_table
from repro.storage.clustering import (co_clustered_layout,
                                      hierarchical_access_trace,
                                      measure_faults, sequential_layout)
from repro.workloads.orgdb import OrgScale


@pytest.mark.benchmark(group="clustering")
def test_co_clustering_reduces_page_faults(benchmark):
    db = make_org_db(OrgScale(departments=40, employees_per_dept=10,
                              projects_per_dept=5, skills=60,
                              skills_per_employee=3,
                              skills_per_project=3, arc_fraction=0.3,
                              seed=51))
    catalog = db.engine.catalog
    trace = list(hierarchical_access_trace(catalog, "DEPT"))
    tables = sorted({t for t, _r in trace})
    sequential = sequential_layout(catalog, tables, rows_per_page=8)
    clustered = benchmark(co_clustered_layout, catalog, "DEPT",
                          rows_per_page=8)

    rows = []
    improvements = []
    for buffer_pages in (2, 8, 32):
        seq_faults = measure_faults(sequential, trace,
                                    buffer_pages).faults
        clu_faults = measure_faults(clustered, trace,
                                    buffer_pages).faults
        improvements.append(seq_faults / max(clu_faults, 1))
        rows.append([buffer_pages, seq_faults, clu_faults,
                     f"{improvements[-1]:.1f}x"])
    print_table(
        "Sect. 5.1 — CO clustering, page faults of the CO access "
        "pattern",
        ["buffer pages", "sequential layout", "CO-clustered layout",
         "improvement"], rows)
    print(f"trace length: {len(trace)} row accesses; "
          f"{sequential.page_count} pages sequential, "
          f"{clustered.page_count} pages clustered")

    # Clustering wins most when the buffer is small (here it reaches
    # the cold-miss optimum: one fault per page); the advantage shrinks
    # as the buffer approaches the database size.
    assert improvements[0] > 1.5
    assert improvements[0] >= improvements[-1]


@pytest.mark.benchmark(group="clustering")
def test_scan_pattern_unharmed_by_clustering(benchmark):
    """Full-table scans (the tabular view) see identical I/O either
    way — clustering helps COs without hurting relational access."""
    db = make_org_db(OrgScale(departments=30, employees_per_dept=8,
                              projects_per_dept=4, skills=40,
                              arc_fraction=0.3, seed=52))
    catalog = db.engine.catalog
    tables = ["DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS"]
    scan_trace = [
        (name, rid)
        for name in tables
        for rid, _row in catalog.table(name).scan()
    ]
    sequential = sequential_layout(catalog, tables, rows_per_page=8)
    clustered = co_clustered_layout(catalog, "DEPT", rows_per_page=8,
                                    extra_tables=("SKILLS",))
    benchmark(lambda: measure_faults(sequential, scan_trace, 4))
    seq_faults = measure_faults(sequential, scan_trace, 4).faults
    clu_faults = measure_faults(clustered, scan_trace, 4).faults
    print(f"\nscan faults: sequential={seq_faults} "
          f"clustered={clu_faults} "
          f"(pages: {sequential.page_count}/{clustered.page_count})")
    # A scan touches every page exactly once under the sequential
    # layout; the clustered layout pays at most a small constant more.
    assert seq_faults == sequential.page_count
    assert clu_faults <= int(clustered.page_count * 3)