"""Fig. 3: existential-subquery-to-join rewrite.

The paper's walkthrough: ``SELECT * FROM EMP e WHERE EXISTS (SELECT 1
FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)``.

"One straightforward execution strategy used in many DBMSs is to
retrieve employees first and for each execute the subquery ...  Such a
strategy may result in poor performance ...  A better strategy could be
to find departments at 'ARC' location first and then get their
employees.  This is achieved by a rewrite optimization ...  The
performance study in [39] shows orders of magnitude improvement."

Three strategies, same engine:

* **tuple-at-a-time** — the quoted strawman: one subquery execution per
  employee row;
* **semi-join** — rewrite disabled: the E quantifier runs as a hash
  semi-join (set-oriented, but scans all employees);
* **rewritten** — E-to-F conversion + SELECT merge + index selection:
  selective departments first, index probes into EMP.

The tests assert that every strategy returns the same rows.  The time
ratios move with machine load, so each is recorded beside its bound in
``BENCH_fig3.json`` at the repository root under
``REPRO_BENCH_WRITE=1``, and CI enforces the bounds with
``tools/check_bench.py``: the full rewrite at least 10x the
tuple-at-a-time strawman, at most 1.5x the semi-join's time, at least
3x the strawman at the selective end of the sweep, and a win that
grows with selectivity (growth at least 1.0).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import make_org_db, print_table, write_results
from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import OrgScale

QUERY = ("SELECT e.eno FROM EMP e WHERE EXISTS "
         "(SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND "
         "d.dno = e.edno)")

SCALE = OrgScale(departments=120, employees_per_dept=25,
                 projects_per_dept=1, skills=10, skills_per_employee=1,
                 skills_per_project=1, arc_fraction=0.05, seed=3)

#: The rewrite wins clearly over the strawman ...
FULL_REWRITE_FLOOR = 10.0
#: ... and the full rewrite is no slower than the plain semi-join,
#: within this factor (the selective side drives).
SEMIJOIN_CEILING = 1.5
#: At the selective end of the sweep the win is solid ...
SELECTIVE_FLOOR = 3.0
#: ... and it grows with selectivity (last ratio over first).
GROWTH_FLOOR = 1.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fig3.json"
_results: dict = {}


def record(name: str, **entry: float) -> None:
    """Record one ratio beside its bound (unrounded: CI compares the
    two)."""
    _results[name] = entry
    write_results(RESULTS_PATH, _results)


def tuple_at_a_time(db) -> list:
    """Per-employee correlated execution (one prepared probe plan)."""
    probe = QueryPipeline(db.engine.catalog, db.engine.stats)
    compiled = probe.compile_select(parse_statement(
        "SELECT dno, loc FROM DEPT"))
    departments = probe.run_compiled(compiled).rows
    found = []
    for eno, edno in db.query("SELECT eno, edno FROM EMP").rows:
        # the strawman: evaluate the subquery predicate per outer row,
        # scanning DEPT each time (no index, no reordering)
        for dno, loc in departments:
            if loc == "ARC" and dno == edno:
                found.append((eno,))
                break
    return found


def compile_with_options(db, apply_rewrite: bool, use_indexes: bool):
    """Compile once; the strategies are compared on execution time
    (the paper's concern), not compilation."""
    from repro.optimizer.optimizer import PlannerOptions
    options = PipelineOptions(
        apply_nf_rewrite=apply_rewrite,
        planner=PlannerOptions(use_indexes=use_indexes),
    )
    pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, options)
    compiled = pipeline.compile_select(parse_statement(QUERY))

    def run():
        return pipeline.run_compiled(compiled)
    return run


def timed(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.benchmark(group="fig3")
def test_fig3_rewrite_strategies(benchmark):
    db = make_org_db(SCALE)
    run_semi = compile_with_options(db, apply_rewrite=False,
                                    use_indexes=False)
    run_rewritten = compile_with_options(db, apply_rewrite=True,
                                         use_indexes=True)
    naive_rows, naive_time = timed(lambda: tuple_at_a_time(db))
    semi_result, semi_time = timed(run_semi)
    rewritten_result, rewritten_time = timed(run_rewritten)
    benchmark(run_rewritten)

    assert sorted(naive_rows) == sorted(semi_result.rows) \
        == sorted(rewritten_result.rows)

    speedup_semi = naive_time / semi_time
    speedup_full = naive_time / rewritten_time
    print_table(
        "Fig. 3 — existential subquery execution strategies",
        ["strategy", "time (ms)", "speedup vs tuple-at-a-time"],
        [["tuple-at-a-time subquery", f"{naive_time * 1e3:.2f}", "1.0x"],
         ["semi-join (no rewrite)", f"{semi_time * 1e3:.2f}",
          f"{speedup_semi:.1f}x"],
         ["E-to-F rewrite + index", f"{rewritten_time * 1e3:.2f}",
          f"{speedup_full:.1f}x"]],
    )
    print("paper: 'orders of magnitude improvement in performance of "
          "queries with existential predicates' [39]")

    record("full_rewrite", speedup=speedup_full, floor=FULL_REWRITE_FLOOR)
    record("rewrite_vs_semijoin", ratio=rewritten_time / semi_time,
           ceiling=SEMIJOIN_CEILING)


@pytest.mark.benchmark(group="fig3")
def test_fig3_selectivity_sweep(benchmark):
    """The win grows as the restriction gets more selective — the
    rewritten plan touches only matching departments' employees."""
    rows = []
    ratios = []
    for arc_fraction in (0.5, 0.2, 0.05):
        scale = OrgScale(departments=80, employees_per_dept=15,
                         projects_per_dept=1, skills=5,
                         skills_per_employee=1, skills_per_project=1,
                         arc_fraction=arc_fraction, seed=11)
        db = make_org_db(scale)
        run_rewritten = compile_with_options(db, True, True)
        naive_rows, naive_time = timed(lambda d=db: tuple_at_a_time(d))
        rewritten, rewritten_time = timed(run_rewritten)
        assert sorted(naive_rows) == sorted(rewritten.rows)
        ratio = naive_time / rewritten_time
        ratios.append(ratio)
        rows.append([f"{arc_fraction:.0%}",
                     f"{naive_time * 1e3:.2f}",
                     f"{rewritten_time * 1e3:.2f}",
                     f"{ratio:.1f}x"])
    print_table("Fig. 3 — selectivity sweep (ARC fraction)",
                ["selectivity", "naive (ms)", "rewritten (ms)",
                 "speedup"], rows)
    benchmark(lambda: ratios)
    record("sweep_selective", speedup=ratios[-1], floor=SELECTIVE_FLOOR)
    record("sweep_growth", growth=ratios[-1] / ratios[0],
           floor=GROWTH_FLOOR)
