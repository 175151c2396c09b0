"""Sect. 5.2: cache traversal rate on the Cattell OO1 benchmark.

"Using the traversal operation from that benchmark, we could access in a
pre-loaded XNF cache more than 100,000 tuples per second which matches
the requirements for CAD applications."

The OO1 traversal: start at a random part, follow CONNECTS to depth 7,
counting every part touched.  The cache is pre-loaded (extraction cost
excluded, as in the paper's "pre-loaded XNF cache").  Two paths are
timed: the workspace's ``children("connects")`` and the generated
class's ``connects()``, the path applications and perfbench's
``co_cache`` take.

The tests assert tuple counts only.  Each records its rate beside the
paper's 100,000 tuples/s floor in ``BENCH_cache_traversal.json`` at the
repository root under ``REPRO_BENCH_WRITE=1`` (the depth-7 traversal
once per path: ``oo1_traversal`` and ``oo1_traversal_generated``); CI
uploads the file and enforces the floors with ``tools/check_bench.py``.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine
from repro.cache.manager import XNFCache
from repro.cache.objects import bind_classes
from repro.workloads.oo1 import (OO1Scale, create_oo1_schema,
                                 oo1_view_query, populate_oo1)

PAPER_CLAIM_TUPLES_PER_SECOND = 100_000
TRAVERSAL_DEPTH = 7

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_cache_traversal.json"
_results: dict = {}


def record(name: str, rate: float, tuples: int) -> None:
    """Record a measured rate beside the paper's floor (unrounded: CI
    compares the two)."""
    _results[name] = {"rate": rate, "floor": PAPER_CLAIM_TUPLES_PER_SECOND,
                      "tuples": tuples}
    write_results(RESULTS_PATH, _results)


def build_cache(parts: int) -> XNFCache:
    with Engine() as engine:
        create_oo1_schema(engine.catalog)
        populate_oo1(engine.catalog, OO1Scale(parts=parts, seed=1994))
        return engine.connect().open_cache(
            oo1_view_query(1, max(parts // 100, 2)))


def traverse(start, depth: int) -> int:
    """Depth-first OO1 traversal; returns tuples touched."""
    touched = 1
    if depth == 0:
        return touched
    for child in start.children("connects"):
        touched += traverse(child, depth - 1)
    return touched


def traverse_generated(start, depth: int) -> int:
    """The same traversal through the generated class's navigation
    method."""
    touched = 1
    if depth == 0:
        return touched
    for child in start.connects():
        touched += traverse_generated(child, depth - 1)
    return touched


def timed(run) -> tuple[int, float]:
    """(tuples touched, tuples/s) of a second, warmed-up run."""
    run()
    start_time = time.perf_counter()
    touched = run()
    return touched, touched / (time.perf_counter() - start_time)


@pytest.mark.benchmark(group="cache-traversal")
def test_oo1_traversal_rate(benchmark):
    cache = build_cache(parts=5000)
    parts = cache.extent("xpart")
    rng = random.Random(7)
    starts = [rng.choice(parts) for _ in range(20)]

    def run_traversals() -> int:
        return sum(traverse(s, TRAVERSAL_DEPTH) for s in starts)

    def run_generated() -> int:
        return sum(traverse_generated(s, TRAVERSAL_DEPTH) for s in starts)

    touched, rate = timed(run_traversals)
    benchmark(run_traversals)
    bind_classes(cache)
    generated_touched, generated_rate = timed(run_generated)

    print_table(
        "Sect. 5.2 — OO1 depth-7 traversal in the pre-loaded cache",
        ["metric", "paper", "measured"],
        [["tuples/second (workspace children())",
          f">{PAPER_CLAIM_TUPLES_PER_SECOND:,}", f"{rate:,.0f}"],
         ["tuples/second (generated connects())", "-",
          f"{generated_rate:,.0f}"],
         ["tuples touched", "-", f"{touched:,}"],
         ["cached parts", "20,000 (small OO1)", f"{len(parts):,}"]],
    )
    assert generated_touched == touched
    record("oo1_traversal", rate, touched)
    record("oo1_traversal_generated", generated_rate, generated_touched)


@pytest.mark.benchmark(group="cache-traversal")
def test_cursor_scan_rate(benchmark):
    """Independent-cursor browsing, timed against the same claim."""
    cache = build_cache(parts=5000)

    def scan() -> int:
        cursor = cache.independent_cursor("xpart")
        count = 0
        obj = cursor.fetch_next()
        while obj is not None:
            count += 1
            obj = cursor.fetch_next()
        return count

    count, rate = timed(scan)
    benchmark(scan)
    print(f"\ncursor scan: {count:,} tuples at {rate:,.0f} tuples/s")
    assert count == len(cache.extent("xpart"))
    record("cursor_scan", rate, count)


@pytest.mark.benchmark(group="cache-traversal")
def test_traversal_rate_scales_with_cache_size(benchmark):
    """The rate as the cached CO grows (pointer navigation is
    size-independent); the slowest size is recorded."""
    rows = []
    rates = []
    touched_total = 0
    for parts in (1000, 5000, 15000):
        cache = build_cache(parts=parts)
        extent = cache.extent("xpart")
        rng = random.Random(3)
        starts = [rng.choice(extent) for _ in range(10)]
        touched, rate = timed(
            lambda: sum(traverse(s, TRAVERSAL_DEPTH) for s in starts))
        assert touched >= len(starts)
        touched_total += touched
        rates.append(rate)
        rows.append([f"{parts:,}", f"{len(extent):,}",
                     f"{rates[-1]:,.0f}"])
    print_table("Sect. 5.2 — traversal rate vs cache size",
                ["parts in db", "parts cached", "tuples/s"], rows)
    benchmark(lambda: rates)
    record("traversal_by_cache_size", min(rates), touched_total)
