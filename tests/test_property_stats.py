"""Property-based tests for the statistics layer.

Randomized (but seeded, hence deterministic) checks of the invariants
the cost model relies on:

* histogram range estimates land within bounded error of the true
  selectivity (error budget ~ a couple of bucket masses);
* NDV never exceeds the row count, whether counted exactly or sampled;
* range estimates are monotone under range widening;
* ``ANALYZE`` after random DML reproduces the statistics a fresh
  full-scan build computes.
"""

from __future__ import annotations

import random

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.storage.stats import (HISTOGRAM_BUCKETS, NDV_EXACT_THRESHOLD,
                                 analyze_table)

#: Histogram error budget: equi-depth buckets bound the mass any single
#: bucket misplaces, interpolation halves it in practice; allow two
#: bucket masses plus rounding slack.
TOLERANCE = 2.0 / HISTOGRAM_BUCKETS + 0.02

SEEDS = [1, 7, 42]


def column_db(values) -> Session:
    db = Engine().connect()
    db.execute("CREATE TABLE T (V INT)")
    table = db.table("T")
    for value in values:
        table.insert((value,))
    return db


def random_values(rng: random.Random, count: int) -> list[int]:
    shape = rng.choice(["uniform", "skewed", "clustered"])
    if shape == "uniform":
        return [rng.randint(0, 1000) for _ in range(count)]
    if shape == "skewed":
        # One heavy hitter plus a uniform tail.
        return [7 if rng.random() < 0.6 else rng.randint(0, 1000)
                for _ in range(count)]
    # A few tight clusters.
    centers = [rng.randint(0, 1000) for _ in range(4)]
    return [rng.choice(centers) + rng.randint(-5, 5)
            for _ in range(count)]


class TestHistogramAccuracy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_range_estimates_within_tolerance(self, seed):
        rng = random.Random(seed)
        values = random_values(rng, 500)
        stats = analyze_table(column_db(values).table("T"))
        column = stats.column("V")
        for _ in range(20):
            threshold = rng.randint(-50, 1050)
            for op, true_count in (
                    ("<", sum(1 for v in values if v < threshold)),
                    ("<=", sum(1 for v in values if v <= threshold)),
                    (">", sum(1 for v in values if v > threshold)),
                    (">=", sum(1 for v in values if v >= threshold))):
                estimate = column.selectivity_range(op, threshold)
                assert estimate is not None
                truth = true_count / len(values)
                assert abs(estimate - truth) <= TOLERANCE, (
                    f"V {op} {threshold}: estimated {estimate:.3f}, "
                    f"true {truth:.3f}"
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mcv_equality_is_nearly_exact(self, seed):
        rng = random.Random(seed)
        values = [7 if rng.random() < 0.6 else rng.randint(0, 1000)
                  for _ in range(500)]
        stats = analyze_table(column_db(values).table("T"))
        column = stats.column("V")
        truth = values.count(7) / len(values)
        estimate = column.selectivity_equals(len(values), 7)
        assert estimate == pytest.approx(truth, abs=0.01)


class TestNdvBounds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ndv_never_exceeds_row_count(self, seed):
        rng = random.Random(seed)
        for count in (0, 1, 50, 500):
            values = random_values(rng, count) if count else []
            stats = analyze_table(column_db(values).table("T"))
            column = stats.column("V")
            assert column.distinct <= max(count, 1)
            if count:
                assert column.distinct >= 1

    def test_sampled_ndv_stays_bounded_and_flagged(self):
        rng = random.Random(99)
        count = NDV_EXACT_THRESHOLD + 1500
        values = list(range(count))  # all distinct: worst case
        rng.shuffle(values)
        stats = analyze_table(column_db(values).table("T"))
        column = stats.column("V")
        assert not column.ndv_exact
        assert NDV_EXACT_THRESHOLD < column.distinct <= count

    def test_exact_ndv_below_threshold(self):
        values = [i % 100 for i in range(1000)]
        stats = analyze_table(column_db(values).table("T"))
        column = stats.column("V")
        assert column.ndv_exact
        assert column.distinct == 100

    def test_sampled_ndv_deterministic(self):
        values = [i % 3000 for i in range(6000)]
        first = analyze_table(column_db(values).table("T"))
        second = analyze_table(column_db(values).table("T"))
        assert first.column("V").distinct == second.column("V").distinct


class TestMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_widening_never_shrinks_estimate(self, seed):
        rng = random.Random(seed)
        values = random_values(rng, 400)
        stats = analyze_table(column_db(values).table("T"))
        column = stats.column("V")
        thresholds = sorted(rng.randint(-50, 1050) for _ in range(25))
        for op in ("<", "<="):
            estimates = [column.selectivity_range(op, t)
                         for t in thresholds]
            for narrow, wide in zip(estimates, estimates[1:]):
                assert wide >= narrow - 1e-12
        for op in (">", ">="):
            estimates = [column.selectivity_range(op, t)
                         for t in thresholds]
            for wide, narrow in zip(estimates, estimates[1:]):
                assert wide >= narrow - 1e-12


class TestAnalyzeAfterDml:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_analyze_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        db = Engine().connect()
        db.execute("CREATE TABLE T (ID INT PRIMARY KEY, V INT)")
        next_id = 0
        for _ in range(200):
            db.execute(f"INSERT INTO T VALUES ({next_id}, "
                       f"{rng.randint(0, 50)})")
            next_id += 1
        db.analyze("T")
        # Random DML mix: inserts, value updates, deletes.
        for _ in range(120):
            action = rng.random()
            if action < 0.5:
                db.execute(f"INSERT INTO T VALUES ({next_id}, "
                           f"{rng.randint(0, 50)})")
                next_id += 1
            elif action < 0.8:
                db.execute(f"UPDATE T SET V = {rng.randint(0, 50)} "
                           f"WHERE ID = {rng.randint(0, next_id)}")
            else:
                db.execute(f"DELETE FROM T WHERE ID = "
                           f"{rng.randint(0, next_id)}")
        db.analyze("T")
        cached = db.engine.stats.stats_for("T")
        fresh = analyze_table(db.table("T"))
        assert cached.cardinality == fresh.cardinality
        for name in ("ID", "V"):
            have, want = cached.column(name), fresh.column(name)
            assert have.distinct == want.distinct
            assert have.null_fraction == want.null_fraction
            assert have.minimum == want.minimum
            assert have.maximum == want.maximum
            assert have.mcv == want.mcv
            assert have.histogram == want.histogram
