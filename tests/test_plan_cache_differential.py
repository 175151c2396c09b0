"""Differential sweep for the plan cache and parameter binding.

Reuses the seeded random SELECT generator from the SQLite oracle suite
and asserts, for every generated statement over the org and BOM
schemas, that three executions agree exactly (as multisets):

* the literal statement through the **cached** pipeline (second run —
  i.e. a guaranteed plan-cache hit),
* the literal statement through a cache-**disabled** pipeline (fresh
  compilation every time), and
* the **auto-parameterized** form executed with its lifted literals
  bound back as parameters.

Any divergence means a cached or parameterized plan computes something
different from fresh literal-inlined compilation — the core soundness
property of the tentpole.  ``REPRO_DIFF_SEEDS=<n>`` widens the sweep
as in the other differential suites.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.api.session import Session
from repro.executor.plan_cache import parameterize_select
from repro.sql.parser import parse_statement
from tests.test_differential_sqlite import (BASE_SEED, BOM_CHAINS,
                                            BOM_JOINS, BOM_TABLES,
                                            ORG_CHAINS, ORG_JOINS,
                                            ORG_TABLES, SelectGenerator,
                                            build_bom_database,
                                            build_org_database)

QUERIES_PER_SEED = 40


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


def canonical(result) -> tuple[tuple, Counter]:
    columns = tuple(c.upper() for c in result.columns)
    return columns, Counter(result.rows)


@pytest.fixture(scope="module")
def org_pair():
    cached = build_org_database()
    uncached = build_org_database()
    uncached.engine.pipeline_options.plan_cache_size = 0
    uncached.engine.pipeline.plan_cache.capacity = 0
    return cached, uncached


@pytest.fixture(scope="module")
def bom_pair():
    cached = build_bom_database()
    uncached = build_bom_database()
    uncached.engine.pipeline.plan_cache.capacity = 0
    return cached, uncached


def run_sweep(cached: Session, uncached: Session, tables, joins,
              chains, seed: int) -> None:
    generator = SelectGenerator(cached, tables, joins, chains, seed)
    for number in range(QUERIES_PER_SEED):
        generated = generator.generate()
        sql = generated[0] if isinstance(generated, tuple) else generated
        # 1. literal, cached pipeline — run twice so the comparison
        # below definitely exercises a plan-cache hit.
        cached.query(sql)
        hit = cached.query(sql)
        # 2. literal, fresh compilation.
        fresh = uncached.query(sql)
        # 3. parameterized: lift the literals, bind them back.
        statement = parse_statement(sql)
        parameterized = parameterize_select(statement)
        bound = cached.engine.pipeline.run_select(parameterized.statement,
                                                  params=parameterized.bindings)
        want = canonical(fresh)
        for label, result in (("cached", hit), ("parameterized", bound)):
            got = canonical(result)
            assert got == want, (
                f"[seed {seed} q{number}] {label} execution diverged "
                f"from fresh compilation for:\n{sql}"
            )


@pytest.mark.parametrize("seed", _seeds())
def test_org_cached_and_parameterized_match_fresh(org_pair, seed):
    cached, uncached = org_pair
    run_sweep(cached, uncached, ORG_TABLES, ORG_JOINS, ORG_CHAINS, seed)


@pytest.mark.parametrize("seed", _seeds())
def test_bom_cached_and_parameterized_match_fresh(bom_pair, seed):
    cached, uncached = bom_pair
    run_sweep(cached, uncached, BOM_TABLES, BOM_JOINS, BOM_CHAINS, seed)
