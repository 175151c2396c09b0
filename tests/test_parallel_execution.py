"""Morsel-driven parallel execution: differential correctness and the
runtime's behavioral contract.

The core check is differential: every query runs against two engines
seeded with identical data — one with ``parallel_degree=4`` over a
partitioned fact table, one plain serial — and must return the same
multiset of rows (exact order for ORDER BY).  A fixed query list
covers each merge strategy (concat/sort/agg) and each decomposable
operator shape; a seeded generator adds random SELECTs on top (LIMIT
only ever with ORDER BY, since an unordered LIMIT legitimately picks
different rows).

Tier-1 runs one fixed seed; ``REPRO_DIFF_SEEDS=<n>`` sweeps ``n``
extra seeds, like the other differential suites.

The behavioral tests pin the runtime contract from ISSUE 8: worker
exceptions resurface as :class:`ParallelExecutionError` carrying the
original traceback, abandoned streams cancel outstanding morsels
instead of draining them, ``parallel_degree=1`` reproduces serial
plans exactly, writers force serial fallback, and ``Engine.close()``
shuts the pool down deterministically.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

import repro.executor.parallel as parallel_mod
from repro.api.engine import Engine
from repro.api.session import Session
from repro.errors import ParallelExecutionError
from repro.executor.runtime import PipelineOptions
from repro.optimizer.optimizer import PlannerOptions

N_ROWS = 3000
DEGREE = 4
THRESHOLD = 64


def parallel_options(degree: int = DEGREE,
                     threshold: int = THRESHOLD) -> PipelineOptions:
    return PipelineOptions(planner=PlannerOptions(
        parallel_degree=degree, parallel_row_threshold=threshold))


def load_fixture(db: Session, partitioned: bool) -> None:
    suffix = " PARTITION BY HASH (ID) PARTITIONS 4" if partitioned else ""
    db.execute("CREATE TABLE FACT (ID INT PRIMARY KEY, G INT, V INT, "
               f"W INT, NAME VARCHAR){suffix}")
    db.execute("CREATE TABLE DIM (G INT PRIMARY KEY, LABEL VARCHAR)")
    rng = random.Random(1994)
    rows = [(i, rng.randrange(9), rng.randrange(1000),
             rng.randrange(50), f"n{i % 13}") for i in range(N_ROWS)]
    for start in range(0, N_ROWS, 500):
        chunk = rows[start:start + 500]
        db.execute("INSERT INTO FACT VALUES " + ",".join(
            f"({i},{g},{v},{w},'{n}')" for i, g, v, w, n in chunk))
    db.execute("INSERT INTO DIM VALUES " + ",".join(
        f"({g}, 'label{g}')" for g in range(9)))


@pytest.fixture(scope="module")
def engines():
    par = Engine(pipeline_options=parallel_options()).connect()
    ser = Engine().connect()
    load_fixture(par, partitioned=True)
    load_fixture(ser, partitioned=False)
    yield par, ser
    par.engine.close()
    ser.engine.close()


FIXED_QUERIES = [
    # concat: pure scan/filter/project runs entirely in the workers.
    "SELECT * FROM FACT WHERE V > 500",
    "SELECT ID, V + W FROM FACT WHERE G <> 3 AND NAME = 'n5'",
    # concat with a coordinator chain: DISTINCT / LIMIT above workers.
    "SELECT DISTINCT G, NAME FROM FACT WHERE V < 400",
    "SELECT ID FROM FACT WHERE V > 10 ORDER BY V, ID LIMIT 25",
    # sort merge: k-way merge of per-morsel runs, NULL ordering rules.
    "SELECT ID, V FROM FACT ORDER BY V DESC, ID",
    "SELECT NAME, W FROM FACT WHERE V > 200 ORDER BY NAME, W DESC, ID",
    # agg merge: partial-state re-aggregation, AVG and DISTINCT.
    "SELECT COUNT(*) FROM FACT",
    "SELECT G, COUNT(*), SUM(V), AVG(V), MIN(W), MAX(W) "
    "FROM FACT GROUP BY G",
    "SELECT COUNT(DISTINCT W) FROM FACT WHERE V > 300",
    "SELECT NAME, AVG(V) FROM FACT WHERE W < 40 GROUP BY NAME",
    # joins on the driving spine (build sides replicated in workers).
    "SELECT d.LABEL, f.V FROM FACT f, DIM d "
    "WHERE f.G = d.G AND f.V > 800",
    "SELECT d.LABEL, COUNT(*), SUM(f.V) FROM FACT f, DIM d "
    "WHERE f.G = d.G GROUP BY d.LABEL",
    # chain above an aggregate (HAVING becomes a coordinator Filter).
    "SELECT G, COUNT(*) FROM FACT GROUP BY G HAVING COUNT(*) > 300",
    # semijoin shape.
    "SELECT ID FROM FACT WHERE G IN (SELECT G FROM DIM "
    "WHERE LABEL = 'label4')",
]


def assert_same_answer(par: Session, ser: Session, sql: str) -> None:
    p = par.query(sql)
    s = ser.query(sql)
    assert Counter(p.rows) == Counter(s.rows), sql
    if "ORDER BY" in sql:
        assert p.rows == s.rows, f"order differs: {sql}"


class TestDifferential:
    @pytest.mark.parametrize("sql", FIXED_QUERIES)
    def test_fixed_query(self, engines, sql):
        assert_same_answer(*engines, sql)

    def test_parallel_path_actually_ran(self, engines):
        par, ser = engines
        before = par.engine.parallel.counters["parallel_queries"]
        assert_same_answer(par, ser, "SELECT SUM(V) FROM FACT")
        after = par.engine.parallel.counters["parallel_queries"]
        assert after == before + 1, par.engine.parallel.counters

    def test_seeded_random_sweep(self, engines):
        extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
        for seed in range(1 + extra):
            for sql in generate_queries(seed, count=15):
                assert_same_answer(*engines, sql)


def generate_queries(seed: int, count: int) -> list[str]:
    rng = random.Random(7000 + seed)
    out = []
    predicates = [
        lambda r, q: f"{q}V > {r.randrange(900)}",
        lambda r, q: f"{q}W < {r.randrange(5, 50)}",
        lambda r, q: f"{q}G = {r.randrange(9)}",
        lambda r, q: f"{q}NAME = 'n{r.randrange(13)}'",
        lambda r, q: f"{q}V BETWEEN {100 * r.randrange(5)} AND "
                     f"{500 + 100 * r.randrange(5)}",
    ]

    def where_clause(qualifier: str = "") -> str:
        return " AND ".join(
            p(rng, qualifier)
            for p in rng.sample(predicates, rng.randrange(1, 3)))

    for _ in range(count):
        where = where_clause()
        kind = rng.randrange(4)
        if kind == 0:
            cols = rng.sample(["ID", "G", "V", "W", "NAME"],
                              rng.randrange(1, 4))
            sql = f"SELECT {', '.join(cols)} FROM FACT WHERE {where}"
            if rng.random() < 0.5:
                sql = sql.replace("SELECT", "SELECT DISTINCT", 1)
        elif kind == 1:
            sql = (f"SELECT ID, V, W FROM FACT WHERE {where} "
                   f"ORDER BY {rng.choice(['V', 'W DESC', 'NAME'])}, ID")
            if rng.random() < 0.5:
                sql += f" LIMIT {rng.randrange(1, 40)}"
        elif kind == 2:
            agg = rng.choice(["COUNT(*)", "SUM(V)", "AVG(W)", "MIN(V)",
                              "MAX(W)", "COUNT(DISTINCT G)"])
            group = rng.choice(["G", "NAME", "G, NAME"])
            sql = (f"SELECT {group}, {agg} FROM FACT WHERE {where} "
                   f"GROUP BY {group}")
        else:
            sql = (f"SELECT d.LABEL, f.V FROM FACT f, DIM d "
                   f"WHERE f.G = d.G AND {where_clause('f.')}")
        out.append(sql)
    return out


# ----------------------------------------------------------------------
# Behavioral contract
# ----------------------------------------------------------------------
def small_parallel_db() -> Session:
    db = Engine(pipeline_options=parallel_options()).connect()
    load_fixture(db, partitioned=True)
    return db


class TestRuntimeContract:
    def test_worker_error_propagates_with_traceback(self):
        parallel_mod._WORKER_FAULT = "injected-parallel-fault"
        db = small_parallel_db()
        try:
            with pytest.raises(ParallelExecutionError) as info:
                db.query("SELECT * FROM FACT WHERE V > 0")
            message = str(info.value)
            assert "injected-parallel-fault" in message
            assert "Traceback" in message  # the worker's, verbatim
        finally:
            parallel_mod._WORKER_FAULT = None
            db.engine.close()

    def test_abandoned_stream_cancels_outstanding_morsels(self):
        db = small_parallel_db()
        try:
            cursor = db.cursor()
            cursor.execute("SELECT * FROM FACT WHERE V >= 0")
            assert len(cursor.fetchmany(5)) == 5
            cursor.close()  # abandon mid-stream
            counters = db.engine.parallel.counters
            assert counters["morsels_cancelled"] > 0, counters
            # The runtime recovered: the next query still answers.
            assert db.query("SELECT COUNT(*) FROM FACT").rows == \
                [(N_ROWS,)]
        finally:
            db.engine.close()

    def test_limit_early_exit_cancels(self):
        db = small_parallel_db()
        try:
            rows = db.query("SELECT ID FROM FACT WHERE V >= 0 "
                            "ORDER BY ID LIMIT 3").rows
            assert rows == [(0,), (1,), (2,)]
            result = db.query("SELECT ID FROM FACT LIMIT 4")
            assert len(result.rows) == 4
        finally:
            db.engine.close()

    def test_writer_transaction_forces_serial_fallback(self):
        db = small_parallel_db()
        try:
            session = db.engine.connect()
            session.begin()
            session.execute("INSERT INTO FACT VALUES (99999, 0, 0, 0, 'x')")
            counters = db.engine.parallel.counters
            fallbacks = counters["serial_fallbacks"]
            assert session.execute("SELECT COUNT(*) FROM FACT").rows == \
                [(N_ROWS + 1,)]
            assert counters["serial_fallbacks"] == fallbacks + 1
            session.rollback()
            session.close()
            # Committed world again: back to parallel.
            ran = counters["parallel_queries"]
            assert db.query("SELECT COUNT(*) FROM FACT").rows == \
                [(N_ROWS,)]
            assert counters["parallel_queries"] == ran + 1
        finally:
            db.engine.close()

    def test_pool_reforks_after_commit(self):
        db = small_parallel_db()
        try:
            counters = db.engine.parallel.counters
            db.query("SELECT SUM(V) FROM FACT")
            forks = counters["pool_forks"]
            assert forks >= 1
            db.execute("INSERT INTO FACT VALUES (88888, 1, 2, 3, 'y')")
            assert db.query("SELECT COUNT(*) FROM FACT").rows == \
                [(N_ROWS + 1,)]
            assert counters["pool_forks"] == forks + 1
        finally:
            db.engine.close()

    def test_engine_close_stops_workers_deterministically(self):
        db = small_parallel_db()
        db.query("SELECT SUM(V) FROM FACT")
        pool = db.engine.parallel._pool
        assert pool is not None and all(p.is_alive() for p in pool.procs)
        db.engine.close()
        assert db.engine.parallel._pool is None
        assert all(not p.is_alive() for p in pool.procs)

    def test_prepared_statements_run_parallel(self):
        db = small_parallel_db()
        ser = Engine().connect()
        load_fixture(ser, partitioned=False)
        try:
            counters = db.engine.parallel.counters
            ran = counters["parallel_queries"]
            prepared = db.prepare("SELECT G, SUM(V) FROM FACT "
                                  "WHERE V > ? GROUP BY G")
            for bound in (100, 500):
                expected = Counter(ser.query(
                    f"SELECT G, SUM(V) FROM FACT WHERE V > {bound} "
                    f"GROUP BY G").rows)
                assert Counter(prepared.run([bound]).rows) == expected
            assert counters["parallel_queries"] >= ran + 2
        finally:
            db.engine.close()
            ser.engine.close()

    def test_unpartitioned_table_still_parallelizes(self):
        """Morsels come from range-splitting the single slot array."""
        db = Engine(pipeline_options=parallel_options()).connect()
        ser = Engine().connect()
        load_fixture(db, partitioned=False)
        load_fixture(ser, partitioned=False)
        try:
            assert_same_answer(db, ser,
                               "SELECT G, COUNT(*) FROM FACT GROUP BY G")
            assert db.engine.parallel.counters["parallel_queries"] == 1
        finally:
            db.engine.close()
            ser.engine.close()


class TestDegreeOne:
    def test_degree_one_reproduces_serial_plans_exactly(self):
        par = Engine(pipeline_options=parallel_options(degree=1)).connect()
        ser = Engine().connect()
        load_fixture(par, partitioned=False)
        load_fixture(ser, partitioned=False)
        try:
            assert par.engine.parallel is None

            def plan_section(text: str) -> str:
                # QGM box ids are a per-process counter; only the
                # physical plan is what degree=1 must reproduce.
                return text.split("-- plan --")[1].split("-- rewrites")[0]

            for sql in FIXED_QUERIES:
                assert plan_section(par.explain(sql)) == \
                    plan_section(ser.explain(sql)), sql
        finally:
            par.engine.close()
            ser.engine.close()

    def test_parallel_plans_render_gather_and_exchange(self, engines):
        par, _ser = engines
        plan = par.explain("SELECT G, COUNT(*) FROM FACT GROUP BY G")
        assert "Gather(degree=4)" in plan
        assert "Exchange" in plan
