"""Range reads through the primary key and secondary indexes.

Every range query runs three ways and must give the same multiset of
rows: through the default planner, which reads a bounded key range
with ``IndexRangeScan`` where that is cheaper than the scan; through
``PlannerOptions(use_indexes=False)``, which scans; and through stdlib
``sqlite3``.  The tables key an int, a float and a text column, each
through the primary key and through a secondary index, made by
``CREATE INDEX``, with NULLs and duplicates.  The cases cover
``BETWEEN`` and the four comparisons on either side, open, empty,
reversed, NULL and float-on-int bounds, a bound of another type, an
empty table, ranges read after INSERT and DELETE (which drop an
index's sorted key list), and another session's uncommitted writes
moving keys into and out of the range, read under read-committed.

The clock-free counts at the end pin what the range path and the
batched index-join probe save on the ``co_read`` extraction.

Tier-1 runs one fixed seed of the random sweep; set
``REPRO_DIFF_SEEDS=<n>`` to sweep ``n`` more.
"""

from __future__ import annotations

import os
import random
import sqlite3
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.errors import ExecutionError
from repro.executor.runtime import PipelineOptions
from repro.optimizer.optimizer import PlannerOptions
from repro.optimizer.plan import IndexNestedLoopJoin
from repro.storage.index import HashIndex, PrimaryKeyIndex
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

BASE_SEED = 35
QUERIES_PER_SEED = 80
ROWS = 120

#: kind -> (SQL type, SQLite type, key of row i, value of row i).  Keys
#: step by 2, by 0.5 and by one in the last digit, so no row holds a
#: key :meth:`Twins.fresh` makes.
KINDS = {
    "int": ("INT", "INTEGER", lambda i: i * 2,
            lambda i: None if i % 11 == 0 else (i * 7) % 40),
    "float": ("DOUBLE", "REAL", lambda i: i * 0.5,
              lambda i: None if i % 11 == 0 else (i * 7) % 40 / 4),
    "text": ("VARCHAR", "TEXT", lambda i: f"k{i:04d}",
             lambda i: None if i % 11 == 0 else f"v{(i * 7) % 40:02d}"),
}

OPS = ("<", "<=", ">", ">=")


def _engine(use_indexes: bool) -> Engine:
    return Engine(PipelineOptions(
        planner=PlannerOptions(use_indexes=use_indexes)))


class Twins:
    """One table, ``R (K PK, V indexed, N)``, in the default
    engine, in a scan-only engine and in sqlite3."""

    def __init__(self, kind: str, rows: int = ROWS,
                 partitioned: bool = False):
        sql_type, lite_type, key, value = KINDS[kind]
        self.kind = kind
        self.key, self.value = key, value
        self.engines = [_engine(True), _engine(False)]
        self.sessions = [engine.connect() for engine in self.engines]
        layout = " PARTITION BY HASH (K) PARTITIONS 3" if partitioned else ""
        for session in self.sessions:
            session.execute(f"CREATE TABLE R (K {sql_type} PRIMARY KEY, "
                            f"V {sql_type}, N INT){layout}")
            session.execute("CREATE INDEX IX_R_V ON R (V)")
        self.lite = sqlite3.connect(":memory:")
        self.lite.execute(f"CREATE TABLE R (K {lite_type} PRIMARY KEY, "
                          f"V {lite_type}, N INTEGER)")
        if rows:
            self.write("INSERT INTO R VALUES " + ", ".join(
                self.row_sql(i) for i in range(rows)))

    def fresh(self, key):
        """A key just above ``key`` that no row holds."""
        return key + {"int": 1, "float": 0.25, "text": "x"}[self.kind]

    def row_sql(self, i: int) -> str:
        return f"({literal(self.key(i))}, {literal(self.value(i))}, {i})"

    def write(self, sql: str) -> None:
        for session in self.sessions:
            session.execute(sql)
        self.lite.execute(sql)

    def check(self, where: str) -> list:
        """The rows of ``where`` (all three ways agreeing)."""
        sql = f"SELECT k, v, n FROM R WHERE {where}"
        ranged, scanned = (Counter(s.query(sql).rows)
                           for s in self.sessions)
        lite = Counter(self.lite.execute(sql).fetchall())
        assert ranged == scanned == lite, sql
        return sorted(ranged.elements(), key=lambda row: row[2])

    def plan(self, where: str) -> str:
        text = self.sessions[0].explain(f"SELECT k, v, n FROM R "
                                        f"WHERE {where}")
        return text.split("-- plan --")[1].split("-- rewrites")[0]


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def bound(twins: Twins, rng: random.Random, column: str) -> str:
    """A random bound for ``column``: mostly a stored value or one
    just beside it, sometimes NULL, a float between int keys, or a
    value beyond every key."""
    i = rng.randrange(-5, ROWS + 5)
    roll = rng.random()
    if roll < 0.08:
        return "NULL"
    make = twins.key if column == "K" else twins.value
    value = make(min(max(i, 1), ROWS - 1))
    if value is None:
        value = make(1)
    if twins.kind == "text":
        return literal(value + rng.choice(["", "0", "~"]) if roll < 0.5
                       else value)
    if roll < 0.3:
        value = value + rng.choice([-0.5, 0.25, 0.5])
    if i < 0:
        value = -value - 1
    return literal(value)


def random_predicate(twins: Twins, rng: random.Random) -> str:
    column = rng.choice(["K", "V"])
    shape = rng.random()
    if shape < 0.35:
        low, high = bound(twins, rng, column), bound(twins, rng, column)
        return f"{column} BETWEEN {low} AND {high}"
    op = rng.choice(OPS)
    value = bound(twins, rng, column)
    single = (f"{column} {op} {value}" if rng.random() < 0.7
              else f"{value} {op} {column}")
    if shape < 0.75:
        return single
    other = rng.choice(OPS)
    extra = f"{column} {other} {bound(twins, rng, column)}"
    if rng.random() < 0.5:
        extra = f"n > {rng.randrange(ROWS)}"
    return f"{single} AND {extra}"


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
FIXED = {
    "int": [
        ("K BETWEEN 10 AND 20", 6),
        ("K < 9", 5), ("K <= 8", 5), ("K > 229", 5), ("K >= 230", 5),
        ("9 > K", 5), ("230 <= K", 5),
        ("K >= 10 AND K < 20", 5),
        ("K BETWEEN 10.5 AND 19.5", 4), ("K < 8.5", 5),
        ("K BETWEEN 20 AND 10", 0),
        ("K BETWEEN 1000 AND 2000", 0), ("K < -1", 0),
        ("K BETWEEN 3 AND 3", 0),
        ("V BETWEEN 3 AND 4", None), ("V < 1", None), ("V > 38.5", None),
    ],
    "float": [
        ("K BETWEEN 5 AND 7.5", 6), ("K < 2", 4), ("K >= 58", 4),
        ("K BETWEEN 5.25 AND 5.75", 1), ("K BETWEEN 9 AND 1", 0),
        ("V BETWEEN 1 AND 1.5", None), ("V >= 9.75", None),
    ],
    "text": [
        ("K BETWEEN 'k0010' AND 'k0015'", 6), ("K < 'k0003'", 3),
        ("K > 'k0115'", 4), ("K >= 'k0119~'", 0),
        ("K BETWEEN 'k0015' AND 'k0010'", 0),
        ("'k0003' > K", 3),
        ("V BETWEEN 'v01' AND 'v02'", None), ("V < 'v01'", None),
    ],
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_fixed_ranges_read_through_the_index(kind):
    twins = Twins(kind)
    for where, count in FIXED[kind]:
        rows = twins.check(where)
        if count is not None:
            assert len(rows) == count, where
        assert "IndexRangeScan" in twins.plan(where), where
    for where in ("K < NULL", "K BETWEEN NULL AND 5", "K > NULL",
                  "V BETWEEN NULL AND NULL"):
        if kind == "text":
            where = where.replace("5", "'k0005'")
        assert twins.check(where) == []


def test_the_range_plan_keeps_the_filter_over_the_read():
    twins = Twins("int")
    plan = twins.plan("K BETWEEN 10 AND 20")
    lines = [line.strip() for line in plan.strip().splitlines()[1:]]
    assert lines[0].startswith(
        "FilterProject(k, v, n): (R.K BETWEEN ?1 AND ?2)")
    assert lines[1].startswith("IndexRangeScan(R via PK_R on K)")
    assert lines[2:] == []
    plan = twins.plan("V > 38")
    assert "IndexRangeScan(R via IX_R_V on V)" in plan
    # A wide range costs more than the scan it would replace.
    assert "TableScan(R)" in twins.plan("K > 2")
    # Negated, composite and non-constant bounds have no range path.
    for where in ("K NOT BETWEEN 10 AND 20", "K + 0 BETWEEN 10 AND 20",
                  "K < N"):
        assert "IndexRangeScan" not in twins.plan(where), where
        twins.check(where)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_bound_of_another_type_reads_as_the_scan_does(kind):
    twins = Twins(kind)
    other = "'x'" if kind != "text" else "5"
    for where in (f"K < {other}", f"K BETWEEN {other} AND {other}",
                  f"V >= {other}"):
        errors = []
        for session in twins.sessions:
            with pytest.raises(ExecutionError) as error:
                session.query(f"SELECT * FROM R WHERE {where}")
            errors.append(str(error.value))
        assert errors[0] == errors[1], where
    empty = Twins(kind, rows=0)
    for where in (f"K < {other}", f"V >= {other}"):
        for session in empty.sessions:
            assert session.query(f"SELECT * FROM R WHERE {where}").rows \
                == []


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_empty_table(kind):
    twins = Twins(kind, rows=0)
    for where, _count in FIXED[kind]:
        assert twins.check(where) == []


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_ranges_after_insert_and_delete(kind):
    twins = Twins(kind)
    pk = twins.engines[0].catalog.table("R").pk_index
    where = {"int": "K BETWEEN 100 AND 120",
             "float": "K BETWEEN 25 AND 30",
             "text": "K BETWEEN 'k0050' AND 'k0060'"}[kind]
    before = twins.check(where)
    assert "IndexRangeScan(R via PK_R" in twins.plan(where)
    assert pk._order is not None
    # A key-preserving update keeps the sorted list.
    twins.write("UPDATE R SET n = n + 1000 WHERE n = 51")
    assert pk._order is not None
    twins.check(where)
    twins.write(f"INSERT INTO R VALUES "
                f"({literal(twins.fresh(twins.key(51)))}, NULL, 500)")
    assert pk._order is None
    assert len(twins.check(where)) == len(before) + 1
    twins.write(f"DELETE FROM R WHERE k = {literal(twins.key(52))}")
    assert len(twins.check(where)) == len(before)
    twins.write(f"DELETE FROM R WHERE {where}")
    assert twins.check(where) == []
    twins.write("INSERT INTO R VALUES " + twins.row_sql(55))
    assert [row[2] for row in twins.check(where)] == [55]


@pytest.mark.parametrize("kind, partitioned", [
    ("int", False), ("int", True), ("float", False), ("text", False)])
def test_uncommitted_writes_moving_keys_read_committed(kind, partitioned):
    twins = Twins(kind, partitioned=partitioned)
    engine = twins.engines[0]
    reader = twins.sessions[0]
    writer = engine.connect()
    key = twins.key
    where = f"K BETWEEN {literal(key(20))} AND {literal(key(30))}"
    committed = twins.check(where)
    assert "IndexRangeScan(R via PK_R" in twins.plan(where)
    writer.begin()
    # Out of the range, into it, an in-range row changed in place, an
    # in-range row deleted and one inserted.
    writer.execute(f"UPDATE R SET k = {literal(twins.fresh(key(90)))} "
                   f"WHERE k = {literal(key(21))}")
    writer.execute(f"UPDATE R SET k = {literal(twins.fresh(key(25)))} "
                   f"WHERE k = {literal(key(80))}")
    writer.execute(f"UPDATE R SET n = -1 WHERE k = {literal(key(22))}")
    writer.execute(f"DELETE FROM R WHERE k = {literal(key(23))}")
    writer.execute(f"INSERT INTO R VALUES "
                   f"({literal(twins.fresh(key(24)))}, NULL, 999)")
    # The reader sees the committed rows, through the range path.
    assert twins.check(where) == committed
    # The writer sees its own writes; a non-key predicate scans.
    scan_where = where.replace("K BETWEEN", "K || '' BETWEEN") \
        if kind == "text" else where.replace("K BETWEEN", "K + 0 BETWEEN")
    sql = "SELECT k, v, n FROM R WHERE "
    mine = Counter(writer.query(sql + where).rows)
    assert mine == Counter(writer.query(sql + scan_where).rows)
    assert sorted(row[2] for row in mine.elements()) \
        == sorted([r[2] for r in committed if r[2] not in (21, 22, 23)]
                  + [-1, 80, 999])
    writer.rollback()
    assert twins.check(where) == committed


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0") or 0)
    return [BASE_SEED + offset for offset in range(1 + extra)]


@pytest.mark.parametrize("seed", _seeds())
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_ranges_match_sqlite_and_the_scan(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    twins = Twins(kind)
    ranged = 0
    for step in range(QUERIES_PER_SEED):
        where = random_predicate(twins, rng)
        twins.check(where)
        ranged += "IndexRangeScan" in twins.plan(where)
        if step % 20 == 19:
            # Writes between queries: the sorted key list is rebuilt.
            i = rng.randrange(ROWS)
            twins.write(f"DELETE FROM R WHERE n = {i}")
            twins.write("INSERT INTO R VALUES " + twins.row_sql(i))
    assert ranged > QUERIES_PER_SEED // 4


# ----------------------------------------------------------------------
# Clock-free counts on the co_read extraction
# ----------------------------------------------------------------------
CO_READ = OrgScale(departments=200, employees_per_dept=20,
                   projects_per_dept=3, skills=20, seed=1994)


@pytest.fixture(scope="module")
def co_read_engine() -> Engine:
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, CO_READ)
    return engine


def extraction(low: int, high: int) -> str:
    return DEPS_ARC_QUERY.replace(
        "WHERE loc = 'ARC'", f"WHERE dno BETWEEN {low} AND {high}")


def test_extraction_scans_the_range_not_the_table(co_read_engine):
    session = co_read_engine.connect()
    result = session.xnf(extraction(10, 15))
    # 6 DEPT rows through PK_DEPT and the 20 SKILLS rows it hashes;
    # a full DEPT scan read 200 + 20.
    assert result.counters["rows_scanned"] == 26
    assert len(result.components["XDEPT"]) == 6


def test_index_join_probes_once_per_outer_batch(co_read_engine,
                                                monkeypatch):
    session = co_read_engine.connect()
    text = extraction(30, 36)
    expected = session.xnf(text)
    calls = Counter()
    for cls in (HashIndex, PrimaryKeyIndex):
        for name in ("lookup", "lookup_many"):
            real = cls.__dict__.get(name)
            if real is None:
                continue

            def counting(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    real_joined = IndexNestedLoopJoin._joined

    def counting_joined(self, *args):
        for joined in real_joined(self, *args):
            calls["outer batches"] += 1
            yield joined

    monkeypatch.setattr(IndexNestedLoopJoin, "_joined", counting_joined)
    result = session.xnf(extraction(30, 36))
    assert sorted(result.wire_tuples(), key=repr) \
        == sorted(expected.wire_tuples(), key=repr)
    assert calls["outer batches"] > 0
    assert calls["lookup_many"] == calls["outer batches"]
    assert calls["lookup"] == 0
