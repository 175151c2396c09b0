"""Column-at-a-time ANALYZE and batch-built indexes == the row-at-a-time reference.

``analyze_table`` cuts each column out of the rows in one ``map`` and
the hash and primary-key indexes build their buckets a batch at a
time.  ``tests/_reference_stats.py`` keeps the row-at-a-time code they
replaced.  Over seeded generated tables both must give the same
statistics (compared by ``repr``: NDV, exactness, NULL fraction,
min/max, histogram, MCVs in order) and the same buckets, RID order
included.  The tables mix int, float, str and bool columns, NULLs in
every position (first row, last row, all rows), a column of mixed
types that do not compare, columns with more distinct values than
``NDV_EXACT_THRESHOLD``, unique and primary-key columns, empty and
hash-partitioned heaps, and reads under another session's uncommitted
writes (a read view).  A duplicate key under a primary key or a unique
index must raise the reference's error class and message.

Tier-1 runs one fixed seed; ``REPRO_DIFF_SEEDS=<n>`` adds ``n`` seeds.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.storage import stats
from repro.storage.catalog import Catalog
from repro.storage.index import HashIndex, PrimaryKeyIndex
from repro.storage.partition import HashPartitioning
from repro.storage.table import Table, TableReadView, read_views
from repro.storage.types import (BOOLEAN, DOUBLE, INTEGER, VARCHAR, Column,
                                 DataType)
from tests import _reference_stats as reference

BASE_SEED = 19940328
#: Row counts drawn per table; the last exceeds NDV_EXACT_THRESHOLD, so
#: a wide column's NDV comes from the sampling estimator, and the index
#: builds span more than one batch.
SIZES = (0, 1, 2, 7, 60, 400, stats.NDV_EXACT_THRESHOLD + 2500)


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


class AnyType(DataType):
    """Admits any value, so one column can hold ints, strings and bools
    that do not compare with each other."""

    name = "ANY"

    def _coerce(self, value):
        return value

    def family(self) -> str:
        return "any"


# -- generated tables --------------------------------------------------
def _value(rng: random.Random, kind: str, rows: int):
    if kind == "int":
        return rng.choice((rng.randrange(5), rng.randrange(-50, 50),
                           rng.randrange(rows * 4 + 1)))
    if kind == "float":
        return rng.choice((0.5, -0.0, 1.0, rng.uniform(-1e3, 1e3)))
    if kind == "str":
        return rng.choice(("", "a", "HOT", "ä", f"s{rng.randrange(40)}",
                           f"w{rng.randrange(rows * 3 + 1)}"))
    if kind == "bool":
        return rng.random() < 0.7
    if kind == "mixed":
        # 1, 1.0 and True are one set element; "1" is not.
        return rng.choice((1, 1.0, True, "1", "x", rng.randrange(9), 2.5))
    if kind == "wide":
        return rng.randrange(rows * 8 + 1)
    raise AssertionError(kind)


COLUMN_KINDS = {"I": ("int", INTEGER), "F": ("float", DOUBLE),
                "S": ("str", VARCHAR), "B": ("bool", BOOLEAN),
                "M": ("mixed", AnyType()), "W": ("wide", INTEGER),
                "N": ("int", INTEGER)}


def _null_plan(rng: random.Random) -> tuple[float, bool, bool]:
    """(NULL rate, NULL in the first row, NULL in the last row)."""
    return (rng.choice((0.0, 0.0, 0.1, 0.5, 1.0)), rng.random() < 0.4,
            rng.random() < 0.4)


def _rows(rng: random.Random, count: int, first_key: int = 0) -> list[list]:
    plans = {name: _null_plan(rng) for name in COLUMN_KINDS}
    # N is NULL in every row of every table.
    plans["N"] = (1.0, True, True)
    uniques = rng.sample(range(count * 5 + 1), count)
    out = []
    for position in range(count):
        row = [first_key + position]
        for name, (kind, _type) in COLUMN_KINDS.items():
            rate, first, last = plans[name]
            null = rng.random() < rate or (first and position == 0) \
                or (last and position == count - 1)
            row.append(None if null else _value(rng, kind, count))
        # U: unique by index, NULL in some rows.
        row.append(None if rng.random() < 0.2 else uniques[position])
        out.append(row)
    return out


def _columns(primary_key: bool) -> list[Column]:
    return [Column("K", INTEGER, nullable=not primary_key,
                   primary_key=primary_key)] \
        + [Column(name, sql_type) for name, (_kind, sql_type)
           in COLUMN_KINDS.items()] + [Column("U", INTEGER)]


def make_table(rng: random.Random, count: int, primary_key: bool,
               partitioned: bool) -> Table:
    catalog = Catalog()
    table = catalog.create_table(
        "T", _columns(primary_key),
        partitioning=HashPartitioning(("I",), rng.choice((2, 3, 5)))
        if partitioned else None)
    for row in _rows(rng, count):
        table.insert(row)
    catalog.create_index("IX_T_I", "T", ["I"])
    catalog.create_index("IX_T_S_B", "T", ["S", "B"])
    catalog.create_index("UX_T_U", "T", ["U"], unique=True)
    # Holes: deleted slots thin the batches out.
    for rid, _row in list(table.scan()):
        if rng.random() < 0.1:
            table.delete(rid)
    return table


def foreign_writes(rng: random.Random, table: Table) -> TableReadView:
    """Apply another session's uncommitted writes to the heap in place
    and return the read view that shows the committed image: updated
    rows read as before, deleted rows are still there, inserted rows
    are not."""
    committed: dict = {}
    live_delta = 0
    for rid, row in list(table.scan()):
        draw = rng.random()
        if draw < 0.1:
            committed[rid] = row
            fresh = list(row)
            fresh[2:1 + len(COLUMN_KINDS)] = _rows(rng, 1)[0][2:-1]
            table.update(rid, fresh)
        elif draw < 0.15:
            committed[rid] = table.delete(rid)
            live_delta += 1
    for row in _rows(rng, rng.randrange(1, 20), first_key=10 ** 6):
        row[-1] = None   # keep the unique column unique
        committed[table.insert(row)] = None
        live_delta -= 1
    return TableReadView(committed, live_delta)


# -- comparisons -------------------------------------------------------
def assert_same_stats(table: Table) -> None:
    assert repr(stats.analyze_table(table)) \
        == repr(reference.analyze_table(table))


def assert_same_buckets(table: Table) -> None:
    for index in table._indexes:
        if isinstance(index, PrimaryKeyIndex):
            want = reference.primary_key_buckets(index, table)
        elif isinstance(index, HashIndex):
            want = reference.hash_buckets(index, table)
        else:
            continue
        index.rebuild(table)
        assert list(index._buckets.items()) == list(want.items()), \
            index.name


CASES = [(seed, primary_key, partitioned) for seed in _seeds()
         for primary_key in (True, False) for partitioned in (False, True)]


@pytest.mark.parametrize("seed,primary_key,partitioned", CASES)
def test_generated_tables_match_reference(seed, primary_key, partitioned):
    rng = random.Random(f"{seed}:{primary_key}:{partitioned}")
    for count in SIZES:
        table = make_table(rng, count, primary_key, partitioned)
        assert_same_stats(table)
        assert_same_buckets(table)
        view = foreign_writes(rng, table)
        with read_views({table.name: view}):
            assert_same_stats(table)
            assert_same_buckets(table)


def test_generated_tables_reach_every_statistics_shape():
    """The sweep's tables reach sampled and exact NDV, heavy hitters,
    columns without a histogram (mixed types), all-NULL and empty
    columns, so the equality above covers each branch."""
    seen = set()
    rng = random.Random(BASE_SEED)
    for count in SIZES:
        table = make_table(rng, count, True, False)
        for column in stats.analyze_table(table).columns.values():
            seen.add(("exact", column.ndv_exact))
            seen.add(("mcv", bool(column.mcv)))
            seen.add(("histogram", column.histogram is not None))
            seen.add(("all-null", column.null_fraction == 1.0))
            seen.add(("empty", column.distinct == 0))
    assert seen == {(kind, flag) for kind in
                    ("exact", "mcv", "histogram", "all-null", "empty")
                    for flag in (True, False)}


@pytest.mark.parametrize("distinct", (stats.NDV_EXACT_THRESHOLD,
                                      stats.NDV_EXACT_THRESHOLD + 1))
def test_ndv_threshold_boundary_matches_reference(distinct):
    """Exactly at the threshold the count is exact; one value more and
    it is sampled."""
    table = Catalog().create_table("T", [Column("V", INTEGER)])
    rng = random.Random(BASE_SEED)
    values = list(range(distinct)) + [rng.randrange(distinct)
                                      for _ in range(300)]
    rng.shuffle(values)
    for value in values:
        table.insert([value])
    assert_same_stats(table)
    column = stats.analyze_table(table).column("V")
    assert column.ndv_exact is (distinct <= stats.NDV_EXACT_THRESHOLD)


# -- duplicate keys ----------------------------------------------------
def _error(build):
    try:
        build()
    except Exception as exc:   # compared by class and message below
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("partitioned", (False, True))
@pytest.mark.parametrize("where", ("same-batch", "across-batches", "two"))
def test_duplicate_key_raises_the_reference_error(partitioned, where):
    rng = random.Random(f"{BASE_SEED}:{where}:{partitioned}")
    count = 5000
    rows = _rows(rng, count)
    first, second = (10, 20) if where == "same-batch" else (10, 4500)
    rows[second][0] = rows[first][0]          # duplicate primary key
    rows[second][-1] = rows[first][-1] = 7    # duplicate unique value
    if where == "two":
        rows[30][0] = rows[3][0]              # an earlier duplicate
        rows[31][-1] = rows[2][-1] = 8
    table = make_table(rng, 0, True, partitioned)
    if partitioned:
        slots = [[] for _ in range(table.partition_count)]
        for row in rows:
            slots[table._route(tuple(row))].append(tuple(row))
    else:
        slots = [tuple(row) for row in rows]

    # The primary key is rebuilt first and rejects the heap.
    got = _error(lambda: table.restore_slots(slots))
    want = _error(lambda: reference.primary_key_buckets(table.pk_index,
                                                        table))
    assert want is not None and want[1].startswith("duplicate primary key")
    assert got == want

    unique = next(index for index in table.indexes if index.unique)
    got = _error(lambda: unique.rebuild(table))
    want = _error(lambda: reference.hash_buckets(unique, table))
    assert want is not None and "unique index" in want[1]
    assert got == want


# -- clock-free counts -------------------------------------------------
def test_primary_key_rebuild_makes_no_per_row_insert(monkeypatch):
    table = make_table(random.Random(BASE_SEED), 3000, True, False)
    calls = []
    original = PrimaryKeyIndex.on_insert
    monkeypatch.setattr(PrimaryKeyIndex, "on_insert",
                        lambda self, rid, row: (calls.append(rid),
                                                original(self, rid, row)))
    table.pk_index.rebuild(table)
    assert calls == []
    assert len(table.pk_index._buckets) == len(table)


def test_analyze_makes_no_row_scan(monkeypatch):
    table = make_table(random.Random(BASE_SEED), 3000, True, True)
    calls = []
    original = Table.scan
    monkeypatch.setattr(Table, "scan",
                        lambda self: (calls.append(self.name),
                                      original(self))[1])
    assert stats.analyze_table(table).cardinality == len(table)
    assert calls == []


@pytest.mark.parametrize("partitioned", (False, True))
def test_hash_index_rebuild_files_no_row_through_the_shared_step(
        monkeypatch, partitioned):
    """A rebuild of a non-unique index, repeated keys included, files
    its rows inline: the per-row step an insert takes is never called."""
    table = make_table(random.Random(BASE_SEED), 3000, True, partitioned)
    calls = []
    original = HashIndex._file
    monkeypatch.setattr(HashIndex, "_file",
                        lambda self, buckets, key, rid: (
                            calls.append(rid),
                            original(self, buckets, key, rid)))
    repeated = [index for index in table.indexes
                if not index.unique and isinstance(index, HashIndex)
                and not isinstance(index, PrimaryKeyIndex)]
    assert repeated
    for index in repeated:
        want = reference.hash_buckets(index, table)
        index.rebuild(table)
        assert list(index._buckets.items()) == list(want.items())
        assert any(len(rids) > 1 for rids in index._buckets.values())
    assert calls == []
