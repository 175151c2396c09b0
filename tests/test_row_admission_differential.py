"""Row admission: the compiled kernel against ``validate_row``.

A table admits each written row through one generated kernel
(``storage/types.py::compile_admission``): values already in stored
form pass on type tests alone, and any other row goes whole to
``validate_row``.  Over generated schemas (every type; NULL, NOT NULL
and primary-key columns; VARCHAR(n) and CHAR(n) written at, under and
over n; flat, hash- and range-partitioned heaps) every
``Table.insert`` / ``update`` / ``update_row`` must store what
``validate_row`` gives, or raise the same error class and message, and
a rejected write must leave the table as it was.  The values include
integral and non-integral floats into INTEGER, ``True`` into INTEGER
and DOUBLE, ``IntEnum`` and ``str`` subclasses, ``"7"`` into INTEGER,
rows of the wrong width, and rows as lists, tuples and generators.

The clock-free counts at the end pin what admission costs the paper's
loads: no ``Column.validate`` call for the org and OO1 catalogs, and no
kernel compiled by a reopen.

Tier-1 runs one fixed seed of the random sweep; set
``REPRO_DIFF_SEEDS=<n>`` to sweep ``n`` more.
"""

from __future__ import annotations

import enum
import os
import random
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.errors import StorageError, TypeCheckError
from repro.storage import table as table_module
from repro.storage.catalog import Catalog
from repro.storage.partition import HashPartitioning, RangePartitioning
from repro.storage.table import Table
from repro.storage.types import (BOOLEAN, DOUBLE, INTEGER, VARCHAR,
                                 CharType, Column, VarcharType,
                                 compile_admission, validate_row)
from repro.workloads.oo1 import OO1Scale, create_oo1_schema, populate_oo1
from repro.workloads.orgdb import (OrgScale, create_org_schema,
                                   populate_org)

BASE_SEED = 40
SCHEMAS_PER_SEED = 12
WRITES_PER_SCHEMA = 60


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Tag(str):
    """A ``str`` subclass: stored as given, never on the fast path."""


# -- generated schemas -------------------------------------------------
def _data_type(rng: random.Random):
    kind = rng.choice(("int", "float", "bool", "varchar", "varchar_n",
                       "char_n"))
    if kind == "int":
        return INTEGER
    if kind == "float":
        return DOUBLE
    if kind == "bool":
        return BOOLEAN
    if kind == "varchar":
        return VARCHAR
    if kind == "varchar_n":
        return VarcharType(rng.randint(1, 4))
    return CharType(rng.randint(1, 4))


def _schema(rng: random.Random) -> list[Column]:
    width = rng.randint(1, 6)
    keyed = rng.randint(0, min(2, width))
    columns = []
    for position in range(width):
        data_type = INTEGER if position < keyed and rng.random() < 0.7 \
            else _data_type(rng)
        columns.append(Column(f"C{position}", data_type,
                              nullable=rng.random() < 0.6,
                              primary_key=position < keyed))
    return columns


def _partitioning(rng: random.Random, columns: list[Column]):
    choice = rng.random()
    if choice < 0.5:
        return None
    if choice < 0.8:
        chosen = rng.sample(columns, rng.randint(1, min(2, len(columns))))
        return HashPartitioning(tuple(c.name for c in chosen),
                                rng.randint(1, 4))
    numeric = [c for c in columns if c.data_type in (INTEGER, DOUBLE)]
    if not numeric:
        return None
    return RangePartitioning(rng.choice(numeric).name,
                             tuple(sorted(rng.sample(range(-20, 60), 2))))


# -- generated values --------------------------------------------------
def _string(rng: random.Random, length: int | None) -> str:
    size = rng.randint(0, 6) if length is None \
        else max(0, length + rng.choice((-1, 0, 0, 1)))
    return "".join(rng.choice("abxyz ") for _ in range(size))


def _value(rng: random.Random, column: Column):
    data_type = column.data_type
    if rng.random() < 0.08:
        return None
    odd = rng.random() < 0.25
    if data_type is INTEGER:
        if not odd:
            return rng.randrange(-30, 1000)
        return rng.choice((3.0, float(rng.randrange(50)), 2.5, True,
                           Level.HIGH, Level.LOW, "7", -0.0))
    if data_type is DOUBLE:
        if not odd:
            return rng.uniform(-100, 100)
        return rng.choice((rng.randrange(50), True, False, "1.5",
                           Level.LOW, float("inf")))
    if data_type is BOOLEAN:
        if not odd:
            return rng.random() < 0.5
        return rng.choice((1, 0, "TRUE", None, 1.0))
    length = data_type.length
    if not odd:
        return _string(rng, length)
    return rng.choice((Tag(_string(rng, length)), 5, 2.5, True,
                       b"ab", "q" * ((length or 3) + 2)))


def _values(rng: random.Random, columns: list[Column]) -> list:
    values = [_value(rng, column) for column in columns]
    shape = rng.random()
    if shape < 0.04:
        values.append(_value(rng, columns[0]))
    elif shape < 0.08:
        values.pop()
    return values


def _shaped(rng: random.Random, values: list):
    """The same values as a list, a tuple or a one-shot generator."""
    kind = rng.choice(("list", "tuple", "generator"))
    if kind == "list":
        return list(values)
    if kind == "tuple":
        return tuple(values)
    return (value for value in values)


# -- the oracle --------------------------------------------------------
def _typed(row) -> tuple:
    """A row with every value beside its exact type (``3 == 3.0`` and
    ``Level.HIGH == 7``, but they are not stored alike)."""
    return tuple((type(value), value) for value in row)


def _outcome(call):
    try:
        return "ok", call()
    except (TypeCheckError, StorageError, TypeError) as exc:
        return "error", type(exc), str(exc)


def _duplicate(table: Table, key: tuple):
    cols = ", ".join(table.primary_key)
    return ("error", TypeCheckError,
            f"duplicate primary key ({cols}) = {key!r} in table "
            f"{table.name!r}")


def _expected(table: Table, values: list, keys: dict, rid=None):
    """What writing ``values`` must give: ``validate_row``'s row, or
    its error, or the duplicate-key error when another live row holds
    the key."""
    outcome = _outcome(lambda: validate_row(table.columns, list(values)))
    if outcome[0] == "error" or not table.primary_key:
        return outcome
    row = outcome[1]
    key = tuple(row[table.column_position(c)] for c in table.primary_key)
    if key in keys and keys[key] != rid:
        return _duplicate(table, key)
    return outcome


def _snapshot(table: Table) -> Counter:
    return Counter(_typed(row) for row in table.rows())


def _run_schema(rng: random.Random, name: str) -> Counter:
    columns = _schema(rng)
    table = Table(name, columns, partitioning=_partitioning(rng, columns))
    pk_positions = [i for i, c in enumerate(columns) if c.primary_key]
    keys: dict = {}          # primary key -> rid of the live row
    live: dict = {}          # rid -> stored row
    kinds: Counter = Counter()

    def key_of(row):
        return tuple(row[p] for p in pk_positions)

    for _ in range(WRITES_PER_SCHEMA):
        values = _values(rng, columns)
        op = rng.choice(("insert", "insert", "update", "update_row")) \
            if live else "insert"
        before = _snapshot(table)
        if op == "insert":
            expected = _expected(table, values, keys)
            got = _outcome(lambda: table.insert(_shaped(rng, values)))
            if got[0] == "ok":
                rid = got[1]
                got = ("ok", table.fetch(rid))
        else:
            rid = rng.choice(sorted(live))
            if op == "update" and table.partitioning is not None:
                op = "update_row"
            expected = _expected(table, values, keys, rid)
            if op == "update":
                got = _outcome(lambda: table.update(rid,
                                                    _shaped(rng, values)))
            else:
                got = _outcome(lambda: table.update_row(
                    rid, _shaped(rng, values)))
                if got[0] == "ok":
                    new_rid, stored = got[1]
                    assert table.fetch(new_rid) == stored
                    del keys[key_of(live.pop(rid))]
                    rid = new_rid
                    got = ("ok", stored)
            if got[0] == "ok" and op == "update":
                del keys[key_of(live.pop(rid))]
        kinds[(op, got[0])] += 1
        if expected[0] == "ok":
            assert got[0] == "ok", (op, values, got)
            assert _typed(got[1]) == _typed(expected[1]), (op, values)
            live[rid] = got[1]
            keys[key_of(got[1])] = rid
        else:
            assert got == expected, (op, values)
            assert _snapshot(table) == before, (op, values)
    assert _snapshot(table) == Counter(_typed(row) for row in live.values())
    if pk_positions:
        for key, rid in keys.items():
            assert table.lookup_pk(key) == rid
    return kinds


@pytest.mark.parametrize("seed", _seeds())
def test_table_writes_match_validate_row(seed):
    rng = random.Random(seed)
    kinds: Counter = Counter()
    for number in range(SCHEMAS_PER_SEED):
        kinds += _run_schema(rng, f"T{number}")
    # The sweep reaches both outcomes of every write.
    for op in ("insert", "update", "update_row"):
        assert kinds[(op, "ok")] and kinds[(op, "error")], kinds


# -- the kernel itself -------------------------------------------------
COLUMNS = [Column("ID", INTEGER, primary_key=True),
           Column("NAME", VarcharType(4)),
           Column("CODE", CharType(3), nullable=False),
           Column("W", DOUBLE),
           Column("OK", BOOLEAN)]


@pytest.mark.parametrize("values", [
    (1, "ab", "xyz", 1.5, True),             # fast path
    [2, None, "xyz", None, None],            # NULLs where admitted
    (3.0, "ab", "xyz", 1.5, True),           # integral float -> int
    (4, "ab", "x", 2, False),                # CHAR padding, int -> float
    (Level.HIGH, Tag("ab"), "xyz", 1.5, True),   # subclasses, kept
    (5, "abcde", "xyz", 1.5, True),          # VARCHAR overflow
    (6, "ab", "wxyz", 1.5, True),            # CHAR overflow
    (None, "ab", "xyz", 1.5, True),          # NULL key
    (7, "ab", None, 1.5, True),              # NULL into NOT NULL
    (True, "ab", "xyz", 1.5, True),          # boolean into INTEGER
    (8, "ab", "xyz", True, True),            # boolean into DOUBLE
    ("7", "ab", "xyz", 1.5, True),           # string into INTEGER
    (9, "ab", "xyz", 1.5, 1),                # int into BOOLEAN
    (10, "ab", "xyz", 1.5),                  # too narrow
    (11, "ab", "xyz", 1.5, True, 0),         # too wide
    (),
])
def test_kernel_matches_validate_row(values):
    kernel = compile_admission(COLUMNS)
    for shaped in (list(values), tuple(values), iter(values)):
        got = _outcome(lambda: kernel(shaped))
        expected = _outcome(lambda: validate_row(COLUMNS, values))
        if expected[0] == "ok":
            assert got[0] == "ok" and \
                _typed(got[1]) == _typed(expected[1])
        else:
            assert got == expected


def test_kernel_source_holds_no_value():
    source = compile_admission(COLUMNS).source
    assert "type(v0) is int" in source
    assert "len(v1) <= 4" in source and "len(v2) == 3" in source
    assert "v1 is None" in source and "v0 is None" not in source \
        and "v2 is None" not in source
    assert "'" not in source and '"' not in source


def test_non_iterable_row_raises_as_validate_row():
    kernel = compile_admission(COLUMNS)
    assert _outcome(lambda: kernel(5)) \
        == _outcome(lambda: validate_row(COLUMNS, 5))


# -- clock-free counts -------------------------------------------------
def _count_validate(monkeypatch) -> Counter:
    calls: Counter = Counter()
    validate = Column.validate

    def counting(self, value):
        calls["validate"] += 1
        return validate(self, value)

    monkeypatch.setattr(Column, "validate", counting)
    return calls


def test_paper_loads_validate_no_value(monkeypatch):
    calls = _count_validate(monkeypatch)
    catalog = Catalog()
    create_org_schema(catalog)
    populate_org(catalog, OrgScale(departments=8, seed=3))
    create_oo1_schema(catalog)
    populate_oo1(catalog, OO1Scale(parts=200))
    assert len(catalog.table("EMP")) and len(catalog.table("CONNECTION"))
    assert calls["validate"] == 0

    # A value to coerce still goes through Column.validate.
    table = Table("ONE", [Column("A", INTEGER)])
    rid = table.insert((3.0,))
    assert calls["validate"] == 1
    stored = table.fetch(rid)
    assert stored == (3,) and type(stored[0]) is int


def test_reopen_compiles_no_admission_kernel(tmp_path, monkeypatch):
    dbdir = str(tmp_path / "db")
    engine = Engine(path=dbdir, fsync="none")
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(departments=4, seed=5))
    engine.checkpoint()   # the loader writes storage directly
    engine.connect().execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 1")
    engine.close()

    compiled: list = []
    monkeypatch.setattr(table_module, "compile_admission",
                        lambda columns: (compiled.append(columns),
                                         compile_admission(columns))[1])
    engine = Engine(path=dbdir, fsync="none")
    try:
        # Snapshot restore and log replay admit nothing ...
        assert compiled == []
        # ... and the first write to a table compiles its kernel once.
        session = engine.connect()
        session.execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 1")
        session.execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 2")
        assert len(compiled) == 1
    finally:
        engine.close()
