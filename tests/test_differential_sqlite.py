"""Differential testing against SQLite.

A deterministic random-SELECT generator (filters, FK joins, aggregates,
ORDER BY, DISTINCT, correlated [NOT] EXISTS, [NOT] IN subqueries, LEFT
and CROSS joins, set operations and scalar subqueries over the org and
BOM schemas) runs every generated statement through both the ``repro``
pipeline and the stdlib ``sqlite3``, asserting identical multisets of
rows.  The oracle is an independent implementation, so any
rewrite/planner/executor change that alters semantics trips this suite;
the fixed-seed tests also check that the generated plans still reach
the semi/anti, outer, nested-loop and set-operation operators.

Tier-1 runs one fixed seed; set ``REPRO_DIFF_SEEDS=<n>`` to sweep ``n``
additional seeds (e.g. in CI's extended job or a local soak run).

The generator deliberately stays inside the dialect intersection where
the two engines agree: no LIKE (SQLite's is case-insensitive), no
division (SQLite truncates integers), no AVG (float formatting), and
ordering comparisons only between numbers.
"""

from __future__ import annotations

import os
import random
import sqlite3
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.sql.parser import parse_statement
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

BASE_SEED = 19940328  # the paper's conference year, fixed for tier-1
QUERIES_PER_SEED = 60


# ----------------------------------------------------------------------
# Schema metadata the generator draws from
# ----------------------------------------------------------------------
ORG_TABLES = {
    "DEPT": {"int": ["DNO"], "str": ["DNAME", "LOC"], "pk": "DNO"},
    "EMP": {"int": ["ENO", "EDNO", "SAL"], "str": ["ENAME"], "pk": "ENO",
            "nullable": ["EDNO", "SAL"]},
    "PROJ": {"int": ["PNO", "PDNO", "BUDGET"], "str": ["PNAME"],
             "pk": "PNO", "nullable": ["PDNO", "BUDGET"]},
    "SKILLS": {"int": ["SNO", "LEVEL"], "str": ["SNAME"], "pk": "SNO"},
    "EMPSKILLS": {"int": ["ESENO", "ESSNO"], "str": [], "pk": None},
    "PROJSKILLS": {"int": ["PSPNO", "PSSNO"], "str": [], "pk": None},
}

#: (child table, fk column, parent table, pk column)
ORG_JOINS = [
    ("EMP", "EDNO", "DEPT", "DNO"),
    ("PROJ", "PDNO", "DEPT", "DNO"),
    ("EMPSKILLS", "ESENO", "EMP", "ENO"),
    ("EMPSKILLS", "ESSNO", "SKILLS", "SNO"),
    ("PROJSKILLS", "PSPNO", "PROJ", "PNO"),
    ("PROJSKILLS", "PSSNO", "SKILLS", "SNO"),
]

#: FK chains for three-way joins: (a, a.col, b, b.col, c, c.col2, via)
ORG_CHAINS = [
    (("EMPSKILLS", "ESENO", "EMP", "ENO"), ("EMP", "EDNO", "DEPT", "DNO")),
    (("PROJSKILLS", "PSPNO", "PROJ", "PNO"),
     ("PROJ", "PDNO", "DEPT", "DNO")),
    (("EMPSKILLS", "ESSNO", "SKILLS", "SNO"),
     ("EMPSKILLS", "ESENO", "EMP", "ENO")),
]

BOM_TABLES = {
    "PART": {"int": ["PNO", "COST"], "str": ["PNAME", "KIND"],
             "pk": "PNO", "nullable": ["COST"]},
    "CONTAINS": {"int": ["PARENT", "CHILD", "QTY"], "str": [],
                 "pk": None},
}

BOM_JOINS = [
    ("CONTAINS", "PARENT", "PART", "PNO"),
    ("CONTAINS", "CHILD", "PART", "PNO"),
]

BOM_CHAINS = [
    (("CONTAINS", "PARENT", "PART", "PNO"),
     ("CONTAINS", "CHILD", "PART", "PNO")),
]


# ----------------------------------------------------------------------
# Fixture databases (repro + mirrored sqlite)
# ----------------------------------------------------------------------
def build_org_database() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=8, employees_per_dept=5,
                                             projects_per_dept=3, skills=12,
                                             skills_per_employee=2,
                                             skills_per_project=2,
                                             arc_fraction=0.25, seed=26))
    # NULL-bearing rows so three-valued logic is actually exercised.
    db.execute("INSERT INTO EMP VALUES (9001, 'null-dept', NULL, 77000)")
    db.execute("INSERT INTO EMP VALUES (9002, 'null-sal', 1, NULL)")
    db.execute("INSERT INTO EMP VALUES (9003, 'all-null', NULL, NULL)")
    db.execute("INSERT INTO PROJ VALUES (9001, 'null-proj', NULL, NULL)")
    return db


def build_bom_database() -> Session:
    db = Engine().connect()
    create_bom_schema(db.engine.catalog)
    populate_bom(db.engine.catalog, BOMScale(roots=3, depth=3, fanout=3, seed=14))
    db.execute("INSERT INTO PART VALUES (9001, 'null-part', NULL, NULL)")
    return db


def mirror_to_sqlite(db: Session) -> sqlite3.Connection:
    """Copy every base table (schema and rows) into an in-memory SQLite
    database.  Columns are declared without affinity so values keep the
    exact Python types the repro engine stores."""
    conn = sqlite3.connect(":memory:")
    for table in db.engine.catalog.tables():
        columns = ", ".join(f'"{c.name}"' for c in table.columns)
        conn.execute(f'CREATE TABLE {table.name} ({columns})')
        placeholders = ", ".join("?" * len(table.columns))
        conn.executemany(
            f'INSERT INTO {table.name} VALUES ({placeholders})',
            table.rows(),
        )
    conn.commit()
    return conn


@pytest.fixture(scope="module")
def org_pair():
    db = build_org_database()
    conn = mirror_to_sqlite(db)
    yield db, conn
    conn.close()


@pytest.fixture(scope="module")
def bom_pair():
    db = build_bom_database()
    conn = mirror_to_sqlite(db)
    yield db, conn
    conn.close()


# ----------------------------------------------------------------------
# Query generator
# ----------------------------------------------------------------------
class SelectGenerator:
    """Seeded random SELECT statements over one schema's metadata."""

    def __init__(self, db: Session, tables: dict, joins: list,
                 chains: list, seed: int):
        self.db = db
        self.tables = tables
        self.joins = joins
        self.chains = chains
        self.rng = random.Random(seed)
        self._samples: dict[tuple[str, str], list] = {}

    # -- value sampling ------------------------------------------------
    def sample(self, table: str, column: str):
        """A constant drawn from the column's live values (never NULL)."""
        key = (table, column)
        values = self._samples.get(key)
        if values is None:
            position = self.db.engine.catalog.table(table).column_position(column)
            values = [row[position]
                      for row in self.db.engine.catalog.table(table).rows()
                      if row[position] is not None]
            self._samples[key] = values
        if not values:
            return 0
        return self.rng.choice(values)

    @staticmethod
    def literal(value) -> str:
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)

    # -- predicates ----------------------------------------------------
    def predicate(self, alias: str, table: str) -> str:
        meta = self.tables[table]
        choices = ["compare_int", "is_null", "in_list", "between"]
        if meta["str"]:
            choices.append("compare_str")
        kind = self.rng.choice(choices)
        if kind == "compare_str":
            column = self.rng.choice(meta["str"])
            op = self.rng.choice(["=", "<>"])
            value = self.sample(table, column)
            return f"{alias}.{column} {op} {self.literal(value)}"
        column = self.rng.choice(meta["int"])
        if kind == "is_null":
            suffix = self.rng.choice(["IS NULL", "IS NOT NULL"])
            return f"{alias}.{column} {suffix}"
        if kind == "in_list":
            count = self.rng.randint(2, 4)
            values = sorted({self.sample(table, column)
                             for _ in range(count)})
            inner = ", ".join(self.literal(v) for v in values)
            negated = "NOT " if self.rng.random() < 0.3 else ""
            return f"{alias}.{column} {negated}IN ({inner})"
        if kind == "between":
            low = self.sample(table, column)
            high = self.sample(table, column)
            if high < low:
                low, high = high, low
            return (f"{alias}.{column} BETWEEN {self.literal(low)} "
                    f"AND {self.literal(high)}")
        op = self.rng.choice(["=", "<>", "<", "<=", ">", ">="])
        value = self.sample(table, column)
        return f"{alias}.{column} {op} {self.literal(value)}"

    def where(self, sources: list[tuple[str, str]]) -> str:
        """1-3 predicates over random sources, glued with AND/OR."""
        count = self.rng.randint(1, 3)
        parts = []
        for _ in range(count):
            alias, table = self.rng.choice(sources)
            parts.append(self.predicate(alias, table))
        glue = self.rng.choice([" AND ", " OR "])
        return glue.join(parts)

    # -- full statements -----------------------------------------------
    def columns_of(self, alias: str, table: str,
                   count: int) -> list[str]:
        meta = self.tables[table]
        pool = meta["int"] + meta["str"]
        picked = self.rng.sample(pool, min(count, len(pool)))
        return [f"{alias}.{column}" for column in picked]

    def generate(self) -> tuple[str, bool]:
        """One statement plus an ``ordered`` flag: True when an ORDER BY
        over a unique key makes the full output order deterministic, so
        the differential check can compare ordered lists instead of
        multisets."""
        shape = self.rng.choice(["single", "single", "join", "join",
                                 "chain", "aggregate", "aggregate",
                                 "exists", "in_subquery", "left_join",
                                 "cross_join", "set_operation", "scalar"])
        if shape == "single":
            return self._single_table()
        build = {"join": self._fk_join, "chain": self._three_way,
                 "aggregate": self._aggregate, "exists": self._exists,
                 "in_subquery": self._in_subquery,
                 "left_join": self._left_join,
                 "cross_join": self._cross_join,
                 "set_operation": self._set_operation,
                 "scalar": self._scalar_subquery}[shape]
        return build(), False

    def _order_by(self, select_columns: list[str]) -> str:
        if self.rng.random() < 0.5 and select_columns:
            return " ORDER BY " + self.rng.choice(select_columns)
        return ""

    def _single_table(self) -> tuple[str, bool]:
        table = self.rng.choice(list(self.tables))
        alias = "t"
        columns = self.columns_of(alias, table, self.rng.randint(1, 3))
        distinct = "DISTINCT " if self.rng.random() < 0.25 else ""
        sql = (f"SELECT {distinct}{', '.join(columns)} "
               f"FROM {table} {alias}")
        if self.rng.random() < 0.85:
            sql += f" WHERE {self.where([(alias, table)])}"
        # Half the time order by the primary key (never NULL, unique):
        # total order is deterministic in both engines, so row ORDER is
        # part of the differential contract, not just the multiset.
        pk = self.tables[table]["pk"]
        if pk is not None and not distinct and self.rng.random() < 0.5:
            return f"{sql} ORDER BY {alias}.{pk}", True
        sql += self._order_by(columns)
        return sql, False

    def _fk_join(self) -> str:
        child, fk, parent, pk = self.rng.choice(self.joins)
        columns = (self.columns_of("a", child, self.rng.randint(1, 2))
                   + self.columns_of("b", parent, self.rng.randint(1, 2)))
        sql = (f"SELECT {', '.join(columns)} FROM {child} a, {parent} b "
               f"WHERE a.{fk} = b.{pk}")
        if self.rng.random() < 0.7:
            sql += f" AND ({self.where([('a', child), ('b', parent)])})"
        sql += self._order_by(columns)
        return sql

    def _three_way(self) -> str:
        first, second = self.rng.choice(self.chains)
        child1, fk1, parent1, pk1 = first
        child2, fk2, parent2, pk2 = second
        # Aliases: a = child1, b = shared middle, c = outer parent.
        columns = (self.columns_of("a", child1, 1)
                   + self.columns_of("c", parent2, 1))
        sql = (f"SELECT {', '.join(columns)} "
               f"FROM {child1} a, {child2} b, {parent2} c "
               f"WHERE a.{fk1} = b.{pk1 if child2 == parent1 else fk1} "
               f"AND b.{fk2} = c.{pk2}")
        if self.rng.random() < 0.6:
            sql += f" AND ({self.where([('a', child1), ('c', parent2)])})"
        return sql

    def _fk_pair(self) -> tuple[str, str, str, str]:
        """One FK pair as (outer table, outer column, inner table, inner
        column), child-to-parent or parent-to-child at random."""
        child, fk, parent, pk = self.rng.choice(self.joins)
        if self.rng.random() < 0.5:
            return child, fk, parent, pk
        return parent, pk, child, fk

    def _exists(self) -> str:
        """Correlated [NOT] EXISTS over an FK pair."""
        outer, outer_column, inner, inner_column = self._fk_pair()
        columns = self.columns_of("a", outer, self.rng.randint(1, 2))
        negated = "NOT " if self.rng.random() < 0.5 else ""
        subquery = (f"SELECT 1 FROM {inner} b "
                    f"WHERE b.{inner_column} = a.{outer_column}")
        if self.rng.random() < 0.6:
            subquery += f" AND ({self.where([('b', inner)])})"
        sql = (f"SELECT {', '.join(columns)} FROM {outer} a "
               f"WHERE {negated}EXISTS ({subquery})")
        if self.rng.random() < 0.3:
            sql += f" AND ({self.where([('a', outer)])})"
        return sql

    def _in_subquery(self) -> str:
        """[NOT] IN with a subquery: over an FK pair, or one int column
        against itself, often a nullable one — a NULL in the inner
        column makes NOT IN UNKNOWN, never True."""
        nullable = [(table, column) for table, meta in self.tables.items()
                    for column in meta.get("nullable", ())]
        if self.rng.random() < 0.5:
            outer, outer_column, inner, inner_column = self._fk_pair()
        else:
            if self.rng.random() < 0.6:
                outer, outer_column = self.rng.choice(nullable)
            else:
                outer = self.rng.choice(list(self.tables))
                outer_column = self.rng.choice(self.tables[outer]["int"])
            inner, inner_column = outer, outer_column
        columns = self.columns_of("a", outer, self.rng.randint(1, 2))
        negated = "NOT " if self.rng.random() < 0.5 else ""
        subquery = f"SELECT b.{inner_column} FROM {inner} b"
        if self.rng.random() < 0.6:
            subquery += f" WHERE {self.where([('b', inner)])}"
        return (f"SELECT {', '.join(columns)} FROM {outer} a "
                f"WHERE a.{outer_column} {negated}IN ({subquery})")

    def _left_join(self) -> str:
        """LEFT JOIN over an FK pair; the ON clause may carry filters on
        either side, the WHERE clause filters the preserved side."""
        left, left_column, right, right_column = self._fk_pair()
        columns = (self.columns_of("a", left, self.rng.randint(1, 2))
                   + self.columns_of("b", right, self.rng.randint(1, 2)))
        on = f"b.{right_column} = a.{left_column}"
        if self.rng.random() < 0.7:
            on += f" AND ({self.where([('a', left), ('b', right)])})"
        sql = (f"SELECT {', '.join(columns)} FROM {left} a "
               f"LEFT JOIN {right} b ON {on}")
        if self.rng.random() < 0.4:
            sql += f" WHERE {self.where([('a', left)])}"
        return sql

    def _cross_join(self) -> str:
        """CROSS JOIN of two of the smallest tables, each filtered,
        sometimes with a non-equi predicate across them."""
        smallest = sorted(self.tables,
                          key=lambda name: len(self.db.engine.catalog.table(name)))
        first = self.rng.choice(smallest[:3])
        second = self.rng.choice(smallest[:3])
        columns = (self.columns_of("a", first, 1)
                   + self.columns_of("b", second, 1))
        where = (f"({self.where([('a', first)])}) "
                 f"AND ({self.where([('b', second)])})")
        if self.rng.random() < 0.4:
            where += (f" AND a.{self.rng.choice(self.tables[first]['int'])}"
                      f" < b.{self.rng.choice(self.tables[second]['int'])}")
        return (f"SELECT {', '.join(columns)} FROM {first} a "
                f"CROSS JOIN {second} b WHERE {where}")

    def _set_operation(self) -> str:
        """UNION [ALL] / INTERSECT / EXCEPT of two single-table
        projections of the same column types."""
        operator = self.rng.choice(["UNION", "UNION ALL", "INTERSECT",
                                    "EXCEPT"])
        table = self.rng.choice(list(self.tables))
        if self.tables[table]["str"] and self.rng.random() < 0.3:
            column = self.rng.choice(self.tables[table]["str"])
            arms = [(table, [column])] * 2
        else:
            width = self.rng.randint(1, 2)
            candidates = [name for name, meta in self.tables.items()
                          if len(meta["int"]) >= width]
            arms = [(name, self.rng.sample(self.tables[name]["int"], width))
                    for name in (self.rng.choice(candidates),
                                 self.rng.choice(candidates))]
        selects = []
        for table, arm_columns in arms:
            select = (f"SELECT {', '.join('t.' + c for c in arm_columns)} "
                      f"FROM {table} t")
            if self.rng.random() < 0.7:
                select += f" WHERE {self.where([('t', table)])}"
            selects.append(select)
        return f" {operator} ".join(selects)

    def _scalar_subquery(self) -> str:
        """An uncorrelated aggregate subquery, or one correlated over an
        FK pair (per-parent aggregate of its children), in the select
        list or compared in WHERE."""
        op = self.rng.choice(["=", "<>", "<", ">="])
        if self.rng.random() < 0.5:
            table = self.rng.choice(list(self.tables))
            inner = self.rng.choice(list(self.tables))
            function = self.rng.choice(["MIN", "MAX", "COUNT", "SUM"])
            inner_column = self.rng.choice(self.tables[inner]["int"])
            subquery = f"SELECT {function}(b.{inner_column}) FROM {inner} b"
            if self.rng.random() < 0.6:
                subquery += f" WHERE {self.where([('b', inner)])}"
        else:
            child, fk, table, pk = self.rng.choice(self.joins)
            inner_column = self.rng.choice(self.tables[child]["int"])
            aggregate = self.rng.choice(
                ["COUNT(*)", f"COUNT(b.{inner_column})",
                 f"MIN(b.{inner_column})", f"MAX(b.{inner_column})",
                 f"SUM(b.{inner_column})"])
            subquery = (f"SELECT {aggregate} FROM {child} b "
                        f"WHERE b.{fk} = a.{pk}")
        columns = self.columns_of("a", table, self.rng.randint(1, 2))
        if self.rng.random() < 0.5:
            return (f"SELECT {', '.join(columns)}, ({subquery}) "
                    f"FROM {table} a")
        column = self.rng.choice(self.tables[table]["int"])
        return (f"SELECT {', '.join(columns)} FROM {table} a "
                f"WHERE a.{column} {op} ({subquery})")

    def _aggregate(self) -> str:
        table = self.rng.choice(list(self.tables))
        meta = self.tables[table]
        value_column = self.rng.choice(meta["int"])
        aggregates = self.rng.sample(
            [f"COUNT(*)", f"COUNT(t.{value_column})",
             f"SUM(t.{value_column})", f"MIN(t.{value_column})",
             f"MAX(t.{value_column})"],
            self.rng.randint(1, 3))
        group_pool = meta["str"] or meta["int"]
        if self.rng.random() < 0.7:
            group_column = self.rng.choice(group_pool)
            head = [f"t.{group_column}"] + aggregates
            sql = (f"SELECT {', '.join(head)} FROM {table} t")
            if self.rng.random() < 0.6:
                sql += f" WHERE {self.where([('t', table)])}"
            sql += f" GROUP BY t.{group_column}"
            if self.rng.random() < 0.3:
                sql += f" HAVING COUNT(*) > {self.rng.randint(1, 3)}"
            return sql
        sql = f"SELECT {', '.join(aggregates)} FROM {table} t"
        if self.rng.random() < 0.6:
            sql += f" WHERE {self.where([('t', table)])}"
        return sql


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
def normalize(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return round(value, 9)
    return value


def multiset(rows) -> Counter:
    return Counter(tuple(normalize(v) for v in row) for row in rows)


def assert_same_result(db: Session, conn: sqlite3.Connection,
                       sql: str, ordered: bool = False) -> None:
    expected = conn.execute(sql).fetchall()
    actual = db.query(sql).rows
    if ordered:
        normalized_actual = [tuple(normalize(v) for v in row)
                             for row in actual]
        normalized_expected = [tuple(normalize(v) for v in row)
                               for row in expected]
        assert normalized_actual == normalized_expected, (
            f"differential ORDER mismatch for:\n  {sql}\n"
            f"repro rows:  {normalized_actual[:10]}\n"
            f"sqlite rows: {normalized_expected[:10]}"
        )
        return
    assert multiset(actual) == multiset(expected), (
        f"differential mismatch for:\n  {sql}\n"
        f"repro rows:  {sorted(multiset(actual).items())[:10]}\n"
        f"sqlite rows: {sorted(multiset(expected).items())[:10]}"
    )


def plan_operators(db: Session, sql: str) -> set[str]:
    """Class names of every operator in the statement's plan, scalar
    subquery plans included."""
    compiled, _bindings = db.engine.pipeline.compile_select_cached(
        parse_statement(sql))
    plan = compiled.plan
    stack = [node for _stream, node in plan.outputs]
    stack.extend(plan.scalar_plans.values())
    names: set[str] = set()
    while stack:
        node = stack.pop()
        names.add(type(node).__name__)
        stack.extend(node.children())
    return names


def run_seed(db: Session, conn: sqlite3.Connection, tables: dict,
             joins: list, chains: list, seed: int,
             count: int = QUERIES_PER_SEED) -> set[str]:
    """Check ``count`` generated statements; returns the operator class
    names their plans used."""
    generator = SelectGenerator(db, tables, joins, chains, seed)
    operators: set[str] = set()
    for _ in range(count):
        sql, ordered = generator.generate()
        assert_same_result(db, conn, sql, ordered=ordered)
        operators |= plan_operators(db, sql)
    return operators


#: Operators whose only independent oracle is this suite: each must
#: appear in some plan of the fixed-seed run, or a generator change has
#: silently stopped covering it.
COVERED_OPERATORS = {"SemiJoin", "LeftOuterJoin", "NestedLoopJoin",
                     "SetOperation"}


def extra_seeds() -> list[int]:
    count = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED + offset for offset in range(1, count + 1)]


# ----------------------------------------------------------------------
# Tier-1 tests (one fixed seed each)
# ----------------------------------------------------------------------
def test_org_differential_fixed_seed(org_pair):
    db, conn = org_pair
    operators = run_seed(db, conn, ORG_TABLES, ORG_JOINS, ORG_CHAINS,
                         BASE_SEED)
    assert COVERED_OPERATORS <= operators, \
        f"not covered: {sorted(COVERED_OPERATORS - operators)}"


def test_bom_differential_fixed_seed(bom_pair):
    db, conn = bom_pair
    operators = run_seed(db, conn, BOM_TABLES, BOM_JOINS, BOM_CHAINS,
                         BASE_SEED)
    assert COVERED_OPERATORS <= operators, \
        f"not covered: {sorted(COVERED_OPERATORS - operators)}"


def test_handwritten_edge_cases(org_pair):
    """Corner cases the generator may hit rarely: NULL propagation in
    joins and aggregates, empty groups, OR of disjoint predicates."""
    db, conn = org_pair
    for sql in [
        "SELECT e.ENAME FROM EMP e WHERE e.EDNO IS NULL",
        "SELECT COUNT(e.SAL), SUM(e.SAL) FROM EMP e WHERE e.EDNO IS NULL",
        "SELECT COUNT(*) FROM EMP e WHERE e.SAL > 99999999",
        "SELECT SUM(e.SAL) FROM EMP e WHERE e.SAL > 99999999",
        "SELECT d.LOC, COUNT(*) FROM DEPT d, EMP e WHERE d.DNO = e.EDNO "
        "GROUP BY d.LOC",
        "SELECT e.ENAME FROM EMP e WHERE e.EDNO = 1 OR e.EDNO <> 1",
        "SELECT DISTINCT d.LOC FROM DEPT d, PROJ p WHERE d.DNO = p.PDNO",
        "SELECT e.ENO FROM EMP e WHERE e.EDNO NOT IN (1, 2)",
        # NOT IN over an inner column holding a NULL: never True.
        "SELECT e.ENO FROM EMP e WHERE e.SAL NOT IN "
        "(SELECT e2.SAL FROM EMP e2 WHERE e2.EDNO = 1)",
        "SELECT e.ENO FROM EMP e WHERE e.EDNO NOT IN "
        "(SELECT p.PDNO FROM PROJ p)",
        "SELECT e.ENO FROM EMP e WHERE e.EDNO IN (SELECT p.PDNO FROM PROJ p)",
        "SELECT d.DNO FROM DEPT d WHERE NOT EXISTS "
        "(SELECT 1 FROM EMP e WHERE e.EDNO = d.DNO AND e.SAL > 70000)",
        "SELECT d.DNAME, e.ENAME FROM DEPT d "
        "LEFT JOIN EMP e ON e.EDNO = d.DNO AND e.SAL > 100000",
        "SELECT d.DNO, (SELECT MAX(e.SAL) FROM EMP e WHERE e.EDNO = d.DNO) "
        "FROM DEPT d",
    ]:
        assert_same_result(db, conn, sql)
    # Ordered contract: ORDER BY over a unique, non-NULL key must give
    # byte-identical row order, including through joins.
    for sql in [
        "SELECT d.DNO, d.LOC FROM DEPT d ORDER BY d.DNO",
        "SELECT e.ENO, e.ENAME FROM EMP e WHERE e.SAL >= 60000 "
        "ORDER BY e.ENO",
        "SELECT e.ENO, d.DNAME FROM EMP e, DEPT d WHERE e.EDNO = d.DNO "
        "ORDER BY e.ENO",
    ]:
        assert_same_result(db, conn, sql, ordered=True)


# ----------------------------------------------------------------------
# Extended sweep (opt-in: REPRO_DIFF_SEEDS=<n>)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_org_differential_extended(org_pair, seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    db, conn = org_pair
    run_seed(db, conn, ORG_TABLES, ORG_JOINS, ORG_CHAINS, seed)


@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_bom_differential_extended(bom_pair, seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    db, conn = bom_pair
    run_seed(db, conn, BOM_TABLES, BOM_JOINS, BOM_CHAINS, seed)
