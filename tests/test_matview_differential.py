"""Differential testing of incremental matview maintenance.

A seeded random DML generator (inserts, updates, deletes over every
table of the org / BOM schemas, including foreign-key violations that
roll statements back) drives a database carrying materialized views
under both staleness policies.  After every statement, each view's
maintained result must equal a from-scratch recomputation of its
definition — the incremental delta engine and the full evaluator are
independent code paths, so any divergence in join semantics, NULL
handling, reachability support counting or connection multiplicities
trips this suite.

Tier-1 runs one fixed seed; ``REPRO_DIFF_SEEDS=<n>`` sweeps ``n``
additional seeds, mirroring ``tests/test_differential_sqlite.py``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.cache.matview import _HashIndex, _IncrementalState, co_canonical
from repro.errors import ReproError
from repro.storage.catalog import TableDelta
from repro.storage.partition import HashPartitioning
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

BASE_SEED = 19940328
OPERATIONS_PER_SEED = 45

#: Non-recursive two-level BOM view: two components over the same base
#: table (PART), a relationship attribute drawn from the USING table.
BOM_LEVELS_QUERY = """
OUT OF xassembly AS (SELECT * FROM PART WHERE kind = 'assembly'),
       xpart AS PART,
       holds AS (RELATE xassembly VIA HOLDS, xpart
                 USING CONTAINS c
                 WITH c.qty AS qty
                 WHERE xassembly.pno = c.parent AND c.child = xpart.pno)
TAKE *
"""

#: The same levels without the attribute: a QTY update changes no
#: column the view reads, so it replaces the USING shadow's row only.
BOM_PLAIN_QUERY = """
OUT OF xassembly AS (SELECT * FROM PART WHERE kind = 'assembly'),
       xpart AS PART,
       holds AS (RELATE xassembly VIA HOLDS, xpart
                 USING CONTAINS c
                 WHERE xassembly.pno = c.parent AND c.child = xpart.pno)
TAKE *
"""

#: Components with computed columns: each streamed value is an
#: expression over the component's base row, maintained incrementally.
COMPUTED_QUERY = """
OUT OF xdept AS (SELECT dno, loc, dno * 10 + 1 AS code FROM DEPT
                 WHERE loc = 'ARC'),
       xemp AS (SELECT eno, edno, sal / 1000 AS ksal FROM EMP
                WHERE sal > 50000),
       employment AS (RELATE xdept VIA EMPLOYS, xemp
                      WHERE xdept.dno = xemp.edno)
TAKE *
"""

#: Value-only updates that must still reach the snapshot: DSAL is
#: computed from SAL, which no predicate or attribute of this view
#: reads, and the ownership attribute reads PROJ.BUDGET, so a budget
#: update changes connections.
VALUES_QUERY = """
OUT OF xdept AS (SELECT dno, loc FROM DEPT WHERE loc = 'ARC'),
       xemp AS (SELECT eno, edno, sal * 2 AS dsal FROM EMP),
       xproj AS PROJ,
       employment AS (RELATE xdept VIA EMPLOYS, xemp
                      WHERE xdept.dno = xemp.edno),
       ownership AS (RELATE xdept VIA HAS, xproj
                     WITH xproj.budget AS budget
                     WHERE xdept.dno = xproj.pdno)
TAKE *
"""

#: The org views every org driver maintains and checks.
ORG_VIEWS = (
    ("eager_v", f"CREATE MATERIALIZED VIEW eager_v AS {DEPS_ARC_QUERY}"),
    ("lazy_v", f"CREATE MATERIALIZED VIEW lazy_v REFRESH DEFERRED "
               f"AS {DEPS_ARC_QUERY}"),
    ("computed_v", f"CREATE MATERIALIZED VIEW computed_v AS "
                   f"{COMPUTED_QUERY}"),
    ("values_v", f"CREATE MATERIALIZED VIEW values_v AS {VALUES_QUERY}"),
)


def check_view(db: Session, name: str, context: str) -> None:
    view = db.engine.matviews.get(name)
    maintained = co_canonical(view.read())
    recomputed = co_canonical(view.executable.run())
    assert maintained == recomputed, (
        f"materialized view {name!r} diverged from recomputation "
        f"after {context}\nmaintained:  {maintained}\n"
        f"recomputed: {recomputed}"
    )
    if view.is_incremental:
        check_indexes(view, context)


def check_indexes(view, context: str) -> None:
    """Every maintained hash index equals one rebuilt from its extent,
    and every extent equals the one a fresh build reads."""
    state = view._state
    fresh = _IncrementalState(state.plan, state.catalog)
    fresh.build()
    assert state.extents.keys() == fresh.extents.keys()
    for source, extent in state.extents.items():
        assert extent.rows == fresh.extents[source].rows, (
            f"extent {source} drifted after {context}")
        for positions, index in extent.indexes.items():
            rebuilt = _HashIndex(positions)
            rebuilt.add(extent.rows.items())
            assert index.buckets == rebuilt.buckets, (
                f"index {source} on {positions} drifted after {context}")
    assert state.conn == fresh.conn


class DeleteOneRow:
    """Delete one of several identical rows, which no SQL predicate can
    single out: a storage-level delete publishing its delta, as every
    write path does."""

    def __init__(self, db: Session, table: str, row: tuple):
        self.db = db
        self.table = table
        self.row = row

    def __call__(self) -> None:
        table = self.db.engine.catalog.table(self.table)
        rid = next(rid for rid, row in table.scan() if row == self.row)
        table.delete(rid)
        self.db.engine.catalog.sink.row_delta(
            TableDelta(self.table, deleted=[(rid, self.row)]))

    def __repr__(self) -> str:
        return f"delete one {self.table} row {self.row}"


class Burst:
    """Several statements with no read between them, so a deferred
    view's queue holds all their deltas at once."""

    def __init__(self, db: Session, statements: list[str]):
        self.db = db
        self.statements = statements

    def __call__(self) -> None:
        for statement in self.statements:
            self.db.execute(statement)

    def __repr__(self) -> str:
        return f"burst {self.statements}"


def run_step(db: Session, step) -> bool:
    """Run one SQL statement (or row-level step); False if rejected."""
    try:
        if callable(step):
            step()
        else:
            db.execute(step)
    except ReproError:
        return False  # constraint violation: statement rolled back
    return True


class OrgMutator:
    """Seeded random DML over the org schema."""

    def __init__(self, db: Session, seed: int):
        self.db = db
        self.rng = random.Random(seed)
        self.next_id = 50000 + (seed % 1000) * 100

    def fresh_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def sample_row(self, table: str):
        rows = list(self.db.engine.catalog.table(table).rows())
        return self.rng.choice(rows) if rows else None

    def sample_pk(self, table: str, position: int = 0):
        row = self.sample_row(table)
        return None if row is None else row[position]

    def statement(self):
        """One step: SQL text, or a list of steps run in order."""
        rng = self.rng
        choice = rng.choice([
            "insert_emp", "insert_emp", "update_emp_sal",
            "update_emp_dept", "delete_emp", "insert_dept",
            "update_dept_loc", "delete_dept", "insert_proj",
            "update_proj", "delete_proj", "insert_empskills",
            "delete_empskills", "insert_projskills",
            "delete_projskills", "insert_skill", "update_skill",
            "null_emp_dept", "move_empskills", "move_projskills",
            "duplicate_mapping", "mixed_emp_update", "self_assign_dept",
            "queued_same_rid",
        ])
        if choice == "insert_emp":
            dno = self.sample_pk("DEPT")
            if rng.random() < 0.15:
                dno = "NULL"
            return (f"INSERT INTO EMP VALUES ({self.fresh_id()}, "
                    f"'emp-r{self.next_id}', {dno}, "
                    f"{rng.randint(30, 200) * 1000})")
        if choice == "update_emp_sal":
            eno = self.sample_pk("EMP")
            return (f"UPDATE EMP SET SAL = {rng.randint(1, 300) * 1000} "
                    f"WHERE ENO = {eno}")
        if choice == "mixed_emp_update":
            # One statement, value-only and structural rows mixed: every
            # row's SAL moves, the first row also changes department.
            enos = [self.sample_pk("EMP") for _ in range(3)]
            return (f"UPDATE EMP SET SAL = SAL + 1, EDNO = CASE WHEN "
                    f"ENO = {enos[0]} THEN {self.sample_pk('DEPT')} "
                    f"ELSE EDNO END WHERE ENO IN "
                    f"({', '.join(map(str, enos))})")
        if choice == "self_assign_dept":
            return f"UPDATE EMP SET EDNO = EDNO WHERE ENO = " \
                   f"{self.sample_pk('EMP')}"
        if choice == "queued_same_rid":
            # Value-only, structural, value-only on one RID, all queued
            # in the deferred view before it is read.
            eno = self.sample_pk("EMP")
            return Burst(self.db, [
                f"UPDATE EMP SET SAL = SAL + 3 WHERE ENO = {eno}",
                f"UPDATE EMP SET EDNO = {self.sample_pk('DEPT')} "
                f"WHERE ENO = {eno}",
                f"UPDATE EMP SET SAL = SAL + 5 WHERE ENO = {eno}",
            ])
        if choice == "update_emp_dept":
            eno = self.sample_pk("EMP")
            dno = self.sample_pk("DEPT")
            return f"UPDATE EMP SET EDNO = {dno} WHERE ENO = {eno}"
        if choice == "delete_emp":
            eno = self.sample_pk("EMP")
            return f"DELETE FROM EMP WHERE ENO = {eno}"
        if choice == "insert_dept":
            loc = rng.choice(["ARC", "ARC", "SF", "NY"])
            return (f"INSERT INTO DEPT VALUES ({self.fresh_id()}, "
                    f"'dept-r{self.next_id}', '{loc}')")
        if choice == "update_dept_loc":
            dno = self.sample_pk("DEPT")
            loc = rng.choice(["ARC", "SF", "NY", "HD"])
            return f"UPDATE DEPT SET LOC = '{loc}' WHERE DNO = {dno}"
        if choice == "delete_dept":
            dno = self.sample_pk("DEPT")
            return f"DELETE FROM DEPT WHERE DNO = {dno}"
        if choice == "insert_proj":
            dno = self.sample_pk("DEPT")
            return (f"INSERT INTO PROJ VALUES ({self.fresh_id()}, "
                    f"'proj-r{self.next_id}', {dno}, "
                    f"{rng.randint(10, 500) * 1000})")
        if choice == "update_proj":
            pno = self.sample_pk("PROJ")
            return (f"UPDATE PROJ SET BUDGET = "
                    f"{rng.randint(1, 900) * 1000} WHERE PNO = {pno}")
        if choice == "delete_proj":
            pno = self.sample_pk("PROJ")
            return f"DELETE FROM PROJ WHERE PNO = {pno}"
        if choice == "insert_empskills":
            eno = self.sample_pk("EMP")
            sno = self.sample_pk("SKILLS")
            return f"INSERT INTO EMPSKILLS VALUES ({eno}, {sno})"
        if choice == "delete_empskills":
            eno = self.sample_pk("EMPSKILLS")
            return f"DELETE FROM EMPSKILLS WHERE ESENO = {eno}"
        if choice == "insert_projskills":
            pno = self.sample_pk("PROJ")
            sno = self.sample_pk("SKILLS")
            return f"INSERT INTO PROJSKILLS VALUES ({pno}, {sno})"
        if choice == "delete_projskills":
            pno = self.sample_pk("PROJSKILLS")
            return f"DELETE FROM PROJSKILLS WHERE PSPNO = {pno}"
        if choice == "null_emp_dept":
            eno = self.sample_pk("EMP")
            return f"UPDATE EMP SET EDNO = NULL WHERE ENO = {eno}"
        if choice in ("move_empskills", "move_projskills"):
            # Key-changing updates of a USING table, either column.
            table, owner, owner_col, skill_col = (
                ("EMPSKILLS", "EMP", "ESENO", "ESSNO")
                if choice == "move_empskills"
                else ("PROJSKILLS", "PROJ", "PSPNO", "PSSNO"))
            row = self.sample_row(table)
            if row is None:
                return "DELETE FROM SKILLS WHERE SNO = -1"
            if rng.random() < 0.5:
                return (f"UPDATE {table} SET {skill_col} = "
                        f"{self.sample_pk('SKILLS')} WHERE {owner_col} = "
                        f"{row[0]} AND {skill_col} = {row[1]}")
            return (f"UPDATE {table} SET {owner_col} = "
                    f"{self.sample_pk(owner)} WHERE {owner_col} = "
                    f"{row[0]} AND {skill_col} = {row[1]}")
        if choice == "duplicate_mapping":
            # A second identical USING row, then one of the two goes.
            table = rng.choice(["EMPSKILLS", "PROJSKILLS"])
            row = self.sample_row(table)
            if row is None:
                return "DELETE FROM SKILLS WHERE SNO = -1"
            return [f"INSERT INTO {table} VALUES ({row[0]}, {row[1]})",
                    DeleteOneRow(self.db, table, row)]
        if choice == "insert_skill":
            return (f"INSERT INTO SKILLS VALUES ({self.fresh_id()}, "
                    f"'skill-r{self.next_id}', {rng.randint(1, 5)})")
        pno = self.sample_pk("SKILLS")
        return (f"UPDATE SKILLS SET LEVEL = {rng.randint(1, 9)} "
                f"WHERE SNO = {pno}")


class BOMMutator:
    """Seeded random DML over the BOM schema."""

    def __init__(self, db: Session, seed: int):
        self.db = db
        self.rng = random.Random(seed)
        self.next_id = 70000 + (seed % 1000) * 100

    def sample_pk(self, table: str, position: int = 0):
        rows = list(self.db.engine.catalog.table(table).rows())
        if not rows:
            return None
        return self.rng.choice(rows)[position]

    def statement(self) -> str:
        rng = self.rng
        choice = rng.choice([
            "insert_part", "insert_part", "update_cost", "flip_kind",
            "delete_part", "insert_contains", "delete_contains",
            "update_qty", "update_edge_qty", "move_contains",
        ])
        if choice == "insert_part":
            self.next_id += 1
            kind = rng.choice(["assembly", "atomic"])
            return (f"INSERT INTO PART VALUES ({self.next_id}, "
                    f"'part-r{self.next_id}', '{kind}', "
                    f"{rng.randint(1, 500)})")
        if choice == "update_cost":
            pno = self.sample_pk("PART")
            return (f"UPDATE PART SET COST = {rng.randint(1, 900)} "
                    f"WHERE PNO = {pno}")
        if choice == "flip_kind":
            # Moves the row in or out of the xassembly component.
            pno = self.sample_pk("PART")
            kind = rng.choice(["assembly", "atomic"])
            return f"UPDATE PART SET KIND = '{kind}' WHERE PNO = {pno}"
        if choice == "delete_part":
            pno = self.sample_pk("PART")
            return f"DELETE FROM PART WHERE PNO = {pno}"
        if choice == "insert_contains":
            parent = self.sample_pk("PART")
            child = self.sample_pk("PART")
            return (f"INSERT INTO CONTAINS VALUES ({parent}, {child}, "
                    f"{rng.randint(1, 9)})")
        if choice == "delete_contains":
            parent = self.sample_pk("CONTAINS")
            return f"DELETE FROM CONTAINS WHERE PARENT = {parent}"
        if choice in ("update_edge_qty", "move_contains"):
            rows = list(self.db.engine.catalog.table("CONTAINS").rows())
            if not rows:
                return "DELETE FROM CONTAINS WHERE PARENT = -1"
            parent, child, _qty = rng.choice(rows)
            where = f"WHERE PARENT = {parent} AND CHILD = {child}"
            if choice == "update_edge_qty":
                # Only the relationship attribute of one edge changes.
                return (f"UPDATE CONTAINS SET QTY = {rng.randint(1, 99)} "
                        f"{where}")
            return (f"UPDATE CONTAINS SET CHILD = "
                    f"{self.sample_pk('PART')} {where}")
        parent = self.sample_pk("CONTAINS")
        return (f"UPDATE CONTAINS SET QTY = {rng.randint(1, 99)} "
                f"WHERE PARENT = {parent}")


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def org_database(seed: int, partitioning=None) -> Session:
    """The small org database with every view of ``ORG_VIEWS``; EMP is
    repartitioned first when ``partitioning`` is given."""
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=6,
                                             employees_per_dept=4,
                                             projects_per_dept=2, skills=10,
                                             arc_fraction=0.4, seed=seed % 997))
    if partitioning is not None:
        db.engine.repartition("EMP", partitioning)
    for name, statement in ORG_VIEWS:
        db.execute(statement)
        assert db.engine.matviews.get(name).is_incremental, name
    return db


def run_org_steps(db: Session, seed: int, operations: int) -> None:
    mutator = OrgMutator(db, seed)
    applied = 0
    for _step in range(operations):
        steps = mutator.statement()
        for step in steps if isinstance(steps, list) else [steps]:
            if not run_step(db, step):
                break
            applied += 1
            for name, _statement in ORG_VIEWS:
                check_view(db, name, step)
    assert applied > operations // 3, "generator mostly produced no-ops"


def run_org_seed(seed: int, operations: int = OPERATIONS_PER_SEED) -> None:
    run_org_steps(org_database(seed), seed, operations)


def emp_rid(db: Session, eno: int):
    return next(rid for rid, row in db.engine.catalog.table("EMP").scan()
                if row[0] == eno)


def run_partitioned_seed(seed: int,
                         operations: int = OPERATIONS_PER_SEED) -> None:
    """EMP hash-partitioned on SAL: a salary update, value-only for
    ``eager_v``, moves the row to another RID and so takes the general
    path."""
    db = org_database(seed, HashPartitioning(("SAL",), 4))
    rng = random.Random(seed)
    moved = 0
    for _step in range(12):
        eno = rng.choice([row[0] for row in
                          db.engine.catalog.table("EMP").rows()])
        before = emp_rid(db, eno)
        step = f"UPDATE EMP SET SAL = SAL + {rng.randint(1, 9)} " \
               f"WHERE ENO = {eno}"
        assert run_step(db, step)
        moved += emp_rid(db, eno) != before
        for name, _statement in ORG_VIEWS:
            check_view(db, name, step)
    assert moved, "no salary update moved its row"
    run_org_steps(db, seed, operations)


def run_bom_seed(seed: int, operations: int = OPERATIONS_PER_SEED) -> None:
    db = Engine().connect()
    create_bom_schema(db.engine.catalog)
    populate_bom(db.engine.catalog, BOMScale(roots=2, depth=3, fanout=2,
                                             seed=seed % 991))
    db.execute(f"CREATE MATERIALIZED VIEW levels AS {BOM_LEVELS_QUERY}")
    db.execute(f"CREATE MATERIALIZED VIEW plain AS {BOM_PLAIN_QUERY}")
    assert db.engine.matviews.get("levels").is_incremental
    assert db.engine.matviews.get("plain").is_incremental
    mutator = BOMMutator(db, seed)
    for _step in range(operations):
        sql = mutator.statement()
        if run_step(db, sql):
            check_view(db, "levels", sql)
            check_view(db, "plain", sql)


def extra_seeds() -> list[int]:
    count = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED + offset for offset in range(1, count + 1)]


# ----------------------------------------------------------------------
# Tier-1 (fixed seed) and extended sweep
# ----------------------------------------------------------------------
def test_org_matview_differential_fixed_seed():
    run_org_seed(BASE_SEED)


def test_bom_matview_differential_fixed_seed():
    run_bom_seed(BASE_SEED)


def test_partitioned_matview_differential_fixed_seed():
    run_partitioned_seed(BASE_SEED)


def test_writeback_differential_fixed_seed():
    """Cache write-back (the other delta source) also maintains views."""
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=5,
                                             employees_per_dept=3,
                                             projects_per_dept=2, skills=8,
                                             arc_fraction=0.5, seed=77))
    db.execute(f"CREATE MATERIALIZED VIEW wb AS {DEPS_ARC_QUERY}")
    rng = random.Random(BASE_SEED)
    for round_number in range(4):
        cache = db.open_cache("wb")
        employees = cache.extent("xemp")
        if employees:
            victim = rng.choice(employees)
            victim.set("SAL", rng.randint(1, 999) * 100)
        skills = cache.extent("xskills")
        if employees and skills:
            cache.connect("empproperty", rng.choice(employees),
                          rng.choice(skills))
        cache.write_back()
        check_view(db, "wb", f"write-back round {round_number}")


@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_org_matview_differential_extended(seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    run_org_seed(seed)


@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_bom_matview_differential_extended(seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    run_bom_seed(seed)


@pytest.mark.parametrize("seed", extra_seeds() or [None])
def test_partitioned_matview_differential_extended(seed):
    if seed is None:
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to sweep more seeds")
    run_partitioned_seed(seed)
