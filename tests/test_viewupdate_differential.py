"""Differential sweep for the view put-back translator.

For seeded random *translatable* views over a small org schema, random
CRUD statements are executed twice:

* through the **view** (the lens put-back path) on one database, and
* as the **hand-translated base DML** the lens should be equivalent to
  (the generator knows the view it built, so it can compose the view's
  predicate and column mapping itself) on a twin database.

After every statement the twin databases must hold bit-identical base
tables and have reported the same rowcount — the get∘put translation is
semantically invisible.  ``REPRO_DIFF_SEEDS=<n>`` widens the sweep.
"""

from __future__ import annotations

import os
import random

from repro.api.engine import Engine
from repro.api.session import Session

BASE_SEED = 19940328  # matches the other differential suites
OPS_PER_SEED = 30


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


def build_db() -> Session:
    db = Engine().connect()
    db.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, DNAME CHAR(8),"
               " BUDGET INT)")
    db.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, ENAME CHAR(8),"
               " SAL INT, BONUS INT, DNO INT)")
    for d in range(1, 5):
        db.execute("INSERT INTO DEPT VALUES (?, ?, ?)",
                   [d, f"d{d}", d * 100])
    for e in range(1, 21):
        db.execute("INSERT INTO EMP VALUES (?, ?, ?, ?, ?)",
                   [e, f"e{e}", 50 + e * 10, e % 7, 1 + e % 4])
    return db


#: per-column view predicates and a generator of values satisfying them
PREDICATES = {
    "SAL": ("SAL > 60", lambda rng: rng.randint(61, 150)),
    "BONUS": ("BONUS < 6", lambda rng: rng.randint(0, 5)),
    "DNO": ("DNO <= 3", lambda rng: rng.randint(1, 3)),
}


class ViewSpec:
    """One random translatable view and its hand-built base oracle."""

    def __init__(self, rng: random.Random, number: int):
        self.name = f"DV{number}"
        # visible base columns (ENO always visible so WHERE can key it)
        pool = ["SAL", "BONUS", "DNO"]
        rng.shuffle(pool)
        kept = ["ENO"] + pool[:rng.randint(1, 3)]
        self.columns = {f"C{i}": base for i, base in enumerate(kept)}
        # the predicate constrains a *visible* column, so the generator
        # can always produce writes that stay inside the view
        self.pred_col = rng.choice([None] + kept[1:])
        self.predicate = (PREDICATES[self.pred_col][0]
                          if self.pred_col else None)
        self.nested = rng.random() < 0.3

    def safe_value(self, rng: random.Random, base: str) -> int:
        """A value for ``base`` that keeps the row inside the view."""
        if base == self.pred_col:
            return PREDICATES[base][1](rng)
        return rng.randint(0, 80)

    def ddl(self) -> list[str]:
        heads = ", ".join(self.columns)
        exprs = ", ".join(self.columns.values())
        where = f" WHERE {self.predicate}" if self.predicate else ""
        if not self.nested:
            return [f"CREATE VIEW {self.name} ({heads}) AS"
                    f" SELECT {exprs} FROM EMP{where}"]
        inner = f"{self.name}_I"
        return [
            f"CREATE VIEW {inner} ({heads}) AS"
            f" SELECT {exprs} FROM EMP{where}",
            f"CREATE VIEW {self.name} AS SELECT {heads} FROM {inner}",
        ]

    # -- the oracle's hand translation ---------------------------------
    def base_where(self, view_where: str | None) -> str:
        parts = []
        if self.predicate:
            parts.append(self.predicate)
        if view_where:
            rewritten = view_where
            for head, base in self.columns.items():
                rewritten = rewritten.replace(head, base)
            parts.append(rewritten)
        return f" WHERE {' AND '.join(parts)}" if parts else ""


def random_statements(spec: ViewSpec, rng: random.Random,
                      next_key: list[int]):
    """Yield (view_sql, base_sql, params) triples."""
    heads = list(spec.columns)
    key = next(h for h, b in spec.columns.items() if b == "ENO")
    writable = [h for h in heads if h != key]
    for _ in range(OPS_PER_SEED):
        kind = rng.choice(["update", "update", "insert", "delete"])
        if kind == "update" and writable:
            head = rng.choice(writable)
            base = spec.columns[head]
            value = spec.safe_value(rng, base)
            where = rng.choice(
                [None, f"{key} = {rng.randint(1, 30)}",
                 f"{head} > {rng.randint(0, 70)}"])
            suffix = f" WHERE {where}" if where else ""
            yield (f"UPDATE {spec.name} SET {head} = {value}{suffix}",
                   f"UPDATE EMP SET {base} = {value}"
                   + spec.base_where(where), [])
        elif kind == "insert":
            eno = next_key[0]
            next_key[0] += 1
            values = {h: spec.safe_value(rng, spec.columns[h])
                      for h in writable}
            values[key] = eno
            cols = ", ".join(values)
            marks = ", ".join("?" for _ in values)
            base_cols = ", ".join(spec.columns[c] for c in values)
            yield (f"INSERT INTO {spec.name} ({cols}) VALUES ({marks})",
                   f"INSERT INTO EMP ({base_cols}) VALUES ({marks})",
                   list(values.values()))
        else:
            where = rng.choice(
                [f"{key} = {rng.randint(1, 30)}",
                 f"{key} > {rng.randint(15, 40)}"])
            yield (f"DELETE FROM {spec.name} WHERE {where}",
                   f"DELETE FROM EMP{spec.base_where(where)}", [])


def table_image(db: Session, table: str):
    return sorted(db.query(f"SELECT * FROM {table}").rows)


def run_seed(seed: int) -> None:
    rng = random.Random(seed)
    lens_db, oracle_db = build_db(), build_db()
    spec = ViewSpec(rng, seed % 1000)
    for ddl in spec.ddl():
        lens_db.execute(ddl)
    next_key = [100]
    for view_sql, base_sql, params in \
            random_statements(spec, rng, next_key):
        try:
            lens_count = lens_db.execute(view_sql, params or None)
        except Exception as exc:  # pragma: no cover - debugging aid
            raise AssertionError(
                f"seed {seed}: view path failed on {view_sql!r}: {exc}"
            ) from exc
        oracle_count = oracle_db.execute(base_sql, params or None)
        assert lens_count == oracle_count, (
            f"seed {seed}: rowcount diverged on {view_sql!r}: "
            f"lens={lens_count} oracle={oracle_count}")
        for table in ("EMP", "DEPT"):
            assert table_image(lens_db, table) == \
                table_image(oracle_db, table), (
                    f"seed {seed}: table {table} diverged after "
                    f"{view_sql!r}")


def test_viewupdate_differential_fixed_seed():
    run_seed(BASE_SEED)


def test_viewupdate_differential_sweep():
    seeds = _seeds()[1:]
    if not seeds:
        import pytest
        pytest.skip("set REPRO_DIFF_SEEDS=<n> to widen the sweep")
    for seed in seeds:
        run_seed(seed)


class TestJoinViewDifferential:
    """The key-preserved join path against its hand translation."""

    def test_join_update_matches_base(self):
        lens_db, oracle_db = build_db(), build_db()
        lens_db.execute(
            "CREATE VIEW JV AS SELECT E.ENO, E.SAL, D.BUDGET"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        a = lens_db.execute("UPDATE JV SET SAL = SAL + 3"
                            " WHERE BUDGET > 150")
        b = oracle_db.execute(
            "UPDATE EMP SET SAL = SAL + 3 WHERE DNO IN"
            " (SELECT DNO FROM DEPT WHERE BUDGET > 150)")
        assert a == b
        assert table_image(lens_db, "EMP") == \
            table_image(oracle_db, "EMP")

    def test_join_delete_matches_base(self):
        lens_db, oracle_db = build_db(), build_db()
        lens_db.execute(
            "CREATE VIEW JV AS SELECT E.ENO, D.BUDGET"
            " FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        a = lens_db.execute("DELETE FROM JV WHERE BUDGET = 200")
        b = oracle_db.execute(
            "DELETE FROM EMP WHERE DNO IN"
            " (SELECT DNO FROM DEPT WHERE BUDGET = 200)")
        assert a == b
        assert table_image(lens_db, "EMP") == \
            table_image(oracle_db, "EMP")
