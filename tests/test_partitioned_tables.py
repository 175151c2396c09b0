"""Horizontal partitioning: DDL, routing, DML across partitions,
repartitioning, and durability.

Partitioned tables keep the whole Table contract — encoded rids
(``partition << PARTITION_SHIFT | slot``), global PK map and secondary
indexes, read-view visibility — so everything above storage is
supposed to *not notice*.  These tests pin the parts that could:
cross-partition UPDATE relocation (delete+insert under the covers),
transactional undo of relocations, FK checks spanning differently
partitioned parent/child, WAL/snapshot recovery of the partitioning
scheme, and the ``repartition()`` DDL.

The SELECT side is a differential: a HASH-partitioned heap and a
RANGE-partitioned heap must each give the same answer as a flat heap
(the same multiset, and exactly the same order under ORDER BY).  A
fixed query list covers scan, DISTINCT, ORDER BY / LIMIT, GROUP BY
with AVG and DISTINCT, HAVING, join and semijoin shapes; a seeded
generator adds random SELECTs on top (LIMIT only ever with ORDER BY,
since an unordered LIMIT legitimately picks different rows).  Tier-1
runs one seed; ``REPRO_DIFF_SEEDS=<n>`` sweeps ``n`` extra seeds, like
the other differential suites.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.errors import (ParseError, StorageError, TransactionError,
                          TypeCheckError)
from repro.storage.partition import (HashPartitioning, RangePartitioning,
                                     stable_hash)
from repro.storage.table import PARTITION_SHIFT


def rows_of(db: Session, table: str) -> set[tuple]:
    return set(db.engine.catalog.table(table).rows())


@pytest.fixture
def part_db() -> Session:
    db = Engine().connect()
    db.execute(
        "CREATE TABLE M (ID INT PRIMARY KEY, G INT, V INT) "
        "PARTITION BY HASH (ID) PARTITIONS 4")
    db.execute("INSERT INTO M VALUES " + ",".join(
        f"({i}, {i % 5}, {i * 7 % 31})" for i in range(200)))
    yield db
    db.engine.close()


# ----------------------------------------------------------------------
# DDL + routing
# ----------------------------------------------------------------------
class TestPartitionDDL:
    def test_hash_partitioning_routes_and_balances(self, part_db):
        table = part_db.engine.catalog.table("M")
        assert table.partition_count == 4
        counts = table.partition_live_counts()
        assert sum(counts) == 200
        # crc32 routing spreads 200 sequential keys over all parts.
        assert all(count > 0 for count in counts)
        for rid, row in table.scan():
            assert table.partition_of_rid(rid) == \
                stable_hash((row[0],)) % 4

    def test_range_partitioning_bounds_and_nulls(self):
        db = Engine().connect()
        db.execute(
            "CREATE TABLE R (ID INT PRIMARY KEY, V INT) "
            "PARTITION BY RANGE (V) VALUES LESS THAN (10, 20)")
        table = db.engine.catalog.table("R")
        assert table.partition_count == 3  # (-inf,10), [10,20), [20,inf)
        db.execute("INSERT INTO R VALUES (1, 5), (2, 10), (3, 19), "
                   "(4, 20), (5, 999), (6, NULL)")
        part_of = {row[0]: table.partition_of_rid(rid)
                   for rid, row in table.scan()}
        assert part_of == {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 0}
        db.engine.close()

    def test_partition_words_stay_contextual(self):
        """PARTITION/HASH/RANGE... are not reserved words."""
        db = Engine().connect()
        db.execute("CREATE TABLE W (PARTITION INT PRIMARY KEY, HASH INT, "
                   "RANGE INT)")
        db.execute("INSERT INTO W VALUES (1, 2, 3)")
        result = db.query("SELECT HASH FROM W WHERE PARTITION = 1")
        assert result.rows == [(2,)]
        db.engine.close()

    def test_ddl_rejects_bad_specs(self):
        db = Engine().connect()
        with pytest.raises(ParseError):
            db.execute("CREATE TABLE B (A INT) "
                       "PARTITION BY HASH (A) PARTITIONS 0")
        with pytest.raises(StorageError):
            db.execute("CREATE TABLE B (A INT) "
                       "PARTITION BY RANGE (A) VALUES LESS THAN (20, 10)")
        with pytest.raises(Exception):  # unknown partition column
            db.execute("CREATE TABLE B (A INT) "
                       "PARTITION BY HASH (NOPE) PARTITIONS 2")
        db.engine.close()

    def test_primary_key_global_across_partitions(self, part_db):
        with pytest.raises((StorageError, TypeCheckError)):
            part_db.execute("INSERT INTO M VALUES (7, 0, 0)")


# ----------------------------------------------------------------------
# DML across partitions
# ----------------------------------------------------------------------
class TestPartitionDML:
    def test_update_in_place_when_key_unchanged(self, part_db):
        table = part_db.engine.catalog.table("M")
        rid_before = {row[0]: rid for rid, row in table.scan()}
        assert part_db.execute(
            "UPDATE M SET V = 1000 WHERE ID = 42") == 1
        rid_after = {row[0]: rid for rid, row in table.scan()}
        assert rid_after[42] == rid_before[42]
        assert part_db.query("SELECT V FROM M WHERE ID = 42").rows == \
            [(1000,)]

    def test_update_partition_key_relocates_row(self, part_db):
        table = part_db.engine.catalog.table("M")
        old_part = {row[0]: table.partition_of_rid(rid)
                    for rid, row in table.scan()}
        # Pick a replacement key that routes to a different partition.
        new_id = next(i for i in range(1000, 1100)
                      if stable_hash((i,)) % 4 != old_part[13])
        assert part_db.execute(
            f"UPDATE M SET ID = {new_id} WHERE ID = 13") == 1
        new_part = {row[0]: table.partition_of_rid(rid)
                    for rid, row in table.scan()}
        assert 13 not in new_part
        assert new_part[new_id] == stable_hash((new_id,)) % 4
        assert new_part[new_id] != old_part[13]
        assert sum(table.partition_live_counts()) == 200
        assert part_db.query(
            f"SELECT COUNT(*) FROM M WHERE ID = {new_id}").rows == [(1,)]

    def test_rollback_restores_cross_partition_move(self, part_db):
        table = part_db.engine.catalog.table("M")
        before = rows_of(part_db, "M")
        counts_before = table.partition_live_counts()
        session = part_db.engine.connect()
        session.begin()
        new_id = next(i for i in range(1000, 1100)
                      if stable_hash((i,)) % 4 != stable_hash((13,)) % 4)
        session.execute(f"UPDATE M SET ID = {new_id} WHERE ID = 13")
        session.execute("DELETE FROM M WHERE ID = 77")
        session.rollback()
        session.close()
        assert rows_of(part_db, "M") == before
        assert table.partition_live_counts() == counts_before
        # The PK map survived the undo: both keys resolve again.
        assert part_db.query("SELECT COUNT(*) FROM M "
                             "WHERE ID = 13 OR ID = 77").rows == [(2,)]

    def test_foreign_keys_span_partitionings(self):
        """Parent hash(4) and child hash(2): FK checks look keys up in
        the *global* PK map, so mixed partitionings just work."""
        db = Engine().connect()
        db.execute("CREATE TABLE P (PNO INT PRIMARY KEY, NAME VARCHAR) "
                   "PARTITION BY HASH (PNO) PARTITIONS 4")
        db.execute(
            "CREATE TABLE C (CNO INT PRIMARY KEY, PREF INT, "
            "FOREIGN KEY (PREF) REFERENCES P (PNO)) "
            "PARTITION BY HASH (CNO) PARTITIONS 2")
        db.execute("INSERT INTO P VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        db.execute("INSERT INTO C VALUES (10, 1), (11, 3), (12, 3)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO C VALUES (13, 99)")  # no parent
        with pytest.raises(Exception):
            db.execute("DELETE FROM P WHERE PNO = 3")  # children exist
        db.execute("DELETE FROM P WHERE PNO = 2")  # childless is fine
        assert db.query("SELECT COUNT(*) FROM P").rows == [(2,)]
        db.engine.close()

    def test_secondary_index_over_partitions(self, part_db):
        part_db.engine.catalog.create_index("IX_M_G", "M", ["G"])
        expected = {(i,) for i in range(200) if i % 5 == 3}
        assert set(part_db.query(
            "SELECT ID FROM M WHERE G = 3").rows) == expected


# ----------------------------------------------------------------------
# repartition()
# ----------------------------------------------------------------------
class TestRepartition:
    def test_repartition_preserves_rows_and_constraints(self, part_db):
        before = rows_of(part_db, "M")
        table = part_db.engine.catalog.table("M")
        part_db.engine.repartition("M", RangePartitioning("ID", (50, 100, 150)))
        assert part_db.engine.catalog.table("M") is table  # in-place rebuild
        assert table.partition_count == 4
        assert table.partition_live_counts() == [50, 50, 50, 50]
        assert rows_of(part_db, "M") == before
        with pytest.raises((StorageError, TypeCheckError)):
            part_db.execute("INSERT INTO M VALUES (7, 0, 0)")  # PK dup
        part_db.engine.repartition("M", None)  # back to one slot array
        assert table.partitioning is None
        assert rows_of(part_db, "M") == before
        part_db.engine.repartition("M", HashPartitioning(("G",), 3))
        assert rows_of(part_db, "M") == before
        assert part_db.query("SELECT COUNT(*) FROM M WHERE G = 2") \
            .rows == [(40,)]

    def test_repartition_rebuilds_indexes(self, part_db):
        part_db.engine.catalog.create_index("IX_M_V", "M", ["V"])
        expected = set(part_db.query("SELECT ID FROM M WHERE V = 7").rows)
        part_db.engine.repartition("M", HashPartitioning(("ID",), 8))
        assert set(part_db.query(
            "SELECT ID FROM M WHERE V = 7").rows) == expected

    def test_repartition_refused_with_uncommitted_writes(self, part_db):
        session = part_db.engine.connect()
        session.begin()
        session.execute("INSERT INTO M VALUES (9999, 0, 0)")
        with pytest.raises(TransactionError):
            part_db.engine.repartition("M", HashPartitioning(("ID",), 2))
        session.rollback()
        session.close()
        part_db.engine.repartition("M", HashPartitioning(("ID",), 2))
        assert part_db.engine.catalog.table("M").partition_count == 2

    def test_repartition_bumps_schema_version(self, part_db):
        version = part_db.engine.catalog.schema_version
        part_db.engine.repartition("M", None)
        assert part_db.engine.catalog.schema_version > version


# ----------------------------------------------------------------------
# Durability (rides the PR-6 WAL/snapshot machinery)
# ----------------------------------------------------------------------
class TestPartitionDurability:
    def _populate(self, engine: Engine) -> None:
        session = engine.connect()
        session.execute(
            "CREATE TABLE M (ID INT PRIMARY KEY, V INT) "
            "PARTITION BY HASH (ID) PARTITIONS 4")
        session.execute("INSERT INTO M VALUES " + ",".join(
            f"({i}, {i * 3})" for i in range(50)))
        session.execute("UPDATE M SET V = -1 WHERE ID = 7")
        session.execute("DELETE FROM M WHERE ID = 9")
        session.close()

    def _expected(self) -> set[tuple]:
        rows = {(i, i * 3) for i in range(50) if i != 9}
        rows.discard((7, 21))
        rows.add((7, -1))
        return rows

    def _verify(self, engine: Engine) -> None:
        table = engine.catalog.table("M")
        assert set(table.rows()) == self._expected()
        assert isinstance(table.partitioning, HashPartitioning)
        assert table.partition_count == 4
        for rid, row in table.scan():
            assert table.partition_of_rid(rid) == stable_hash(
                (row[0],)) % 4
        # Recovered state keeps enforcing and routing.
        session = engine.connect()
        with pytest.raises(Exception):
            session.execute("INSERT INTO M VALUES (3, 0)")
        session.execute("INSERT INTO M VALUES (1000, 0)")
        assert sum(table.partition_live_counts()) == 50
        session.execute("DELETE FROM M WHERE ID = 1000")
        session.close()

    def test_log_replay_restores_partitioned_table(self, tmp_path):
        dbdir = str(tmp_path / "db")
        engine = Engine(path=dbdir, fsync="none")
        self._populate(engine)
        # Crash: reopen without close; everything lives in the log.
        engine2 = Engine(path=dbdir, fsync="none")
        self._verify(engine2)
        engine2.close()
        engine.close()

    def test_snapshot_restores_partitioned_table(self, tmp_path):
        dbdir = str(tmp_path / "db")
        engine = Engine(path=dbdir, fsync="none")
        self._populate(engine)
        engine.checkpoint()
        engine2 = Engine(path=dbdir, fsync="none")
        assert engine2.recovery.snapshot_lsn > 0
        self._verify(engine2)
        engine2.close()
        engine.close()

    def test_repartition_survives_crash(self, tmp_path):
        dbdir = str(tmp_path / "db")
        engine = Engine(path=dbdir, fsync="none")
        self._populate(engine)
        engine.repartition("M", RangePartitioning("ID", (25,)))
        engine2 = Engine(path=dbdir, fsync="none")
        table = engine2.catalog.table("M")
        assert isinstance(table.partitioning, RangePartitioning)
        assert table.partitioning.bounds == (25,)
        assert set(table.rows()) == self._expected()
        engine2.close()
        engine.close()

    def test_encoded_rids_replay_after_crash_mid_history(self, tmp_path):
        """RID-addressed WAL records (delete/update by rid) decode into
        the right partition on replay even after relocations."""
        dbdir = str(tmp_path / "db")
        engine = Engine(path=dbdir, fsync="none")
        session = engine.connect()
        session.execute("CREATE TABLE M (ID INT PRIMARY KEY, V INT) "
                        "PARTITION BY HASH (ID) PARTITIONS 3")
        session.execute("INSERT INTO M VALUES (1, 1), (2, 2), (3, 3)")
        session.execute("UPDATE M SET ID = 40 WHERE ID = 2")  # relocate
        session.execute("DELETE FROM M WHERE ID = 40")
        session.execute("UPDATE M SET V = 30 WHERE ID = 3")
        session.close()
        engine2 = Engine(path=dbdir, fsync="none")
        assert set(engine2.catalog.table("M").rows()) == {(1, 1), (3, 30)}
        engine2.close()
        engine.close()


def test_rid_encoding_is_partition_shifted(part_db):
    table = part_db.engine.catalog.table("M")
    for rid, _row in table.scan():
        pid = rid >> PARTITION_SHIFT
        assert 0 <= pid < 4
        assert table.partition_of_rid(rid) == pid


# ----------------------------------------------------------------------
# Partitioned == flat differential (SELECT)
# ----------------------------------------------------------------------
N_FACT_ROWS = 3000

#: Heap layouts of FACT; every answer must equal the flat heap's.
LAYOUTS = {
    "flat": "",
    "hash": " PARTITION BY HASH (ID) PARTITIONS 4",
    "range": " PARTITION BY RANGE (V) VALUES LESS THAN (250, 500, 750)",
}


def load_fact(db: Session, layout: str) -> None:
    db.execute("CREATE TABLE FACT (ID INT PRIMARY KEY, G INT, V INT, "
               f"W INT, NAME VARCHAR){LAYOUTS[layout]}")
    db.execute("CREATE TABLE DIM (G INT PRIMARY KEY, LABEL VARCHAR)")
    rng = random.Random(1994)
    # Every 29th V and every 17th W is NULL: NULL keys route to the
    # first RANGE partition and sort last under ORDER BY.
    rows = [(i, rng.randrange(9),
             "NULL" if i % 29 == 0 else rng.randrange(1000),
             "NULL" if i % 17 == 0 else rng.randrange(50),
             f"n{i % 13}") for i in range(N_FACT_ROWS)]
    for start in range(0, N_FACT_ROWS, 500):
        chunk = rows[start:start + 500]
        db.execute("INSERT INTO FACT VALUES " + ",".join(
            f"({i},{g},{v},{w},'{n}')" for i, g, v, w, n in chunk))
    db.execute("INSERT INTO DIM VALUES " + ",".join(
        f"({g}, 'label{g}')" for g in range(9)))


@pytest.fixture(scope="module")
def heaps() -> dict[str, Session]:
    sessions = {}
    for layout in LAYOUTS:
        sessions[layout] = Engine().connect()
        load_fact(sessions[layout], layout)
    yield sessions
    for session in sessions.values():
        session.engine.close()


FIXED_QUERIES = {
    # scan / filter / project.
    "filter_select_star": "SELECT * FROM FACT WHERE V > 500",
    "filter_arith_project":
        "SELECT ID, V + W FROM FACT WHERE G <> 3 AND NAME = 'n5'",
    # DISTINCT, and ORDER BY with LIMIT.
    "distinct_filter": "SELECT DISTINCT G, NAME FROM FACT WHERE V < 400",
    "order_by_limit":
        "SELECT ID FROM FACT WHERE V > 10 ORDER BY V, ID LIMIT 25",
    # ORDER BY over every partition, NULLs included.
    "order_by_desc_nulls": "SELECT ID, V FROM FACT ORDER BY V DESC, ID",
    "order_by_three_keys":
        "SELECT NAME, W FROM FACT WHERE V > 200 ORDER BY NAME, W DESC, ID",
    # aggregates, AVG and DISTINCT.
    "count_star": "SELECT COUNT(*) FROM FACT",
    "group_by_aggregates":
        "SELECT G, COUNT(*), SUM(V), AVG(V), MIN(W), MAX(W) "
        "FROM FACT GROUP BY G",
    "count_distinct": "SELECT COUNT(DISTINCT W) FROM FACT WHERE V > 300",
    "group_by_avg":
        "SELECT NAME, AVG(V) FROM FACT WHERE W < 40 GROUP BY NAME",
    # joins with the partitioned heap on the probe side.
    "join_filter":
        "SELECT d.LABEL, f.V FROM FACT f, DIM d "
        "WHERE f.G = d.G AND f.V > 800",
    "join_group_by":
        "SELECT d.LABEL, COUNT(*), SUM(f.V) FROM FACT f, DIM d "
        "WHERE f.G = d.G GROUP BY d.LABEL",
    # HAVING above an aggregate.
    "having": "SELECT G, COUNT(*) FROM FACT GROUP BY G HAVING COUNT(*) > 300",
    # semijoin shape.
    "in_subquery_semijoin":
        "SELECT ID FROM FACT WHERE G IN (SELECT G FROM DIM "
        "WHERE LABEL = 'label4')",
}


def assert_same_as_flat(heaps: dict[str, Session], sql: str) -> None:
    flat = heaps["flat"].query(sql).rows
    for layout in ("hash", "range"):
        rows = heaps[layout].query(sql).rows
        assert Counter(rows) == Counter(flat), f"{layout}: {sql}"
        if "ORDER BY" in sql:
            assert rows == flat, f"{layout}: order differs: {sql}"


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


class TestPartitionedEqualsFlat:
    def test_layouts_differ_in_scan_order(self, heaps):
        """The heaps really are partitioned, and a plain scan of each
        visits the rows in another order than the flat heap does, so
        the ORDER BY checks below compare a sort, not a slot order."""
        assert heaps["hash"].engine.catalog.table("FACT") \
            .partition_count == 4
        assert heaps["range"].engine.catalog.table("FACT") \
            .partition_count == 4
        flat = heaps["flat"].query("SELECT ID FROM FACT").rows
        for layout in ("hash", "range"):
            rows = heaps[layout].query("SELECT ID FROM FACT").rows
            assert rows != flat, layout
            assert sorted(rows) == flat, layout

    @pytest.mark.parametrize("sql", FIXED_QUERIES.values(),
                             ids=FIXED_QUERIES.keys())
    def test_fixed_query(self, heaps, sql):
        assert_same_as_flat(heaps, sql)

    def test_seeded_random_sweep(self, heaps):
        extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
        for seed in range(1 + extra):
            for sql in generate_queries(seed, count=15):
                assert_same_as_flat(heaps, sql)
