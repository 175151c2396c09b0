"""Recovery edge cases: empty logs, torn tails, snapshot-only restarts.

The crash-injection suite (test_crash_recovery) kills real processes at
arbitrary moments; this suite constructs the interesting on-disk states
*deterministically* — including truncating the log at every byte offset
of its final record — so each recovery branch is exercised by name.
"""

import os
import shutil
import struct
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.cache.matview import co_canonical
from repro.errors import StorageError
from repro.storage import recovery as rec
from repro.storage import stats
from repro.storage.wal import (WAL_MAGIC, WriteAheadLog, encode_record,
                               read_records)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

_HEADER = struct.Struct("<QII")  # mirrors wal._HEADER (lsn, len, crc32)


def record_boundaries(data: bytes) -> list[int]:
    """Byte offsets of every record boundary in a WAL image (starting
    at the end of the magic, ending just past the final record)."""
    offsets = [len(WAL_MAGIC)]
    offset = len(WAL_MAGIC)
    while offset + _HEADER.size <= len(data):
        _lsn, length, _crc = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        offsets.append(offset)
    return offsets


def open_engine(dbdir: str) -> Engine:
    return Engine(path=dbdir, fsync="none")


def table_rows(engine: Engine, name: str) -> set[tuple]:
    return set(engine.catalog.table(name).rows())


# ----------------------------------------------------------------------
# Log/record unit behaviour
# ----------------------------------------------------------------------
def test_read_records_roundtrip():
    data = WAL_MAGIC + encode_record(1, {"t": "x"}) \
        + encode_record(2, {"t": "y", "n": 42})
    records, end = read_records(data)
    assert [(r.lsn, r.payload) for r in records] == \
        [(1, {"t": "x"}), (2, {"t": "y", "n": 42})]
    assert end == len(data)


def test_read_records_rejects_bad_magic():
    data = b"NOTAWAL!" + encode_record(1, {"t": "x"})
    assert read_records(data) == ([], 0)
    assert read_records(b"") == ([], 0)
    assert read_records(WAL_MAGIC[:4]) == ([], 0)


def test_read_records_stops_at_checksum_mismatch():
    good = encode_record(1, {"t": "x"})
    bad = bytearray(encode_record(2, {"t": "y"}))
    bad[-1] ^= 0xFF  # corrupt the payload, not the header
    records, end = read_records(WAL_MAGIC + good + bytes(bad))
    assert [r.lsn for r in records] == [1]
    assert end == len(WAL_MAGIC) + len(good)


def test_wal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(StorageError):
        WriteAheadLog(str(tmp_path / "wal.log"), fsync="sometimes")


def test_wal_truncate_below_magic_recreates(tmp_path):
    """A file that died before its magic landed is rewritten fresh."""
    path = str(tmp_path / "wal.log")
    with open(path, "wb") as handle:
        handle.write(WAL_MAGIC[:3])
    wal = WriteAheadLog(path, fsync="none", truncate_at=0)
    wal.append({"t": "x"})
    wal.close()
    with open(path, "rb") as handle:
        records, _ = read_records(handle.read())
    assert [r.lsn for r in records] == [1]


# ----------------------------------------------------------------------
# Empty / trivial restarts
# ----------------------------------------------------------------------
def test_fresh_directory(tmp_path):
    """First open of a nonexistent directory: empty report, working log."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    report = engine.recovery
    assert (report.snapshot_lsn, report.last_lsn,
            report.replayed_transactions, report.replayed_ddl,
            report.torn_bytes) == (0, 0, 0, 0, 0)
    assert os.path.exists(rec.wal_path(dbdir))
    engine.close()


def test_empty_log_reopen(tmp_path):
    """Open, write nothing, close, reopen — the magic-only log replays
    to nothing."""
    dbdir = str(tmp_path / "db")
    open_engine(dbdir).close()
    engine = open_engine(dbdir)
    assert engine.recovery.last_lsn == 0
    assert list(engine.catalog.tables()) == []
    engine.close()


def test_double_reopen_idempotent(tmp_path):
    """Recovery of a recovered directory is a fixed point: same rows,
    same LSN horizon, nothing re-replayed into duplicates.  Reopening
    logs nothing: not the replayed DDL, and not the stale
    re-registration of a materialized view."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY, B INT)")
    session.execute("CREATE INDEX IX_T_B ON T (B)")
    session.execute("CREATE VIEW BIG AS SELECT A FROM T WHERE B > 15")
    session.execute(
        "CREATE MATERIALIZED VIEW MT AS OUT OF xt AS T TAKE *")
    for i in range(6):
        session.execute(f"INSERT INTO T VALUES ({i}, {i * 10})")
    session.execute("DELETE FROM T WHERE A = 2")
    expected = table_rows(engine, "T")
    engine.close()
    log_size = os.path.getsize(rec.wal_path(dbdir))

    engine2 = open_engine(dbdir)
    assert table_rows(engine2, "T") == expected
    assert engine2.matviews.has("MT")
    lsn = engine2.recovery.last_lsn
    engine2.close()
    assert os.path.getsize(rec.wal_path(dbdir)) == log_size

    engine3 = open_engine(dbdir)
    assert table_rows(engine3, "T") == expected
    assert engine3.recovery.last_lsn == lsn
    assert engine3.recovery.torn_bytes == 0
    assert engine3.catalog.index("IX_T_B") is not None
    assert engine3.connect().query("SELECT A FROM BIG").rows \
        == [(a,) for a, b in sorted(expected) if b > 15]
    assert engine3.matviews.has("MT")
    engine3.close()
    assert os.path.getsize(rec.wal_path(dbdir)) == log_size


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_snapshot_only_reopen(tmp_path):
    """After a checkpoint the log is empty — restart must come entirely
    from the snapshot (rows, indexes, foreign keys, views)."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE P (A INT PRIMARY KEY, B INT)")
    session.execute("CREATE TABLE C (X INT PRIMARY KEY, PA INT)")
    engine.catalog.create_index("IX_C_PA", "C", ["PA"])
    engine.catalog.add_foreign_key("FK_C_P", "C", ["PA"], "P", ["A"])
    session.execute("CREATE VIEW BIG AS SELECT A FROM P WHERE B > 5")
    for i in range(4):
        session.execute(f"INSERT INTO P VALUES ({i}, {i * 3})")
    session.execute("INSERT INTO C VALUES (100, 2)")
    snapshot_file = engine.checkpoint()
    assert snapshot_file and os.path.exists(snapshot_file)
    # The log is truncated back to its magic; replay has nothing to do.
    assert os.path.getsize(rec.wal_path(dbdir)) == len(WAL_MAGIC)
    engine.close()

    engine2 = open_engine(dbdir)
    report = engine2.recovery
    assert report.snapshot_lsn > 0
    assert report.replayed_transactions == 0 and report.replayed_ddl == 0
    assert table_rows(engine2, "P") == {(i, i * 3) for i in range(4)}
    assert table_rows(engine2, "C") == {(100, 2)}
    assert [ix.name for ix in engine2.catalog.table("C").indexes] \
        == ["IX_C_PA"]
    assert [fk.name for fk in engine2.catalog.foreign_keys()] == ["FK_C_P"]
    assert [v.name for v in engine2.catalog.views()] == ["BIG"]
    # The restored foreign key is live, not decorative.
    session2 = engine2.connect()
    with pytest.raises(Exception):
        session2.execute("DELETE FROM P WHERE A = 2")
    engine2.close()


def test_snapshot_plus_log_suffix(tmp_path):
    """Writes after a checkpoint replay on top of the snapshot."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
    session.execute("INSERT INTO T VALUES (1)")
    engine.checkpoint()
    session.execute("INSERT INTO T VALUES (2)")
    session.execute("INSERT INTO T VALUES (3)")
    engine.close()

    engine2 = open_engine(dbdir)
    assert engine2.recovery.snapshot_lsn > 0
    assert engine2.recovery.replayed_transactions == 2
    assert table_rows(engine2, "T") == {(1,), (2,), (3,)}
    engine2.close()


def test_corrupt_snapshot_falls_back_to_older(tmp_path):
    """A snapshot that fails its checksum is skipped, not trusted."""
    directory = str(tmp_path)
    payload_a = {"format": rec.SNAPSHOT_FORMAT, "lsn": 5, "tables": [],
                 "indexes": [], "foreign_keys": [], "views": [],
                 "matviews": {}, "schema_version": 0,
                 "stats_table_epochs": {}, "stats_global_epoch": 0}
    rec.write_snapshot(directory, payload_a)
    path_b = rec.snapshot_path(directory, 9)
    with open(path_b, "wb") as handle:
        handle.write(b"garbage that is certainly not a snapshot")
    loaded = rec.load_newest_snapshot(directory)
    assert loaded is not None and loaded["lsn"] == 5


def test_prune_keeps_current_snapshot(tmp_path):
    directory = str(tmp_path)
    for lsn in (3, 7, 11):
        rec.write_snapshot(directory, {
            "format": rec.SNAPSHOT_FORMAT, "lsn": lsn, "tables": [],
            "indexes": [], "foreign_keys": [], "views": [],
            "matviews": {}, "schema_version": 0,
            "stats_table_epochs": {}, "stats_global_epoch": 0})
    rec.prune_snapshots(directory, keep_lsn=11)
    remaining = sorted(name for name in os.listdir(directory)
                       if name.startswith("snapshot-"))
    assert remaining == [os.path.basename(rec.snapshot_path(directory, 11))]


# ----------------------------------------------------------------------
# Torn tails
# ----------------------------------------------------------------------
def test_torn_final_record_every_offset(tmp_path):
    """Truncate the log at *every* byte offset of its final record.

    Whatever the cut point — mid-header, mid-payload, or even exactly
    on the preceding boundary — recovery must keep every earlier
    transaction and drop exactly the torn one, then reopen a log that
    accepts new appends.
    """
    golden = str(tmp_path / "golden")
    engine = open_engine(golden)
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY, B INT)")
    for i in range(5):
        session.execute(f"INSERT INTO T VALUES ({i}, {i * 10})")
    engine.close()

    with open(rec.wal_path(golden), "rb") as handle:
        data = handle.read()
    boundaries = record_boundaries(data)
    assert boundaries[-1] == len(data)
    # 6 records: the CREATE TABLE DDL plus five single-row commits.
    assert len(boundaries) - 1 == 6
    survivor_rows = {(i, i * 10) for i in range(4)}

    last_start, last_end = boundaries[-2], boundaries[-1]
    for cut in range(last_start, last_end):
        workdir = str(tmp_path / f"cut-{cut}")
        shutil.copytree(golden, workdir)
        with open(rec.wal_path(workdir), "r+b") as handle:
            handle.truncate(cut)
        engine2 = open_engine(workdir)
        assert engine2.recovery.torn_bytes == cut - last_start
        assert engine2.recovery.replayed_transactions == 4
        assert table_rows(engine2, "T") == survivor_rows
        # The tail is gone for good: the reopened log appends cleanly.
        engine2.connect().execute("INSERT INTO T VALUES (4, 99)")
        engine2.close()
        engine3 = open_engine(workdir)
        assert table_rows(engine3, "T") == survivor_rows | {(4, 99)}
        assert engine3.recovery.torn_bytes == 0
        engine3.close()
        shutil.rmtree(workdir)


def test_torn_tail_reported_and_discarded(tmp_path):
    """Garbage appended past the valid prefix is measured, then gone."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
    session.execute("INSERT INTO T VALUES (1)")
    engine.close()
    with open(rec.wal_path(dbdir), "ab") as handle:
        handle.write(b"\x00" * 37)

    engine2 = open_engine(dbdir)
    assert engine2.recovery.torn_bytes == 37
    assert table_rows(engine2, "T") == {(1,)}
    engine2.close()
    engine3 = open_engine(dbdir)
    assert engine3.recovery.torn_bytes == 0
    engine3.close()


# ----------------------------------------------------------------------
# DDL in the log
# ----------------------------------------------------------------------
def test_ddl_in_log_replays(tmp_path):
    """Schema operations that never reached a snapshot replay from the
    log alone: tables, indexes (with uniqueness), drops, views."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE KEEP (A INT PRIMARY KEY, B INT)")
    session.execute("CREATE TABLE GONER (X INT)")
    engine.catalog.create_index("IX_KEEP_B", "KEEP", ["B"], unique=True)
    session.execute("INSERT INTO KEEP VALUES (1, 7)")
    session.execute("DROP TABLE GONER")
    session.execute("CREATE VIEW KB AS SELECT B FROM KEEP")
    # Crash: no close, no checkpoint — everything lives in the log.
    engine2 = open_engine(dbdir)
    assert engine2.catalog.has_table("KEEP")
    assert not engine2.catalog.has_table("GONER")
    assert table_rows(engine2, "KEEP") == {(1, 7)}
    index = engine2.catalog.table("KEEP").indexes[0]
    assert (index.name, index.unique) == ("IX_KEEP_B", True)
    assert [v.name for v in engine2.catalog.views()] == ["KB"]
    # The replayed unique index still enforces.
    session2 = engine2.connect()
    with pytest.raises(Exception):
        session2.execute("INSERT INTO KEEP VALUES (2, 7)")
    engine2.close()
    engine.close()  # the abandoned pre-crash handle, after the fact


def test_index_specs_with_an_ordered_field_reopen(tmp_path):
    """Snapshots and logs written while only some indexes kept a key
    order carry ``"ordered"`` in each index spec; recovery reads past
    it, and the reopened index answers the same range reads."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY, B INT, C INT)")
    session.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, {'NULL' if i % 7 == 0 else i % 5}, {(i * 3) % 11})"
        for i in range(40)))
    session.execute("CREATE INDEX IX_T_B ON T (B)")
    index = engine.catalog.index("IX_T_B")
    bounds = [((1,), (3,)), ((2,), None), (None, (0,)), (None, None)]
    expected = [index.range_scan(low, high) for low, high in bounds]
    engine.checkpoint()
    engine.close()
    # Rewrite the snapshot and log as an older writer left them.
    snapshot = rec.load_newest_snapshot(dbdir)
    assert [spec["name"] for spec in snapshot["indexes"]] == ["IX_T_B"]
    for spec in snapshot["indexes"]:
        spec["ordered"] = True
    for name in os.listdir(dbdir):
        if name.startswith("snapshot-"):
            os.remove(os.path.join(dbdir, name))
    rec.write_snapshot(dbdir, snapshot)
    with open(rec.wal_path(dbdir), "ab") as handle:
        for offset, (name, ordered) in enumerate(
                [("IX_T_C", True), ("IX_T_BC", False)], 1):
            handle.write(encode_record(snapshot["lsn"] + offset, {
                "t": "ddl", "op": "create_index", "name": name,
                "table": "T", "columns": ("C",) if name == "IX_T_C"
                else ("B", "C"), "unique": False, "ordered": ordered}))

    engine2 = open_engine(dbdir)
    assert engine2.recovery.replayed_ddl == 2
    catalog = engine2.catalog
    reopened = catalog.index("IX_T_B")
    assert [reopened.range_scan(low, high) for low, high in bounds] \
        == expected
    rows = list(catalog.table("T").scan())
    by_c = sorted((row[2], rid) for rid, row in rows)
    assert catalog.index("IX_T_C").range_scan((4,), (8,)) \
        == [rid for c, rid in by_c if 4 <= c <= 8]
    # Bounds compare as tuples: (3,) sorts before every (3, c).
    assert catalog.index("IX_T_BC").range_scan((2, 5), (4,)) == [
        rid for _key, rid in sorted(((row[1], row[2]), rid)
                                    for rid, row in rows
                                    if row[1] is not None
                                    and (2, 5) <= (row[1], row[2]) <= (4,))]
    session2 = engine2.connect()
    assert "IndexRangeScan(T via IX_T_C on C)" \
        in session2.explain("SELECT a FROM T WHERE c > 9")
    assert sorted(session2.query("SELECT a FROM T WHERE c > 9").rows) \
        == sorted((row[0],) for _rid, row in rows if row[2] > 9)
    engine2.close()


def test_unknown_record_kind_is_an_error(tmp_path):
    directory = str(tmp_path)
    path = rec.wal_path(directory)
    with open(path, "wb") as handle:
        handle.write(WAL_MAGIC)
        handle.write(encode_record(1, {"t": "mystery"}))
    from repro.storage.catalog import Catalog
    with pytest.raises(StorageError):
        rec.recover(directory, Catalog())


# ----------------------------------------------------------------------
# Materialized views across reopen
# ----------------------------------------------------------------------
def test_matview_drop_survives_reopen(tmp_path, monkeypatch):
    """A dropped materialized view stays dropped after a reopen (the
    drop is logged), a re-created one comes back equal to a fresh
    extraction, and the reopen analyzes each table at most once."""
    dbdir = str(tmp_path / "db")
    engine = open_engine(dbdir)
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(departments=4, seed=5))
    engine.checkpoint()   # the loader writes storage directly
    session = engine.connect()
    create = f"CREATE MATERIALIZED VIEW deps_m AS {DEPS_ARC_QUERY}"
    session.execute(create)
    session.execute("DROP MATERIALIZED VIEW deps_m")
    engine.close()

    engine = open_engine(dbdir)
    assert [view.name for view in engine.matviews.views()] == []
    assert not engine.catalog.has_view("DEPS_M")
    engine.connect().execute(create)
    engine.close()

    analyzed: Counter = Counter()
    analyze_table = stats.analyze_table
    monkeypatch.setattr(stats, "analyze_table", lambda table: (
        analyzed.update([table.name]), analyze_table(table))[1])
    engine = open_engine(dbdir)
    try:
        assert [view.name for view in engine.matviews.views()] \
            == ["DEPS_M"]
        view = engine.matviews.get("deps_m")
        assert co_canonical(view.read()) \
            == co_canonical(view.executable.run())
        assert analyzed and max(analyzed.values()) == 1
    finally:
        engine.close()
