"""Batch heap reads and the checks that ride on them.

* ``Table.fetch_many`` is ``[(rid, fetch(rid)) for rid in rids]`` with
  the read view looked up once: same rows, same committed images under
  a read view, same error for a dead or out-of-range RID.
* A ``deps_arc`` extraction looks the read view up at most once per
  scan or index-join batch, however many rows it fetches.
* A plan-cache hit validated at the catalog's current change count
  does not walk its tables' statistics again; drift, ANALYZE and a
  foreign open transaction still make it walk.  The count never shows
  a value again once it has moved off it, even under racing bumps.
* RESTRICT answers the same through the child's FK index as by a scan.
"""

import sys
import threading

import pytest

import repro.optimizer.plan as plan_module
import repro.storage.table as table_module
from repro.api.engine import Engine
from repro.errors import StorageError, UpdateError
from repro.optimizer.plan import IndexNestedLoopJoin, IndexScan
from repro.storage.catalog import Catalog
from repro.storage.table import ChangeCounter, Table
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

PARTITIONING = {
    "flat": "",
    "hash": " PARTITION BY HASH (ID) PARTITIONS 3",
}


def make_engine(layout: str) -> Engine:
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE T (ID INT PRIMARY KEY, V INT)"
                    + PARTITIONING[layout])
    session.execute("INSERT INTO T VALUES "
                    + ", ".join(f"({i}, {i * 10})" for i in range(12)))
    return engine


def all_rids(table: Table) -> list[int]:
    return [rid for rid, _row in table.scan()]


def one_by_one(table: Table, rids) -> list:
    return [(rid, table.fetch(rid)) for rid in rids]


@pytest.mark.parametrize("layout", sorted(PARTITIONING))
def test_fetch_many_equals_fetch_without_a_view(layout):
    table = make_engine(layout).catalog.table("T")
    rids = all_rids(table)
    assert len(rids) == 12
    # Any order, with repeats, and the empty batch.
    probe = rids[::-1] + rids[:3]
    assert table.fetch_many(probe) == one_by_one(table, probe)
    assert table.fetch_many(iter(probe)) == one_by_one(table, probe)
    assert table.fetch_many([]) == []


@pytest.mark.parametrize("layout", sorted(PARTITIONING))
def test_fetch_many_equals_fetch_under_a_read_view(layout):
    engine = make_engine(layout)
    table = engine.catalog.table("T")
    before = {rid: row for rid, row in table.scan()}
    writer = engine.connect()
    writer.begin()
    writer.execute("INSERT INTO T VALUES (100, 1000)")
    writer.execute("UPDATE T SET v = -1 WHERE id = 3")
    writer.execute("DELETE FROM T WHERE id = 5")
    views = engine._read_views_for(None)
    assert "T" in views
    inserted = [rid for rid, image in views["T"].rows.items()
                if image is None]
    assert len(inserted) == 1
    with table_module.read_views(views):
        rids = all_rids(table)
        # The committed state: the update and delete show their
        # committed images, the insert is invisible.
        assert {rid: row for rid, row in table.scan()} == before
        probe = rids + rids[:2]
        assert table.fetch_many(probe) == one_by_one(table, probe)
        assert dict(table.fetch_many(rids)) == before
        with pytest.raises(StorageError) as batch_error:
            table.fetch_many(rids[:1] + inserted)
        with pytest.raises(StorageError) as single_error:
            table.fetch(inserted[0])
        assert str(batch_error.value) == str(single_error.value)
    # The writer itself (no view) reads its own uncommitted state.
    assert table.fetch_many(all_rids(table)) \
        == one_by_one(table, all_rids(table))
    writer.rollback()


@pytest.mark.parametrize("layout", sorted(PARTITIONING))
def test_dead_or_out_of_range_rid_raises_fetchs_error(layout):
    engine = make_engine(layout)
    table = engine.catalog.table("T")
    live = all_rids(table)
    dead = table.lookup_pk((7,))
    engine.connect().execute("DELETE FROM T WHERE id = 7")
    beyond = max(live) + 1_000
    far_partition = 50 << table_module.PARTITION_SHIFT
    for bad in (dead, beyond, -1, far_partition):
        with pytest.raises(StorageError) as single_error:
            table.fetch(bad)
        with pytest.raises(StorageError) as batch_error:
            table.fetch_many([live[0], bad, live[1]])
        assert str(batch_error.value) == str(single_error.value)
        assert "is not live" in str(batch_error.value)


SMALL_ORG = OrgScale(departments=40, employees_per_dept=6,
                     projects_per_dept=3, skills=12,
                     skills_per_employee=2, skills_per_project=2, seed=5)


def org_engine(with_indexes: bool = True) -> Engine:
    engine = Engine()
    create_org_schema(engine.catalog, with_indexes=with_indexes)
    populate_org(engine.catalog, SMALL_ORG)
    return engine


def extraction(low: int, high: int) -> str:
    return DEPS_ARC_QUERY.replace(
        "WHERE loc = 'ARC'", f"WHERE dno BETWEEN {low} AND {high}")


def test_extraction_looks_the_read_view_up_once_per_batch(monkeypatch):
    engine = org_engine()
    session = engine.connect()
    text = extraction(3, 9)
    expected = session.xnf(text)  # compiles
    session.xnf(extraction(4, 8))  # the first hit validates the entry
    lookups = 0
    batches = 0
    rows = 0
    real_lookup = table_module.active_read_view

    def counting_lookup(name):
        nonlocal lookups
        lookups += 1
        return real_lookup(name)

    def counting_batches(generator):
        def wrapper(*args, **kwargs):
            nonlocal batches, rows
            for batch in generator(*args, **kwargs):
                batches += 1
                rows += len(batch)
                yield batch
        return wrapper

    monkeypatch.setattr(table_module, "active_read_view", counting_lookup)
    monkeypatch.setattr(plan_module, "active_read_view", counting_lookup)
    for name in ("batches", "scan_batches"):
        monkeypatch.setattr(Table, name,
                            counting_batches(getattr(Table, name)))
    monkeypatch.setattr(IndexNestedLoopJoin, "_joined",
                        counting_batches(IndexNestedLoopJoin._joined))
    monkeypatch.setattr(IndexScan, "execute_batches",
                        counting_batches(IndexScan.execute_batches))
    result = session.xnf(text)
    assert engine.pipeline.plan_cache.last_info.status == "hit"
    assert sorted(result.wire_tuples(), key=repr) \
        == sorted(expected.wire_tuples(), key=repr)
    # Scans and joins read these rows in these batches, looking the
    # read view up once per batch, not once per row.
    assert rows > 5 * batches, (rows, batches)
    assert 0 < lookups <= batches, (lookups, batches)


def test_change_counter_never_returns_to_a_value_it_left():
    """Readers compiling under the shared latch bump statistics epochs
    concurrently.  A stamp is only sound if the counter, once moved off
    a value, never shows that value again; a lost update (a thread
    writing ``v + 1`` after others moved past ``v + 1``) would."""
    counter = ChangeCounter()
    writers, bumps = 4, 5_000
    seen: list[int] = []
    # Reads are serialized so ``seen`` is in read order; bumps are not.
    reading = threading.Lock()

    def bump_and_read():
        for _ in range(bumps):
            counter.bump()
            with reading:
                seen.append(counter.value)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump_and_read, daemon=True)
                   for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    left: set[int] = set()
    reappeared = []
    for last, now in zip(seen, seen[1:]):
        if now != last:
            if now in left:
                reappeared.append(now)
            left.add(last)
    assert reappeared == []
    assert 0 < counter.value <= writers * bumps


def hit(session, eno: int) -> str:
    session.query(f"SELECT * FROM EMP WHERE eno = {eno}")
    return session.engine.pipeline.plan_cache.last_info


def test_repeat_hits_skip_the_statistics_walk(monkeypatch):
    engine = org_engine()
    session = engine.connect()
    compiler = engine.pipeline.compiler
    walks = []
    real_view = compiler._stats_view

    def counting_view(name):
        walks.append(name)
        return real_view(name)

    monkeypatch.setattr(compiler, "_stats_view", counting_view)
    assert hit(session, 1).status == "miss"
    assert hit(session, 2).status == "hit"  # first hit walks and stamps
    walks.clear()
    for eno in range(3, 30):
        assert hit(session, eno).status == "hit"
    assert walks == []
    # A value-only UPDATE moves no count: hits still skip the walk.
    session.execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 4")
    hit(session, 5)
    walks.clear()
    assert hit(session, 6).status == "hit"
    assert walks == []


def test_direct_storage_drift_and_analyze_still_invalidate():
    engine = org_engine()
    session = engine.connect()
    hit(session, 1)
    assert hit(session, 2).status == "hit"
    # Rows added behind the DML layer: no delta, no epoch bump, but the
    # live count moved, so the next hit walks and sees the drift.
    emp = engine.catalog.table("EMP")
    template = emp.fetch(emp.lookup_pk((1,)))
    for eno in range(10_000, 10_000 + len(emp)):
        emp.insert((eno,) + template[1:])
    info = hit(session, 3)
    assert info.status == "miss"
    assert "drift" in info.reason
    assert hit(session, 4).status == "hit"
    session.execute("ANALYZE EMP")
    info = hit(session, 5)
    assert info.status == "miss"
    assert "statistics changed" in info.reason


def test_reader_under_a_foreign_transaction_still_walks(monkeypatch):
    engine = org_engine()
    reader = engine.connect()
    writer = engine.connect()
    hit(reader, 1)
    assert hit(reader, 2).status == "hit"
    compiler = engine.pipeline.compiler
    walks = []
    real_view = compiler._stats_view
    monkeypatch.setattr(compiler, "_stats_view",
                        lambda name: walks.append(name) or real_view(name))
    writer.begin()
    writer.execute("UPDATE EMP SET sal = sal + 1 WHERE eno = 9")
    walks.clear()  # the writer's own compile
    assert hit(reader, 3).status == "hit"
    assert walks == ["EMP"]
    walks.clear()
    assert hit(reader, 4).status == "hit"
    assert walks == ["EMP"]  # a walk under a read view does not stamp
    writer.rollback()
    walks.clear()
    # The rollback left every count where the stamp saw it.
    assert hit(reader, 5).status == "hit"
    assert walks == []


# Parent deletes, re-keys and a non-key update; some strand children.
RESTRICT_CASES = [
    "DELETE FROM DEPT WHERE dno = 1",
    "UPDATE DEPT SET dno = 900 WHERE dno = 2",
    "UPDATE DEPT SET dname = 'renamed' WHERE dno = 3",
    "DELETE FROM EMP WHERE edno = 4",
    "DELETE FROM PROJ WHERE pdno = 4",
    "DELETE FROM DEPT WHERE dno = 4",
    "UPDATE DEPT SET dno = 901 WHERE dno = 4",
    "DELETE FROM EMPSKILLS WHERE eseno = 7",
    "DELETE FROM EMP WHERE eno = 7",
    "DELETE FROM EMP WHERE eno = 8",
    "INSERT INTO DEPT VALUES (500, 'empty', 'ARC')",
    "UPDATE DEPT SET dno = 501 WHERE dno = 500",
    "DELETE FROM DEPT WHERE dno = 501",
]


def outcomes(engine: Engine) -> tuple[list, dict]:
    session = engine.connect()
    seen = []
    for statement in RESTRICT_CASES:
        try:
            session.execute(statement)
            seen.append("ok")
        except UpdateError as error:
            seen.append(str(error))
    state = {table.name: sorted(table.rows(), key=repr)
             for table in engine.catalog.tables()}
    return seen, state


def test_restrict_through_the_child_index_matches_the_scan(monkeypatch):
    indexed = org_engine()
    scanned = org_engine()
    for name in ("IX_EMP_EDNO", "IX_PROJ_PDNO", "IX_ES_ENO"):
        scanned.catalog.drop_index(name)
    assert indexed.catalog.indexes_on("EMP", ["EDNO"])
    assert not scanned.catalog.indexes_on("EMP", ["EDNO"])
    # Tables scanned while RESTRICT runs (the planner's ANALYZE scans
    # tables too, outside it).
    child_scans = []
    restricting = []
    real_rows = Table.rows
    real_restrict = Catalog.check_no_referencing_children

    def counting_rows(self):
        if restricting:
            child_scans.append(self.name)
        return real_rows(self)

    def flagged_restrict(self, *args, **kwargs):
        restricting.append(True)
        try:
            return real_restrict(self, *args, **kwargs)
        finally:
            restricting.pop()

    monkeypatch.setattr(Table, "rows", counting_rows)
    monkeypatch.setattr(Catalog, "check_no_referencing_children",
                        flagged_restrict)
    indexed_outcome = outcomes(indexed)
    assert child_scans == []  # every child FK here has an index
    scanned_outcome = outcomes(scanned)
    assert {"EMP", "EMPSKILLS"} <= set(child_scans)
    monkeypatch.undo()
    assert indexed_outcome == scanned_outcome
    verdicts = indexed_outcome[0]
    assert "ok" in verdicts
    assert any("still references" in verdict for verdict in verdicts)
