"""Regression tests for the crash-consistency bugfix sweep.

Three ordering bugs rode along with the durability work:

1. ``commit()`` published buffered deltas while the transaction was
   still attached, so a raising delta subscriber left a half-committed
   transaction that kept buffering deltas into a corpse;
2. ``rollback_to_savepoint`` undid row changes but kept the buffered
   deltas (and direct-publication counts) of the undone span, so the
   next commit replayed phantom changes into materialized views;
3. an abandoned half-consumed cursor stream held executor state until
   garbage collection, with no deterministic release on session close.

Each test here fails against the pre-fix orderings.
"""

import threading

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.cache.matview import co_canonical
from repro.executor.runtime import QueryStream
from repro.storage.table import active_read_view
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


class Boom(RuntimeError):
    pass


def org_db(**kwargs) -> Session:
    db = Engine(**kwargs).connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=3,
                                             employees_per_dept=3,
                                             projects_per_dept=2, skills=6,
                                             arc_fraction=0.5, seed=4))
    return db


def fresh_emp_values(db, eno: int) -> str:
    return f"INSERT INTO EMP VALUES ({eno}, 'E{eno}', 1, 50000)"


# ----------------------------------------------------------------------
# 1. Failing delta subscriber at commit
# ----------------------------------------------------------------------
def test_failing_delta_listener_does_not_strand_transaction(monkeypatch):
    """A subscriber raising mid-flush must observe a *detached* commit:
    the transaction is over (data committed, scope reusable) and
    delta-derived state is invalidated, never half-applied-as-fresh."""
    db = org_db()
    engine = db.engine
    db.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    view = engine.matviews.get("deps_arc")
    assert not view.stale

    def explode(_delta):
        raise Boom("subscriber failure mid-flush")
    # Statistics see each delta first, so the view never sees this
    # commit's: only the invalidation keeps it from serving stale rows
    # as fresh.
    monkeypatch.setattr(engine.stats, "on_table_delta", explode)
    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 900))
    with pytest.raises(Boom):
        session.commit()
    monkeypatch.undo()

    # The commit detached before publishing: the scope is free again,
    # no undo hooks remain installed, and the row data itself (already
    # applied in place; deltas only describe it) is committed.
    assert not session.in_transaction
    assert all(t.on_mutation is None for t in engine.catalog.tables())
    assert 900 in {row[0] for row in engine.catalog.table("EMP").rows()}
    # Derived state invalidated: the view may be stale, never wrong.
    assert view.stale
    assert co_canonical(view.read()) == co_canonical(view.executable.run())

    # The scope is genuinely reusable: a follow-up transaction commits.
    session.begin()
    db.execute(fresh_emp_values(db, 901))
    session.commit()
    assert 901 in {row[0] for row in engine.catalog.table("EMP").rows()}
    db.engine.close()


def test_raising_pre_commit_hook_aborts_with_transaction_intact(
        monkeypatch):
    """The write-ahead point: a failing log phase (the WAL append)
    aborts the commit *before* anything detaches or publishes — the
    caller can still roll back and nothing leaked."""
    db = org_db()
    engine = db.engine

    def refuse(_txn):
        raise Boom("wal append failed")
    monkeypatch.setattr(engine, "log_commit", refuse)
    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 910))
    with pytest.raises(Boom):
        session.commit()
    # Still open, still intact: rollback undoes the row cleanly.
    assert session.in_transaction
    monkeypatch.undo()
    session.rollback()
    assert 910 not in {row[0] for row in engine.catalog.table("EMP").rows()}
    db.engine.close()


def test_listener_mutations_during_flush_are_not_undo_logged(monkeypatch):
    """Maintenance writes a subscriber performs while deltas flush are
    derived-state upkeep — they must not be charged as undoable work
    to any transaction (the pre-fix ordering appended them to the
    committing transaction's own log)."""
    db = org_db()
    engine = db.engine
    db.execute("CREATE TABLE AUDIT (N INT)")
    audit = engine.catalog.table("AUDIT")
    seen = []
    maintain = engine.matviews.on_table_delta

    def mirror(delta):
        maintain(delta)
        seen.append(delta.table)
        audit.insert((len(seen),))
    monkeypatch.setattr(engine.matviews, "on_table_delta", mirror)
    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 920))
    session.commit()
    assert "EMP" in seen
    assert len(list(audit.rows())) == len(seen)
    db.engine.close()


# ----------------------------------------------------------------------
# 2. Savepoint rollback vs buffered deltas
# ----------------------------------------------------------------------
def test_savepoint_rollback_discards_buffered_deltas():
    db = org_db()
    engine = db.engine
    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 930))
    txn = engine.transactions.transaction_for(session.scope)
    buffered_before = len(txn.pending_deltas)
    session.savepoint("sp")
    db.execute(fresh_emp_values(db, 931))
    db.execute("DELETE FROM EMP WHERE ENO = 931")
    assert len(txn.pending_deltas) > buffered_before
    session.rollback_to_savepoint("sp")
    # The undone span's deltas are gone from the buffer, not just its
    # rows from the table.
    assert len(txn.pending_deltas) == buffered_before
    session.commit()
    enos = {row[0] for row in engine.catalog.table("EMP").rows()}
    assert 930 in enos and 931 not in enos
    db.engine.close()


def test_savepoint_rollback_keeps_matview_correct():
    """The freshness regression: deltas buffered after a savepoint
    describe undone work — flushing them at commit would push phantom
    rows into an incrementally-maintained view."""
    db = org_db()
    engine = db.engine
    db.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    view = engine.matviews.get("deps_arc")

    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 940))
    session.savepoint("sp")
    db.execute(fresh_emp_values(db, 941))
    session.rollback_to_savepoint("sp")
    session.commit()

    stored = view.read()
    assert co_canonical(stored) == co_canonical(view.executable.run())
    emp = stored.components.get("XEMP")
    if emp is not None:
        enames = {row[emp.columns.index("ENAME")] for row in emp.rows}
        assert "E941" not in enames
    db.engine.close()


# ----------------------------------------------------------------------
# 3. Abandoned half-consumed streams
# ----------------------------------------------------------------------
def test_stream_close_runs_generator_finally():
    released = []

    def batches():
        try:
            yield [(1,)]
            yield [(2,)]
        finally:
            released.append(True)
    stream = QueryStream(["A"], batches(), ctx=None)
    assert stream.next_batch() == [(1,)]
    stream.close()
    assert released == [True], "close() must finalize the generator now"
    assert stream.next_batch() is None


def test_session_close_closes_open_cursors():
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
    for i in range(200):
        session.execute(f"INSERT INTO T VALUES ({i})")
    cursor = session.cursor()
    cursor.execute("SELECT A FROM T")
    assert cursor.fetchone() is not None  # half-consumed
    session.close()
    assert cursor.closed
    assert session.closed
    engine.close()


def test_abandoned_stream_does_not_block_writer():
    """A half-consumed, never-closed cursor in one session must not
    stall another session's write — pulls latch per batch, and closing
    the owning session releases everything else deterministically."""
    engine = Engine(lock_timeout=5.0)
    setup = engine.connect()
    setup.execute("CREATE TABLE T (A INT PRIMARY KEY, B INT)")
    for i in range(500):
        setup.execute(f"INSERT INTO T VALUES ({i}, {i})")

    reader = engine.connect()
    cursor = reader.cursor()
    cursor.execute("SELECT A, B FROM T")
    assert cursor.fetchmany(10)  # leaves hundreds of rows unpulled
    # No thread-local overlay survives outside the pull.
    assert active_read_view("T") is None

    done = threading.Event()
    errors = []

    def write():
        try:
            writer = engine.connect()
            writer.execute("INSERT INTO T VALUES (1000, 1000)")
            writer.close()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()
    threading.Thread(target=write, daemon=True).start()
    assert done.wait(timeout=10.0), "writer deadlocked on abandoned stream"
    assert not errors
    # The abandoned reader still works, then its close tears down the
    # stream (no reliance on garbage collection).
    assert cursor.fetchone() is not None
    reader.close()
    assert cursor.closed
    engine.close()


# ----------------------------------------------------------------------
# 4. One commit's order
# ----------------------------------------------------------------------
def test_commit_logs_before_any_subscriber_sees_a_delta(tmp_path,
                                                         monkeypatch):
    """Recorded without a clock: a commit appends its WAL record before
    the statistics, then the views, see each of its deltas; a raising
    append publishes nothing and leaves the transaction open."""
    db = org_db(path=str(tmp_path / "db"), fsync="none")
    engine = db.engine
    db.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    events = []
    append = engine.wal.append
    stats_delta = engine.stats.on_table_delta
    view_delta = engine.matviews.on_table_delta

    def log(record):
        events.append(("wal", record["t"]))
        return append(record)

    def stats(delta):
        events.append(("stats", delta.table))
        stats_delta(delta)

    def views(delta):
        events.append(("views", delta.table))
        view_delta(delta)
    monkeypatch.setattr(engine.wal, "append", log)
    monkeypatch.setattr(engine.stats, "on_table_delta", stats)
    monkeypatch.setattr(engine.matviews, "on_table_delta", views)
    session = engine.sessions()[0]
    session.begin()
    db.execute(fresh_emp_values(db, 950))
    db.execute("INSERT INTO SKILLS VALUES (99, 'skill-99', 1)")
    assert events == []
    session.commit()
    assert events == [("wal", "txn"),
                      ("stats", "EMP"), ("views", "EMP"),
                      ("stats", "SKILLS"), ("views", "SKILLS")]

    def refuse(record):
        events.append(("wal", record["t"]))
        raise Boom("wal append failed")
    monkeypatch.setattr(engine.wal, "append", refuse)
    events.clear()
    session.begin()
    db.execute(fresh_emp_values(db, 951))
    with pytest.raises(Boom):
        session.commit()
    assert events == [("wal", "txn")]
    assert session.in_transaction
    session.rollback()
    assert 951 not in {row[0] for row in engine.catalog.table("EMP").rows()}
    engine.close()
