"""Concurrent multi-session access over one shared engine.

Threaded tests of the engine's concurrency protocol: serialized
writers, read-committed visibility through committed-state overlays,
streaming cursors under concurrent commits, and materialized-view
freshness after interleaved commits and rollbacks.

Every thread gets its own session (sessions are single-threaded
handles; the engine is the shared, thread-safe object).
"""

import sys
import threading

import pytest

from repro.api.engine import Engine
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

SMALL_ORG = OrgScale(departments=5, employees_per_dept=3,
                     projects_per_dept=2, skills=8,
                     skills_per_employee=2, skills_per_project=2,
                     arc_fraction=0.4, seed=13)


def run_threads(workers):
    """Run thunks in parallel; re-raise the first failure, if any.

    Daemon threads: a worker that never finishes fails the test (the
    join times out) instead of keeping the interpreter alive.
    """
    errors = []

    def guard(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guard(fn), daemon=True)
               for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    alive = [t for t in threads if t.is_alive()]
    assert not alive, f"{len(alive)} worker thread(s) hung"
    if errors:
        raise errors[0]


def make_counter_engine():
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE ACC (ID INT PRIMARY KEY, V INT)")
    session.execute("INSERT INTO ACC VALUES (1, 0), (2, 0)")
    return engine


def make_org_engine():
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, SMALL_ORG)
    bootstrap = engine.connect(label="bootstrap")
    bootstrap.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    bootstrap.close()
    return engine


def co_shape(co):
    return {name: sorted(co.component(name).rows)
            for name in co.components}


class TestSerializedWriters:
    N_THREADS = 4
    N_INCREMENTS = 25

    def test_no_lost_updates_with_explicit_transactions(self):
        engine = make_counter_engine()

        def writer():
            session = engine.connect()
            try:
                for _ in range(self.N_INCREMENTS):
                    session.begin()
                    session.execute(
                        "UPDATE ACC SET v = v + 1 WHERE id = 1")
                    session.commit()
            finally:
                session.close()

        run_threads([writer] * self.N_THREADS)
        check = engine.connect()
        assert check.query("SELECT v FROM ACC WHERE id = 1").rows \
            == [(self.N_THREADS * self.N_INCREMENTS,)]

    def test_autocommit_writers_and_readers(self):
        engine = make_counter_engine()
        stop = threading.Event()

        def writer():
            session = engine.connect()
            try:
                for _ in range(self.N_INCREMENTS):
                    session.execute(
                        "UPDATE ACC SET v = v + 1 WHERE id = 2")
            finally:
                session.close()

        def reader():
            session = engine.connect()
            try:
                while not stop.is_set():
                    rows = session.query(
                        "SELECT v FROM ACC WHERE id = 2").rows
                    # Monotone counter: any committed value is an int
                    # in range; no torn or phantom state.
                    assert 0 <= rows[0][0] \
                        <= self.N_THREADS * self.N_INCREMENTS
            finally:
                session.close()

        writers = [writer] * self.N_THREADS

        def reader_until_done():
            reader()

        def writers_then_stop():
            try:
                run_threads(writers)
            finally:
                stop.set()  # a failed writer must still end the readers

        run_threads([writers_then_stop, reader_until_done,
                     reader_until_done])
        check = engine.connect()
        assert check.query("SELECT v FROM ACC WHERE id = 2").rows \
            == [(self.N_THREADS * self.N_INCREMENTS,)]


class TestReadCommittedVisibility:
    def test_reader_blocked_from_uncommitted_state(self):
        engine = make_counter_engine()
        wrote = threading.Event()
        observed = threading.Event()
        results = {}

        def writer():
            session = engine.connect()
            try:
                session.begin()
                session.execute("INSERT INTO ACC VALUES (50, 123)")
                wrote.set()
                assert observed.wait(timeout=30)
                session.commit()
            finally:
                session.close()

        def reader():
            session = engine.connect()
            try:
                assert wrote.wait(timeout=30)
                results["during"] = session.query(
                    "SELECT * FROM ACC WHERE id = 50").rows
                observed.set()
            finally:
                session.close()

        run_threads([writer, reader])
        assert results["during"] == []
        check = engine.connect()
        assert check.query("SELECT v FROM ACC WHERE id = 50").rows \
            == [(123,)]

    def test_cursor_stream_matches_fetchall_and_query(self):
        engine = make_org_engine()
        session = engine.connect(batch_size=3)
        sql = "SELECT eno, ename, sal FROM EMP ORDER BY eno"
        streamed = []
        cursor = session.cursor().execute(sql)
        while True:
            block = cursor.fetchmany(4)
            if not block:
                break
            streamed.extend(block)
        assert streamed == session.cursor().execute(sql).fetchall()
        assert streamed == session.query(sql).rows
        assert len(streamed) > 0


class TestMixedWorkload:
    """N threads of mixed DML/SELECT over the org schema."""

    def test_chaos_with_final_consistency(self):
        engine = make_org_engine()
        n_writers, n_readers, n_ops = 3, 2, 20
        barrier = threading.Barrier(n_writers + n_readers)

        def writer(worker: int):
            def run():
                session = engine.connect(label=f"writer-{worker}")
                barrier.wait(timeout=30)
                try:
                    base = 1000 + worker * 100
                    for i in range(n_ops):
                        eno = base + i
                        if i % 5 == 4:
                            # An explicit transaction that rolls back:
                            # its rows must never become visible.
                            session.begin()
                            session.execute(
                                f"INSERT INTO EMP VALUES ({eno + 50}, "
                                f"'ghost-{worker}', 1, 1)")
                            session.rollback()
                        else:
                            session.begin()
                            session.execute(
                                f"INSERT INTO EMP VALUES ({eno}, "
                                f"'w{worker}-{i}', 1, {i})")
                            session.execute(
                                f"UPDATE EMP SET sal = sal + 1 "
                                f"WHERE eno = {eno}")
                            session.commit()
                finally:
                    session.close()
            return run

        def reader(worker: int):
            def run():
                session = engine.connect(label=f"reader-{worker}")
                barrier.wait(timeout=30)
                try:
                    for _ in range(n_ops):
                        rows = session.query(
                            "SELECT ename FROM EMP "
                            "WHERE ename LIKE 'ghost-%'").rows
                        assert rows == [], f"saw uncommitted {rows}"
                        count = session.query(
                            "SELECT COUNT(*) FROM EMP").rows[0][0]
                        assert count >= SMALL_ORG.departments \
                            * SMALL_ORG.employees_per_dept
                finally:
                    session.close()
            return run

        run_threads([writer(w) for w in range(n_writers)]
                    + [reader(r) for r in range(n_readers)])

        check = engine.connect()
        # Every committed insert is present with its +1 update applied;
        # every rolled-back ghost is absent.
        ghosts = check.query(
            "SELECT COUNT(*) FROM EMP WHERE ename LIKE 'ghost-%'").rows
        assert ghosts == [(0,)]
        for worker in range(n_writers):
            committed = [i for i in range(n_ops) if i % 5 != 4]
            rows = check.query(
                f"SELECT eno, sal FROM EMP WHERE ename LIKE "
                f"'w{worker}-%' ORDER BY eno").rows
            assert [r[0] for r in rows] \
                == [1000 + worker * 100 + i for i in committed]
            assert [r[1] for r in rows] == [i + 1 for i in committed]


class TestConcurrentBegin:
    def test_begin_racing_commits_takes_a_fresh_id_and_logs(self):
        """Sessions beginning while another commits, switching every
        microsecond: every transaction gets its own id (readers key
        their committed-state overlays on it), and every open
        transaction has the tables' undo hooks installed."""
        engine = Engine()
        engine.connect().execute("CREATE TABLE T (A INT PRIMARY KEY)")
        table = engine.catalog.table("T")
        ids, unhooked = [], []
        done = threading.Event()

        def committer():
            session = engine.connect()
            key = 0
            while not done.is_set():
                session.begin()
                ids.append(engine.transactions.transaction_for(
                    session.scope).txn_id)
                session.execute(f"INSERT INTO T VALUES ({key})")
                session.commit()
                key += 1

        def beginner():
            session = engine.connect()
            try:
                for _ in range(8000):
                    session.begin()
                    ids.append(engine.transactions.transaction_for(
                        session.scope).txn_id)
                    if table.on_mutation is None:
                        unhooked.append(session.label)
                    session.rollback()
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([committer, beginner, beginner])
        finally:
            sys.setswitchinterval(interval)
        assert len(ids) > 16000
        assert len(set(ids)) == len(ids)
        assert unhooked == []


class TestMatviewFreshnessUnderConcurrency:
    def test_matview_fresh_after_interleaved_commits_and_rollbacks(self):
        engine = make_org_engine()
        bootstrap = engine.connect()
        bootstrap.execute(
            f"CREATE MATERIALIZED VIEW m AS {DEPS_ARC_QUERY}")
        bootstrap.close()
        n_workers, n_ops = 3, 10
        barrier = threading.Barrier(n_workers)

        def worker(number: int):
            def run():
                session = engine.connect(label=f"mv-writer-{number}")
                barrier.wait(timeout=30)
                try:
                    base = 2000 + number * 100
                    for i in range(n_ops):
                        session.begin()
                        session.execute(
                            f"INSERT INTO EMP VALUES ({base + i}, "
                            f"'mv{number}-{i}', 1, {100 + i})")
                        if i % 3 == 2:
                            session.rollback()
                        else:
                            session.commit()
                        # Interleave reads through the materialization.
                        session.matview("m")
                finally:
                    session.close()
            return run

        run_threads([worker(n) for n in range(n_workers)])

        check = engine.connect()
        served = check.matview("m")
        fresh = check.xnf(DEPS_ARC_QUERY)
        assert co_shape(served) == co_shape(fresh)

    def test_matview_commit_scoped_between_two_sessions(self):
        engine = make_org_engine()
        a = engine.connect()
        b = engine.connect()
        a.execute(f"CREATE MATERIALIZED VIEW m AS {DEPS_ARC_QUERY}")
        committed = threading.Event()
        checked = threading.Event()
        seen = {}

        def writer():
            a.begin()
            a.execute("INSERT INTO EMP VALUES (3000, 'late', 1, 42)")
            seen["writer-waits"] = True
            assert checked.wait(timeout=30)
            a.commit()
            committed.set()

        def reader():
            names = {row[1]
                     for row in b.matview("m").component("xemp").rows}
            seen["mid-txn"] = "late" in names
            checked.set()
            assert committed.wait(timeout=30)
            names = {row[1]
                     for row in b.matview("m").component("xemp").rows}
            seen["post-commit"] = "late" in names

        run_threads([writer, reader])
        assert seen["mid-txn"] is False
        assert seen["post-commit"] is True
        assert co_shape(b.matview("m")) == co_shape(b.xnf(DEPS_ARC_QUERY))


class TestWriterLatchBlocking:
    def test_second_writer_waits_for_commit(self):
        engine = make_counter_engine()
        first_wrote = threading.Event()
        order = []

        def holder():
            session = engine.connect()
            try:
                session.begin()
                session.execute("UPDATE ACC SET v = 10 WHERE id = 1")
                first_wrote.set()
                # Give the contender time to block on the latch.
                threading.Event().wait(0.2)
                order.append("commit")
                session.commit()
            finally:
                session.close()

        def contender():
            session = engine.connect()
            try:
                assert first_wrote.wait(timeout=30)
                session.execute("UPDATE ACC SET v = v + 1 WHERE id = 1")
                order.append("second-write")
            finally:
                session.close()

        run_threads([holder, contender])
        assert order == ["commit", "second-write"]
        check = engine.connect()
        assert check.query("SELECT v FROM ACC WHERE id = 1").rows \
            == [(11,)]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
