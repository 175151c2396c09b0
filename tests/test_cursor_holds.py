"""Cursor fetches take the shared statement latch once per call.

* Hold counts, counted by wrapping ``Engine.read`` (no clock): a point
  SELECT through ``execute`` + ``fetchall`` takes two holds (compile,
  drain); ``fetchmany(25)`` at batch width 10 takes one, and so does
  the ``fetchall`` of the remaining 75 rows.
* Read-committed per fetch call: a commit made while a reader sits
  between two ``fetchmany`` calls is seen by the later call, and no row
  of one ``fetchall`` comes from an uncommitted state or from a state
  other than the one its first row came from.
"""

import threading

import pytest

from repro.api.engine import Engine


def make_engine(rows: int = 100) -> Engine:
    engine = Engine()
    session = engine.connect()
    session.execute("CREATE TABLE T (ID INT PRIMARY KEY, V VARCHAR)")
    session.execute("INSERT INTO T VALUES "
                    + ", ".join(f"({i}, 'g0')" for i in range(rows)))
    return engine


@pytest.fixture
def holds():
    """An engine whose ``read`` entries are counted."""
    engine = make_engine()
    read = engine.read
    counted = []

    def counting(session, thunk):
        counted.append(1)
        return read(session, thunk)

    engine.read = counting

    def taken(action):
        before = len(counted)
        result = action()
        return len(counted) - before, result

    return engine, taken


def test_point_select_takes_two_holds(holds):
    engine, taken = holds
    cursor = engine.connect().cursor()
    count, rows = taken(lambda: cursor.execute(
        "SELECT * FROM T WHERE id = 7").fetchall())
    assert rows == [(7, "g0")]
    assert count == 2
    assert cursor.rowcount == 1


def test_fetchmany_and_fetchall_take_one_hold_each(holds):
    engine, taken = holds
    cursor = engine.connect(batch_size=10).cursor()
    assert taken(lambda: cursor.execute("SELECT * FROM T"))[0] == 1
    count, block = taken(lambda: cursor.fetchmany(25))
    assert (count, len(block)) == (1, 25)
    assert cursor.counters["rows_scanned"] == 30
    count, rest = taken(cursor.fetchall)
    assert (count, len(rest)) == (1, 75)
    assert cursor.rowcount == 100
    # At the end of the stream nothing is pulled any more.
    assert taken(cursor.fetchall) == (0, [])
    assert taken(cursor.fetchone) == (0, None)


def test_fetchone_pulls_at_most_one_batch(holds):
    engine, taken = holds
    cursor = engine.connect(batch_size=10).cursor()
    cursor.execute("SELECT * FROM T")
    assert taken(cursor.fetchone)[0] == 1
    assert cursor.counters["rows_scanned"] == 10
    # The next nine come from the buffer.
    assert [taken(cursor.fetchone)[0] for _ in range(9)] == [0] * 9
    assert taken(cursor.fetchone)[0] == 1
    assert cursor.counters["rows_scanned"] == 20


def _in_thread(action) -> None:
    errors = []

    def run():
        try:
            action()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_commit_between_fetchmany_calls_is_seen_by_the_later_call():
    engine = make_engine()
    cursor = engine.connect(batch_size=10).cursor()
    cursor.execute("SELECT V FROM T")
    first = cursor.fetchmany(25)
    writer = engine.connect()
    _in_thread(lambda: writer.execute("UPDATE T SET v = 'g1'"))
    second = cursor.fetchmany(25)
    # 25..29 were buffered by the first call; 30.. are read now.
    assert {v for (v,) in first} == {"g0"}
    assert [v for (v,) in second] == ["g0"] * 5 + ["g1"] * 20


def test_one_fetchall_sees_one_committed_state():
    engine = make_engine()
    writer = engine.connect()
    stop = threading.Event()
    errors = []

    def write():
        generation = 0
        try:
            while not stop.is_set():
                generation += 1
                writer.begin()
                writer.execute("UPDATE T SET v = 'DIRTY'")
                if generation % 2:
                    writer.rollback()
                else:
                    writer.execute(f"UPDATE T SET v = 'g{generation}'")
                    writer.commit()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    reader = engine.connect(batch_size=7)
    seen = set()
    try:
        for calls in range(1, 5001):
            rows = reader.cursor().execute("SELECT V FROM T").fetchall()
            assert len(rows) == 100
            states = {v for (v,) in rows}
            assert "DIRTY" not in states
            assert len(states) == 1, states
            seen |= states
            if calls >= 60 and len(seen) > 2:
                break
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not errors
    assert not thread.is_alive()
    assert len(seen) > 1  # the writer did commit in between
