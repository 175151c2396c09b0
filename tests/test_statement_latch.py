"""The engine's statement latch: reentrancy, upgrade refusal, who
wakes whom, timeouts, and bounded writer wait under saturating readers.

The wake-up tests give the latch a 5 s timeout and expect the woken
side well inside it: a release that failed to notify would leave the
waiter parked until it timed out.

The starvation test runs with a one-microsecond thread switch interval
so reader threads interleave as densely as the interpreter allows.
Readers hand the latch to each other: a holder keeps its shared entry
until a later reader has entered (or a short grace period passes), so
the latest entrant is always inside; without writer intent the reader
set never empties and a writer waits until it times out.
"""

import sys
import threading
import time

import pytest

from repro.api.engine import _StatementLatch
from repro.errors import TransactionError


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_shared_and_exclusive_reenter():
    latch = _StatementLatch(timeout=1.0)
    with latch.shared():
        with latch.shared():
            pass
    with latch.exclusive():
        with latch.exclusive():
            with latch.shared():
                pass


def test_upgrade_raises():
    latch = _StatementLatch(timeout=1.0)
    with latch.shared():
        with pytest.raises(TransactionError, match="lock upgrade"):
            with latch.exclusive():
                pass


def _until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def test_last_reader_release_wakes_a_waiting_writer():
    latch = _StatementLatch(timeout=5.0)
    outer = latch.acquire_shared()
    inner = latch.acquire_shared()
    entered = threading.Event()
    errors = []

    def writer():
        try:
            with latch.exclusive():
                entered.set()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = _start(writer)
    assert _until(lambda: latch._writers_waiting == 1)
    latch.release_shared(inner)  # a re-entry's release: still held
    assert not entered.wait(timeout=0.05)
    latch.release_shared(outer)
    assert entered.wait(timeout=1.0)
    thread.join(timeout=5)
    assert not errors


def test_exclusive_release_wakes_a_reader_parked_behind_intent():
    latch = _StatementLatch(timeout=5.0)
    held = latch.acquire_shared()
    writer_in = threading.Event()
    writer_go = threading.Event()
    reader_in = threading.Event()
    errors = []

    def writer():
        try:
            with latch.exclusive():
                writer_in.set()
                assert writer_go.wait(timeout=5)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader():
        try:
            with latch.shared():
                reader_in.set()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [_start(writer)]
    assert _until(lambda: latch._writers_waiting == 1)
    threads.append(_start(reader))
    assert _until(lambda: latch._readers_waiting == 1)
    latch.release_shared(held)
    assert writer_in.wait(timeout=1.0)
    # The release woke the reader too; wait until it has seen the
    # writer inside and parked again (the condition's waiter list is
    # empty between a notify and the woken thread's re-check).
    assert _until(lambda: len(latch._cond._waiters) == 1)
    assert not reader_in.is_set()
    writer_go.set()
    assert reader_in.wait(timeout=1.0)
    for thread in threads:
        thread.join(timeout=5)
    assert not errors


def test_new_reader_queues_behind_a_waiting_writer():
    latch = _StatementLatch(timeout=5.0)
    held = latch.acquire_shared()
    order = []

    def writer():
        with latch.exclusive():
            order.append("writer")

    def reader():
        with latch.shared():
            order.append("reader")

    threads = [_start(writer)]
    assert _until(lambda: latch._writers_waiting == 1)
    threads.append(_start(reader))
    assert _until(lambda: latch._readers_waiting == 1)
    assert order == []
    latch.release_shared(held)
    for thread in threads:
        thread.join(timeout=5)
    assert order == ["writer", "reader"]


def test_timeouts_raise_with_the_waited_for_holder_named():
    latch = _StatementLatch(timeout=0.05)
    messages = []

    def attempt(acquire):
        try:
            acquire()
        except TransactionError as exc:
            messages.append(str(exc))

    held = latch.acquire_shared()
    _start(lambda: attempt(latch.acquire_exclusive)).join(timeout=5)
    # The timed-out writer withdrew its intent: new readers enter.
    _start(lambda: attempt(
        lambda: latch.release_shared(latch.acquire_shared()))).join(
            timeout=5)
    latch.release_shared(held)
    with latch.exclusive():
        _start(lambda: attempt(latch.acquire_shared)).join(timeout=5)
    assert messages == [
        "timed out after 0.05s waiting for concurrent readers to finish",
        "timed out after 0.05s waiting for a concurrent statement to "
        "finish",
    ]
    assert latch._writers_waiting == latch._readers_waiting == 0


def test_reader_reentry_passes_a_waiting_writer():
    # A reader already inside re-enters although a writer waits; it
    # must not queue behind the writer that is waiting for it.
    latch = _StatementLatch(timeout=5.0)
    entered = threading.Event()
    release = threading.Event()
    reentered = []

    def reader():
        with latch.shared():
            entered.set()
            assert release.wait(timeout=5)
            with latch.shared():
                reentered.append(True)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    assert entered.wait(timeout=5)
    writer = threading.Thread(
        target=lambda: latch.exclusive().__enter__(), daemon=True)
    writer.start()
    time.sleep(0.05)  # let the writer start waiting
    release.set()
    thread.join(timeout=5)
    writer.join(timeout=5)
    assert reentered == [True]
    assert not thread.is_alive() and not writer.is_alive()


@pytest.mark.parametrize("readers", [2, 4])
def test_writer_wait_is_bounded_under_saturating_readers(fast_switching,
                                                         readers):
    latch = _StatementLatch(timeout=5.0)
    inside = threading.Condition()
    entries = [0]
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                with latch.shared():
                    with inside:
                        entries[0] += 1
                        mine = entries[0]
                        inside.notify_all()
                        # Hand-off: leave only once a later reader is
                        # in, or after a grace period.
                        inside.wait_for(lambda: entries[0] > mine,
                                        timeout=0.02)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, daemon=True)
               for _ in range(readers)]
    for thread in threads:
        thread.start()
    waits = []
    try:
        with inside:
            assert inside.wait_for(lambda: entries[0] > 0, timeout=5)
        for _ in range(5):
            started = time.monotonic()
            with latch.exclusive():
                waits.append(time.monotonic() - started)
            time.sleep(0.005)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert max(waits) < 1.0, waits


def test_mixed_holders_exclude_each_other(fast_switching):
    # More threads than cores mix shared and exclusive (and nested)
    # entries.  A writer's read-modify-write of the counter would lose
    # updates if two writers overlapped, and a reader would see the
    # counter move under it if a writer overlapped a reader.
    latch = _StatementLatch(timeout=5.0)
    state = {"count": 0}
    reading: set[int] = set()
    rounds = 300
    errors = []

    def worker(index):
        try:
            for step in range(rounds):
                if (step + index) % 3 == 0:
                    with latch.exclusive():
                        assert not reading
                        count = state["count"]
                        with latch.shared():  # the holder may read
                            time.sleep(0)
                        state["count"] = count + 1
                else:
                    token = latch.acquire_shared()
                    try:
                        reading.add(index)
                        seen = state["count"]
                        with latch.shared():
                            time.sleep(0)
                        assert state["count"] == seen
                        reading.discard(index)
                    finally:
                        latch.release_shared(token)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    writes = sum(1 for index in range(6) for step in range(rounds)
                 if (step + index) % 3 == 0)
    assert state["count"] == writes
    assert latch._readers == {} and latch._writer is None
