"""The engine's statement latch: reentrancy, upgrade refusal, and
bounded writer wait under saturating readers.

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
