"""Commit-latency overhead of the write-ahead log (ISSUE 6).

The durability claim: with group commit, making every acknowledged
transaction durable costs little more than not logging at all, because
concurrent committers share fsyncs at the log's sync barrier.  The A/B:

* **in-memory**: 8 sessions / 8 threads, each committing explicit
  multi-row transactions against a plain ``Engine()`` — the floor, no
  durability work at all;
* **wal (group)**: the same workload against ``Engine(path=...)`` with
  the default ``fsync="group"`` policy — every acknowledged commit is
  fsync-durable;
* **wal (always, serial)**: reference point — one session committing
  alone pays a full fsync per transaction, which is the cost group
  commit exists to amortize.

Acceptance floor: at 8 concurrent sessions, durable group commit is at
most ``2x`` the in-memory per-transaction time.  The telemetry row
(``syncs per commit``) shows *why*: the barrier coalesces the 8
committers' records into far fewer fsyncs.  Results land in
``BENCH_wal.json`` under ``REPRO_BENCH_WRITE=1``.  The wall-clock
ceiling moves with machine load, so the test asserts only the
clock-free part (every committed row is there; committers share
fsyncs) and records ``overhead`` and ``ceiling``; the CI ``durability``
job fails the build when the recorded overhead is above the ceiling.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, write_results
from repro.api.engine import Engine

#: Acceptance ceiling: durable group commit vs in-memory, per txn.
#: Recorded in ``BENCH_wal.json``; enforced by the CI durability job.
MAX_OVERHEAD = 2.0

#: Timed repetitions; the best (lowest-overhead) one is reported.
BEST_OF = 3

N_SESSIONS = 8
TXNS_PER_SESSION = 40
ROWS_PER_TXN = 4

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_wal.json"

_results: dict[str, dict] = {}


def run_sessions(engine: Engine, n_sessions: int) -> float:
    """Drive ``n_sessions`` committing threads; seconds of wall time."""
    bootstrap = engine.connect(label="bootstrap")
    bootstrap.execute(
        "CREATE TABLE LEDGER (K INT PRIMARY KEY, S INT, T INT, R INT)")
    sessions = [engine.connect(label=f"committer-{i}")
                for i in range(n_sessions)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_sessions)

    def committer(index: int) -> None:
        try:
            session = sessions[index]
            barrier.wait()
            for txn in range(TXNS_PER_SESSION):
                session.begin()
                for row in range(ROWS_PER_TXN):
                    key = (index * TXNS_PER_SESSION + txn) \
                        * ROWS_PER_TXN + row
                    session.execute(
                        "INSERT INTO LEDGER VALUES (?, ?, ?, ?)",
                        [key, index, txn, row])
                session.commit()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=committer, args=(i,))
               for i in range(n_sessions)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    expected = n_sessions * TXNS_PER_SESSION * ROWS_PER_TXN
    assert len(list(engine.catalog.table("LEDGER").rows())) == expected
    return elapsed


def test_group_commit_amortizes_fsync(tmp_path):
    txns = N_SESSIONS * TXNS_PER_SESSION
    best = None
    for attempt in range(BEST_OF):
        memory_engine = Engine()
        memory_s = run_sessions(memory_engine, N_SESSIONS)
        memory_engine.close()

        wal_engine = Engine(path=str(tmp_path / f"group-{attempt}"),
                            fsync="group", group_window=0.001)
        group_s = run_sessions(wal_engine, N_SESSIONS)
        syncs = wal_engine.wal.sync_count
        appends = wal_engine.wal.append_count
        wal_engine.close()

        measurement = {
            "memory_s": memory_s,
            "group_s": group_s,
            "overhead": group_s / memory_s,
            "syncs": syncs,
            "appends": appends,
        }
        if best is None or measurement["overhead"] < best["overhead"]:
            best = measurement

    # Reference: one lone committer pays one fsync per transaction.
    serial_engine = Engine(path=str(tmp_path / "serial"), fsync="always")
    serial_s = run_sessions(serial_engine, 1)
    serial_per_txn_us = serial_s / TXNS_PER_SESSION * 1e6
    serial_engine.close()

    memory_per_txn_us = best["memory_s"] / txns * 1e6
    group_per_txn_us = best["group_s"] / txns * 1e6
    commits_per_sync = txns / max(best["syncs"], 1)
    _results["group_commit"] = {
        "sessions": N_SESSIONS,
        "txns_total": txns,
        "rows_per_txn": ROWS_PER_TXN,
        "memory_per_txn_us": round(memory_per_txn_us, 1),
        "wal_group_per_txn_us": round(group_per_txn_us, 1),
        "wal_always_serial_per_txn_us": round(serial_per_txn_us, 1),
        # Unrounded: CI compares it with the ceiling.
        "overhead": best["overhead"],
        "ceiling": MAX_OVERHEAD,
        "fsyncs": best["syncs"],
        "wal_appends": best["appends"],
        "commits_per_fsync": round(commits_per_sync, 2),
        "note": ("overhead = durable group commit vs in-memory, same "
                 "8-thread workload; commits_per_fsync > 1 is the "
                 "amortization doing the work"),
    }
    print_table(
        f"WAL commit latency ({N_SESSIONS} sessions x "
        f"{TXNS_PER_SESSION} txns x {ROWS_PER_TXN} rows)",
        ["configuration", "per-txn"],
        [["in-memory (no durability)", f"{memory_per_txn_us:.0f} us"],
         ["wal fsync=group, 8 sessions", f"{group_per_txn_us:.0f} us"],
         ["wal fsync=always, 1 session", f"{serial_per_txn_us:.0f} us"],
         ["overhead vs in-memory",
          f"{best['overhead']:.2f}x (ceiling {MAX_OVERHEAD}x)"],
         ["commits per fsync", f"{commits_per_sync:.1f}"]],
    )
    # The mechanism, clock-free: concurrent committers must actually
    # share fsyncs, or group commit amortizes nothing.
    assert commits_per_sync > 1.0, (
        f"group commit did not group: {best['syncs']} fsyncs for "
        f"{txns} transactions"
    )


@pytest.fixture(scope="session", autouse=True)
def write_results_at_exit():
    yield
    write_results(RESULTS_PATH, _results)
