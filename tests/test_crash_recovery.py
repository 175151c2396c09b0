"""Fault injection: SIGKILL a committing worker, reopen, verify.

The invariants (ISSUE 6 acceptance criteria), checked differentially
against an oracle of *acknowledged* commits written by the worker
(tests/_crash_worker.py):

* **committed-stays** — every acknowledged transaction is fully
  visible after recovery;
* **atomicity** — no transaction (acknowledged or not) is ever
  partially visible: a crash mid-commit recovers to all-or-nothing;
* **DDL** — acknowledged schema operations (and the rows committed
  into the new tables) survive;
* **derived state** — materialized views come back stale-or-correct,
  and statistics epochs advance so nothing keyed on pre-crash epochs
  validates.
"""

import os
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from repro.api.engine import Engine
from repro.cache.matview import co_canonical
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

WORKER = os.path.join(os.path.dirname(__file__), "_crash_worker.py")


def run_worker_until_killed(dbdir, oracle_path, seed, mode,
                            min_acks=5, max_extra_delay=0.05):
    """Start the worker, let it acknowledge a few commits, SIGKILL it
    at a random-ish moment, and return the acknowledged oracle."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(WORKER)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
            [sys.executable, WORKER, dbdir, oracle_path, str(seed), mode],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if os.path.exists(oracle_path):
                    with open(oracle_path) as handle:
                        if sum(1 for _ in handle) >= min_acks:
                            break
                if proc.poll() is not None:
                    raise AssertionError(
                        "worker exited early: "
                        + proc.stderr.read().decode(errors="replace"))
                time.sleep(0.002)
            else:
                raise AssertionError("worker never produced enough acks")
            # Land the kill at an arbitrary point of a commit/checkpoint.
            time.sleep((seed % 100) / 100.0 * max_extra_delay)
        finally:
            proc.kill()
            proc.wait()
    acked_txns = {}
    acked_ddl = []
    with open(oracle_path) as handle:
        for line in handle:
            parts = line.split()
            if parts[0] == "txn":
                acked_txns[int(parts[1])] = int(parts[2])
            elif parts[0] == "ddl":
                acked_ddl.append(int(parts[1]))
    return acked_txns, acked_ddl


def verify_recovered(dbdir, acked_txns, acked_ddl):
    engine = Engine(path=dbdir, fsync="none")
    try:
        session = engine.connect()
        rows = session.execute("SELECT TID, SEQ, TOTAL FROM KV").rows
        by_tid = defaultdict(set)
        totals = {}
        for tid, seq, total in rows:
            by_tid[tid].add(seq)
            totals[tid] = total
        # Committed-stays: every acknowledged txn fully visible.
        for tid, total in acked_txns.items():
            assert by_tid[tid] == set(range(total)), (
                f"acked txn {tid} incomplete after recovery: "
                f"{sorted(by_tid[tid])} != 0..{total - 1}")
        # Atomicity: any visible txn (acked or not — the final one may
        # have committed without reaching the oracle) is complete.
        for tid, seqs in by_tid.items():
            assert seqs == set(range(totals[tid])), (
                f"txn {tid} partially visible: {sorted(seqs)}")
        # At most one transaction beyond the acknowledged set can be
        # visible (committed in the gap before the ack write).
        extra = set(by_tid) - set(acked_txns)
        assert len(extra) <= 1, f"unacked txns visible: {sorted(extra)}"
        for tid in acked_ddl:
            table = engine.catalog.table(f"SIDE_{tid}")
            assert list(table.rows()) == [(tid,)]
    finally:
        engine.close()


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_sigkill_mid_commit(tmp_path, seed):
    dbdir = str(tmp_path / "db")
    oracle = str(tmp_path / "oracle.txt")
    acked, _ddl = run_worker_until_killed(dbdir, oracle, seed, "plain")
    assert acked, "no commits acknowledged before the kill"
    verify_recovered(dbdir, acked, [])


@pytest.mark.parametrize("seed", [13, 37])
def test_sigkill_mid_checkpoint(tmp_path, seed):
    dbdir = str(tmp_path / "db")
    oracle = str(tmp_path / "oracle.txt")
    acked, _ddl = run_worker_until_killed(dbdir, oracle, seed,
                                          "checkpoint", min_acks=9)
    verify_recovered(dbdir, acked, [])


@pytest.mark.parametrize("seed", [17, 53])
def test_sigkill_with_ddl(tmp_path, seed):
    dbdir = str(tmp_path / "db")
    oracle = str(tmp_path / "oracle.txt")
    acked, ddl = run_worker_until_killed(dbdir, oracle, seed, "ddl",
                                         min_acks=7)
    verify_recovered(dbdir, acked, ddl)


def test_double_crash_and_restart(tmp_path):
    """Kill, reopen, keep writing, kill again — recovery composes."""
    dbdir = str(tmp_path / "db")
    oracle = str(tmp_path / "oracle.txt")
    acked1, _ = run_worker_until_killed(dbdir, oracle, 3, "plain")
    acked2, _ = run_worker_until_killed(dbdir, oracle, 5, "plain",
                                        min_acks=len(acked1) + 5)
    assert set(acked1) <= set(acked2)
    verify_recovered(dbdir, acked2, [])


def test_matview_recovers_stale_then_correct(tmp_path):
    """After reopen a matview is stale, and its first read recomputes
    from recovered base tables (stale-or-correct, never a pre-crash
    image served as fresh)."""
    dbdir = str(tmp_path / "db")
    db = Engine(path=dbdir, fsync="none").connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(departments=4,
                                             employees_per_dept=3,
                                             projects_per_dept=2, skills=8,
                                             arc_fraction=0.5, seed=9))
    # Workload loaders write storage directly (no deltas, no WAL);
    # checkpoint to make the seed rows durable.
    db.engine.checkpoint()
    db.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    db.execute("UPDATE DEPT SET LOC = 'ARC' WHERE DNO = 2")
    db.execute("DELETE FROM EMPSKILLS WHERE ESENO = 3")
    db.execute("DELETE FROM EMP WHERE ENO = 3")
    # Simulate a crash: reopen without closing — every appended WAL
    # record is already flushed to the file, exactly as a SIGKILL
    # would leave it.
    db2 = Engine(path=dbdir, fsync="none").connect()
    view = db2.engine.matviews.get("deps_arc")
    assert view.stale, "recovered matview must not claim freshness"
    assert view.policy == "eager"
    stored = view.read()
    recomputed = view.executable.run()
    assert co_canonical(stored) == co_canonical(recomputed)
    db2.engine.close()
    # Recovery is long done from the on-disk image; closing the
    # abandoned pre-crash engine now just releases its file handle.
    db.engine.close()


def test_stats_epoch_advances_across_recovery(tmp_path):
    """Nothing keyed on pre-crash statistics epochs may validate after
    recovery: the restored global epoch is strictly newer."""
    dbdir = str(tmp_path / "db")
    engine = Engine(path=dbdir, fsync="none")
    session = engine.connect()
    session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
    for i in range(20):
        session.execute(f"INSERT INTO T VALUES ({i})")
    session.execute("ANALYZE T")
    epoch_before = engine.stats.table_epoch("T")
    engine.checkpoint()

    engine2 = Engine(path=dbdir, fsync="none")
    assert engine2.stats.table_epoch("T") > epoch_before
    engine2.close()
    engine.close()
