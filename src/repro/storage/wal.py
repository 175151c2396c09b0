"""The write-ahead log: durable commit records with group commit.

The paper leaves transaction/recovery components "totally unchanged"
(Sect. 6) — Starburst already had them.  This module is our stand-in
for that layer: everything the engine acknowledges as committed is
first serialized into an append-only log, so a crashed process can be
reopened and replayed (:mod:`repro.storage.recovery`) without losing
acknowledged work.

Log format
==========

A log file is the 8-byte magic ``REPROWAL`` followed by records.  Each
record is a fixed header plus a pickled payload::

    <lsn:u64> <length:u32> <crc32:u32> <payload:length bytes>

``lsn`` is a monotonically increasing sequence number shared with
snapshots (a snapshot taken at LSN *n* covers every record with LSN
<= *n*).  ``crc32`` is over the payload only; a record whose header is
short, whose payload is short, or whose checksum mismatches marks the
**torn tail** — it and everything after it are discarded at recovery,
which is exactly the atomicity story for a crash mid-append: the
record's transaction was never acknowledged, so dropping it is
correct.

Record payloads (dicts, pickled) come in three kinds:

``{"t": "txn", "deltas": [TableDelta, ...]}``
    One committed transaction: the net per-table row changes (with
    RIDs) buffered on the transaction by the delta protocol.
``{"t": "ddl", "op": <name>, ...}``
    One schema operation (CREATE/DROP TABLE/INDEX/VIEW, foreign key).
``{"t": "matview", "op": "create"|"drop", "name": ..., "policy": ...}``
    Materialized-view registration (the definition itself travels in
    the corresponding ``create_view`` DDL record).

Group commit
============

Appends are buffered writes under a mutex; durability is a separate
**sync barrier** (:meth:`WriteAheadLog.commit_barrier`) that the
engine invokes *after* releasing its statement latch.  Concurrent
committers therefore pile up at the barrier and share fsyncs: one
leader syncs the file while followers wait, and every record written
before the sync started is covered by it.  The ``fsync`` policy picks
the barrier behaviour:

``"always"``   every barrier syncs (shared with whoever is waiting).
``"group"``    like ``"always"``, but the leader first sleeps a short
               collection window (``group_window``) so near-simultaneous
               commits coalesce into one sync.
``"none"``     barriers do not sync; the OS flushes when it pleases.
               Acknowledged commits survive a *process* crash (the
               bytes are in the page cache) but not a power failure.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import StorageError

#: File magic, 8 bytes.
WAL_MAGIC = b"REPROWAL"

#: Record header: lsn (u64), payload length (u32), payload crc32 (u32).
_HEADER = struct.Struct("<QII")

#: Supported fsync policies.
FSYNC_POLICIES = ("always", "group", "none")


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    payload: dict


def encode_record(lsn: int, payload: dict) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(lsn, len(body), zlib.crc32(body)) + body


def read_records(data: bytes) -> tuple[list[WalRecord], int]:
    """Decode the valid record prefix of a log image.

    Returns ``(records, valid_end)`` where ``valid_end`` is the byte
    offset just past the last intact record — anything beyond it is a
    torn tail (short header, short payload, or checksum mismatch) and
    must be discarded.
    """
    records: list[WalRecord] = []
    if not data.startswith(WAL_MAGIC):
        # Missing or mangled magic: nothing salvageable (a crash before
        # the header landed, or a foreign file) — callers recreate.
        return records, 0
    offset = len(WAL_MAGIC)
    while True:
        header_end = offset + _HEADER.size
        if header_end > len(data):
            break
        lsn, length, crc = _HEADER.unpack_from(data, offset)
        body_end = header_end + length
        if body_end > len(data):
            break
        body = data[header_end:body_end]
        if zlib.crc32(body) != crc:
            break
        try:
            payload = pickle.loads(body)
        except Exception:
            break
        records.append(WalRecord(lsn, payload))
        offset = body_end
    return records, offset


def scan_log(path: str) -> tuple[list[WalRecord], int]:
    """Read a log file from disk; missing file reads as empty."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0
    return read_records(data)


class WriteAheadLog:
    """Append-only commit log with a group-commit sync barrier.

    One instance per engine; thread-safe.  Appends assign LSNs and
    buffer bytes into the OS (``write``) immediately; the caller makes
    them durable later via :meth:`commit_barrier` (per acknowledging
    thread) or :meth:`sync` (everything).
    """

    def __init__(self, path: str, fsync: str = "group",
                 group_window: float = 0.002,
                 next_lsn: int = 1, truncate_at: Optional[int] = None):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}")
        self.path = path
        self.fsync_policy = fsync
        self.group_window = group_window
        self._lock = threading.Lock()          # serializes appends
        self._sync_cond = threading.Condition()
        self._syncing = False
        self._written_lsn = next_lsn - 1       # last lsn handed to write()
        self._flushed_lsn = next_lsn - 1       # last lsn known durable
        self._next_lsn = next_lsn
        self._local = threading.local()        # per-thread pending lsn
        self.sync_count = 0                    # fsyncs issued (telemetry)
        self.append_count = 0
        # A truncation point below the magic means the file never got a
        # valid header (crash at creation) — rewrite it from scratch.
        fresh = not os.path.exists(path) or (
            truncate_at is not None and truncate_at < len(WAL_MAGIC))
        self._file = open(path, "wb" if fresh else "ab")
        if fresh:
            self._file.write(WAL_MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        elif truncate_at is not None:
            # Recovery found a torn tail: drop it before appending, so
            # the file is a clean record sequence again.
            self._file.truncate(truncate_at)
            self._file.seek(truncate_at)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The highest LSN handed out (not necessarily durable yet)."""
        return self._next_lsn - 1

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    # ------------------------------------------------------------------
    def append(self, payload: dict) -> int:
        """Write one record into the OS buffer; returns its LSN.

        Not yet durable — the appending thread's next
        :meth:`commit_barrier` (or any :meth:`sync`) makes it so.
        """
        with self._lock:
            if self._closed:
                raise StorageError("append to a closed write-ahead log")
            lsn = self._next_lsn
            self._next_lsn += 1
            self._file.write(encode_record(lsn, payload))
            self._file.flush()
            self._written_lsn = lsn
            self.append_count += 1
        self._local.pending = lsn
        return lsn

    def commit_barrier(self) -> None:
        """Make this thread's appends since its last barrier durable.

        No-op when the thread has nothing pending or the policy is
        ``"none"``.  Must be called *outside* the engine's statement
        latch — the whole point is that concurrent committers wait
        here together and share fsyncs.
        """
        pending = getattr(self._local, "pending", None)
        self._local.pending = None
        if pending is None or self.fsync_policy == "none":
            return
        self.sync_to(pending)

    def sync_to(self, lsn: int) -> None:
        """Block until every record with LSN <= ``lsn`` is durable."""
        with self._sync_cond:
            while self._flushed_lsn < lsn:
                if self._syncing:
                    # A leader is mid-sync; wait for its result, then
                    # re-check (it may not have covered us).
                    self._sync_cond.wait()
                    continue
                self._syncing = True
                try:
                    if self.fsync_policy == "group" \
                            and self.group_window > 0:
                        # Collection window: let near-simultaneous
                        # committers land their appends so one fsync
                        # covers the lot.
                        self._sync_cond.release()
                        try:
                            time.sleep(self.group_window)
                        finally:
                            self._sync_cond.acquire()
                    with self._lock:
                        target = self._written_lsn
                        self._file.flush()
                        fd = self._file.fileno()
                    self._sync_cond.release()
                    try:
                        os.fsync(fd)
                    finally:
                        self._sync_cond.acquire()
                    self._flushed_lsn = max(self._flushed_lsn, target)
                    self.sync_count += 1
                finally:
                    self._syncing = False
                    self._sync_cond.notify_all()

    def sync(self) -> None:
        """Make everything appended so far durable."""
        if self._closed:
            return
        self.sync_to(self._written_lsn)

    # ------------------------------------------------------------------
    def truncate_through(self, lsn: int) -> None:
        """Discard the log body after a snapshot covering LSN ``lsn``.

        Caller guarantees no record with LSN > ``lsn`` exists yet (the
        engine holds its exclusive latch across snapshot + truncate).
        LSNs keep counting; recovery filters on the snapshot LSN, so a
        crash *between* snapshot rename and truncation is benign — the
        stale records are simply skipped at replay.
        """
        with self._lock:
            if self._written_lsn > lsn:
                raise StorageError(
                    "cannot truncate the log below an appended record")
            self._file.truncate(len(WAL_MAGIC))
            self._file.seek(len(WAL_MAGIC))
            self._file.flush()
            os.fsync(self._file.fileno())
        with self._sync_cond:
            self._flushed_lsn = max(self._flushed_lsn, lsn)

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._closed = True
            self._file.close()
