"""Snapshots and ARIES-lite restart recovery.

A durable engine directory holds exactly two kinds of files::

    wal.log               the write-ahead log (repro.storage.wal)
    snapshot-<lsn>.db     checkpoints: the full committed state as of
                          log sequence number <lsn>

Recovery is the classic snapshot-plus-redo scheme, simplified by two
properties of this engine: mutations are applied in place with an undo
log, so an *open* transaction's changes never reach the log or a
snapshot (snapshots are taken through committed-state read views), and
commit records carry the transaction's **net per-table deltas with
RIDs**.  Redo is therefore physical and exact — no undo pass, no
compensation records:

1. load the newest *valid* snapshot (checksum-verified; a crash mid
   checkpoint leaves the previous snapshot in place because snapshots
   are written to a temp file and renamed),
2. replay every intact log record with LSN greater than the
   snapshot's, applying row deltas by RID and DDL records by
   re-running the schema operation,
3. stop at the first torn record (short or checksum-mismatched) and
   discard it and everything after — by the write-ahead protocol that
   suffix was never acknowledged.

Derived state is *not* snapshotted: statistics snapshots are
recomputed lazily (their epochs are restored and advanced so cached
plans can never match pre-crash statistics), and materialized views
are re-registered **stale**, so the first read after restart refreshes
from recovered base tables instead of trusting a pre-crash image.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StorageError
from repro.storage.catalog import Catalog, TableDelta
from repro.storage.wal import WalRecord, scan_log

SNAPSHOT_MAGIC = b"REPROSNP"
SNAPSHOT_FORMAT = 1
_SNAP_HEADER = struct.Struct("<II")  # payload length, payload crc32

WAL_FILENAME = "wal.log"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".db"


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_FILENAME)


def snapshot_path(directory: str, lsn: int) -> str:
    return os.path.join(directory,
                        f"{_SNAPSHOT_PREFIX}{lsn:020d}{_SNAPSHOT_SUFFIX}")


@dataclass
class RecoveryReport:
    """What a restart found and replayed (``engine.recovery``)."""

    snapshot_lsn: int = 0
    last_lsn: int = 0
    replayed_transactions: int = 0
    replayed_ddl: int = 0
    torn_bytes: int = 0
    #: materialized view name -> staleness policy, to re-register
    matview_policies: dict[str, str] = field(default_factory=dict)
    stats_table_epochs: dict[str, int] = field(default_factory=dict)
    stats_global_epoch: int = 0
    #: byte offset the WAL must be truncated to before appending
    wal_truncate_at: Optional[int] = None

    @property
    def next_lsn(self) -> int:
        return self.last_lsn + 1


# ----------------------------------------------------------------------
# Snapshot writing
# ----------------------------------------------------------------------
def build_snapshot_payload(catalog: Catalog, lsn: int,
                           stats_table_epochs: dict[str, int],
                           stats_global_epoch: int,
                           matview_policies: dict[str, str]) -> dict:
    """Capture the committed state of ``catalog`` as a picklable dict.

    Table rows are captured through :meth:`Table.snapshot_slots`, which
    respects any installed committed-state read view — the caller (the
    engine's ``checkpoint()``) installs overlays against the current
    uncommitted writer, so open transactions never leak into a
    snapshot.
    """
    tables = []
    for table in catalog.tables():
        tables.append({
            "name": table.name,
            "columns": table.columns,
            "partitioning": table.partitioning,
            "slots": table.snapshot_slots(),
        })
    indexes = [{
        "name": index.name,
        "table": index.table_name,
        "columns": index.column_names,
        "unique": index.unique,
    } for table in catalog.tables() for index in table.indexes]
    return {
        "format": SNAPSHOT_FORMAT,
        "lsn": lsn,
        "schema_version": catalog.schema_version,
        "tables": tables,
        "indexes": indexes,
        "foreign_keys": catalog.foreign_keys(),
        "views": catalog.views(),
        "matviews": dict(matview_policies),
        "stats_table_epochs": dict(stats_table_epochs),
        "stats_global_epoch": stats_global_epoch,
    }


def write_snapshot(directory: str, payload: dict) -> str:
    """Durably write a snapshot; returns its final path.

    Crash-safe: the bytes land in a temp file that is fsynced *before*
    an atomic rename, and the directory entry is fsynced after — a
    crash at any point leaves either the old snapshot set or the old
    set plus one complete new snapshot, never a half-written one under
    the real name.
    """
    lsn = payload["lsn"]
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    final = snapshot_path(directory, lsn)
    tmp = final + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(_SNAP_HEADER.pack(len(body), zlib.crc32(body)))
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    _fsync_directory(directory)
    return final


def prune_snapshots(directory: str, keep_lsn: int) -> None:
    """Delete snapshots older than the one at ``keep_lsn``."""
    for name, lsn in _snapshot_files(directory):
        if lsn < keep_lsn:
            try:
                os.remove(os.path.join(directory, name))
            except OSError:  # pragma: no cover - best effort
                pass


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Snapshot loading
# ----------------------------------------------------------------------
def _snapshot_files(directory: str) -> list[tuple[str, int]]:
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return found
    for name in names:
        if not (name.startswith(_SNAPSHOT_PREFIX)
                and name.endswith(_SNAPSHOT_SUFFIX)):
            continue
        digits = name[len(_SNAPSHOT_PREFIX):-len(_SNAPSHOT_SUFFIX)]
        try:
            found.append((name, int(digits)))
        except ValueError:
            continue
    return found


def read_snapshot(path: str) -> Optional[dict]:
    """Decode one snapshot file; None when invalid/torn."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    header_end = len(SNAPSHOT_MAGIC) + _SNAP_HEADER.size
    if not data.startswith(SNAPSHOT_MAGIC) or len(data) < header_end:
        return None
    length, crc = _SNAP_HEADER.unpack_from(data, len(SNAPSHOT_MAGIC))
    body = data[header_end:header_end + length]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        payload = pickle.loads(body)
    except Exception:
        return None
    if not isinstance(payload, dict) \
            or payload.get("format") != SNAPSHOT_FORMAT:
        return None
    return payload


def load_newest_snapshot(directory: str) -> Optional[dict]:
    """The newest snapshot that validates, skipping corrupt ones."""
    for name, _lsn in sorted(_snapshot_files(directory),
                             key=lambda item: item[1], reverse=True):
        payload = read_snapshot(os.path.join(directory, name))
        if payload is not None:
            return payload
    return None


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------
def recover(directory: str, catalog: Catalog) -> RecoveryReport:
    """Rebuild ``catalog`` from the durable state under ``directory``.

    The catalog must be fresh (no tables, no listeners) — the engine
    calls this first thing, before statistics, transactions or
    materialized views are wired up, so replay does not trigger delta
    or DDL logging.
    """
    os.makedirs(directory, exist_ok=True)
    report = RecoveryReport()
    snapshot = load_newest_snapshot(directory)
    if snapshot is not None:
        _apply_snapshot(snapshot, catalog, report)
    records, valid_end = scan_log(wal_path(directory))
    report.wal_truncate_at = valid_end
    try:
        size = os.path.getsize(wal_path(directory))
    except OSError:
        size = valid_end
    report.torn_bytes = max(0, size - valid_end)
    report.last_lsn = report.snapshot_lsn
    for record in records:
        if record.lsn > report.last_lsn:
            _apply_record(record, catalog, report)
            report.last_lsn = record.lsn
    return report


def _apply_snapshot(snapshot: dict, catalog: Catalog,
                    report: RecoveryReport) -> None:
    report.snapshot_lsn = snapshot["lsn"]
    for spec in snapshot["tables"]:
        table = catalog.create_table(spec["name"], spec["columns"],
                                     partitioning=spec.get("partitioning"))
        table.restore_slots(spec["slots"])
    # An index spec (here or in a create_index DDL record) written when
    # only some indexes kept a key order carries an "ordered" field:
    # every index has one now, so it is read past.
    for spec in snapshot["indexes"]:
        catalog.create_index(spec["name"], spec["table"],
                             list(spec["columns"]), unique=spec["unique"])
    for fk in snapshot["foreign_keys"]:
        catalog.add_foreign_key(fk.name, fk.child_table,
                                list(fk.child_columns), fk.parent_table,
                                list(fk.parent_columns))
    for view in snapshot["views"]:
        catalog.create_view(view)
    report.matview_policies.update(snapshot.get("matviews", {}))
    report.stats_table_epochs = dict(
        snapshot.get("stats_table_epochs", {}))
    report.stats_global_epoch = snapshot.get("stats_global_epoch", 0)


def _apply_record(record: WalRecord, catalog: Catalog,
                  report: RecoveryReport) -> None:
    payload = record.payload
    kind = payload.get("t")
    if kind == "txn":
        for delta in payload["deltas"]:
            _apply_delta(delta, catalog)
        report.replayed_transactions += 1
    elif kind == "ddl":
        _apply_ddl(payload, catalog)
        report.replayed_ddl += 1
    elif kind == "matview":
        if payload["op"] == "create":
            report.matview_policies[payload["name"].upper()] = \
                payload["policy"]
        else:
            report.matview_policies.pop(payload["name"].upper(), None)
    else:
        raise StorageError(
            f"unknown WAL record kind {kind!r} at LSN {record.lsn}")


def _apply_delta(delta: TableDelta, catalog: Catalog) -> None:
    """Physical redo of one statement's net delta, by RID.

    Deletions first, then insertions: an UPDATE travels as a delete
    plus an insert of the *same* RID, so ordering within the delta
    matters while ordering across RIDs does not (net deltas touch each
    RID at most once per side).
    """
    table = catalog.table(delta.table)
    for rid, _row in delta.deleted:
        table.delete(rid)
    for rid, row in delta.inserted:
        table.insert_at(rid, tuple(row))


def _apply_ddl(payload: dict, catalog: Catalog) -> None:
    op = payload["op"]
    if op == "create_table":
        catalog.create_table(payload["name"], payload["columns"],
                             partitioning=payload.get("partitioning"))
    elif op == "repartition":
        catalog.repartition_table(payload["name"], payload["partitioning"])
    elif op == "drop_table":
        catalog.drop_table(payload["name"])
    elif op == "create_index":
        catalog.create_index(payload["name"], payload["table"],
                             list(payload["columns"]),
                             unique=payload["unique"])
    elif op == "drop_index":
        catalog.drop_index(payload["name"])
    elif op == "add_foreign_key":
        catalog.add_foreign_key(payload["name"], payload["child_table"],
                                list(payload["child_columns"]),
                                payload["parent_table"],
                                list(payload["parent_columns"]))
    elif op == "create_view":
        catalog.create_view(payload["view"])
    elif op == "drop_view":
        catalog.drop_view(payload["name"])
    else:
        raise StorageError(f"unknown DDL record op {op!r}")
