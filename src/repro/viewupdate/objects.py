"""Write-through put-back for gateway objects.

The deferred path batches local mutations in the workspace log until
``commit()``.  In *write-through* mode every object-API call
(``obj.update(...)``, ``extent.insert(...)``, ``obj.insert_child(...)``,
``obj.delete()``, plain attribute assignment) is put back to the base
tables immediately, as one atomic statement: the freshly logged entries
are sliced off the workspace log and applied through the view's
updatability analysis, with the same dynamic get∘put identity check the
SQL view-DML path runs.  On rejection the workspace is reverted to its
pre-call state and a :class:`~repro.errors.ViewUpdateError` names the
component, column and reason — the cached object graph and the database
never diverge.
"""

from __future__ import annotations

from repro.errors import (CacheError, StorageError, TypeCheckError,
                          UpdateError, ViewUpdateError)


def revert_entries(workspace, entries) -> None:
    """Undo the workspace effects of freshly logged ``entries``.

    Only sound for entries sliced off the log tail immediately after
    the mutation (write-through discipline): nothing else has observed
    the provisional state yet.  Every navigation list comes back
    exactly as it was, order included.
    """
    for entry in reversed(entries):
        payload = entry.payload
        for items, position, removed in reversed(entry.undo):
            if removed is None:
                del items[position]
            else:
                items.insert(position, removed)
        if entry.operation == "update":
            obj = workspace.by_oid[(entry.target, payload["oid"])]
            obj.values[obj._position(payload["column"])] = payload["old"]
        elif entry.operation == "insert":
            obj = workspace.by_oid.pop((entry.target, payload["oid"]),
                                       None)
            if obj is not None:
                bucket = workspace.objects.get(entry.target, [])
                if obj in bucket:
                    bucket.remove(obj)
        elif entry.operation == "delete":
            obj = workspace.by_oid.get((entry.target, payload["oid"]))
            if obj is not None:
                obj.deleted = False


def _final_writes(cache, entries) -> dict:
    """Fold a write batch into the final intended value per object
    column: later updates override insert values, connect/disconnect
    entries set the child's foreign-key columns, deletes drop the
    object from verification entirely."""
    written: dict = {}  # (component, oid) -> {BASE_COL: (view_col, v)}

    def note(component, oid, view_column, base_column, value):
        written.setdefault((component, oid), {})[base_column] = \
            (view_column, value)

    for entry in entries:
        payload = entry.payload
        if entry.operation in ("update", "insert"):
            info = cache.component_updatability.get(entry.target)
            if info is None or not info.updatable:
                continue  # the write-back itself already rejected
            if entry.operation == "update":
                pairs = {payload["column"]: payload["new"]}
            else:
                pairs = payload["values"]
            for view_column, value in pairs.items():
                base = info.column_map.get(view_column.upper())
                if base is not None:
                    note(entry.target, payload["oid"],
                         view_column.upper(), base, value)
        elif entry.operation == "delete":
            written.pop((entry.target, payload["oid"]), None)
        elif entry.operation in ("connect", "disconnect"):
            rel = cache.relationship_updatability.get(entry.target)
            if rel is None or rel.kind != "foreign_key":
                continue
            parent = payload["parent"]
            gone = entry.operation == "disconnect"
            for child in payload["children"]:
                for child_column, parent_column in rel.fk_pairs:
                    value = None if gone else parent.get(parent_column)
                    note(child.component, child.oid,
                         child_column.upper(), child_column.upper(),
                         value)
    return written


def _round_trip_check(cache, entries):
    """The object-path get∘put identity check, run inside the
    write-back transaction (a violation rolls everything back)."""
    def check(writer) -> None:
        catalog = writer.catalog
        for (component, oid), columns in \
                _final_writes(cache, entries).items():
            info = cache.component_updatability.get(component)
            if info is None or not info.updatable:
                continue
            table = catalog.table(info.table)
            rid = writer._new_rids.get((component, oid), oid)
            if not isinstance(rid, int):
                continue
            # an insert, too, may have relocated since (e.g. a connect
            # filled its partition-key column)
            rid = writer._current_rid(table.name, rid)
            row = table.fetch(rid)
            for base, (view_column, value) in columns.items():
                position = table.column_position(base)
                expected = table.columns[position].validate(value)
                if row[position] != expected:
                    raise ViewUpdateError(
                        "write does not round-trip", box=component,
                        column=view_column,
                        reason="re-reading the object yields a "
                               "different value than was written; "
                               "get∘put is not the identity, write "
                               "aborted")
    return check


def _sync_fk_columns(cache, entries) -> None:
    """Reflect connect/disconnect-driven foreign-key writes into the
    cached child objects, so a write-through cache shows exactly what
    the base tables now hold."""
    for entry in entries:
        if entry.operation not in ("connect", "disconnect"):
            continue
        rel = cache.relationship_updatability.get(entry.target)
        if rel is None or rel.kind != "foreign_key":
            continue
        parent = entry.payload["parent"]
        gone = entry.operation == "disconnect"
        for child in entry.payload["children"]:
            info = cache.component_updatability.get(child.component)
            if info is None or not info.updatable:
                continue
            reverse = {base: view
                       for view, base in info.column_map.items()}
            for child_column, parent_column in rel.fk_pairs:
                view_column = reverse.get(child_column.upper())
                if view_column is None:
                    continue
                value = None if gone else parent.get(parent_column)
                child.values[child._position(view_column)] = value


def apply_write_through(cache, entries) -> None:
    """Put ``entries`` back immediately; revert the workspace on any
    failure, then fix provisional oids to real storage rids."""
    writer = cache._writer()
    try:
        writer.apply_now(entries,
                         verify=_round_trip_check(cache, entries))
    except ViewUpdateError:
        revert_entries(cache.workspace, entries)
        raise
    except (UpdateError, CacheError, StorageError,
            TypeCheckError) as exc:
        revert_entries(cache.workspace, entries)
        raise ViewUpdateError(
            "write-through rejected", box=entries[0].target,
            reason=str(exc)) from exc
    except Exception:
        revert_entries(cache.workspace, entries)
        raise
    workspace = cache.workspace
    writer.remap_relocated(workspace)
    _sync_fk_columns(cache, entries)
    for entry in entries:
        if entry.operation != "insert":
            continue
        rid = writer._new_rids.get((entry.target,
                                    entry.payload["oid"]))
        if rid is None:
            continue
        obj = workspace.by_oid.pop((entry.target,
                                    entry.payload["oid"]), None)
        if obj is None:
            continue
        table = writer.catalog.table(
            cache.component_updatability[entry.target].table)
        rid = writer._current_rid(table.name, rid)
        obj.oid = rid
        obj.is_new = False
        workspace.by_oid[(entry.target, rid)] = obj
