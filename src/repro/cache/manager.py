"""The XNF cache manager (Sect. 5.2, Fig. 7).

"There is a public method, called evaluate, which can take an XNF query
as input and construct an instance of an XNFCache by sending a request
to the database server, loading the catalog component, and converting
the heterogeneous stream of tuples delivered by the server into the
main-memory representation."

:class:`XNFCache` owns a :class:`~repro.cache.workspace.Workspace`, hands
out cursors, persists itself to disk ("for long transactions, XNF allows
the cache to be stored on disk and retrieved later, thereby protecting
the cache from client machine's failure"), and writes local changes back
through the put-back of :mod:`repro.viewupdate.objects` (the analysis
and checks SQL view DML uses).
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import CacheError
from repro.cache.cursor import DependentCursor, IndependentCursor, PathCursor
from repro.cache.workspace import CachedObject, LogEntry, Workspace
from repro.xnf.result import ComponentStream, ConnectionStream, COResult
from repro.xnf.schema_graph import SchemaEdge, SchemaGraph
from repro.viewupdate import objects as put_back

SNAPSHOT_FORMAT = 1


class XNFCache:
    """A client-side composite-object cache."""

    def __init__(self, result: COResult, translated=None,
                 catalog=None, transactions=None,
                 write_through: bool = False):
        self.workspace = Workspace(result)
        self.schema = result.schema
        self._translated = translated
        self._catalog = catalog
        #: the write surface (``run_atomic``) local changes go back
        #: through; a cache without one cannot write back
        self._transactions = transactions
        if write_through and transactions is None:
            raise CacheError("a write-through cache needs a session: "
                             "open it with Session.open_cache")
        #: write-through mode: every local mutation is put back to the
        #: base tables immediately (one atomic statement each) instead
        #: of batching in the update log until ``write_back``.
        self.write_through = write_through
        self._in_write = False
        self.workspace.one_write = self.one_write
        #: (component write plans, relationship strategies), analyzed
        #: when the cache opens: the workspace's foreign-key links come
        #: from it
        self._analysis: Optional[tuple[dict, dict]] = None
        if catalog is not None:
            self.updatability()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def evaluate(cls, executable, catalog=None, transactions=None,
                 write_through: bool = False) -> "XNFCache":
        """Run an :class:`~repro.xnf.result.XNFExecutable` and cache it."""
        result = executable.run()
        return cls(result, translated=executable.translated,
                   catalog=catalog or executable.catalog,
                   transactions=transactions, write_through=write_through)

    # ------------------------------------------------------------------
    # Navigation API
    # ------------------------------------------------------------------
    def independent_cursor(self, component: str) -> IndependentCursor:
        return IndependentCursor(self.workspace, component)

    def dependent_cursor(self, relationship: str,
                         parent: Optional[CachedObject] = None
                         ) -> DependentCursor:
        return DependentCursor(self.workspace, relationship, parent)

    def path_cursor(self, path: str,
                    start: Optional[list[CachedObject]] = None
                    ) -> PathCursor:
        return PathCursor(self.workspace, path, start)

    def extent(self, component: str) -> list[CachedObject]:
        return self.workspace.extent(component)

    def find(self, component: str, **equalities) -> list[CachedObject]:
        return self.workspace.find(component, **equalities)

    def object_count(self) -> int:
        return self.workspace.object_count()

    # ------------------------------------------------------------------
    # Update API (CO update operators, Sect. 2)
    # ------------------------------------------------------------------
    # Each operation is one write (see :meth:`one_write`): a
    # write-through cache puts it back before returning.
    def insert(self, component: str, **values) -> CachedObject:
        with self.one_write():
            return self.workspace.insert_object(component, values)

    def delete(self, obj: CachedObject) -> None:
        with self.one_write():
            self.workspace.delete_object(obj)

    def connect(self, relationship: str, parent: CachedObject,
                *children: CachedObject) -> None:
        with self.one_write():
            self.workspace.connect(relationship, parent, *children)

    def disconnect(self, relationship: str, parent: CachedObject,
                   *children: CachedObject) -> None:
        with self.one_write():
            self.workspace.disconnect(relationship, parent, *children)

    @property
    def dirty(self) -> bool:
        return self.workspace.dirty

    def pending_changes(self) -> list[LogEntry]:
        return list(self.workspace.log)

    def write_back(self) -> int:
        """Transfer local changes to the server, all-or-nothing."""
        return self._writer().apply(self.workspace)

    def _writer(self) -> put_back.CacheWriteBack:
        if self._catalog is None or self._transactions is None:
            raise CacheError("no catalog or session to write back "
                             "through: open the cache with "
                             "Session.open_cache")
        return put_back.CacheWriteBack(self._catalog, self._transactions,
                                       *self.updatability())

    def updatability(self) -> tuple[dict, dict]:
        """The view's write paths: component -> write plan (or the
        :class:`~repro.errors.NotUpdatableError` rejecting it), and
        relationship -> connect strategy."""
        if self._analysis is None:
            xnf = getattr(self._translated, "xnf_box", None)
            self._analysis = put_back.analyze_xnf(xnf, self._catalog) \
                if xnf is not None else ({}, {})
            self.workspace.link_foreign_keys(
                {name: info.fk_pairs
                 for name, info in self._analysis[1].items()
                 if info.kind == "foreign_key"})
        return self._analysis

    # ------------------------------------------------------------------
    # Write-through (updatable-view CRUD through the gateway)
    # ------------------------------------------------------------------
    @contextmanager
    def one_write(self) -> Iterator[None]:
        """Run the block as one write.

        In write-through mode everything the block logs is put back as
        one statement when it ends; rejection reverts the workspace to
        its pre-block state and raises
        :class:`~repro.errors.ViewUpdateError`, so the objects and the
        database never diverge.  An exception inside the block reverts
        what it already logged.  A nested block joins the outermost
        one, which alone puts back.
        """
        if self._in_write:
            yield
            return
        log = self.workspace.log
        mark = len(log)
        self._in_write = True
        try:
            yield
        except Exception:
            entries = log[mark:]
            del log[mark:]
            put_back.revert_entries(self.workspace, entries)
            raise
        finally:
            self._in_write = False
        if self.write_through and len(log) > mark:
            entries = log[mark:]
            del log[mark:]
            put_back.apply_write_through(self, entries)

    # ------------------------------------------------------------------
    # Export (the multi-lingual API surface, Sect. 5.2)
    # ------------------------------------------------------------------
    def to_documents(self, roots=None, max_depth: int = 12) -> list[dict]:
        """Each root CO as a nested dict tree (JSON-ready)."""
        from repro.cache.export import to_documents
        return to_documents(self.workspace, roots=roots,
                            max_depth=max_depth)

    def schema_dot(self) -> str:
        """Graphviz DOT of the CO schema graph (Fig. 1, left)."""
        from repro.cache.export import schema_graph_dot
        return schema_graph_dot(self.schema)

    def instance_dot(self, label_columns=None) -> str:
        """Graphviz DOT of the instance graphs (Fig. 1, right)."""
        from repro.cache.export import instance_graph_dot
        return instance_graph_dot(self.workspace,
                                  label_columns=label_columns)

    # ------------------------------------------------------------------
    # Persistence (Sect. 3: protect the cache from client failure)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(self._snapshot(), handle)

    @classmethod
    def load(cls, path: str) -> "XNFCache":
        """Reload a saved cache for reading.  It has no write surface:
        :meth:`Session.load_cache <repro.api.session.Session.load_cache>`
        reloads one that writes back through a session.

        Raises :class:`~repro.errors.CacheError` (never a bare
        unpickling crash) when the file is not a cache snapshot, is
        truncated/corrupt, or was written by an incompatible version.
        """
        return cls.restore(read_snapshot(path))

    @classmethod
    def restore(cls, snapshot: dict, translated=None, catalog=None,
                transactions=None) -> "XNFCache":
        """A cache from a :func:`read_snapshot` snapshot, its update
        log replayed, with the write wiring :meth:`__init__` takes."""
        cache = cls(_result_from_snapshot(snapshot), translated=translated,
                    catalog=catalog, transactions=transactions)
        for entry in snapshot["log"]:
            cache.workspace.log.append(
                LogEntry(entry["operation"], entry["target"],
                         _revive_payload(entry["payload"],
                                         cache.workspace))
            )
        return cache

    def _snapshot(self) -> dict:
        workspace = self.workspace
        components = {}
        for name, objects in workspace.objects.items():
            components[name] = {
                "columns": workspace.components_columns[name],
                "rows": [tuple(o.values) for o in objects
                         if not o.deleted],
                "oids": [o.oid for o in objects if not o.deleted],
            }
        relationships = {}
        for name in workspace.relationship_names():
            attribute_names = workspace.relationship_attributes.get(
                name, ())
            connections = []
            emitted_parallel: dict[tuple, int] = {}
            for parent, child_tuple in workspace.connections_of(name):
                record = (parent.oid,) + tuple(c.oid
                                               for c in child_tuple)
                if attribute_names:
                    all_values = workspace.connection_attribute_list(
                        name, parent, *child_tuple)
                    index = emitted_parallel.get(record, 0)
                    emitted_parallel[record] = index + 1
                    values = (all_values[index]
                              if index < len(all_values) else {})
                    record += tuple(values.get(a)
                                    for a in attribute_names)
                connections.append(record)
            relationships[name] = {
                "parent": workspace.relationship_parent[name],
                "children": workspace.relationship_children[name],
                "role": workspace.relationship_role[name],
                "attribute_names": tuple(attribute_names),
                "connections": connections,
            }
        log = [
            {"operation": e.operation, "target": e.target,
             "payload": _freeze_payload(e.payload)}
            for e in workspace.log
        ]
        return {
            "format": SNAPSHOT_FORMAT,
            "schema": {
                "components": self.schema.components,
                "roots": self.schema.roots,
                "edges": [(e.name, e.role, e.parent, e.children)
                          for e in self.schema.edges],
            },
            "components": components,
            "relationships": relationships,
            "log": log,
        }


#: Keys every loadable snapshot must carry (beyond the format tag).
_SNAPSHOT_KEYS = ("schema", "components", "relationships", "log")


def read_snapshot(path: str) -> dict:
    """The validated snapshot :meth:`XNFCache.save` wrote to ``path``;
    :class:`~repro.errors.CacheError` when it is not one."""
    try:
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        raise CacheError(
            f"cannot load cache snapshot {path!r}: file is not a "
            f"readable snapshot ({exc})"
        ) from exc
    return _validate_snapshot(snapshot, path)


def _validate_snapshot(snapshot: object, path: str) -> dict:
    """Shape-check a deserialized snapshot before reviving it."""
    if not isinstance(snapshot, dict):
        raise CacheError(
            f"cache snapshot {path!r} is not a snapshot mapping "
            f"(found {type(snapshot).__name__})"
        )
    found = snapshot.get("format")
    if found != SNAPSHOT_FORMAT:
        raise CacheError(
            f"cache snapshot {path!r} has unsupported format {found!r}; "
            f"this build reads format {SNAPSHOT_FORMAT}. Re-evaluate the "
            f"view and save a fresh snapshot."
        )
    missing = [key for key in _SNAPSHOT_KEYS if key not in snapshot]
    if missing:
        raise CacheError(
            f"cache snapshot {path!r} is incomplete: missing "
            f"{', '.join(missing)}"
        )
    schema = snapshot["schema"]
    if not isinstance(schema, dict) or not {"components", "roots",
                                            "edges"} <= set(schema):
        raise CacheError(
            f"cache snapshot {path!r} has a malformed schema section"
        )
    return snapshot


def _freeze_payload(payload: dict) -> dict:
    frozen = {}
    for key, value in payload.items():
        if isinstance(value, CachedObject):
            frozen[key] = {"$object$": (value.component, value.oid)}
        elif isinstance(value, tuple) and value and \
                all(isinstance(v, CachedObject) for v in value):
            frozen[key] = {"$objects$": [(v.component, v.oid)
                                         for v in value]}
        else:
            frozen[key] = value
    return frozen


def _revive_payload(payload: dict, workspace: Workspace) -> dict:
    revived = {}
    for key, value in payload.items():
        if isinstance(value, dict) and "$object$" in value:
            revived[key] = workspace.by_oid[tuple(value["$object$"])]
        elif isinstance(value, dict) and "$objects$" in value:
            revived[key] = tuple(workspace.by_oid[tuple(ref)]
                                 for ref in value["$objects$"])
        else:
            revived[key] = value
    return revived


def _result_from_snapshot(snapshot: dict) -> COResult:
    schema = SchemaGraph(
        components=list(snapshot["schema"]["components"]),
        edges=[SchemaEdge(*e) for e in snapshot["schema"]["edges"]],
        roots=list(snapshot["schema"]["roots"]),
    )
    components = {}
    for number, (name, data) in enumerate(snapshot["components"].items()):
        stream = ComponentStream(name=name, number=number,
                                 columns=list(data["columns"]))
        stream.rows = [tuple(r) for r in data["rows"]]
        stream.oids = list(data["oids"])
        components[name] = stream
    relationships = {}
    for number, (name, data) in enumerate(
            snapshot["relationships"].items()):
        relationships[name] = ConnectionStream(
            name=name, number=1000 + number,
            role=data["role"], parent=data["parent"],
            children=tuple(data["children"]),
            connections=[tuple(c) for c in data["connections"]],
            attribute_names=tuple(data.get("attribute_names", ())),
        )
    return COResult(schema=schema, components=components,
                    relationships=relationships)
