"""The workspace: main-memory CO representation (Sect. 5, Fig. 7).

"The workspace is constructed from the output tuples of the XNF query by
converting connections into pointers which allow traversing the structure
in any direction.  In addition we generate pointers to allow browsing all
elements of a component and all elements of a node which are connected to
a given component by a specified relationship."

Concretely: every component tuple becomes a :class:`CachedObject`;
connection tuples are *swizzled* once, at load, into per-relationship
child and parent tuples the objects themselves hold.  The mutation
operators keep those tuples exact, so navigation never filters, and
each write replaces a tuple rather than editing it, so navigation
returns the stored tuple as it is.  Local
updates are recorded in an update log for later write-back (Sect. 2's
CO update operators: insert/read/update/delete plus connect/disconnect).
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import CacheError
from repro.xnf.result import COResult
from repro.xnf.schema_graph import SchemaGraph


class CachedObject:
    """One component tuple in the workspace.

    Column values are accessible by subscript (``obj['ENAME']``) or as
    lowercase attributes (``obj.ename``), read-only through the latter;
    mutations go through :meth:`set` so they reach the update log.
    ``child_lists`` / ``parent_lists`` hold one immutable tuple of
    partners per relationship, at the positions ``workspace.outgoing``
    / ``workspace.incoming`` give: child objects for a binary
    relationship, partner tuples for an n-ary one.  Each write replaces
    the tuple, and a revert assigns the previous ones back.
    """

    __slots__ = ("workspace", "component", "oid", "values", "deleted",
                 "is_new", "child_lists", "parent_lists")

    def __init__(self, workspace: "Workspace", component: str, oid,
                 values: list):
        self.workspace = workspace
        self.component = component
        self.oid = oid
        self.values = values
        self.deleted = False
        self.is_new = False
        self.child_lists = [()] * len(workspace.outgoing[component])
        self.parent_lists = [()] * len(workspace.incoming[component])

    # -- value access ----------------------------------------------------
    def _position(self, column: str) -> int:
        positions = self.workspace.column_positions[self.component]
        try:
            return positions[column.upper()]
        except KeyError:
            raise CacheError(
                f"component {self.component} has no column {column!r}"
            ) from None

    def __getitem__(self, column: str):
        return self.values[self._position(column)]

    def get(self, column: str):
        return self.values[self._position(column)]

    def __getattr__(self, name: str):
        # __getattr__ only fires for names not found normally; treat
        # them as column lookups.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.values[self._position(name)]
        except CacheError:
            raise AttributeError(name) from None

    def set(self, column: str, value) -> None:
        """Update a column locally, logging for write-back (one write:
        a write-through cache puts it back before returning)."""
        with self.workspace.one_write():
            self.workspace.update_object(self, column, value)

    def as_dict(self) -> dict:
        columns = self.workspace.components_columns[self.component]
        return dict(zip(columns, self.values))

    # -- navigation (swizzled pointers) ----------------------------------
    def children(self, relationship: Optional[str] = None) -> tuple:
        return self.workspace.children_of(self, relationship)

    def parents(self, relationship: Optional[str] = None) -> tuple:
        return self.workspace.parents_of(self, relationship)

    def __repr__(self) -> str:
        flag = " deleted" if self.deleted else ""
        return (f"<{self.component}:{self.oid}{flag} "
                f"{dict(list(self.as_dict().items())[:3])}>")


def _replace(owner: list, index: int, partners: tuple,
             undo: list) -> None:
    """Store ``partners`` as ``owner[index]``, recording the tuple it
    replaces in ``undo``."""
    undo.append((owner, index, owner[index]))
    owner[index] = partners


@dataclass
class LogEntry:
    """One local change awaiting write-back."""

    operation: str  # update | insert | delete | connect | disconnect
    target: str  # component or relationship name
    payload: dict = field(default_factory=dict)
    #: partner tuples replaced, oldest first: (owner's list of tuples,
    #: index, previous tuple) — what a revert assigns back
    undo: list = field(default_factory=list, repr=False, compare=False)


class Workspace:
    """Swizzled, navigable, locally-updatable image of a COResult."""

    def __init__(self, result: COResult):
        self.schema: SchemaGraph = result.schema
        self.components_columns: dict[str, list[str]] = {}
        self.column_positions: dict[str, dict[str, int]] = {}
        self.objects: dict[str, list[CachedObject]] = {}
        self.by_oid: dict[tuple[str, object], CachedObject] = {}
        #: component -> class of its objects (see ``bind_classes``)
        self.classes: dict[str, type] = {}
        #: component -> relationship -> position in each object's
        #: child_lists (outgoing) / parent_lists (incoming)
        self.outgoing: dict[str, dict[str, int]] = {}
        self.incoming: dict[str, dict[str, int]] = {}
        self.relationship_children: dict[str, tuple[str, ...]] = {}
        self.relationship_parent: dict[str, str] = {}
        self.relationship_role: dict[str, str] = {}
        self.relationship_attributes: dict[str, tuple[str, ...]] = {}
        #: (rel, id(parent), ids(children)) -> attribute dicts, one per
        #: parallel connection between the same partners
        self._connection_attributes: dict[tuple, list[dict]] = {}
        #: (child component, column) -> the foreign-key relationships
        #: that column links, as ``(relationship, fk_pairs)``: an update
        #: of the column rewires the child's parent (see
        #: :meth:`link_foreign_keys`)
        self.foreign_keys: dict[tuple[str, str], list[tuple]] = {}
        self.log: list[LogEntry] = []
        #: context of one write; the owning cache installs its
        #: ``XNFCache.one_write``, which a write-through cache puts back
        self.one_write = nullcontext
        self.dangling_connections = 0
        self._new_oid_counter = itertools.count(1)
        self._load(result)

    # ------------------------------------------------------------------
    # Construction (pointer swizzling)
    # ------------------------------------------------------------------
    def _load(self, result: COResult) -> None:
        for name, stream in result.relationships.items():
            self.relationship_children[name] = stream.children
            self.relationship_parent[name] = stream.parent
            self.relationship_role[name] = stream.role
            self.relationship_attributes[name] = stream.attribute_names
        for name in result.components:
            self.outgoing[name] = {rel: i for i, rel in enumerate(
                r for r, p in self.relationship_parent.items()
                if p == name)}
            self.incoming[name] = {rel: i for i, rel in enumerate(
                r for r, cs in self.relationship_children.items()
                if name in cs)}
        for name, stream in result.components.items():
            columns = [c.upper() for c in stream.columns]
            self.components_columns[name] = columns
            self.column_positions[name] = {
                c: i for i, c in enumerate(columns)
            }
            self.classes[name] = CachedObject
            bucket = [CachedObject(self, name, oid, list(row))
                      for oid, row in zip(stream.oids, stream.rows)]
            self.by_oid.update(((name, o.oid), o) for o in bucket)
            self.objects[name] = bucket
        for name, stream in result.relationships.items():
            width = 1 + len(stream.children)
            binary = width == 2
            # Partners gathered per object, then stored as one tuple
            # each (objects hash by identity).
            down: dict[CachedObject, list] = {}
            up: dict[CachedObject, list] = {}
            for connection in stream.connections:
                parent = self.by_oid.get((stream.parent, connection[0]))
                child_objects = [self.by_oid.get(key) for key in zip(
                    stream.children, connection[1:width])]
                if parent is None or None in child_objects:
                    # Partner not taken into the view: the connection
                    # cannot be swizzled (projection dropped a partner).
                    self.dangling_connections += 1
                    continue
                down.setdefault(parent, []).append(
                    child_objects[0] if binary else tuple(child_objects))
                for child in child_objects:
                    up.setdefault(child, []).append(parent)
                if stream.attribute_names:
                    key = (name, id(parent),
                           tuple(id(c) for c in child_objects))
                    self._connection_attributes.setdefault(
                        key, []).append(dict(
                            zip(stream.attribute_names,
                                connection[width:])))
            for parent, items in down.items():
                parent.child_lists[self.outgoing[parent.component][name]] = \
                    tuple(items)
            for child, parents in up.items():
                child.parent_lists[self.incoming[child.component][name]] = \
                    tuple(parents)

    # ------------------------------------------------------------------
    # Browsing
    # ------------------------------------------------------------------
    def component_names(self) -> list[str]:
        return list(self.objects)

    def relationship_names(self) -> list[str]:
        return list(self.relationship_parent)

    def _relationship(self, relationship: str) -> str:
        name = relationship.upper()
        if name not in self.relationship_parent:
            raise CacheError(f"no relationship {relationship!r}")
        return name

    def extent(self, component: str) -> list[CachedObject]:
        """All live objects of a component (the container class of
        Sect. 5.2)."""
        try:
            bucket = self.objects[component.upper()]
        except KeyError:
            raise CacheError(f"no component {component!r} in cache") \
                from None
        return [o for o in bucket if not o.deleted]

    def object_count(self) -> int:
        return sum(len(self.extent(c)) for c in self.objects)

    def find(self, component: str, **equalities) -> list[CachedObject]:
        """Simple predicate scan over an extent."""
        wanted = {k.upper(): v for k, v in equalities.items()}
        return [obj for obj in self.extent(component)
                if all(obj.get(c) == v for c, v in wanted.items())]

    def children_of(self, obj: CachedObject,
                    relationship: Optional[str] = None) -> tuple:
        """Child objects connected to ``obj``: the stored immutable
        tuple, which later writes replace rather than edit.

        For binary relationships returns the child objects; for n-ary
        relationships returns tuples of partners.  Without an explicit
        relationship name, all outgoing relationships contribute (a new
        tuple).
        """
        return self._partners(obj.child_lists,
                              self.outgoing[obj.component], relationship)

    def parents_of(self, obj: CachedObject,
                   relationship: Optional[str] = None
                   ) -> tuple[CachedObject, ...]:
        return self._partners(obj.parent_lists,
                              self.incoming[obj.component], relationship)

    def _partners(self, lists: list, positions: dict,
                  relationship: Optional[str]) -> tuple:
        if relationship is None:
            return tuple(itertools.chain.from_iterable(lists))
        index = positions.get(self._relationship(relationship))
        return () if index is None else lists[index]

    def connection_attributes(self, relationship: str,
                              parent: CachedObject,
                              *children: CachedObject) -> dict:
        """Attribute values of one connection (Sect. 2's relationship
        attributes); empty dict when the relationship declares none.
        With parallel connections between the same partners, returns
        the first — :meth:`connection_attribute_list` returns all."""
        found = self.connection_attribute_list(relationship, parent,
                                               *children)
        return dict(found[0]) if found else {}

    def connection_attribute_list(self, relationship: str,
                                  parent: CachedObject,
                                  *children: CachedObject) -> list[dict]:
        """Attribute dicts of every parallel connection between the
        given partners."""
        key = (self._relationship(relationship), id(parent),
               tuple(id(c) for c in children))
        return [dict(d) for d in
                self._connection_attributes.get(key, [])]

    def connections_of(self, relationship: str
                       ) -> Iterator[tuple[CachedObject, tuple]]:
        """(parent, child-tuple) pairs of one relationship."""
        name = self._relationship(relationship)
        parent_component = self.relationship_parent[name]
        binary = len(self.relationship_children[name]) == 1
        parents = self.extent(parent_component)
        index = self.outgoing[parent_component][name]
        for parent in parents:
            for item in parent.child_lists[index]:
                yield parent, ((item,) if binary else item)

    # ------------------------------------------------------------------
    # Local updates (logged for write-back)
    # ------------------------------------------------------------------
    def update_object(self, obj: CachedObject, column: str,
                      value) -> None:
        if obj.deleted:
            raise CacheError("cannot update a deleted object")
        position = obj._position(column)
        old = obj.values[position]
        if old == value:
            return
        obj.values[position] = value
        column = column.upper()
        entry = LogEntry("update", obj.component, {
            "oid": obj.oid, "column": column,
            "old": old, "new": value, "is_new": obj.is_new,
        })
        links = self.foreign_keys.get((obj.component, column))
        if links:
            for name, pairs in links:
                self._relink(name, pairs, obj, entry.undo)
        self.log.append(entry)

    def link_foreign_keys(self, relationships: dict) -> None:
        """Install the foreign-key relationships (name -> ``(child
        column, parent column)`` pairs) whose child columns an update
        rewires; a relationship the result does not take is skipped."""
        self.foreign_keys = {}
        for name, pairs in relationships.items():
            children = self.relationship_children.get(name)
            if children is None:
                continue
            for child_column, _parent_column in pairs:
                self.foreign_keys.setdefault(
                    (children[0], child_column), []).append((name, pairs))

    def _relink(self, name: str, pairs: list, child: CachedObject,
                undo: list) -> None:
        """Connect ``child`` along the foreign-key relationship ``name``
        to exactly the cached parents its key columns now equal (none
        while a column is NULL), recording each replaced tuple in
        ``undo``.  A parent that is not cached is not linked: an
        extraction would not reach the child through it either."""
        parent_component = self.relationship_parent[name]
        key = [child.get(child_column) for child_column, _ in pairs]
        wanted = [] if None in key else [
            parent for parent in self.objects[parent_component]
            if not parent.deleted and all(
                parent.get(parent_column) == value
                for (_, parent_column), value in zip(pairs, key))]
        up = self.incoming[child.component][name]
        parents = child.parent_lists[up]
        at = self.outgoing[parent_component][name]
        for parent in [p for p in parents if p not in wanted]:
            self._drop(name, parent, at,
                       parent.child_lists[at].index(child), undo)
        for parent in wanted:
            if parent in parents:
                continue
            _replace(parent.child_lists, at,
                     parent.child_lists[at] + (child,), undo)
            _replace(child.parent_lists, up,
                     child.parent_lists[up] + (parent,), undo)

    def insert_object(self, component: str, values: dict) -> CachedObject:
        name = component.upper()
        if name not in self.objects:
            raise CacheError(f"no component {component!r} in cache")
        columns = self.components_columns[name]
        row = [values.get(c) if c in values else
               values.get(c.lower()) for c in columns]
        provided = {k.upper() for k in values}
        unknown = provided - set(columns)
        if unknown:
            raise CacheError(f"unknown columns for {component}: "
                             f"{sorted(unknown)}")
        oid = ("new", next(self._new_oid_counter))
        obj = self.classes[name](self, name, oid, row)
        obj.is_new = True
        self.objects[name].append(obj)
        self.by_oid[(name, oid)] = obj
        # Only the given columns are put back, as an SQL INSERT with a
        # column list would: the others may be computed.
        self.log.append(LogEntry("insert", name, {
            "oid": oid, "values": {column: value for column, value
                                   in zip(columns, row)
                                   if column in provided},
        }))
        return obj

    def delete_object(self, obj: CachedObject) -> None:
        """Mark ``obj`` deleted and drop every connection it takes
        part in, from both ends."""
        if obj.deleted:
            return
        obj.deleted = True
        entry = LogEntry("delete", obj.component, {
            "oid": obj.oid, "is_new": obj.is_new,
            "values": obj.as_dict(),
        })
        for name, index in self.outgoing[obj.component].items():
            children = obj.child_lists[index]
            if children:
                _replace(obj.child_lists, index, (), entry.undo)
                self._unlink_children(name, obj, children, entry.undo)
        for name, index in self.incoming[obj.component].items():
            while obj.parent_lists[index]:
                parent = obj.parent_lists[index][-1]
                at = self.outgoing[parent.component][name]
                position = next(
                    i for i, item in enumerate(parent.child_lists[at])
                    if item is obj or (type(item) is tuple
                                       and obj in item))
                self._drop(name, parent, at, position, entry.undo)
        self.log.append(entry)

    def connect(self, relationship: str, parent: CachedObject,
                *children: CachedObject) -> None:
        name = self._relationship(relationship)
        expected = self.relationship_children[name]
        if len(children) != len(expected):
            raise CacheError(
                f"relationship {relationship} connects "
                f"{len(expected)} children, got {len(children)}"
            )
        if parent.component != self.relationship_parent[name]:
            raise CacheError(
                f"{parent.component} is not the parent of {relationship}"
            )
        for child, expected_name in zip(children, expected):
            if child.component != expected_name:
                raise CacheError(
                    f"{child.component} is not a child of {relationship}"
                )
        if parent.deleted or any(c.deleted for c in children):
            raise CacheError("cannot connect a deleted object")
        item = children[0] if len(children) == 1 else tuple(children)
        at = self.outgoing[parent.component][name]
        siblings = parent.child_lists[at]
        if item in siblings:
            return
        entry = LogEntry("connect", name, {
            "parent": parent, "children": tuple(children),
        })
        _replace(parent.child_lists, at, siblings + (item,), entry.undo)
        for child in children:
            up = self.incoming[child.component][name]
            _replace(child.parent_lists, up,
                     child.parent_lists[up] + (parent,), entry.undo)
        self.log.append(entry)

    def disconnect(self, relationship: str, parent: CachedObject,
                   *children: CachedObject) -> None:
        name = self._relationship(relationship)
        item = children[0] if len(children) == 1 else tuple(children)
        at = self.outgoing[parent.component].get(name)
        siblings = () if at is None else parent.child_lists[at]
        if item not in siblings:
            raise CacheError("no such connection to disconnect")
        entry = LogEntry("disconnect", name, {
            "parent": parent, "children": tuple(children),
        })
        self._drop(name, parent, at, siblings.index(item), entry.undo)
        self.log.append(entry)

    def _drop(self, name: str, parent: CachedObject, at: int,
              position: int, undo: list) -> None:
        """Unlink the connection at ``parent.child_lists[at][position]``
        (``parent``'s children along ``name``), recording each replaced
        tuple in ``undo``."""
        siblings = parent.child_lists[at]
        _replace(parent.child_lists, at,
                 siblings[:position] + siblings[position + 1:], undo)
        self._unlink_children(name, parent, (siblings[position],), undo)

    def _unlink_children(self, name: str, parent: CachedObject,
                         items: tuple, undo: list) -> None:
        """Take ``parent`` once out of the parent tuple of every child
        of the connections ``items`` (along ``name``)."""
        for item in items:
            for child in (item if type(item) is tuple else (item,)):
                up = self.incoming[child.component][name]
                parents = child.parent_lists[up]
                position = parents.index(parent)
                _replace(child.parent_lists, up,
                         parents[:position] + parents[position + 1:], undo)

    @property
    def dirty(self) -> bool:
        return bool(self.log)

    def clear_log(self) -> None:
        self.log.clear()
        for bucket in self.objects.values():
            for obj in bucket:
                obj.is_new = False
