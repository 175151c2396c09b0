"""The seamless object interface (Sect. 5.2).

"XNF also allows the cache to be stored in C++ structures, allowing
seamless interface between applications and the data in the cache ...
creating classes for xemp and xdept which include a data member, whose
value is a pointer to an xemp object.  In addition to these classes we
also need a container class to hold all the instances of e.g. class
xemp."

The Python analogue: :func:`bind_classes` generates one class per
component, a slot-less subclass of
:class:`~repro.cache.workspace.CachedObject`, and re-classes the
workspace's objects (objects the workspace creates later are built as
the generated class too).  An instance *is* the cached object, so a
navigation step is a read of the object's swizzled partner tuple.  Each
class carries

* properties for every column (lower-cased attribute names),
* navigation methods per outgoing relationship (named after the role:
  ``dept.employs()``) and per incoming relationship
  (``emp.employs_parents()``), each returning the stored immutable
  tuple of the cached partner objects themselves (each write replaces
  the tuple, so one held from before a write stays as it was),
* ``update(**columns)``, ``delete()`` and ``insert_child(rel, **columns)``,
* an ``Extent`` container per class holding all instances.

A column or role whose lower-cased name is a Python keyword, or the
name of a member of the object (``oid``, ``values``, ``deleted``,
``component``, ``delete``, ``update``, ``get``, ``extent`` ...), is
exposed with a trailing ``_``: a view column ``OID`` reads and writes as
``obj.oid_`` while ``obj.oid`` stays the object identifier.

Mutations through the generated classes land in the cache's update log
like any other local change; a write-through cache puts each one back
immediately.
"""

from __future__ import annotations

import keyword
from typing import Iterator

from repro.errors import CacheError
from repro.cache.manager import XNFCache
from repro.cache.workspace import CachedObject


class Extent:
    """Container of all instances of one generated class."""

    def __init__(self, cache: XNFCache, component: str):
        self._cache = cache
        self._component = component

    def __iter__(self) -> Iterator:
        return iter(self._cache.extent(self._component))

    def __len__(self) -> int:
        return len(self._cache.extent(self._component))

    def find(self, **equalities) -> list:
        return self._cache.find(self._component, **equalities)

    def insert(self, **values):
        return self._cache.insert(self._component, **values)

    def __repr__(self) -> str:
        return f"<Extent {self._component} ({len(self)} objects)>"


def _delete(self) -> None:
    self._cache.delete(self)


def _update(self, **assignments):
    """Set several columns as one write (one put-back round trip in
    write-through mode)."""
    with self._cache.one_write():
        for column, value in assignments.items():
            self.set(column, value)
    return self


def _insert_child(self, relationship: str, **values):
    """Insert a new child object and connect it to this parent — in
    write-through mode the child row and its relationship wiring (e.g.
    foreign-key columns) land in one atomic statement."""
    cache = self._cache
    workspace = self.workspace
    name = relationship.upper()
    if name not in workspace.relationship_children:
        # Accept the role name (the navigation-method name) too.
        name = next((r for r in workspace.outgoing[self.component]
                     if (workspace.relationship_role.get(r) or "").upper()
                     == name), name)
    children = workspace.relationship_children.get(name)
    if children is None:
        raise CacheError(f"no relationship {relationship!r}")
    if len(children) != 1:
        raise CacheError(
            f"relationship {relationship} is n-ary; insert and "
            f"connect its children explicitly")

    with cache.one_write():
        child = cache.insert(children[0], **values)
        cache.connect(name, self, child)
    return child


_METHODS = {"delete": _delete, "update": _update,
            "insert_child": _insert_child}
#: names a column or role must not take over on a generated class
_RESERVED = frozenset(dir(CachedObject)) | set(_METHODS) | {
    "extent", "_cache"}


def _safe_name(name: str) -> str:
    lowered = name.lower()
    if keyword.iskeyword(lowered) or not lowered.isidentifier() \
            or lowered in _RESERVED:
        return lowered + "_"
    return lowered


def _make_column_property(column: str, position: int):
    def getter(self):
        return self.values[position]

    def setter(self, value):
        self.set(column, value)

    return property(getter, setter, doc=f"column {column}")


def _make_navigation(relationship: str, index: int, parents: bool):
    if parents:
        def navigate(self) -> tuple:
            return self.parent_lists[index]
    else:
        def navigate(self) -> tuple:
            return self.child_lists[index]
    navigate.__doc__ = (f"{'parents' if parents else 'children'} via "
                        f"relationship {relationship}")
    return navigate


def bind_classes(cache: XNFCache) -> dict[str, type]:
    """Generate component classes over a cache and make every cached
    object an instance of its component's class.

    Returns a mapping of component name -> class; each class also
    carries an ``extent`` attribute (its container).
    """
    workspace = cache.workspace
    classes: dict[str, type] = {}
    for component in workspace.component_names():
        namespace: dict = {"__slots__": (), "_cache": cache, **_METHODS}
        for position, column in enumerate(
                workspace.components_columns[component]):
            namespace[_safe_name(column)] = \
                _make_column_property(column, position)
        for parents, positions, suffix in (
                (False, workspace.outgoing, ""),
                (True, workspace.incoming, "_parents")):
            for rel_name, index in positions[component].items():
                role = workspace.relationship_role.get(rel_name) or rel_name
                namespace[_safe_name(role) + suffix] = \
                    _make_navigation(rel_name, index, parents)
        cls = type(component.capitalize(), (CachedObject,), namespace)
        cls.extent = Extent(cache, component)
        classes[component] = cls
        for obj in workspace.objects[component]:
            obj.__class__ = cls
    workspace.classes.update(classes)
    return classes
