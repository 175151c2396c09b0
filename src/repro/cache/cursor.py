"""Cursors over the CO cache.

Sect. 2: "XNF API provides two kinds of cursors that support navigation
along the tuples of a node table (independent cursors) as well as
navigation from parent to child tuples along relationship edges
(dependent cursors)."  We add the path cursor Sect. 2's path expressions
imply: it walks a path on the CO structure and yields the (distinct)
target tuples reachable from a starting set.

All cursors are pure main-memory iterations over swizzled pointers —
no server round trips (that is the point of the cache; Sect. 5.2's
100k-tuples-per-second claim is measured on exactly these operations).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import CacheError
from repro.cache.workspace import CachedObject, Workspace


class Cursor:
    """Common positioning protocol: open/fetch/next/prev/reset."""

    def __init__(self) -> None:
        self._items: list[CachedObject] = []
        self._position = -1

    def _load(self, items: list[CachedObject]) -> None:
        self._items = items
        self._position = -1

    # -- iteration -------------------------------------------------------
    def __iter__(self) -> Iterator[CachedObject]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    # -- explicit positioning (the SQL-style cursor protocol) ------------
    def fetch_next(self) -> Optional[CachedObject]:
        if self._position + 1 >= len(self._items):
            return None
        self._position += 1
        return self._items[self._position]

    def fetch_prev(self) -> Optional[CachedObject]:
        if self._position <= 0:
            self._position = -1
            return None
        self._position -= 1
        return self._items[self._position]

    def current(self) -> Optional[CachedObject]:
        if 0 <= self._position < len(self._items):
            return self._items[self._position]
        return None

    def reset(self) -> None:
        self._position = -1

    def fetch_absolute(self, index: int) -> CachedObject:
        if not 0 <= index < len(self._items):
            raise CacheError(f"cursor position {index} out of range")
        self._position = index
        return self._items[index]


class IndependentCursor(Cursor):
    """Browses all tuples of one component table."""

    def __init__(self, workspace: Workspace, component: str):
        super().__init__()
        self.workspace = workspace
        self.component = component.upper()
        self._load(workspace.extent(component))

    def requery(self) -> None:
        """Re-snapshot the extent (after local inserts/deletes)."""
        self._load(self.workspace.extent(self.component))

    def __repr__(self) -> str:
        return f"<IndependentCursor {self.component} ({len(self)} rows)>"


class DependentCursor(Cursor):
    """Browses the children of a given parent along one relationship.

    Repositionable: ``position_on`` moves the cursor to another parent
    without rebuilding it, which is how applications iterate nested
    loops over the CO structure.
    """

    def __init__(self, workspace: Workspace, relationship: str,
                 parent: Optional[CachedObject] = None):
        super().__init__()
        self.workspace = workspace
        self.relationship = relationship.upper()
        self._parent_component, self._index = workspace.child_index(
            relationship)
        self.parent: Optional[CachedObject] = None
        if parent is not None:
            self.position_on(parent)

    def position_on(self, parent: CachedObject) -> "DependentCursor":
        expected = self._parent_component
        if parent.component != expected:
            raise CacheError(
                f"cursor over {self.relationship} expects parent "
                f"component {expected}, got {parent.component}"
            )
        self.parent = parent
        self._load(parent.child_lists[self._index])
        return self

    def __repr__(self) -> str:
        return (f"<DependentCursor {self.relationship} on "
                f"{self.parent!r} ({len(self)} children)>")


class PathCursor(Cursor):
    """Browses the distinct tuples a path expression denotes.

    The path is resolved against the CO schema graph; traversal starts
    from all tuples of the path's head component (or an explicit list)
    and follows the swizzled pointers edge by edge.
    """

    def __init__(self, workspace: Workspace, path: str,
                 start: Optional[list[CachedObject]] = None):
        super().__init__()
        self.workspace = workspace
        self.path = path
        edges = workspace.schema.resolve_path(path)
        head = path.replace("->", ".").split(".")[0].upper()
        current = start if start is not None \
            else workspace.extent(head)
        parts = [p.upper() for p in path.replace("->", ".").split(".")
                 if p.strip()]
        target_names = self._targets_along(edges, parts)
        for edge, target in zip(edges, target_names):
            parent, index = workspace.child_index(edge.name)
            next_level: list[CachedObject] = []
            seen: set[int] = set()
            for obj in current:
                if obj.component != parent:
                    continue
                for child in obj.child_lists[index]:
                    candidates = (child if isinstance(child, tuple)
                                  else (child,))
                    for candidate in candidates:
                        if candidate.component != target:
                            continue
                        if id(candidate) not in seen:
                            seen.add(id(candidate))
                            next_level.append(candidate)
            current = next_level
        self._load(current)

    @staticmethod
    def _targets_along(edges, parts) -> list[str]:
        """The child component chosen at each step of the path."""
        targets: list[str] = []
        index = 1
        for edge in edges:
            # parts[index] is either the edge name/role or the child.
            if index < len(parts) and parts[index] in (edge.name,
                                                       edge.role):
                index += 1
            if index < len(parts) and parts[index] in edge.children:
                targets.append(parts[index])
                index += 1
            else:
                targets.append(edge.children[0])
        return targets

    def __repr__(self) -> str:
        return f"<PathCursor {self.path!r} ({len(self)} rows)>"
