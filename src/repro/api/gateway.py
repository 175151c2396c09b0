"""An Object/SQL gateway over XNF views (Sect. 6, [33]).

"We can use an XNF DBMS ... to provide server services to an
object-oriented programming system running on the application site.
This idea was realized in the prototype system called 'Object/SQL
Gateway' ... providing object-oriented access to data residing in a
relational DBMS."

:class:`ObjectGateway` opens CO views as object graphs: generated
classes (via :mod:`repro.cache.objects`), extents, navigation, local
updates, and a ``commit`` that writes changes back through the view's
updatability analysis — the Persistence-DBMS/ObjectStore bridging role
the paper's introduction motivates.

The gateway rides the session surface: construct it over a
:class:`~repro.api.session.Session` (one application client) or an
:class:`~repro.api.engine.Engine` (a private session is opened).  View
commits apply through that session's transaction scope.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.engine import Engine
from repro.api.session import Session
from repro.errors import CacheError
from repro.cache.manager import XNFCache
from repro.cache.objects import bind_classes


def _session_of(target: Union[Session, Engine]) -> tuple[Session, bool]:
    """Resolve to a session, reporting whether we opened it (and thus
    own closing it)."""
    if isinstance(target, Session):
        return target, False
    if isinstance(target, Engine):
        return target.connect(label="gateway"), True
    raise TypeError(
        f"ObjectGateway expects a Session or an Engine, "
        f"not {type(target).__name__}"
    )


class ObjectView:
    """One opened CO view: classes, extents, and a unit of work."""

    def __init__(self, session: Union[Session, Engine],
                 source: str, write_through: bool = False):
        self.session, self._owns_session = _session_of(session)
        self.source = source
        self.write_through = write_through
        self.cache: XNFCache = self.session.open_cache(
            source, write_through=write_through)
        self.classes = bind_classes(self.cache)

    def close(self) -> None:
        """Release the view (closes its session if this view opened
        one, i.e. it was constructed over a bare Engine)."""
        if self._owns_session:
            self.session.close()

    # -- schema-ish access -------------------------------------------------
    def __getattr__(self, name: str):
        classes = object.__getattribute__(self, "classes")
        cls = classes.get(name.upper())
        if cls is None:
            raise AttributeError(name)
        return cls

    def extent(self, component: str):
        cls = self.classes.get(component.upper())
        if cls is None:
            raise CacheError(f"no component {component!r} in this view")
        return cls.extent

    # -- unit of work --------------------------------------------------
    @property
    def dirty(self) -> bool:
        return self.cache.dirty

    def commit(self) -> int:
        """Write local changes back to the database, atomically."""
        return self.cache.write_back()

    def refresh(self) -> None:
        """Re-extract the view (discarding local state)."""
        self.cache = self.session.open_cache(
            self.source, write_through=self.write_through)
        self.classes = bind_classes(self.cache)


class ObjectGateway:
    """Factory of object views over one session.

    Constructed over a bare ``Engine`` it opens a private session; call
    :meth:`close` (or use it as a context manager) to release it.
    """

    def __init__(self, session: Union[Session, Engine]):
        self.session, self._owns_session = _session_of(session)
        self._views: dict[str, ObjectView] = {}

    def open(self, source: str, name: Optional[str] = None,
             write_through: bool = False) -> ObjectView:
        """Open a CO view.  With ``write_through=True`` every object
        mutation is put back to the base tables immediately (full CRUD
        surface); the default defers changes until ``commit()``."""
        view = ObjectView(self.session, source,
                          write_through=write_through)
        self._views[(name or source).upper()] = view
        return view

    def view(self, name: str) -> ObjectView:
        try:
            return self._views[name.upper()]
        except KeyError:
            raise CacheError(f"no open object view {name!r}") from None

    def close(self) -> None:
        """Drop all open views; close the private session if the
        gateway opened one."""
        self._views.clear()
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "ObjectGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
