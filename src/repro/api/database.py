"""The public database facade — one engine plus one default session.

Historically this object *was* the whole public surface: a single
client with one implicit transaction.  The engine/session split moved
the shared state into :class:`~repro.api.engine.Engine` and the
per-client state into :class:`~repro.api.session.Session`;
``Database`` remains as a thin back-compat facade over an engine and
its default session, so existing code keeps working unchanged:

    db = Database()
    db.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, LOC VARCHAR)")
    db.execute("INSERT INTO DEPT VALUES (1, 'ARC')")
    db.execute("CREATE VIEW deps AS OUT OF ... TAKE *")
    co = db.xnf("deps")              # a materialized COResult
    cache = db.open_cache("deps")    # a navigable client cache

New code — and anything that needs concurrent clients, streaming
cursors, or explicit transaction scoping — should use the engine
surface directly:

    engine = db.engine               # or Engine() standalone
    with engine.connect() as session:
        with session.cursor() as cur:
            cur.execute("SELECT * FROM DEPT WHERE dno = ?", [1])
            rows = cur.fetchall()

The implicit-transaction methods (``begin``/``commit``/``rollback``)
emit :class:`DeprecationWarning`: they operate the *default session's*
transaction, which is ambiguous the moment a second session exists.
Use ``session.begin()`` (or a session context manager) instead.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

from repro.api.engine import Engine
from repro.api.session import ExecuteResult, Session
from repro.errors import InterfaceError
from repro.executor.runtime import PipelineOptions, QueryResult
from repro.cache.manager import XNFCache
from repro.cache.matview import MaterializedView
from repro.sql import ast
from repro.storage.table import Table
from repro.xnf.result import COResult, XNFExecutable
from repro.xnf.translate import XNFOptions

__all__ = ["Database", "ExecuteResult"]


class Database:
    """An embedded XNF-capable relational database (facade)."""

    def __init__(self, pipeline_options: Optional[PipelineOptions] = None,
                 xnf_options: Optional[XNFOptions] = None,
                 path: Optional[str] = None, **engine_options):
        self.engine = Engine(pipeline_options, xnf_options, path=path,
                             **engine_options)
        self.session: Session = self.engine.connect(label="default")

    # ------------------------------------------------------------------
    # Shared state (owned by the engine)
    # ------------------------------------------------------------------
    @property
    def catalog(self):
        return self.engine.catalog

    @property
    def stats(self):
        return self.engine.stats

    @property
    def transactions(self):
        return self.engine.transactions

    @property
    def pipeline(self):
        return self.engine.pipeline

    @property
    def pipeline_options(self) -> PipelineOptions:
        return self.engine.pipeline_options

    @property
    def xnf_options(self) -> XNFOptions:
        return self.engine.xnf_options

    @property
    def dml(self):
        return self.engine.dml

    @property
    def matviews(self):
        return self.engine.matviews

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def connect(self, **options) -> Session:
        """Open an additional session on this database's engine."""
        return self.engine.connect(**options)

    def close(self) -> None:
        """Close the engine (and with it every session)."""
        self.engine.close()

    @property
    def closed(self) -> bool:
        return self.engine.closed

    def __enter__(self) -> "Database":
        if self.closed:
            raise InterfaceError("operation on a closed engine")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def cursor(self):
        """A streaming cursor over the default session."""
        return self.session.cursor()

    # ------------------------------------------------------------------
    # Statement execution (default session)
    # ------------------------------------------------------------------
    def execute(self, sql: str, params=None) -> ExecuteResult:
        """Run one statement of any kind; return type depends on it."""
        return self.session.execute(sql, params=params)

    def execute_statement(self, statement: ast.Statement,
                          params=None) -> ExecuteResult:
        return self.session.execute_statement(statement, params=params)

    def query(self, sql: str, params=None) -> QueryResult:
        """Run a SELECT and return its result (plan-cache backed)."""
        return self.session.query(sql, params=params)

    def prepare(self, sql: str):
        """Parse (and pre-parameterize) a statement for repeated runs."""
        return self.session.prepare(sql)

    def analyze(self, table: Optional[str] = None) -> int:
        """Recompute optimizer statistics (the ``ANALYZE`` statement)."""
        return self.session.analyze(table)

    def repartition(self, table_name: str, partitioning) -> None:
        """Rebuild a table under a new partitioning scheme (or None to
        un-partition); see :meth:`repro.api.engine.Engine.repartition`."""
        self.engine.repartition(table_name, partitioning)

    def execute_script(self, sql: str) -> list[ExecuteResult]:
        """Run a multi-statement script atomically (all-or-nothing for
        table data; a mid-script failure rolls earlier statements
        back)."""
        return self.session.execute_script(sql)

    # ------------------------------------------------------------------
    # XNF entry points (default session)
    # ------------------------------------------------------------------
    def xnf_executable(self, source: Union[str, ast.XNFQuery],
                       xnf_options: Optional[XNFOptions] = None,
                       ) -> XNFExecutable:
        """Compile an XNF query (text, view name, or AST) to plans."""
        return self.session.xnf_executable(source,
                                           xnf_options=xnf_options)

    def run_xnf_query(self, source: Union[str, ast.XNFQuery]) -> COResult:
        return self.session.run_xnf_query(source)

    def xnf(self, source: Union[str, ast.XNFQuery]) -> COResult:
        """Materialize a CO view (alias of :meth:`run_xnf_query`)."""
        return self.session.xnf(source)

    def xnf_naive(self, source: Union[str, ast.XNFQuery]) -> COResult:
        """Evaluate with the reference (unoptimized) evaluator."""
        return self.session.xnf_naive(source)

    def open_cache(self, source: Union[str, ast.XNFQuery],
                   write_through: bool = False) -> XNFCache:
        """Evaluate a CO view into a navigable client-side cache."""
        return self.session.open_cache(source,
                                       write_through=write_through)

    @property
    def objects(self):
        """The object gateway over the default session (lazy)."""
        gateway = getattr(self, "_objects", None)
        if gateway is None:
            from repro.api.gateway import ObjectGateway
            gateway = self._objects = ObjectGateway(self.session)
        return gateway

    # ------------------------------------------------------------------
    # Materialized XNF views (default session)
    # ------------------------------------------------------------------
    def create_materialized_view(self, name: str,
                                 source: Union[str, ast.XNFQuery],
                                 policy: str = "eager"
                                 ) -> MaterializedView:
        return self.session.create_materialized_view(name, source,
                                                     policy=policy)

    def refresh_materialized_view(self, name: str,
                                  full: bool = False) -> COResult:
        return self.session.refresh_materialized_view(name, full=full)

    def matview(self, name: str) -> COResult:
        """Read a materialized view per its staleness policy."""
        return self.session.matview(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, sql: str, rewrite_trace: bool = False) -> str:
        """QGM graph, physical plan, and plan-cache status for a SELECT
        or XNF query; for an UPDATE or DELETE (on a table, a view or an
        XNF component), the plan qualifying the base rows it touches.

        The plan-cache section reports whether this compile hit or
        missed, the normalized statement fingerprint, and — on a miss —
        why the cached entry (if any) was invalidated.

        With ``rewrite_trace=True`` (SELECT only) the output also
        carries the compiler pipeline's per-stage QGM dumps and the
        ordered list of rewrite rules that fired; the compile bypasses
        the plan cache, since a cache hit has no rewrite to trace.
        """
        return self.session.explain(sql, rewrite_trace=rewrite_trace)

    def table(self, name: str) -> Table:
        return self.session.table(name)

    # ------------------------------------------------------------------
    # Transactions (deprecated: implicitly the default session's)
    # ------------------------------------------------------------------
    def _warn_implicit(self, method: str) -> None:
        warnings.warn(
            f"Database.{method}() drives the default session's "
            f"transaction implicitly; use engine.connect() and "
            f"session.{method}() for explicit per-client scoping",
            DeprecationWarning, stacklevel=3,
        )

    def begin(self) -> None:
        self._warn_implicit("begin")
        self.session.begin()

    def commit(self) -> None:
        self._warn_implicit("commit")
        self.session.commit()

    def rollback(self) -> None:
        self._warn_implicit("rollback")
        self.session.rollback()
