"""Sessions: one client's view of a shared :class:`Engine`.

A session owns a transaction scope (``begin``/``commit``/``rollback``
affect only this session) and execution options (cursor ``arraysize``,
executor batch width, XNF compile options).  Statement text goes
through the engine's *shared* skeleton cache and everything compiled
through its shared plan cache, so hot statements parsed or prepared by
one session serve them all.

    engine = Engine()
    with engine.connect() as session:
        session.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        with session.cursor() as cur:
            for row in cur.execute("SELECT * FROM T WHERE a > ?", [1]):
                ...

Sessions are *not* thread-safe objects: use one session per thread.
The engine underneath is — that is the whole point of the split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.api.frontend import FrontEndStatement, statement_of, write_form
from repro.errors import CatalogError, InterfaceError, SemanticError
from repro.executor.plan_cache import ParameterizedStatement
from repro.executor.runtime import QueryResult, QueryStream
from repro.cache.manager import XNFCache, read_snapshot
from repro.cache.matview import MaterializedView
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.storage.catalog import ViewDefinition
from repro.storage.partition import (HashPartitioning, Partitioning,
                                     RangePartitioning)
from repro.storage.table import Table
from repro.storage.types import Column, type_from_name
from repro.xnf.naive import NaiveXNFEvaluator
from repro.xnf.result import COResult, XNFExecutable
from repro.xnf.translate import XNFOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.engine import Engine

ExecuteResult = Union[QueryResult, COResult, int, None]


def _partitioning_from_spec(
        spec: Optional[ast.PartitionSpec]) -> Optional[Partitioning]:
    """Convert a parsed ``PARTITION BY`` clause into a storage scheme."""
    if spec is None:
        return None
    columns = tuple(c.upper() for c in spec.columns)
    if spec.scheme == "HASH":
        return HashPartitioning(columns, spec.partitions)
    return RangePartitioning(columns[0], tuple(spec.bounds))


class _SessionWriteBack:
    """The transaction surface handed to client caches for write-back.

    Routes ``run_atomic`` through the engine's write protocol (writer
    latch + exclusive statement latch) on behalf of one session, so a
    cache write-back obeys the same serialization as any DML.
    """

    def __init__(self, session: "Session"):
        self._session = session

    @property
    def in_transaction(self) -> bool:
        return self._session.in_transaction

    def run_atomic(self, thunk):
        session = self._session
        return session.engine.write(
            session,
            lambda: session.engine.transactions.run_atomic(
                thunk, session.scope),
        )


class Session:
    """One client connection to a shared engine."""

    def __init__(self, engine: "Engine", scope: str, label: str,
                 arraysize: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 xnf_options: Optional[XNFOptions] = None):
        self.engine = engine
        self.scope = scope
        self.label = label
        #: Default ``Cursor.fetchmany`` size for cursors of this session.
        self.arraysize = arraysize if arraysize and arraysize > 0 else 64
        #: Executor batch width override for this session's streams
        #: (None: the planner default).
        self.batch_size = batch_size
        self.xnf_options = xnf_options or engine.xnf_options
        #: Open cursors, so closing the session closes their streams
        #: deterministically (an abandoned half-consumed stream must not
        #: hold executor state until garbage collection).
        self._cursors: list = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close open cursors, roll back any open transaction, and
        close the session."""
        if self._closed:
            return
        for cursor in list(self._cursors):
            cursor.close()
        if self.in_transaction:
            self.engine.end_transaction(self, commit=False)
        self.engine._forget(self)
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("operation on a closed session")
        self.engine._check_open()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed and self.in_transaction:
            self.engine.end_transaction(self, commit=exc_type is None)
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"<Session {self.label} ({state})>"

    # ------------------------------------------------------------------
    # Transactions (this session's scope only)
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self.engine.transactions.in_transaction_for(self.scope)

    def begin(self) -> None:
        self._check_open()
        self.engine.begin_transaction(self)

    def commit(self) -> None:
        self._check_open()
        self.engine.end_transaction(self, commit=True)

    def rollback(self) -> None:
        self._check_open()
        self.engine.end_transaction(self, commit=False)

    def savepoint(self, name: str) -> None:
        self._check_open()
        self.engine.transactions.savepoint(name, self.scope)

    def rollback_to_savepoint(self, name: str) -> None:
        self._check_open()
        self.engine.write(
            self, lambda: self.engine.transactions.rollback_to_savepoint(
                name, self.scope))

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params=None) -> ExecuteResult:
        """Run one statement of any kind; return type depends on it.

        ``params`` binds ``?`` (sequence) or ``:name`` (mapping)
        markers for SELECT and DML statements.
        """
        self._check_open()
        return self.execute_statement(self.engine.parse(sql),
                                      params=params)

    def execute_statement(self, statement: FrontEndStatement,
                          params=None) -> ExecuteResult:
        """Run a parsed statement, or a SELECT / XNF query / UPDATE /
        DELETE the front end lifted (see :meth:`Engine.parse`)."""
        self._check_open()
        engine = self.engine
        kind = statement_of(statement)
        if isinstance(kind, ast.SelectStatement):
            return engine.read(
                self, lambda: engine.pipeline.run_select(statement,
                                                         params=params))
        if isinstance(kind, ast.XNFQuery):
            return self.run_xnf_query(statement)
        if isinstance(kind, (ast.UpdateStatement, ast.DeleteStatement)):
            return self._write_dml(
                write_form(statement, engine.pipeline.plan_cache.enabled),
                params)
        if isinstance(statement, ast.InsertStatement):
            # DML naming a view (or an XNF component path) routes to
            # the put-back translator; base tables to the plain path.
            if engine.viewupdates.handles(statement.table):
                return self._write_atomic(
                    lambda: engine.viewupdates.insert(statement, params))
            return self._write_atomic(
                lambda: engine.dml.insert(statement, params))
        if isinstance(statement, ast.AnalyzeStatement):
            return self.analyze(statement.table)
        if isinstance(statement, ast.CreateTableStatement):
            engine.write(self, lambda: self._create_table(statement))
            return None
        if isinstance(statement, ast.CreateIndexStatement):
            engine.write(self, lambda: engine.catalog.create_index(
                statement.name, statement.table, list(statement.columns),
                unique=statement.unique))
            return None
        if isinstance(statement, ast.CreateViewStatement):
            engine.write(self, lambda: self._create_view(statement))
            return None
        if isinstance(statement, ast.CreateMaterializedViewStatement):
            self.create_materialized_view(statement.name, statement.query,
                                          policy=statement.policy)
            return None
        if isinstance(statement, ast.RefreshStatement):
            return self.refresh_materialized_view(statement.name,
                                                  full=statement.full)
        if isinstance(statement, ast.DropStatement):
            engine.write(self, lambda: self._drop(statement))
            return None
        raise SemanticError(f"cannot execute {type(statement).__name__}")

    def _write_dml(self, lifted: ParameterizedStatement,
                   params) -> ExecuteResult:
        """Run a lifted UPDATE / DELETE: through the put-back translator
        when it names a view (or an XNF component path), else on the
        base table."""
        engine = self.engine
        statement = lifted.statement
        executor = engine.viewupdates \
            if engine.viewupdates.handles(statement.table) else engine.dml
        run = executor.update \
            if isinstance(statement, ast.UpdateStatement) \
            else executor.delete
        return self._write_atomic(lambda: run(lifted, params))

    def _write_atomic(self, thunk) -> ExecuteResult:
        engine = self.engine
        return engine.write(
            self, lambda: engine.transactions.run_atomic(thunk,
                                                         self.scope))

    def query(self, sql: str, params=None) -> QueryResult:
        """Run a SELECT and return its (fully materialized) result.

        Repeated queries hit the engine's auto-parameterizing plan
        cache: two calls differing only in literal constants (or bound
        parameter values) share one compiled plan — across sessions.
        """
        self._check_open()
        statement = self.engine.parse(sql)
        if not isinstance(statement_of(statement), ast.SelectStatement):
            raise SemanticError("query() expects a SELECT statement")
        engine = self.engine
        return engine.read(
            self, lambda: engine.pipeline.run_select(statement,
                                                     params=params))

    def cursor(self):
        """A DB-API-2.0-flavored cursor streaming from the batch
        executor."""
        from repro.api.cursor import Cursor
        self._check_open()
        cursor = Cursor(self)
        self._cursors.append(cursor)
        return cursor

    def _forget_cursor(self, cursor) -> None:
        if cursor in self._cursors:
            self._cursors.remove(cursor)

    def prepare(self, sql: str):
        """Parse (and pre-parameterize) a statement for repeated runs.

        The returned object's :meth:`~PreparedStatement.run` binds
        parameter values and executes through the shared plan cache,
        skipping parse *and* compile on every execution after the
        first.
        """
        from repro.api.prepared import PreparedStatement
        self._check_open()
        return PreparedStatement(self, sql, parse_statement(sql))

    def analyze(self, table: Optional[str] = None) -> int:
        """Recompute optimizer statistics (the ``ANALYZE`` statement)."""
        self._check_open()
        return self.engine.write(
            self, lambda: self.engine.stats.analyze(table))

    def execute_script(self, sql: str) -> list[ExecuteResult]:
        """Run a multi-statement script **atomically**.

        All-or-nothing for table data: a failure mid-script rolls the
        data changes of earlier statements back (in the session's own
        transaction when none is open, else to a savepoint).  DDL is
        not undo-logged and survives — documented single-writer
        simplification.
        """
        from repro.sql.parser import parse_script
        self._check_open()
        statements = parse_script(sql)
        own_txn = not self.in_transaction
        savepoint_name = None
        if own_txn:
            self.begin()
        else:
            txn = self.engine.transactions.transaction_for(self.scope)
            savepoint_name = f"__script_{len(txn.log)}"
            self.savepoint(savepoint_name)
        try:
            results = [self.execute_statement(s) for s in statements]
        except Exception:
            if own_txn:
                self.rollback()
            else:
                self.rollback_to_savepoint(savepoint_name)
            raise
        if own_txn:
            self.commit()
        return results

    # ------------------------------------------------------------------
    # Streaming (the cursor's engine-side hooks)
    # ------------------------------------------------------------------
    def _stream_select(self, statement: FrontEndStatement,
                       params=None) -> QueryStream:
        engine = self.engine
        return engine.read(
            self, lambda: engine.pipeline.stream_select(
                statement, params=params, batch_size=self.batch_size))

    def _pull(self, stream: QueryStream, want: Optional[int]
              ) -> tuple[list[tuple], bool]:
        """Pull batches from ``stream`` under one shared latch hold
        until at least ``want`` rows arrived (``None``: the rest of the
        stream).  Returns the rows and whether the stream ended."""
        self._check_open()

        def drain():
            rows: list[tuple] = []
            while want is None or len(rows) < want:
                batch = stream.next_batch()
                if batch is None:
                    return rows, True
                rows.extend(batch)
            return rows, False

        return self.engine.read(self, drain)

    # ------------------------------------------------------------------
    # DDL handlers
    # ------------------------------------------------------------------
    def _create_table(self, statement: ast.CreateTableStatement) -> None:
        catalog = self.engine.catalog
        pk = {c.upper() for c in statement.primary_key}
        columns = []
        for definition in statement.columns:
            is_pk = definition.primary_key or definition.name.upper() in pk
            columns.append(Column(
                name=definition.name.upper(),
                data_type=type_from_name(definition.type_name,
                                         definition.type_length),
                nullable=definition.nullable and not is_pk,
                primary_key=is_pk,
            ))
        partitioning = _partitioning_from_spec(statement.partition_by)
        catalog.create_table(statement.name, columns,
                             partitioning=partitioning)
        for number, fk in enumerate(statement.foreign_keys):
            name = fk.name or f"FK_{statement.name}_{number}".upper()
            catalog.add_foreign_key(
                name, statement.name, list(fk.columns),
                fk.parent_table, list(fk.parent_columns),
            )

    def _create_view(self, statement: ast.CreateViewStatement) -> None:
        view = ViewDefinition(
            name=statement.name,
            definition=statement.query,
            text="",
            is_xnf=statement.is_xnf,
            column_names=tuple(c.upper() for c in statement.column_names),
        )
        # Validate eagerly: building the QGM catches bad references.
        compiler = self.engine.pipeline.compiler
        if not statement.is_xnf:
            compiler.build_select(statement.query)
        else:
            compiler.build_xnf(statement.query, view_name=statement.name)
        self.engine.catalog.create_view(view)

    def _drop(self, statement: ast.DropStatement) -> None:
        engine = self.engine
        if statement.kind == "TABLE":
            dependent = [view.name for view in engine.matviews.views()
                         if statement.name.upper() in view.base_tables]
            if dependent:
                raise CatalogError(
                    f"cannot drop table {statement.name!r}: materialized "
                    f"views {dependent} are defined over it"
                )
            engine.catalog.drop_table(statement.name)
            engine.stats.invalidate(statement.name)
        elif statement.kind == "VIEW":
            if engine.catalog.has_view(statement.name) \
                    and engine.catalog.view(statement.name).materialized:
                raise CatalogError(
                    f"{statement.name!r} is a materialized view; use "
                    f"DROP MATERIALIZED VIEW"
                )
            engine.catalog.drop_view(statement.name)
        elif statement.kind == "MATERIALIZED VIEW":
            engine.matviews.drop(statement.name)
            engine.catalog.drop_view(statement.name)
        elif statement.kind == "INDEX":
            engine.catalog.drop_index(statement.name)
        else:  # pragma: no cover - parser restricts kinds
            raise SemanticError(f"cannot drop {statement.kind}")

    # ------------------------------------------------------------------
    # XNF entry points
    # ------------------------------------------------------------------
    def _written_xnf(self, source: Union[str, ast.XNFQuery]
                     ) -> tuple[FrontEndStatement, str]:
        """:meth:`Engine.xnf_query_of` with text parsed as written, not
        lifted: for a matview's catalog definition and the reference
        evaluator."""
        if isinstance(source, str) \
                and not self.engine.catalog.has_view(source.strip()):
            source = parse_statement(source)
        return self.engine.xnf_query_of(source)

    def _compiled_xnf(self, source: Union[str, ast.XNFQuery], use,
                      xnf_options: Optional[XNFOptions] = None):
        """``use(executable)`` of ``source``'s bound executable,
        compiled through the plan cache, under one shared latch hold."""
        self._check_open()
        engine = self.engine
        query, view_name = engine.xnf_query_of(source)
        return engine.read(self, lambda: use(engine.compile_xnf(
            query, view_name, xnf_options or self.xnf_options)))

    def xnf_executable(self, source: Union[str, ast.XNFQuery],
                       xnf_options: Optional[XNFOptions] = None,
                       ) -> XNFExecutable:
        """Compile an XNF query (text, view name, or AST) to plans,
        bound to its literals' values: ``run()`` takes no arguments."""
        return self._compiled_xnf(source, lambda executable: executable,
                                  xnf_options)

    def run_xnf_query(self, source: Union[str, FrontEndStatement]
                      ) -> COResult:
        self._check_open()
        engine = self.engine
        query, view_name = engine.xnf_query_of(source)
        # Read-through: a query equal to a registered materialized
        # view's definition is served from the materialization
        # (refreshed per its staleness policy).  The comparison uses
        # the query as written (a lifted query: its lifted form and
        # literal values): a same-shape query with other literals is a
        # different CO and must not match.
        materialized = engine.matviews.lookup_query(query)
        if materialized is not None:
            return engine.matview_read(self, materialized.read)
        return engine.read(self, lambda: engine.compile_xnf(
            query, view_name, self.xnf_options).run())

    def xnf(self, source: Union[str, ast.XNFQuery]) -> COResult:
        """Materialize a CO view (alias of :meth:`run_xnf_query`)."""
        return self.run_xnf_query(source)

    def xnf_naive(self, source: Union[str, ast.XNFQuery]) -> COResult:
        """Evaluate with the reference (unoptimized) evaluator, over
        the query as written."""
        self._check_open()
        engine = self.engine
        query, view_name = self._written_xnf(source)

        def run():
            graph = engine.pipeline.compiler.build_xnf(
                query, view_name=view_name)
            return NaiveXNFEvaluator(engine.catalog,
                                     engine.stats).evaluate(graph)
        return engine.read(self, run)

    def open_cache(self, source: Union[str, ast.XNFQuery],
                   write_through: bool = False) -> XNFCache:
        """Evaluate a CO view into a navigable client-side cache.

        The cache's ``write_back()`` applies local changes through this
        session's transaction scope under the engine's write protocol.
        With ``write_through=True`` every local mutation is put back
        immediately instead of batching until ``write_back()``.
        """
        return self._compiled_xnf(source, lambda executable: (
            XNFCache.evaluate(executable, catalog=self.engine.catalog,
                              transactions=_SessionWriteBack(self),
                              write_through=write_through)))

    def load_cache(self, path: str,
                   source: Union[str, ast.XNFQuery]) -> XNFCache:
        """Reload a cache :meth:`XNFCache.save` wrote, wired as
        :meth:`open_cache` wires one: ``source`` is the view it was
        opened on, and ``write_back()`` goes through this session's
        transaction scope under the engine's write protocol."""
        self._check_open()
        snapshot = read_snapshot(path)
        return self._compiled_xnf(source, lambda executable: (
            XNFCache.restore(snapshot, executable=executable,
                             catalog=self.engine.catalog,
                             transactions=_SessionWriteBack(self))))

    # ------------------------------------------------------------------
    # Materialized XNF views
    # ------------------------------------------------------------------
    def create_materialized_view(self, name: str,
                                 source: Union[str, ast.XNFQuery],
                                 policy: str = "eager"
                                 ) -> MaterializedView:
        """Register, evaluate and store a materialized CO view.

        The view is entered in the catalog (so its components compose
        into SQL like any XNF view's).  ``policy`` is 'eager' or
        'deferred'.  The initial materialization reads *committed*
        state, so deltas buffered on an open transaction apply exactly
        once — at that transaction's commit.
        """
        self._check_open()
        engine = self.engine
        query, _view_name = self._written_xnf(source)

        def create():
            engine.catalog._check_fresh(name)
            view = engine.matviews.create(name, query, policy=policy)
            engine.catalog.create_view(ViewDefinition(
                name=name, definition=query, text="", is_xnf=True,
                materialized=True,
            ))
            return view
        return engine.write(self, create, committed_views=True)

    def refresh_materialized_view(self, name: str,
                                  full: bool = False) -> COResult:
        """Apply queued deltas (or recompute with ``full=True``)."""
        self._check_open()
        engine = self.engine
        view = engine.matviews.get(name)
        return engine.write(self, lambda: view.refresh(full=full),
                            committed_views=True)

    def matview(self, name: str) -> COResult:
        """Read a materialized view per its staleness policy."""
        self._check_open()
        engine = self.engine
        view = engine.matviews.get(name)
        return engine.matview_read(self, view.read)

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
        from repro.compiler.pipeline import CompilationTrace
        from repro.executor.plan_cache import CacheInfo
        from repro.qgm.dump import dump_graph
        self._check_open()
        engine = self.engine
        pipeline = engine.pipeline
        statement = parse_statement(sql)
        if isinstance(statement, ast.SelectStatement):
            def run():
                trace = None
                if rewrite_trace:
                    trace = CompilationTrace()
                    compiled = pipeline.compile_select(statement,
                                                       trace=trace)
                    pipeline.plan_cache.last_info = CacheInfo(
                        status="bypass",
                        reason="rewrite trace requested")
                else:
                    compiled, _bindings = pipeline.compile_select_cached(
                        statement)
                parts = ["-- QGM (after rewrite) --",
                         dump_graph(compiled.graph),
                         "-- plan --", compiled.plan.explain()]
                if compiled.plan.join_orders:
                    parts.append("-- join order --")
                    parts.extend(record.render()
                                 for record in compiled.plan.join_orders)
                if compiled.rewrite_context is not None:
                    parts.append(
                        "-- rewrites: "
                        f"{compiled.rewrite_context.applications}"
                    )
                if trace is not None:
                    parts.append(trace.render())
                parts.append(self._explain_cache_section())
                return "\n".join(parts)
            return engine.read(self, run)
        if isinstance(statement, ast.XNFQuery):
            def run_xnf():
                executable = engine.compile_xnf(
                    *engine.xnf_query_of(statement),
                    xnf_options=self.xnf_options)
                return "\n".join(
                    ["-- XNF QGM (after semantic rewrite) --",
                     dump_graph(executable.translated.graph),
                     "-- plan --", executable.explain(),
                     self._explain_cache_section()])
            return engine.read(self, run_xnf)
        if isinstance(statement, (ast.UpdateStatement,
                                  ast.DeleteStatement)):
            # The statement as the write path takes it: lifted by the
            # front end, so a literal variant of a run write shows the
            # plan that write cached.
            lifted = write_form(engine.parse(sql),
                                pipeline.plan_cache.enabled)

            def run_dml():
                if engine.viewupdates.handles(statement.table):
                    plan = engine.viewupdates.qualification_plan(lifted)
                else:
                    write = lifted.statement
                    values = [a.value for a in
                              getattr(write, "assignments", ())]
                    plan = engine.dml.qualification_plan(
                        engine.catalog.table(write.table), write.where,
                        values, lifted.key)
                return "\n".join(["-- qualification plan --",
                                  plan.explain(),
                                  self._explain_cache_section()])
            return engine.read(self, run_dml)
        raise SemanticError(
            "EXPLAIN supports SELECT, XNF, UPDATE and DELETE statements")

    def _explain_cache_section(self) -> str:
        info = self.engine.pipeline.plan_cache.last_info
        lines = ["-- plan cache --", f"status: {info.status}"]
        if info.fingerprint:
            lines.append(f"fingerprint: {info.fingerprint}")
        if info.reason:
            lines.append(f"reason: {info.reason}")
        if info.status != "bypass":
            lines.append(f"schema_version: {info.schema_version}, "
                         f"stats_epoch: {info.stats_epoch}")
        if info.estimated_rows >= 0:
            lines.append(f"estimated_rows: ~{info.estimated_rows:.0f}")
        return "\n".join(lines)

    def table(self, name: str) -> Table:
        return self.engine.catalog.table(name)
