"""The shared engine behind every session.

The paper positions composite-object views as a *server-side* facility
that many application clients consume through cursors and shipped
result blocks (Sect. 2, Sect. 7).  This module is that server side:
one :class:`Engine` owns everything shared — catalog, storage,
statistics, the auto-parameterizing plan cache, the materialized-view
registry and the XNF compile cache — and hands out
:class:`~repro.api.session.Session` objects (``engine.connect()``),
each with its own transaction scope, statement cache and options.

Concurrency model (read-committed, serialized writers)
======================================================

* **Writer latch** — at most one session holds uncommitted writes.  A
  session acquires the latch on its first mutating statement and keeps
  it until its transaction commits or rolls back (auto-commit
  statements release it at statement end).  A second writer blocks (in
  another thread) or fails fast with :class:`TransactionError` (same
  thread, where blocking would self-deadlock).
* **Statement latch** — a reader/writer lock scoped to single
  statements: mutations and commit/rollback run exclusive, reads (a
  statement, or one cursor fetch call) run shared.  It only guards
  physical structures (slot lists, indexes); it is never held across
  user code, so open transactions do not block readers.
* **Committed-state read views** — a reader overlapping another
  session's open write transaction sees the *committed* database: the
  writer's undo log is distilled into per-table overlays
  (:class:`~repro.storage.table.TableReadView`) installed around the
  read.  The writing session itself reads without overlays and thus
  sees its own uncommitted changes.

Change propagation
==================

The engine is the catalog's :class:`~repro.storage.catalog.ChangeSink`:
storage reports every row delta, schema change, commit phase, rollback
and materialized-view create or drop to it, and its methods below
forward each event to the write-ahead log, the transaction manager,
the statistics and the materialized views as plain sequential calls.
Row deltas are buffered on the emitting session's transaction and
published at its commit — see :mod:`repro.storage.transactions`.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Optional, Union

from repro.errors import (CatalogError, InterfaceError, SemanticError,
                          TransactionError)
from repro.api.frontend import (FrontEndStatement, SkeletonCache,
                                statement_of)
from repro.executor.dml import DMLExecutor
from repro.executor.plan_cache import ParameterizedStatement, parameterize_xnf
from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.cache.matview import MaterializedViewRegistry
from repro.qgm.model import Box
from repro.sql import ast, parser
from repro.storage.catalog import Catalog, ChangeSink, TableDelta
from repro.storage.recovery import (RecoveryReport, build_snapshot_payload,
                                    prune_snapshots, recover, wal_path,
                                    write_snapshot)
from repro.storage.stats import StatisticsManager
from repro.storage.table import TableReadView, read_views
from repro.storage.transactions import Transaction, TransactionManager
from repro.storage.wal import WriteAheadLog
from repro.xnf.result import XNFExecutable
from repro.xnf.translate import TranslatedXNF, XNFOptions, XNFTranslator


class _StatementLatch:
    """A reentrant reader/writer lock for statement execution.

    Shared for reads, exclusive for mutations.  The exclusive holder's
    thread may re-enter in either mode (a DML statement runs SELECT
    internally); plain readers may nest shared acquisitions.  Lock
    *upgrades* (shared holder requesting exclusive) are a programming
    error and raise instead of deadlocking.

    Writers announce intent: while one waits, *new* shared entries
    queue behind it (re-entries by a thread already reading do not, or
    they would deadlock against the writer waiting for them).  Without
    this, overlapping readers could keep the reader set non-empty for
    as long as they kept arriving and starve every writer.

    An uncontended entry or release is one round trip on a plain lock.
    Only waiters are woken: readers wait for writers alone, so a shared
    release notifies only when a writer waits, and an exclusive release
    only when anyone does.
    """

    def __init__(self, timeout: float):
        # Entries and releases take the plain lock directly; only
        # waiting goes through the condition built on it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._timeout = timeout
        self._readers: dict[int, int] = {}
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._readers_waiting = 0

    def _wait(self, predicate, what: str) -> None:
        if not self._cond.wait_for(predicate, timeout=self._timeout):
            raise TransactionError(
                f"timed out after {self._timeout}s waiting for {what}")

    def acquire_shared(self) -> int:
        """Enter shared; returns the token for :meth:`release_shared`."""
        tid = threading.get_ident()
        with self._mutex:
            depth = self._readers.get(tid)
            if depth:
                self._readers[tid] = depth + 1
                return tid
            if self._writer != tid and (self._writer is not None
                                        or self._writers_waiting):
                self._readers_waiting += 1
                try:
                    self._wait(lambda: self._writer is None
                               and not self._writers_waiting,
                               "a concurrent statement to finish")
                finally:
                    self._readers_waiting -= 1
            self._readers[tid] = 1
        return tid

    def release_shared(self, tid: int) -> None:
        with self._mutex:
            depth = self._readers[tid] - 1
            if depth:
                self._readers[tid] = depth
                return
            del self._readers[tid]
            if self._writers_waiting:
                self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        tid = threading.get_ident()
        with self._mutex:
            if self._writer == tid:
                self._writer_depth += 1
                return
            if self._readers.get(tid):
                raise TransactionError(
                    "cannot start a mutating statement from inside "
                    "a read (lock upgrade)")

            def free() -> bool:
                return self._writer is None and not any(
                    t != tid for t in self._readers)

            if not free():
                self._writers_waiting += 1
                try:
                    self._wait(free, "concurrent readers to finish")
                except BaseException:
                    self._writers_waiting -= 1
                    # Readers parked behind this intent re-check.
                    if self._readers_waiting:
                        self._cond.notify_all()
                    raise
                self._writers_waiting -= 1
            self._writer = tid
            self._writer_depth = 1

    def release_exclusive(self) -> None:
        with self._mutex:
            self._writer_depth -= 1
            if not self._writer_depth:
                self._writer = None
                if self._readers_waiting or self._writers_waiting:
                    self._cond.notify_all()

    @contextmanager
    def shared(self):
        tid = self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared(tid)

    @contextmanager
    def exclusive(self):
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()


class _WriterLatch:
    """Serializes *write transactions*: one uncommitted writer at most.

    Held by a session from its first write until its transaction ends.
    Waiting is only meaningful across threads; a conflict between two
    sessions driven by the same thread raises immediately (blocking
    would deadlock the thread against itself).
    """

    def __init__(self, timeout: float):
        self._cond = threading.Condition()
        self._timeout = timeout
        self.owner = None  # the Session holding uncommitted writes
        self._owner_thread: Optional[int] = None

    def acquire(self, session) -> None:
        tid = threading.get_ident()
        with self._cond:
            while self.owner is not None and self.owner is not session:
                if self._owner_thread == tid:
                    raise TransactionError(
                        f"session {self.owner.label!r} holds uncommitted "
                        f"writes on this thread; commit or roll back "
                        f"before writing through {session.label!r}"
                    )
                if not self._cond.wait(timeout=self._timeout):
                    raise TransactionError(
                        f"timed out after {self._timeout}s waiting for "
                        f"the writer latch (held by "
                        f"{self.owner.label!r})"
                    )
            self.owner = session
            self._owner_thread = tid

    def release(self, session) -> None:
        with self._cond:
            if self.owner is session:
                self.owner = None
                self._owner_thread = None
                self._cond.notify_all()


class Engine(ChangeSink):
    """Shared state of one database, serving any number of sessions."""

    def __init__(self, pipeline_options: Optional[PipelineOptions] = None,
                 xnf_options: Optional[XNFOptions] = None,
                 lock_timeout: float = 30.0,
                 path: Optional[str] = None,
                 fsync: str = "group",
                 group_window: float = 0.002,
                 checkpoint_interval: int = 0):
        """``path=None`` (the default) keeps the engine purely in
        memory — exactly the pre-durability behaviour.  With a ``path``
        the engine recovers whatever state the directory holds, then
        write-ahead-logs every commit and schema change there; see
        :mod:`repro.storage.wal` for the ``fsync`` / ``group_window``
        knobs and ``docs/DURABILITY.md`` for the full story.
        ``checkpoint_interval`` > 0 snapshots automatically every that
        many commits (``checkpoint()`` is always available manually).
        """
        self.catalog = Catalog()
        self.path = path
        self.recovery: Optional[RecoveryReport] = None
        self._wal: Optional[WriteAheadLog] = None
        self._checkpoint_interval = checkpoint_interval
        self._commits_since_checkpoint = 0
        self._checkpoint_lock = threading.Lock()
        if path is not None:
            # Recover into the fresh catalog *before* it reports to
            # this engine, so replay feeds no statistics and logs
            # nothing.
            self.recovery = recover(path, self.catalog)
        self.catalog.sink = self
        self.stats = StatisticsManager(self.catalog)
        self.transactions = TransactionManager(self.catalog)
        self.pipeline_options = pipeline_options or PipelineOptions()
        self.xnf_options = xnf_options or XNFOptions()
        self.pipeline = QueryPipeline(
            self.catalog, self.stats, self.pipeline_options,
            xnf_component_resolver=self.resolve_xnf_component,
        )
        self.dml = DMLExecutor(self.pipeline)
        # DML statements naming a view route here: lens-style put-back
        # translation to base-table mutations (local import — the
        # subsystem imports executor machinery that imports this
        # module's siblings).
        from repro.viewupdate.executor import ViewUpdateManager
        self.viewupdates = ViewUpdateManager(self)
        # A materialized view compiles its lifted definition with the
        # output optimization off: its stored form always carries
        # explicit connection streams, the form the delta engine keeps.
        matview_options = XNFOptions(
            output_optimization=False,
            apply_nf_rewrite=self.xnf_options.apply_nf_rewrite)
        self.matviews = MaterializedViewRegistry(
            self.catalog, lambda query: self.compile_xnf(
                query, "XNF", matview_options))
        self._statement_latch = _StatementLatch(lock_timeout)
        self._writer_latch = _WriterLatch(lock_timeout)
        self._sessions: list = []
        self._session_counter = itertools.count()
        self._overlay_cache: Optional[tuple] = None
        # The statement skeleton cache: one client's parse and lift of
        # a statement shape serves every literal variant, in every
        # session.  Sized with the plan cache and disabled with it.
        self.statements = SkeletonCache(
            2 * max(self.pipeline_options.plan_cache_size, 0))
        self._closed = False
        if path is not None:
            self._finish_recovery(self.recovery, fsync, group_window)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _finish_recovery(self, report: RecoveryReport, fsync: str,
                         group_window: float) -> None:
        """Complete a durable open: adopt recovered derived-state
        markers, re-register materialized views stale, and only *then*
        open the log at the recovered position (so none of this
        re-logs)."""
        self.stats.restore_epochs(report.stats_table_epochs,
                                  report.stats_global_epoch)
        # Materialized views come back *stale*: their definitions
        # recovered with the catalog, but the stored result did not —
        # the first read recomputes from the recovered base tables
        # (stale-or-correct, never a trusted pre-crash image).
        for name, policy in sorted(report.matview_policies.items()):
            view = self.catalog.view(name)
            self.matviews.create(name, view.definition, policy=policy,
                                 initial_refresh=False)
        self._wal = WriteAheadLog(
            wal_path(self.path), fsync=fsync, group_window=group_window,
            next_lsn=report.next_lsn,
            truncate_at=report.wal_truncate_at)

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The write-ahead log (None for in-memory engines)."""
        return self._wal

    # ------------------------------------------------------------------
    # The change sink: every storage event, forwarded in order
    # ------------------------------------------------------------------
    def _log(self, record: dict) -> None:
        # In-memory engines, recovery replay and the stale
        # re-registration of materialized views run with no log open.
        if self._wal is not None:
            self._wal.append(record)

    def row_delta(self, delta: TableDelta) -> None:
        if not self.transactions.buffer_delta(delta):
            self.publish(delta)

    def ddl(self, op: str, payload: dict) -> None:
        self._log({"t": "ddl", "op": op, **payload})

    def table_created(self, table) -> None:
        self.transactions.table_created(table)

    def log_commit(self, txn: Transaction) -> None:
        # The write-ahead point: before the transaction detaches and
        # before any delta is published.
        if txn.pending_deltas:
            self._log({"t": "txn", "deltas": list(txn.pending_deltas)})

    def publish(self, delta: TableDelta) -> None:
        # Statistics, then the views: a view whose maintenance raises
        # leaves the statistics current.
        self.stats.on_table_delta(delta)
        self.matviews.on_table_delta(delta)

    def committed(self, txn: Transaction) -> None:
        self._commits_since_checkpoint += 1

    def rolled_back(self, txn: Transaction) -> None:
        # Views may hold part of a commit whose publication raised, or
        # deltas published directly and then undone.  A full refresh
        # that ran while the transaction was open may also have read
        # without its overlay in non-engine code paths.  Invalidation
        # is cheap and rollbacks are rare.
        self.matviews.invalidate_all()

    def matview_created(self, name: str, policy: str) -> None:
        self._log({"t": "matview", "op": "create", "name": name,
                   "policy": policy})

    def matview_dropped(self, name: str) -> None:
        self._log({"t": "matview", "op": "drop", "name": name,
                   "policy": None})

    def _durability_barrier(self) -> None:
        """Make this thread's acknowledged work durable.

        Runs *after* the statement latch is released, so concurrent
        committers reach the log's sync barrier together and share
        fsyncs (group commit).  No-op for in-memory engines and for
        threads with nothing pending.
        """
        if self._wal is not None:
            self._wal.commit_barrier()

    def checkpoint(self) -> Optional[str]:
        """Snapshot the committed state and truncate the log.

        Returns the snapshot path (None for in-memory engines).  Safe
        at any time: open transactions are excluded via committed-state
        overlays, and their eventual commit records land *after* the
        snapshot's LSN, so replay composes.  A crash anywhere inside
        leaves either the old snapshot set or old-plus-new (snapshots
        are written atomically); stale log records below the snapshot
        LSN are skipped at replay.
        """
        self._check_open()
        if self._wal is None:
            return None
        with self._checkpoint_lock:
            with self._statement_latch.exclusive():
                with read_views(self._read_views_for(None)):
                    lsn = self._wal.last_lsn
                    self._wal.sync()
                    payload = build_snapshot_payload(
                        self.catalog, lsn, self.stats.table_epochs(),
                        self.stats.global_epoch,
                        {v.name: v.policy
                         for v in self.matviews.views()})
                    snapshot = write_snapshot(self.path, payload)
                    # Every record is covered by the snapshot (commits
                    # finish under the exclusive latch; open
                    # transactions have no records yet).
                    self._wal.truncate_through(lsn)
            prune_snapshots(self.path, lsn)
            self._commits_since_checkpoint = 0
        return snapshot

    def _maybe_checkpoint(self) -> None:
        if (self._wal is not None and self._checkpoint_interval > 0
                and self._commits_since_checkpoint
                >= self._checkpoint_interval):
            self.checkpoint()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def connect(self, label: Optional[str] = None,
                arraysize: Optional[int] = None,
                batch_size: Optional[int] = None,
                xnf_options: Optional[XNFOptions] = None):
        """Open a new session (its own transaction scope and options).

        ``arraysize`` seeds cursors' default fetchmany size;
        ``batch_size`` overrides the executor's batch width for this
        session's streams; ``xnf_options`` override the engine default
        for this session's XNF compiles.
        """
        from repro.api.session import Session
        self._check_open()
        scope = f"session-{next(self._session_counter)}"
        session = Session(
            self, scope=scope, label=label or scope,
            arraysize=arraysize, batch_size=batch_size,
            xnf_options=xnf_options,
        )
        self._sessions.append(session)
        return session

    def sessions(self) -> list:
        """The currently open sessions."""
        return list(self._sessions)

    def close(self) -> None:
        """Close every open session (rolling back their transactions),
        then the engine itself.  Idempotent."""
        if self._closed:
            return
        for session in list(self._sessions):
            session.close()
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("operation on a closed engine")

    def _forget(self, session) -> None:
        if session in self._sessions:
            self._sessions.remove(session)

    def __enter__(self) -> "Engine":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The concurrency protocol
    # ------------------------------------------------------------------
    def read(self, session, thunk):
        """Execute a read on behalf of ``session``: shared statement
        latch plus, when another session holds uncommitted writes, the
        committed-state read views."""
        self._check_open()
        latch = self._statement_latch
        token = latch.acquire_shared()
        try:
            views = self._read_views_for(session)
            if not views:
                return thunk()
            with read_views(views):
                return thunk()
        finally:
            latch.release_shared(token)

    def write(self, session, thunk, committed_views: bool = False):
        """Execute a mutating operation on behalf of ``session``.

        Acquires the writer latch (kept until the session's transaction
        ends) and runs the thunk under the exclusive statement latch.
        With ``committed_views=True`` the thunk reads through
        committed-state overlays even against the session's *own*
        uncommitted writes — the materialized-view paths need this so a
        refresh never ingests rows whose deltas are still buffered on
        an open transaction (they would be applied again at commit).
        """
        self._check_open()
        self._writer_latch.acquire(session)
        try:
            with self._statement_latch.exclusive():
                views = self._read_views_for(None) if committed_views \
                    else None
                with read_views(views):
                    result = thunk()
        finally:
            self._release_writer_if_done(session)
            # Durability barrier *outside* the latches: an auto-commit
            # statement is only acknowledged once its log record is
            # synced, and syncing here lets concurrent committers group.
            self._durability_barrier()
        self._maybe_checkpoint()
        return result

    def repartition(self, table_name: str, partitioning) -> None:
        """Rebuild ``table_name`` under ``partitioning`` (a
        :class:`~repro.storage.partition.HashPartitioning` /
        :class:`~repro.storage.partition.RangePartitioning`, or None to
        collapse back to a single unpartitioned slot array).

        Runs as DDL: exclusive statement latch, refused while any
        session holds uncommitted writes (row IDs are reassigned, which
        would invalidate that transaction's undo log), WAL-logged and
        durable before returning.
        """
        self._check_open()
        try:
            with self._statement_latch.exclusive():
                if self._writer_latch.owner is not None:
                    raise TransactionError(
                        "cannot repartition while a transaction holds "
                        "uncommitted writes")
                self.catalog.repartition_table(table_name, partitioning)
        finally:
            self._durability_barrier()

    def matview_read(self, session, thunk):
        """Read a materialized view per its staleness policy.

        Runs exclusive (a deferred read applies queued deltas, mutating
        the registry) but does *not* take the writer latch, so reads
        proceed while other sessions hold open write transactions; a
        full refresh triggered here reads the committed state through
        overlays, whoever the uncommitted writer is.
        """
        self._check_open()
        with self._statement_latch.exclusive():
            with read_views(self._read_views_for(None)):
                return thunk()

    def begin_transaction(self, session) -> None:
        """Open ``session``'s transaction.  Exclusive, like its end:
        the transaction ids and the table hooks a begin installs are
        shared by every session, and a begin racing another's commit
        could take a used id (whose read views a reader then reuses)
        or open with the hooks just removed (its writes unlogged)."""
        self._check_open()
        with self._statement_latch.exclusive():
            self.transactions.begin(session.scope)

    def end_transaction(self, session, commit: bool) -> None:
        """Commit or roll back the session's open transaction."""
        self._check_open()
        try:
            with self._statement_latch.exclusive():
                if commit:
                    self.transactions.commit(session.scope)
                else:
                    self.transactions.rollback(session.scope)
        finally:
            self._release_writer_if_done(session)
            self._durability_barrier()
        self._maybe_checkpoint()

    def _release_writer_if_done(self, session) -> None:
        try:
            txn = self.transactions.transaction_for(session.scope)
        except TransactionError:
            self._writer_latch.release(session)
            return
        # An open transaction with no undo records and no buffered
        # deltas has no uncommitted state anyone could observe (e.g. a
        # savepoint rollback undid everything); holding the latch for
        # it would block writers for nothing.
        if not txn.log and not txn.pending_deltas:
            self._writer_latch.release(session)

    def _read_views_for(self, session
                        ) -> Optional[dict[str, TableReadView]]:
        """Committed-state overlays for a read by ``session``.

        ``None`` (no overlays needed) when nobody holds uncommitted
        writes, or when the writer is the reading session itself — a
        session always sees its own writes.  Pass ``session=None`` to
        get overlays against *any* uncommitted writer (the
        materialized-view paths, which must read committed state
        unconditionally).
        """
        writer = self._writer_latch.owner
        if writer is None or writer is session:
            return None
        try:
            txn = self.transactions.transaction_for(writer.scope)
        except TransactionError:
            return None
        if not txn.log:
            return None
        return self._build_read_views(txn)

    def _build_read_views(self, txn: Transaction
                          ) -> dict[str, TableReadView]:
        """Distill an undo log into per-table committed-state overlays.

        Stable while the shared statement latch is held (the writer
        needs the exclusive latch to grow its log), and cached on
        ``(txn, len(log))`` so streaming readers pay the distillation
        once per observed log state.
        """
        key = (txn.txn_id, len(txn.log))
        cached = self._overlay_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        per_table: dict[str, dict[int, tuple]] = {}
        for record in txn.log:
            touched = per_table.setdefault(record.table_name, {})
            if record.rid not in touched:
                # First touch: ``before`` is the committed image
                # (None for an uncommitted insert).
                touched[record.rid] = record.before
        views: dict[str, TableReadView] = {}
        for name, rows in per_table.items():
            if not self.catalog.has_table(name):
                continue  # dropped mid-transaction; nothing to overlay
            table = self.catalog.table(name)
            live_delta = sum(int(image is not None)
                             - int(table.is_live_physical(rid))
                             for rid, image in rows.items())
            views[name] = TableReadView(rows, live_delta)
        self._overlay_cache = (key, views)
        return views

    # ------------------------------------------------------------------
    # The statement front end
    # ------------------------------------------------------------------
    def parse(self, sql: str) -> FrontEndStatement:
        """Text -> statement through the engine-wide skeleton cache.

        SELECT and XNF queries, UPDATE and DELETE come back lifted (a
        :class:`~repro.executor.plan_cache.ParameterizedStatement`,
        ready for the plan cache), other kinds as their parsed AST.
        With the plan cache disabled nothing is cached or lifted, so
        compilation sees the literal AST.
        """
        if not self.pipeline.plan_cache.enabled:
            return parser.parse_statement(sql)
        return self.statements.parse(sql)

    # ------------------------------------------------------------------
    # Shared XNF compilation (plan-cache read-through)
    # ------------------------------------------------------------------
    def compile_xnf(self, query: Union[ast.XNFQuery,
                                       ParameterizedStatement],
                    view_name: str,
                    xnf_options: Optional[XNFOptions] = None
                    ) -> XNFExecutable:
        """Compile an XNF query through the shared plan cache: the one
        compile entry point of every XNF consumer.

        The query is auto-parameterized first, so every literal variant
        of one CO-query shape (``dno BETWEEN 3 AND 5``, ``... 7 AND 9``)
        shares one executable across *all* sessions; a query the front
        end lifted already is taken as it is.  The executable comes back
        bound to the lifted literals' values (see
        :meth:`XNFExecutable.bind`): ``run()`` needs no arguments, and
        code evaluating its predicates outside a plan does so against
        ``executable.new_context()``.  With the cache disabled a literal
        query is not lifted and compiles with empty bindings.
        """
        options = xnf_options or self.xnf_options
        if not isinstance(query, ParameterizedStatement):
            query = parameterize_xnf(query) \
                if self.pipeline.plan_cache.enabled \
                else ParameterizedStatement(query, key=query)
        bindings = query.bindings
        # Entries invalidate with the catalog schema version (view/DDL
        # changes) and the statistics epoch like any cached plan.
        key = self.pipeline.cache_key(
            "xnf", query.key, view_name, options.output_optimization,
            options.apply_nf_rewrite)
        executable = self.pipeline.cached_compile(
            key,
            lambda: XNFExecutable(
                self._translate_xnf(query.statement, view_name, options),
                self.catalog, self.stats, self.pipeline_options.planner,
                bindings=bindings),
            tables_of=lambda executable: self.pipeline.graph_tables(
                executable.translated.graph),
        )
        return executable.bind(bindings)

    def _translate_xnf(self, query: ast.XNFQuery, view_name: str,
                       options: XNFOptions) -> TranslatedXNF:
        """Build an XNF query's QGM and translate it (Sect. 4), with no
        plan-cache read."""
        compiler = self.pipeline.compiler
        return XNFTranslator(self.catalog, options,
                             compiler=compiler).translate(
            compiler.build_xnf(query, view_name=view_name))

    def translate_xnf_component(self, view, component: str) -> tuple:
        """``(translation, component info)`` of one component of the
        stored XNF view ``view``.  Translated afresh, not read through
        the plan cache: the caller splices the component's box into
        another graph."""
        translated = self._translate_xnf(view.definition, view.name,
                                         self.xnf_options)
        info = translated.components.get(component.upper())
        if info is None:
            raise CatalogError(
                f"XNF view {view.name!r} has no component {component!r}")
        return translated, info

    def resolve_xnf_component(self, view_name: str,
                              component: str) -> Box:
        """FROM-clause hook: ``viewname.component`` resolves to the
        component's reachability-restricted derivation — XNF's closure
        under composition (Sect. 2)."""
        view = self.catalog.view(view_name)
        if not view.is_xnf:
            raise SemanticError(f"{view_name!r} is not an XNF view")
        translated, info = self.translate_xnf_component(view, component)
        if translated.recursive:
            raise SemanticError(
                "components of recursive XNF views cannot be composed "
                "into other queries"
            )
        return info.final_box

    def xnf_query_of(self, source: Union[str, FrontEndStatement]
                     ) -> tuple[FrontEndStatement, str]:
        """``(query, view name)`` for an XNF view name, query text or
        query AST.

        A view name gives the view's stored (literal) definition; text
        goes through the front end, so it may come back lifted.  Either
        form goes to :meth:`compile_xnf` as it is.
        """
        if isinstance(source, str):
            text = source.strip()
            if " " not in text and self.catalog.has_view(text):
                view = self.catalog.view(text)
                if not view.is_xnf:
                    raise SemanticError(
                        f"view {text!r} is not an XNF view")
                return view.definition, view.name
            source = self.parse(source)
        if not isinstance(statement_of(source), ast.XNFQuery):
            raise SemanticError("expected an XNF query (OUT OF ... TAKE)")
        return source, "XNF"
