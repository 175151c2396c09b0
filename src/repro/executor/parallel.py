"""Morsel-driven multi-process parallel execution.

CPython threads only interleave, so one query never used more than one
core.  This module breaks that ceiling with a coordinator/worker
design in the spirit of the morsel-driven papers:

* The planner wraps decomposable single-output SELECT plans in a
  :class:`~repro.optimizer.plan.Gather` node (``parallel_degree > 1``)
  and marks the *driving* table scan with an
  :class:`~repro.optimizer.plan.Exchange`.
* At execution, the engine's :class:`ParallelRuntime` forks a
  persistent pool of worker processes (copy-on-write replicas of the
  committed state — forking only happens under the shared statement
  latch with no uncommitted writer, so the physical image *is* the
  committed image), carves the driving table into partition-aligned
  morsels, and fans them out over per-worker task queues.
* Each worker compiles the same statement through a **fresh**
  :class:`~repro.executor.runtime.QueryPipeline` (fresh locks — never
  the coordinator's, whose plan-cache lock may be held by another
  thread at fork time).  Compilation is deterministic, so coordinator
  and worker agree on the plan shape; the worker re-derives the
  decomposition, verifies the driving table, and executes its subtree
  with the driving scan restricted to one morsel at a time.
* The coordinator merges partials back into the ordinary
  ``execute_batches`` stream protocol: concatenation for pipelined
  plans, a k-way merge for ORDER BY runs, and accumulator-state
  re-aggregation (COUNT/SUM/AVG/MIN/MAX, DISTINCT by set union) for
  GROUP BY.

Every fallback path — no fork, writer active, non-decomposable plan,
small table, pool trouble, worker plan mismatch — lands on the serial
child, which is bit-identical to the plan a serial engine produces.
"""

from __future__ import annotations

import heapq
import os
import queue
import threading
import traceback
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterator, Optional

from repro.errors import ParallelExecutionError
from repro.optimizer.plan import (Aggregate, Dedup, Exchange, Filter, Gather,
                                  HashJoin, IndexNestedLoopJoin,
                                  LeftOuterJoin, Limit, NestedLoopJoin,
                                  PlanNode, Project, SemiJoin, Sort,
                                  TableScan)

__all__ = ["Decomposition", "ParallelRuntime", "decompose", "wrap_parallel"]

#: Test hook: set to a string in the parent before the pool forks and
#: every worker raises ``RuntimeError(value)`` on its first morsel —
#: the only way to exercise worker-error propagation from outside.
_WORKER_FAULT: Optional[str] = None

#: Minimum rows per morsel; below this, fan-out overhead dominates.
MIN_MORSEL_ROWS = 512

#: Morsels per worker to aim for (pull-based balancing granularity).
MORSELS_PER_WORKER = 4


# ----------------------------------------------------------------------
# Plan decomposition
# ----------------------------------------------------------------------
@dataclass
class Decomposition:
    """How a plan splits across the process boundary.

    ``chain`` holds the coordinator-side operators top-down (only
    ``Limit``/``Dedup``/``Project``/``Filter`` ever appear); workers
    execute ``worker_root`` with ``driving`` restricted to one morsel;
    ``merge`` names the coordinator's combine step.
    """

    chain: list
    merge: str  # "concat" | "sort" | "agg"
    worker_root: PlanNode
    driving: TableScan


_CHAIN_TYPES = (Limit, Dedup, Project, Filter)
_LEFT_JOINS = (HashJoin, NestedLoopJoin, LeftOuterJoin,
               IndexNestedLoopJoin)


def decompose(root: PlanNode) -> Optional[Decomposition]:
    """Split ``root`` into a coordinator chain, a merge step, and a
    worker subtree, or return None when the plan must stay serial.

    The walk is deterministic, so the coordinator and each worker
    (which compiles the same statement independently) derive the same
    decomposition from their structurally-identical plans.
    """
    node = root
    if isinstance(node, Gather):
        node = node.child
    stripped = node
    chain: list[PlanNode] = []
    while isinstance(node, _CHAIN_TYPES):
        chain.append(node)
        node = node.child
    if isinstance(node, Sort):
        merge = "sort"
        worker_root: PlanNode = node
        below = node.child
    elif isinstance(node, Aggregate):
        merge = "agg"
        worker_root = node
        below = node.child
    else:
        # Pipelined plan: workers run everything below the lowest
        # Limit/Dedup (those must see the union of all morsels); a
        # pure Filter/Project chain runs entirely in the workers.
        merge = "concat"
        cut = None
        for index, link in enumerate(chain):
            if isinstance(link, (Limit, Dedup)):
                cut = index
        if cut is None:
            chain = []
            worker_root = stripped
        else:
            worker_root = chain[cut].child
            chain = chain[:cut + 1]
        below = worker_root
    # The driving spine: the one input stream that may be restricted
    # per-morsel.  Join build/inner sides stay full (replicated in each
    # worker's copy-on-write image).  Any blocking or sharing operator
    # on the spine (Sort, Dedup, Spool, SetOperation, IndexScan...)
    # rejects the plan — restricting below it would be incorrect.
    while not isinstance(below, TableScan):
        if isinstance(below, (Filter, Project, Exchange)):
            below = below.child
        elif isinstance(below, _LEFT_JOINS):
            below = below.left
        elif isinstance(below, SemiJoin):
            below = below.outer
        else:
            return None
    return Decomposition(chain, merge, worker_root, below)


def wrap_parallel(node: PlanNode, degree: int) -> Optional[PlanNode]:
    """Planner hook: wrap a decomposable plan in Gather (and mark the
    driving scan with Exchange for EXPLAIN); None when not eligible."""
    decomp = decompose(node)
    if decomp is None:
        return None
    _splice_exchange(decomp)
    return Gather(node, degree)


def _splice_exchange(decomp: Decomposition) -> None:
    driving = decomp.driving
    parent = None
    attr = None
    node: PlanNode = decomp.worker_root
    while node is not driving:
        for name in ("child", "left", "outer"):
            step = getattr(node, name, None)
            if isinstance(step, PlanNode):
                if isinstance(node, Exchange):
                    return  # already marked (cached/replanned tree)
                parent, attr, node = node, name, step
                break
        else:
            return
    if parent is None or isinstance(parent, Exchange):
        return
    setattr(parent, attr, Exchange(driving))


# ----------------------------------------------------------------------
# Coordinator-side stream combinators
# ----------------------------------------------------------------------
def _rebatch(rows, batch_size: int) -> Iterator[list]:
    batch: list = []
    for row in rows:
        batch.append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _apply_chain(chain: list, stream, ctx) -> Iterator[list]:
    """Replay the coordinator-side operator chain (bottom-up) over a
    stream of merged batches, through each operator's own ``pipe``."""
    for node in reversed(chain):
        stream = node.pipe(stream, ctx)
    return stream


def _kway_merge(sort_node: Sort, runs: list[list], ctx):
    """Merge per-morsel sorted runs under the Sort node's order: per
    key ascending is NULLs-last, descending NULLs-first — exactly what
    the serial multi-pass stable sort produces."""
    key_fns = sort_node.key_fns
    descending = sort_node.descending

    def compare(a, b) -> int:
        for fn, desc in zip(key_fns, descending):
            va = fn(a, ctx)
            vb = fn(b, ctx)
            if va is None:
                c = 0 if vb is None else 1
            elif vb is None:
                c = -1
            elif va < vb:
                c = -1
            elif vb < va:
                c = 1
            else:
                c = 0
            if c:
                return -c if desc else c
        return 0

    return heapq.merge(*runs, key=cmp_to_key(compare))


class _WorkerMismatch(Exception):
    """Worker compiled a structurally different plan; go serial."""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_execute(pipeline, entry: dict, morsel: tuple):
    state = entry.get("compiled")
    if state is None:
        if _WORKER_FAULT is not None:
            raise RuntimeError(_WORKER_FAULT)
        compiled, _bindings = pipeline.compile_select_cached(
            entry["statement"])
        plan = compiled.plan
        _stream, root = plan.single_output()
        if plan.scalar_plans:
            raise _WorkerMismatch("worker plan has scalar subqueries")
        decomp = decompose(root)
        if decomp is None:
            raise _WorkerMismatch("worker plan is not decomposable")
        if decomp.driving.table.name != entry["driving"]:
            raise _WorkerMismatch(
                f"worker drives {decomp.driving.table.name!r}, "
                f"coordinator drives {entry['driving']!r}")
        ctx = plan.new_context()
        ctx.parameters = dict(entry["params"])
        # Morsel-invariant state is cached across morsels of one
        # query: hash-join builds explicitly, spools implicitly
        # (spool_cache is never reset between morsels).
        ctx.join_build_cache = {}
        state = (decomp, ctx)
        entry["compiled"] = state
    decomp, ctx = state
    ctx.scan_ranges[id(decomp.driving)] = morsel
    batch_size = entry["batch_size"]
    if decomp.merge == "agg":
        return "agg", decomp.worker_root.partial_states(ctx, batch_size)
    rows = [row
            for batch in decomp.worker_root.execute_batches(ctx, batch_size)
            for row in batch]
    return ("sorted" if decomp.merge == "sort" else "rows"), rows


def _worker_main(catalog, stats, pipeline_options,
                 task_queue, result_queue) -> None:
    """Entry point of a forked worker process.

    Builds a fresh pipeline over the inherited (copy-on-write)
    committed state; locks inherited from the parent are never
    touched.  Exits via ``os._exit`` so inherited WAL buffers and
    atexit hooks never run twice.
    """
    from repro.executor.runtime import QueryPipeline

    pipeline = QueryPipeline(catalog, stats, options=pipeline_options)
    queries: dict[int, dict] = {}
    forgotten: set[int] = set()
    while True:
        try:
            task = task_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            os._exit(0)
        kind = task[0]
        if kind == "stop":
            os._exit(0)
        elif kind == "forget":
            forgotten.add(task[1])
            queries.pop(task[1], None)
        elif kind == "query":
            _, qid, statement, params, driving, batch_size = task
            queries[qid] = {"statement": statement, "params": params,
                            "driving": driving, "batch_size": batch_size}
        elif kind == "morsel":
            _, qid, seq, morsel = task
            if qid in forgotten:
                continue
            entry = queries.get(qid)
            if entry is None:
                result_queue.put((qid, seq, "error",
                                  f"morsel for unknown query {qid}"))
                continue
            try:
                payload_kind, payload = _worker_execute(pipeline, entry,
                                                        morsel)
            except _WorkerMismatch as exc:
                result_queue.put((qid, seq, "mismatch", str(exc)))
            except Exception:
                result_queue.put((qid, seq, "error",
                                  traceback.format_exc()))
            else:
                result_queue.put((qid, seq, payload_kind, payload))


# ----------------------------------------------------------------------
# Coordinator runtime
# ----------------------------------------------------------------------
class _Pool:
    __slots__ = ("procs", "task_queues", "result_queue", "key")

    def __init__(self, procs, task_queues, result_queue, key):
        self.procs = procs
        self.task_queues = task_queues
        self.result_queue = result_queue
        self.key = key


class ParallelRuntime:
    """The engine's coordinator: owns the forked worker pool and turns
    Gather nodes into fan-out/merge executions.

    One parallel query runs at a time (``_exec_lock``); a second
    concurrent Gather simply executes serially — correct either way,
    and it keeps result routing trivial.  The pool is re-forked
    whenever the committed state has moved on since the last fork
    (schema version, any table's physical version, statistics epochs);
    mutations only happen under the exclusive statement latch while
    forks happen under the shared one, so a fork never observes a
    half-applied statement.
    """

    def __init__(self, engine):
        self.engine = engine
        self._exec_lock = threading.Lock()
        self._pool: Optional[_Pool] = None
        self._qid = 0
        self._disabled = not hasattr(os, "fork")
        #: Seconds without any worker result before the query is
        #: declared wedged (workers are liveness-checked 4x/second).
        self.result_timeout = 300.0
        self.counters = {
            "parallel_queries": 0,
            "serial_fallbacks": 0,
            "morsels_dispatched": 0,
            "morsels_cancelled": 0,
            "pool_forks": 0,
            "worker_mismatches": 0,
        }

    # -- pool lifecycle ------------------------------------------------
    def _degree(self) -> int:
        return max(int(self.engine.pipeline_options.planner.parallel_degree),
                   1)

    def _freshness_key(self) -> tuple:
        catalog = self.engine.catalog
        stats = self.engine.stats
        return (catalog.schema_version,
                sum(table.version for table in catalog.tables()),
                stats.global_epoch,
                sum(stats.table_epochs().values()))

    def _ensure_pool(self) -> Optional[_Pool]:
        """The current pool, re-forked if the committed state moved on
        or a worker died.  Caller holds ``_exec_lock``."""
        if self._disabled:
            return None
        key = self._freshness_key()
        pool = self._pool
        if pool is not None and pool.key == key \
                and all(proc.is_alive() for proc in pool.procs):
            return pool
        self._shutdown_pool()
        import multiprocessing

        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._disabled = True
            return None
        degree = self._degree()
        # Queues must be created fresh for every pool generation: a
        # queue that lived across an earlier fork may have a feeder
        # thread mid-write at fork time.
        result_queue = mp.Queue()
        task_queues = [mp.Queue() for _ in range(degree)]
        procs = []
        try:
            for index, task_queue in enumerate(task_queues):
                proc = mp.Process(
                    target=_worker_main,
                    args=(self.engine.catalog, self.engine.stats,
                          self.engine.pipeline_options, task_queue,
                          result_queue),
                    daemon=True, name=f"repro-parallel-{index}")
                proc.start()
                procs.append(proc)
        except OSError:  # pragma: no cover - fork failure (rlimit)
            for proc in procs:
                proc.terminate()
            self._disabled = True
            return None
        self.counters["pool_forks"] += 1
        self._pool = _Pool(procs, task_queues, result_queue, key)
        return self._pool

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for task_queue in pool.task_queues:
            try:
                task_queue.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for proc in pool.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for q in pool.task_queues + [pool.result_queue]:
            q.close()
            q.cancel_join_thread()

    def shutdown(self) -> None:
        """Deterministically stop the worker pool (Engine.close)."""
        acquired = self._exec_lock.acquire(timeout=5.0)
        try:
            self._shutdown_pool()
        finally:
            if acquired:
                self._exec_lock.release()

    # -- the Gather entry point ----------------------------------------
    def execute_gather(self, gather: Gather, ctx,
                       batch_size: int):
        """Batches for a Gather node, or None to decline (the Gather
        then runs its child serially).

        Cheap eligibility checks happen here; forking, dispatch, and
        merging happen lazily inside the returned generator so an
        unconsumed stream costs nothing.
        """
        if self._disabled or self.engine.closed:
            return None
        if ctx.statement is None or ctx.scalar_plans:
            return None
        if self.engine._writer_latch.owner is not None:
            # Uncommitted writes live in the physical state; a fork
            # would replicate them.  Read views keep serial reads
            # correct, so fall back.
            self.counters["serial_fallbacks"] += 1
            return None
        decomp = decompose(gather.child)
        if decomp is None:
            return None
        threshold = max(
            int(self.engine.pipeline_options.planner.parallel_row_threshold),
            2)
        if len(decomp.driving.table) < threshold:
            return None
        return self._run(gather, decomp, ctx, batch_size)

    def _run(self, gather: Gather, decomp: Decomposition, ctx,
             batch_size: int):
        done = False
        state = None
        if self._exec_lock.acquire(blocking=False):
            try:
                state = self._dispatch(decomp, ctx, batch_size)
                if state is not None:
                    try:
                        yield from self._merged_stream(decomp, state, ctx,
                                                       batch_size)
                        done = True
                    except _WorkerMismatch:
                        self.counters["worker_mismatches"] += 1
            finally:
                if state is not None:
                    self._finish(state)
                self._exec_lock.release()
        if done:
            self.counters["parallel_queries"] += 1
            return
        self.counters["serial_fallbacks"] += 1
        yield from gather.child.execute_batches(ctx, batch_size)

    # -- dispatch / collect / merge ------------------------------------
    def _dispatch(self, decomp: Decomposition, ctx,
                  batch_size: int) -> Optional[dict]:
        pool = self._ensure_pool()
        if pool is None:
            return None
        table = decomp.driving.table
        target = max(MIN_MORSEL_ROWS,
                     len(table) // (self._degree() * MORSELS_PER_WORKER))
        morsels = table.morsels(target)
        if len(morsels) < 2:
            return None
        # Drop stale results a cancelled earlier query left behind.
        while True:
            try:
                pool.result_queue.get_nowait()
            except queue.Empty:
                break
        self._qid += 1
        qid = self._qid
        header = ("query", qid, ctx.statement, dict(ctx.parameters),
                  table.name, batch_size)
        for task_queue in pool.task_queues:
            task_queue.put(header)
        for seq, morsel in enumerate(morsels):
            pool.task_queues[seq % len(pool.task_queues)].put(
                ("morsel", qid, seq, morsel))
        self.counters["morsels_dispatched"] += len(morsels)
        return {"qid": qid, "expected": len(morsels), "received": 0,
                "pool": pool}

    def _collect(self, state: dict) -> Iterator:
        """Yield worker payloads as they arrive (any morsel order)."""
        pool = state["pool"]
        waited = 0.0
        while state["received"] < state["expected"]:
            try:
                item = pool.result_queue.get(timeout=0.25)
            except queue.Empty:
                dead = [proc.name for proc in pool.procs
                        if not proc.is_alive()]
                if dead:
                    self._shutdown_pool()
                    raise ParallelExecutionError(
                        f"parallel worker(s) {', '.join(dead)} died "
                        f"mid-query; pool torn down, retry runs serially"
                    ) from None
                waited += 0.25
                if waited > self.result_timeout:
                    raise ParallelExecutionError(
                        f"no worker result within {self.result_timeout}s "
                        f"({state['received']}/{state['expected']} morsels "
                        f"done)") from None
                continue
            waited = 0.0
            qid, _seq, kind, payload = item
            if qid != state["qid"]:
                continue  # stale result of a cancelled query
            state["received"] += 1
            if kind == "error":
                raise ParallelExecutionError(
                    "parallel worker failed; original worker traceback:\n"
                    + payload)
            if kind == "mismatch":
                raise _WorkerMismatch(payload)
            yield payload

    def _merged_stream(self, decomp: Decomposition, state: dict, ctx,
                       batch_size: int) -> Iterator[list]:
        payloads = self._collect(state)
        if decomp.merge == "concat":
            raw = (payload for payload in payloads if payload)
            yield from _apply_chain(decomp.chain, raw, ctx)
        elif decomp.merge == "sort":
            runs = [payload for payload in payloads if payload]
            merged = _kway_merge(decomp.worker_root, runs, ctx)
            yield from _apply_chain(decomp.chain,
                                    _rebatch(merged, batch_size), ctx)
        else:  # agg
            aggregate: Aggregate = decomp.worker_root
            groups: dict[tuple, list] = {}
            for partial in payloads:
                for key, states in partial:
                    into = groups.get(key)
                    if into is None:
                        groups[key] = states
                    else:
                        for acc, other in zip(into, states):
                            aggregate.merge_state(acc, other)
            rows = aggregate._results(groups)
            yield from _apply_chain(decomp.chain,
                                    _rebatch(rows, batch_size), ctx)

    def _finish(self, state: dict) -> None:
        """Cancel whatever was not consumed: abandoned or early-exited
        streams broadcast a forget so queued morsels are skipped, not
        drained."""
        remaining = state["expected"] - state["received"]
        if remaining <= 0:
            return
        self.counters["morsels_cancelled"] += remaining
        pool = state["pool"]
        if self._pool is not pool:
            return  # pool already torn down
        for task_queue in pool.task_queues:
            try:
                task_queue.put(("forget", state["qid"]))
            except Exception:  # pragma: no cover - queue already broken
                pass
