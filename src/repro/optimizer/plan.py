"""Physical query execution plan (QEP) operators.

Sect. 3.1: "each QES routine interprets one QEP operator, which takes one
or more streams of tuples as input and produces one or more streams as
output.  The adopted execution strategy, called table queue evaluation,
is a demand driven, pipelined method".

Every operator speaks one protocol, ``execute_batches(ctx,
batch_size)``: a demand-driven iterator over lists of at most
``batch_size`` value tuples, so per-row generator resumptions become
per-batch comprehensions.  :meth:`PlanNode.execute` is the one row
adaptor; it flattens the batches for callers that want rows.  The
:class:`Spool` operator is the "table queue" that lets several
consumers share one evaluation of a common subexpression — the physical
realization of the paper's multi-query optimization (Sect. 5.1).

Instrumentation counters are bumped at batch granularity.  Their totals
do not depend on the batch size for any pipeline that runs to
completion; a pipeline abandoned early (LIMIT) may have scanned up to
one extra batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from functools import reduce
from itertools import chain
from operator import add, itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.expressions import BatchPredicate, CompiledExpression
from repro.storage.index import Index
from repro.storage.table import (Table, active_read_view,
                                 visible_index_lookup)

Row = tuple

#: Default number of rows per batch in batch-at-a-time execution.
DEFAULT_BATCH_SIZE = 1024

#: Fields of an :class:`Aggregate` accumulator state: [count, sum, min,
#: max, distinct values seen (a set, or None)].
_COUNT, _SUM, _MIN, _MAX, _DISTINCT = range(5)


class ExecutionContext:
    """Per-execution state: statement parameters, spool
    materializations, scalar subquery results, and instrumentation
    counters used by the benchmarks."""

    def __init__(self) -> None:
        self.spool_cache: dict[int, list[Row]] = {}
        self.scalar_plans: dict[int, "PlanNode"] = {}
        self._scalar_values: dict[int, Any] = {}
        #: Correlated scalar results memoized per (qid, binding values).
        self._correlated_values: dict[int, dict[tuple, Any]] = {}
        #: Parameter bindings for this execution: positional markers are
        #: keyed by int index (0-based), named markers by upper-cased
        #: name.  Compiled :class:`~repro.sql.ast.Parameter` expressions
        #: resolve through :meth:`parameter` at run time, which is what
        #: lets one cached plan serve many literal bindings.
        self.parameters: dict = {}
        #: Parallel execution plumbing.  The coordinator's runtime
        #: stamps ``statement`` (the SQL AST, shipped to workers) and
        #: ``parallel_runtime`` (consulted by :class:`Gather`; None
        #: everywhere else, which makes Gather a passthrough).  Workers
        #: set ``scan_ranges`` (``id(scan node) -> morsel``) to restrict
        #: the driving scan, and ``join_build_cache`` (a dict only in
        #: worker contexts) to reuse hash-join builds across morsels.
        self.statement = None
        self.parallel_runtime = None
        self.scan_ranges: dict[int, tuple] = {}
        self.join_build_cache: Optional[dict] = None
        #: Rows per batch of the plan this context runs (stamped by
        #: ``ExecutablePlan.batches``); scalar subqueries run at it too.
        self.batch_size = DEFAULT_BATCH_SIZE
        self.counters: dict[str, int] = {
            "rows_scanned": 0,
            "index_lookups": 0,
            "spool_materializations": 0,
            "spool_reads": 0,
            "rows_joined": 0,
        }

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def parameter(self, key) -> Any:
        try:
            return self.parameters[key]
        except KeyError:
            label = f":{key}" if isinstance(key, str) else f"?{key + 1}"
            raise ExecutionError(
                f"statement parameter {label} has no bound value"
            ) from None

    def bind_parameters(self, params) -> None:
        """Merge user-supplied parameter values into this context.

        A list/tuple binds positional ``?`` markers in order; a mapping
        binds ``:name`` markers case-insensitively (int keys are taken
        as positional indices).
        """
        if params is None:
            return
        if isinstance(params, dict):
            for key, value in params.items():
                if isinstance(key, str):
                    self.parameters[key.upper()] = value
                else:
                    self.parameters[int(key)] = value
        elif isinstance(params, (list, tuple)):
            for index, value in enumerate(params):
                self.parameters[index] = value
        else:
            raise ExecutionError(
                "parameters must be a sequence (positional) or a "
                f"mapping (named), not {type(params).__name__}"
            )

    def scalar_value(self, qid: int) -> Any:
        if qid in self._scalar_values:
            return self._scalar_values[qid]
        plan = self.scalar_plans.get(qid)
        if plan is None:
            raise ExecutionError(f"no scalar subquery registered for {qid}")
        rows = list(plan.execute(self, self.batch_size))
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        value = rows[0][0] if rows else None
        self._scalar_values[qid] = value
        return value

    def correlated_scalar(self, qid: int, slots: tuple,
                          values: tuple) -> Any:
        """Evaluate a correlated scalar subquery for one outer binding.

        The subquery plan runs in a *child* context (fresh spool and
        scalar caches — a spool materialized under one binding must not
        leak into the next) with ``values`` bound to the correlation
        slots.  Results are memoized per distinct binding, so repeated
        outer values cost one execution; this is the nested re-execution
        the ScalarAggToJoin rewrite exists to avoid.
        """
        memo = self._correlated_values.setdefault(qid, {})
        if values in memo:
            return memo[values]
        plan = self.scalar_plans.get(qid)
        if plan is None:
            raise ExecutionError(f"no scalar subquery registered for {qid}")
        child = ExecutionContext()
        child.batch_size = self.batch_size
        child.scalar_plans.update(self.scalar_plans)
        child.parameters.update(self.parameters)
        for slot, value in zip(slots, values):
            child.parameters[slot] = value
        rows = list(plan.execute(child, child.batch_size))
        for counter, amount in child.counters.items():
            self.bump(counter, amount)
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        value = rows[0][0] if rows else None
        memo[values] = value
        return value

    def reset_volatile(self) -> None:
        """Clear per-run caches so a plan can be executed again."""
        self.spool_cache.clear()
        self._scalar_values.clear()
        self._correlated_values.clear()


class PlanNode(ABC):
    """Base class: produces a stream of tuples named by ``columns``."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        self.estimated_rows: float = 0.0
        #: Cumulative estimated cost (cost-model units) of producing
        #: this node's output; 0.0 when the planner didn't cost it.
        self.estimated_cost: float = 0.0

    @abstractmethod
    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        """Yield the output stream in lists of at most ``batch_size``
        rows.  Nothing runs before the first batch is pulled."""

    def execute(self, ctx: ExecutionContext,
                batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Row]:
        """The output stream row by row: :meth:`execute_batches`
        flattened, for callers that want rows."""
        for batch in self.execute_batches(ctx, batch_size):
            yield from batch

    def children(self) -> list["PlanNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        suffix = f"[~{int(self.estimated_rows)} rows]"
        if self.estimated_cost > 0:
            suffix = (f"[~{int(self.estimated_rows)} rows; "
                      f"cost ~{int(self.estimated_cost)}]")
        lines = ["  " * depth + f"{self.describe()} {suffix}"]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)


def _materialize(node: PlanNode, ctx: ExecutionContext,
                 batch_size: int) -> list[Row]:
    rows: list[Row] = []
    for batch in node.execute_batches(ctx, batch_size):
        rows.extend(batch)
    return rows


def _chunked(rows: list[Row], batch_size: int) -> Iterator[list[Row]]:
    for start in range(0, len(rows), batch_size):
        yield rows[start:start + batch_size]


def _full_batches(pieces: Iterator[list[Row]], batch_size: int,
                  ctx: ExecutionContext,
                  counter: Optional[str] = None) -> Iterator[list[Row]]:
    """Cut a stream of row lists of any length into batches of exactly
    ``batch_size`` rows (the last may be short), bumping ``counter`` by
    the rows emitted."""
    pending: list[Row] = []
    for piece in pieces:
        pending.extend(piece)
        if len(pending) >= batch_size:
            full = len(pending) - len(pending) % batch_size
            for start in range(0, full, batch_size):
                chunk = pending[start:start + batch_size]
                if counter:
                    ctx.bump(counter, len(chunk))
                yield chunk
            del pending[:full]
    if pending:
        if counter:
            ctx.bump(counter, len(pending))
        yield pending


def _positions(fns: list[CompiledExpression]) -> Optional[tuple[int, ...]]:
    """Row positions when every expression is a plain column reference
    (see :func:`~repro.executor.expressions.column_ref`), else None."""
    positions = tuple(getattr(fn, "position", None) for fn in fns)
    return None if None in positions else positions


def _column_values(fn: CompiledExpression, ctx: ExecutionContext
                   ) -> Callable[[list[Row]], list]:
    """Evaluate ``fn`` over a list of rows, as one ``itemgetter`` map
    when it is a plain column reference."""
    position = getattr(fn, "position", None)
    if position is not None:
        getter = itemgetter(position)
        return lambda rows: list(map(getter, rows))
    return lambda rows: [fn(row, ctx) for row in rows]


def _join_keys(fns: list[CompiledExpression], ctx: ExecutionContext
               ) -> Callable[[list[Row]], list]:
    """Map a list of rows to their equi-join keys: the bare value for a
    single key column, else a tuple; None whenever a component is NULL,
    since NULL keys never match."""
    if len(fns) == 1:
        return _column_values(fns[0], ctx)

    def keys(rows: list[Row]) -> list:
        result = []
        for row in rows:
            values = tuple(fn(row, ctx) for fn in fns)
            result.append(None if None in values else values)
        return result
    return keys


def _build_buckets(join: "HashJoin | LeftOuterJoin", ctx: ExecutionContext,
                   batch_size: int) -> dict:
    """Build-side hash table of an equi-join's right input.  Worker
    contexts install a ``join_build_cache`` so the (morsel-independent)
    build runs once per query, not once per morsel."""
    cache = ctx.join_build_cache
    if cache is not None:
        cached = cache.get(id(join))
        if cached is not None:
            return cached
    keys_of = _join_keys(join.right_keys, ctx)
    buckets: dict[Any, list[Row]] = {}
    setdefault = buckets.setdefault
    for batch in join.right.execute_batches(ctx, batch_size):
        for key, row in zip(keys_of(batch), batch):
            if key is not None:
                setdefault(key, []).append(row)
    if cache is not None:
        cache[id(join)] = buckets
    return buckets


class SingleRow(PlanNode):
    """One empty row: the input of a SELECT without FROM."""

    def __init__(self) -> None:
        super().__init__([])
        self.estimated_rows = 1

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        yield [()]


class TableScan(PlanNode):
    """Full scan of a heap table; optionally appends the RID column."""

    def __init__(self, table: Table, with_rid: bool = False):
        columns = list(table.column_names)
        if with_rid:
            columns.append("$RID$")
        super().__init__(columns)
        self.table = table
        self.with_rid = with_rid

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        morsel = ctx.scan_ranges.get(id(self)) if ctx.scan_ranges else None
        if self.with_rid:
            for chunk in self.table.scan_batches(batch_size, morsel=morsel):
                ctx.bump("rows_scanned", len(chunk))
                yield [row + (rid,) for rid, row in chunk]
        else:
            for chunk in self.table.batches(batch_size, morsel=morsel):
                ctx.bump("rows_scanned", len(chunk))
                yield chunk

    def describe(self) -> str:
        return f"TableScan({self.table.name})"


class IndexScan(PlanNode):
    """Equality access through an index; key values computed at open."""

    def __init__(self, table: Table, index: Index,
                 key_fns: list[CompiledExpression], with_rid: bool = False):
        columns = list(table.column_names)
        if with_rid:
            columns.append("$RID$")
        super().__init__(columns)
        self.table = table
        self.index = index
        self.key_fns = key_fns
        self.with_rid = with_rid

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        key = tuple(fn((), ctx) for fn in self.key_fns)
        ctx.bump("index_lookups")
        pairs = visible_index_lookup(self.table, self.index, key)
        rows = ([row + (rid,) for rid, row in pairs] if self.with_rid
                else [row for _rid, row in pairs])
        ctx.bump("rows_scanned", len(rows))
        yield from _chunked(rows, batch_size)

    def describe(self) -> str:
        return (f"IndexScan({self.table.name} via {self.index.name} "
                f"on {','.join(self.index.column_names)})")


class Filter(PlanNode):
    """Keeps rows whose predicate is exactly True.

    ``predicate`` is a :data:`BatchPredicate`: it maps a batch to its
    qualifying rows, in order, with comprehension fast paths and
    conjunct short-circuiting.
    """

    def __init__(self, child: PlanNode, predicate: BatchPredicate,
                 description: str = ""):
        super().__init__(child.columns)
        self.child = child
        self.predicate = predicate
        self.description = description

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.pipe(self.child.execute_batches(ctx, batch_size), ctx)

    def pipe(self, stream: Iterator[list[Row]],
             ctx: ExecutionContext) -> Iterator[list[Row]]:
        """Apply this operator to any batch stream (the parallel
        coordinator replays it over merged worker output)."""
        predicate = self.predicate
        for batch in stream:
            kept = predicate(batch, ctx)
            if kept:
                yield kept

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        suffix = f": {self.description}" if self.description else ""
        return f"Filter{suffix}"


class Project(PlanNode):
    def __init__(self, child: PlanNode, fns: list[CompiledExpression],
                 columns: Sequence[str]):
        super().__init__(columns)
        self.child = child
        self.fns = fns
        #: Input positions when every output is a plain input column.
        self.positions = _positions(fns)

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.pipe(self.child.execute_batches(ctx, batch_size), ctx)

    def pipe(self, stream: Iterator[list[Row]],
             ctx: ExecutionContext) -> Iterator[list[Row]]:
        fns = self.fns
        if len(fns) == 1:
            fn = fns[0]
            for batch in stream:
                yield [(fn(row, ctx),) for row in batch]
        else:
            for batch in stream:
                yield [tuple(fn(row, ctx) for fn in fns) for row in batch]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


class HashJoin(PlanNode):
    """Equi inner join: builds on the right input, probes with the left."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: list[CompiledExpression],
                 right_keys: list[CompiledExpression],
                 residual: Optional[CompiledExpression] = None):
        super().__init__(list(left.columns) + list(right.columns))
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _full_batches(self._joined(ctx, batch_size), batch_size,
                             ctx, "rows_joined")

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left batch."""
        get = _build_buckets(self, ctx, batch_size).get
        keys_of = _join_keys(self.left_keys, ctx)
        residual = self.residual
        for batch in self.left.execute_batches(ctx, batch_size):
            # A NULL key is never a bucket key, so it finds no matches.
            joined = [left_row + right_row
                      for left_row, key in zip(batch, keys_of(batch))
                      for right_row in get(key, ())]
            if residual is not None:
                joined = [row for row in joined
                          if residual(row, ctx) is True]
            yield joined

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "HashJoin"


class IndexNestedLoopJoin(PlanNode):
    """For each outer row, probe a base-table index (the paper's
    'parent/child links' navigation, Sect. 5.1)."""

    def __init__(self, left: PlanNode, table: Table, index: Index,
                 key_fns: list[CompiledExpression], with_rid: bool = False,
                 residual: Optional[CompiledExpression] = None):
        inner_columns = list(table.column_names)
        if with_rid:
            inner_columns.append("$RID$")
        super().__init__(list(left.columns) + inner_columns)
        self.left = left
        self.table = table
        self.index = index
        self.key_fns = key_fns
        self.with_rid = with_rid
        self.residual = residual

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _full_batches(self._joined(ctx, batch_size), batch_size,
                             ctx, "rows_joined")

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left batch."""
        residual = self.residual
        key_fns = self.key_fns
        single = len(key_fns) == 1
        key_fn = key_fns[0] if single else None
        lookup = self.index.lookup
        fetch = self.table.fetch
        with_rid = self.with_rid
        for batch in self.left.execute_batches(ctx, batch_size):
            # Re-checked per input batch: a streaming cursor's pulls may
            # install (or drop) a committed-state read view between
            # batches as foreign writers come and go.
            overlaid = active_read_view(self.table.name) is not None
            ctx.bump("index_lookups", len(batch))
            joined: list[Row] = []
            for left_row in batch:
                key = ((key_fn(left_row, ctx),) if single
                       else tuple(fn(left_row, ctx) for fn in key_fns))
                if overlaid:
                    pairs = visible_index_lookup(self.table, self.index,
                                                 key)
                else:
                    pairs = [(rid, fetch(rid)) for rid in lookup(key)]
                for rid, inner in pairs:
                    if with_rid:
                        inner = inner + (rid,)
                    row = left_row + inner
                    if residual is None or residual(row, ctx) is True:
                        joined.append(row)
            yield joined

    def children(self) -> list[PlanNode]:
        return [self.left]

    def describe(self) -> str:
        return (f"IndexNLJoin({self.table.name} via {self.index.name})")


class NestedLoopJoin(PlanNode):
    """General inner join; the right input is materialized once."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 condition: Optional[CompiledExpression] = None):
        super().__init__(list(left.columns) + list(right.columns))
        self.left = left
        self.right = right
        self.condition = condition

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _full_batches(self._joined(ctx, batch_size), batch_size,
                             ctx, "rows_joined")

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left row (one left batch times the
        right input could be large)."""
        right_rows = _materialize(self.right, ctx, batch_size)
        condition = self.condition
        for batch in self.left.execute_batches(ctx, batch_size):
            for left_row in batch:
                joined = [left_row + right_row for right_row in right_rows]
                if condition is not None:
                    joined = [row for row in joined
                              if condition(row, ctx) is True]
                yield joined

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "NestedLoopJoin" if self.condition else "CrossJoin"


class LeftOuterJoin(PlanNode):
    """LEFT OUTER JOIN; hash-based when keys given, else nested loops."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: list[CompiledExpression],
                 right_keys: list[CompiledExpression],
                 residual: Optional[CompiledExpression] = None):
        super().__init__(list(left.columns) + list(right.columns))
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self._pad = (None,) * len(right.columns)

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _full_batches(self._joined(ctx, batch_size), batch_size,
                             ctx)

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left batch, unmatched rows padded."""
        if self.left_keys:
            get = _build_buckets(self, ctx, batch_size).get
            keys_of = _join_keys(self.left_keys, ctx)

            def candidates(batch: list[Row]) -> list:
                return [get(key, ()) for key in keys_of(batch)]
        else:
            right_rows = _materialize(self.right, ctx, batch_size)

            def candidates(batch: list[Row]) -> list:
                return [right_rows] * len(batch)
        residual = self.residual
        pad = self._pad
        for batch in self.left.execute_batches(ctx, batch_size):
            out: list[Row] = []
            for left_row, matches in zip(batch, candidates(batch)):
                joined = [left_row + right_row for right_row in matches]
                if residual is not None:
                    joined = [row for row in joined
                              if residual(row, ctx) is True]
                if joined:
                    out.extend(joined)
                else:
                    out.append(left_row + pad)
            yield out

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "LeftOuterJoin"


class SemiJoin(PlanNode):
    """Semi/anti join implementing E and A quantifiers.

    Emits outer rows that have (semi) / lack (anti) a matching inner
    row.  ``null_poison`` gives NOT IN semantics: an UNKNOWN comparison
    rejects the outer row.
    """

    def __init__(self, outer: PlanNode, inner: PlanNode,
                 outer_keys: list[CompiledExpression],
                 inner_keys: list[CompiledExpression],
                 residual: Optional[CompiledExpression] = None,
                 anti: bool = False, null_poison: bool = False):
        super().__init__(outer.columns)
        self.outer = outer
        self.inner = inner
        self.outer_keys = outer_keys
        self.inner_keys = inner_keys
        self.residual = residual
        self.anti = anti
        self.null_poison = null_poison

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        inner_rows = _materialize(self.inner, ctx, batch_size)
        if self.outer_keys and self.residual is None:
            keep = self._hash_path(ctx, inner_rows)
        else:
            keep = self._scan_path(ctx, inner_rows)
        for batch in self.outer.execute_batches(ctx, batch_size):
            kept = keep(batch)
            if kept:
                yield kept

    def _hash_path(self, ctx: ExecutionContext, inner_rows: list[Row]
                   ) -> Callable[[list[Row]], list[Row]]:
        inner_keys = _join_keys(self.inner_keys, ctx)(inner_rows)
        keys = {key for key in inner_keys if key is not None}
        inner_has_null = None in inner_keys
        outer_keys = _join_keys(self.outer_keys, ctx)
        poison = self.null_poison

        def anti_keeps(key) -> bool:
            if not inner_rows:
                return True
            if key is None:
                # NOT EXISTS: a NULL key never matches; NOT IN: UNKNOWN.
                return not poison
            if poison and inner_has_null:
                return False
            return key not in keys
        # Semi: a NULL key is never in ``keys``, so it never matches.
        keeps = anti_keeps if self.anti else keys.__contains__
        return lambda batch: [row for row, key in zip(batch, outer_keys(batch))
                              if keeps(key)]

    def _scan_path(self, ctx: ExecutionContext, inner_rows: list[Row]
                   ) -> Callable[[list[Row]], list[Row]]:
        residual = self.residual
        pairs = list(zip(self.outer_keys, self.inner_keys))

        def qualifies(outer_row: Row) -> bool:
            matched = False
            unknown = False
            for inner_row in inner_rows:
                verdict = True
                for okey, ikey in pairs:
                    left = okey(outer_row, ctx)
                    right = ikey(inner_row, ctx)
                    if left is None or right is None:
                        verdict = None
                        break
                    if left != right:
                        verdict = False
                        break
                if verdict is True and residual is not None:
                    verdict = residual(outer_row + inner_row, ctx)
                if verdict is True:
                    matched = True
                    break
                if verdict is None:
                    unknown = True
            if not self.anti:
                return matched
            return not matched and not (self.null_poison and unknown)
        return lambda batch: [row for row in batch if qualifies(row)]

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner]

    def describe(self) -> str:
        kind = "AntiJoin" if self.anti else "SemiJoin"
        method = "hash" if self.outer_keys and self.residual is None else "nl"
        return f"{kind}[{method}]"


class Dedup(PlanNode):
    def __init__(self, child: PlanNode):
        super().__init__(child.columns)
        self.child = child

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.pipe(self.child.execute_batches(ctx, batch_size), ctx)

    @staticmethod
    def pipe(stream: Iterator[list[Row]],
             ctx: Optional[ExecutionContext] = None
             ) -> Iterator[list[Row]]:
        """First occurrence of every row of ``stream``, in order."""
        seen: set[Row] = set()
        add = seen.add
        for batch in stream:
            fresh = []
            for row in batch:
                if row not in seen:
                    add(row)
                    fresh.append(row)
            if fresh:
                yield fresh

    def children(self) -> list[PlanNode]:
        return [self.child]


class _SortKey:
    """NULLs-last (ascending) total order for heterogeneous values."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


class Sort(PlanNode):
    def __init__(self, child: PlanNode,
                 key_fns: list[CompiledExpression],
                 descending: list[bool]):
        super().__init__(child.columns)
        self.child = child
        self.key_fns = key_fns
        self.descending = descending

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        rows = _materialize(self.child, ctx, batch_size)
        # Stable sorts applied from the least-significant key backwards.
        for fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            rows.sort(key=lambda row: _SortKey(fn(row, ctx)), reverse=desc)
        yield from _chunked(rows, batch_size)

    def children(self) -> list[PlanNode]:
        return [self.child]


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: Optional[int],
                 offset: Optional[int]):
        super().__init__(child.columns)
        self.child = child
        self.limit = limit
        self.offset = offset or 0

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.pipe(self.child.execute_batches(ctx, batch_size), ctx)

    def pipe(self, stream: Iterator[list[Row]],
             ctx: ExecutionContext) -> Iterator[list[Row]]:
        limit = self.limit
        if limit is not None and limit <= 0:
            return
        to_skip = self.offset
        remaining = limit
        for batch in stream:
            if to_skip:
                if len(batch) <= to_skip:
                    to_skip -= len(batch)
                    continue
                batch = batch[to_skip:]
                to_skip = 0
            if remaining is None:
                yield batch
                continue
            if len(batch) > remaining:
                batch = batch[:remaining]
            remaining -= len(batch)
            yield batch
            # Stop eagerly: never pull a batch beyond the limit.
            if remaining == 0:
                return

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class SetOperation(PlanNode):
    """UNION / INTERSECT / EXCEPT with optional ALL (bag) semantics."""

    def __init__(self, operator: str, all_rows: bool, left: PlanNode,
                 right: PlanNode):
        super().__init__(left.columns)
        self.operator = operator
        self.all_rows = all_rows
        self.left = left
        self.right = right

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        if self.operator == "UNION":
            both = chain(self.left.execute_batches(ctx, batch_size),
                         self.right.execute_batches(ctx, batch_size))
            yield from both if self.all_rows else Dedup.pipe(both)
            return
        right_counts: dict[Row, int] = {}
        for batch in self.right.execute_batches(ctx, batch_size):
            for row in batch:
                right_counts[row] = right_counts.get(row, 0) + 1
        qualifies = self._qualifier(right_counts)
        for batch in self.left.execute_batches(ctx, batch_size):
            kept = [row for row in batch if qualifies(row)]
            if kept:
                yield kept

    def _qualifier(self, right_counts: dict[Row, int]
                   ) -> Callable[[Row], bool]:
        """Per-left-row verdict of INTERSECT / EXCEPT [ALL], counting
        the occurrences already seen on the left."""
        all_rows = self.all_rows
        seen: dict[Row, int] = {}
        if self.operator == "INTERSECT":
            def qualifies(row: Row) -> bool:
                count = seen.get(row, 0)
                available = right_counts.get(row, 0)
                if count < (available if all_rows else min(available, 1)):
                    seen[row] = count + 1
                    return True
                return False
        elif self.operator == "EXCEPT":
            def qualifies(row: Row) -> bool:
                count = seen[row] = seen.get(row, 0) + 1
                if all_rows:
                    # EXCEPT ALL: occurrences beyond those matched on
                    # the right survive.
                    return count > right_counts.get(row, 0)
                return count == 1 and row not in right_counts
        else:
            raise ExecutionError(f"unknown set operator {self.operator!r}")
        return qualifies

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"{self.operator}{' ALL' if self.all_rows else ''}"


class Aggregate(PlanNode):
    """Hash aggregation.  ``specs`` are (function, argument-fn, distinct)
    triples; a None argument means COUNT(*)."""

    def __init__(self, child: PlanNode,
                 key_fns: list[CompiledExpression],
                 specs: list[tuple[str, Optional[CompiledExpression], bool]],
                 columns: Sequence[str]):
        super().__init__(columns)
        self.child = child
        self.key_fns = key_fns
        self.specs = specs
        self._key_positions = _positions(key_fns)

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        states = self._states(ctx, batch_size)
        yield from _chunked(list(self._results(states)), batch_size)

    def partial_states(self, ctx: ExecutionContext,
                       batch_size: int) -> list[tuple[tuple, list]]:
        """Per-group accumulator states *without* finalizing: the worker
        half of two-phase parallel aggregation.  States are plain
        lists/sets, so they pickle."""
        return list(self._states(ctx, batch_size).items())

    def _states(self, ctx: ExecutionContext,
                batch_size: int) -> dict[tuple, list]:
        """Group key -> one accumulator state per spec, keys in
        first-seen order.  Each input batch is grouped, then every
        group's rows of that batch are folded into the group's states in
        one step; only the states outlive the batch."""
        specs = [(function, None if argument is None
                  else _column_values(argument, ctx), distinct)
                 for function, argument, distinct in self.specs]
        states: dict[tuple, list] = {}
        fold = self._fold
        for batch in self.child.execute_batches(ctx, batch_size):
            for key, rows in self._group(batch, ctx).items():
                state = states.get(key)
                if state is None:
                    state = states[key] = [
                        [0, None, None, None, set() if distinct else None]
                        for _function, _values_of, distinct in specs]
                for accumulator, spec in zip(state, specs):
                    fold(accumulator, rows, *spec)
        return states

    def _group(self, batch: list[Row],
               ctx: ExecutionContext) -> dict[tuple, list[Row]]:
        """One batch's rows by group key, keys in first-seen order."""
        if not self.key_fns:
            return {(): batch}
        positions = self._key_positions
        groups: dict[Any, list[Row]] = defaultdict(list)
        if positions is not None and len(positions) == 1:
            position = positions[0]
            for row in batch:
                groups[row[position]].append(row)
            return {(value,): rows for value, rows in groups.items()}
        keys = (map(itemgetter(*positions), batch) if positions
                else [tuple(fn(row, ctx) for fn in self.key_fns)
                      for row in batch])
        for key, row in zip(keys, batch):
            groups[key].append(row)
        return groups

    @staticmethod
    def _fold(state: list, rows: list[Row], function: str, values_of,
              distinct: bool) -> None:
        """Fold one group's rows of one batch into the accumulator of
        one aggregate, in input order, as one value at a time would."""
        if values_of is None:  # COUNT(*)
            state[_COUNT] += len(rows)
            return
        values = values_of(rows)
        if None in values:
            values = [value for value in values if value is not None]
        if distinct:
            seen = state[_DISTINCT]
            values = [value for value in dict.fromkeys(values)
                      if value not in seen]
            seen.update(values)
        if not values:
            return
        state[_COUNT] += len(values)
        if function == "SUM" or function == "AVG":
            total = state[_SUM]
            state[_SUM] = (reduce(add, values) if total is None
                           else reduce(add, values, total))
        elif function == "MIN":
            low = min(values)
            if state[_MIN] is None or low < state[_MIN]:
                state[_MIN] = low
        elif function == "MAX":
            high = max(values)
            if state[_MAX] is None or high > state[_MAX]:
                state[_MAX] = high

    def _results(self, states: dict[tuple, list]) -> Iterator[Row]:
        if not states and not self.key_fns:
            # Global aggregate over an empty input: one default row.
            states = {(): [[0, None, None, None, None] for _ in self.specs]}
        functions = [spec[0] for spec in self.specs]
        finalize = self._finalize
        for key, state in states.items():
            yield key + tuple([finalize(acc, function)
                               for acc, function in zip(state, functions)])

    @staticmethod
    def merge_state(into: list, other: list) -> None:
        """Fold one partial accumulator into another (the coordinator
        half).  DISTINCT merges by set difference so values seen by
        several workers count once."""
        if into[_DISTINCT] is not None:
            fresh = other[_DISTINCT] - into[_DISTINCT]
            into[_DISTINCT] |= fresh
            for value in fresh:
                into[_COUNT] += 1
                into[_SUM] = value if into[_SUM] is None \
                    else into[_SUM] + value
                if into[_MIN] is None or value < into[_MIN]:
                    into[_MIN] = value
                if into[_MAX] is None or value > into[_MAX]:
                    into[_MAX] = value
            return
        into[_COUNT] += other[_COUNT]
        if other[_SUM] is not None:
            into[_SUM] = other[_SUM] if into[_SUM] is None \
                else into[_SUM] + other[_SUM]
        if other[_MIN] is not None and (into[_MIN] is None
                                        or other[_MIN] < into[_MIN]):
            into[_MIN] = other[_MIN]
        if other[_MAX] is not None and (into[_MAX] is None
                                        or other[_MAX] > into[_MAX]):
            into[_MAX] = other[_MAX]


    @staticmethod
    def _finalize(state: list, function: str):
        if function == "COUNT":
            return state[_COUNT]
        if function == "SUM":
            return state[_SUM]
        if function == "AVG":
            if state[_COUNT] == 0:
                return None
            return state[_SUM] / state[_COUNT]
        if function == "MIN":
            return state[_MIN]
        if function == "MAX":
            return state[_MAX]
        raise ExecutionError(f"unknown aggregate {function!r}")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        functions = ", ".join(spec[0] for spec in self.specs)
        return f"Aggregate[{functions}]"


class Spool(PlanNode):
    """Materialize once per execution, replay for every consumer.

    This is the table-queue realization of common-subexpression sharing:
    the XNF multi-output plans reference component derivations through
    spools so each is computed exactly once (Sect. 4.2, Fig. 5b).
    """

    _counter = 0

    def __init__(self, child: PlanNode, label: str = ""):
        super().__init__(child.columns)
        self.child = child
        Spool._counter += 1
        self.spool_id = Spool._counter
        self.label = label

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        cached = ctx.spool_cache.get(self.spool_id)
        if cached is None:
            cached = _materialize(self.child, ctx, batch_size)
            ctx.spool_cache[self.spool_id] = cached
            ctx.bump("spool_materializations")
        else:
            ctx.bump("spool_reads")
        yield from _chunked(cached, batch_size)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        suffix = f" '{self.label}'" if self.label else ""
        return f"Spool#{self.spool_id}{suffix}"


class Materialized(PlanNode):
    """A constant relation (used by tests and the cache write-back)."""

    def __init__(self, columns: Sequence[str], rows: list[Row]):
        super().__init__(columns)
        self.rows = rows
        self.estimated_rows = len(rows)

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _chunked(self.rows, batch_size)


# ----------------------------------------------------------------------
# Parallel execution (morsel-driven; see executor/parallel.py)
# ----------------------------------------------------------------------
class Exchange(PlanNode):
    """Marks the driving scan of a parallelizable plan.

    Everything below this point runs morsel-wise in worker processes
    when the Gather above engages; in serial execution (and inside the
    workers themselves) it is a pure passthrough.  Exists so ``EXPLAIN``
    shows where the plan is cut."""

    def __init__(self, child: PlanNode):
        super().__init__(child.columns)
        self.child = child
        self.estimated_rows = child.estimated_rows
        self.estimated_cost = child.estimated_cost

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.child.execute_batches(ctx, batch_size)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return "Exchange"


class Gather(PlanNode):
    """Root of a parallelizable plan: fans partition-wise morsels out to
    the engine's worker pool and merges the partial results.

    The planner wraps eligible plans when ``parallel_degree > 1``; the
    decision to actually go parallel is made per *execution* by the
    runtime installed in the context (the coordinator's).  With no
    runtime installed — serial engines, worker processes, scalar
    subquery child contexts — or when the runtime declines
    (active writer, tiny table, pool failure), execution falls through
    to the child, bit-identical to the serial plan."""

    def __init__(self, child: PlanNode, degree: int):
        super().__init__(child.columns)
        self.child = child
        self.degree = degree
        self.estimated_rows = child.estimated_rows
        self.estimated_cost = child.estimated_cost

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        runtime = ctx.parallel_runtime
        if runtime is not None:
            batches = runtime.execute_gather(self, ctx, batch_size)
            if batches is not None:
                yield from batches
                return
        yield from self.child.execute_batches(ctx, batch_size)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Gather(degree={self.degree})"
