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
from itertools import chain, repeat
from operator import add
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.expressions import (BatchKernel, BatchPredicate,
                                        CompiledExpression, join_kernel)
from repro.storage.index import HashIndex
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


def _build_buckets(join: "HashJoin | LeftOuterJoin", ctx: ExecutionContext,
                   batch_size: int) -> dict:
    """Build-side hash table of an equi-join's right input."""
    keys_of = join.right_keys
    buckets: dict[Any, list[Row]] = {}
    setdefault = buckets.setdefault
    for batch in join.right.execute_batches(ctx, batch_size):
        for key, row in zip(keys_of(batch, ctx), batch):
            if key is not None:
                setdefault(key, []).append(row)
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
        if self.with_rid:
            for chunk in self.table.scan_batches(batch_size):
                ctx.bump("rows_scanned", len(chunk))
                yield [row + (rid,) for rid, row in chunk]
        else:
            for chunk in self.table.batches(batch_size):
                ctx.bump("rows_scanned", len(chunk))
                yield chunk

    def describe(self) -> str:
        return f"TableScan({self.table.name})"


class IndexScan(PlanNode):
    """Equality access through an index; the key (a batch kernel over
    one empty row) is computed at open."""

    def __init__(self, table: Table, index: HashIndex, keys: BatchKernel,
                 with_rid: bool = False):
        columns = list(table.column_names)
        if with_rid:
            columns.append("$RID$")
        super().__init__(columns)
        self.table = table
        self.index = index
        self.keys = keys
        self.with_rid = with_rid

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        ctx.bump("index_lookups")
        pairs = self._read(ctx)
        rows = ([row + (rid,) for rid, row in pairs] if self.with_rid
                else [row for _rid, row in pairs])
        ctx.bump("rows_scanned", len(rows))
        yield from _chunked(rows, batch_size)

    def _read(self, ctx: ExecutionContext) -> list[tuple[int, Row]]:
        """The visible ``(rid, row)`` pairs the index access reads."""
        return visible_index_lookup(self.table, self.index,
                                    self.keys([()], ctx)[0])

    def describe(self) -> str:
        return (f"{type(self).__name__}({self.table.name} via "
                f"{self.index.name} on {','.join(self.index.column_names)})")


class IndexRangeScan(IndexScan):
    """Range access through a single-column index (the primary key or a
    secondary index), over the sorted key list the index builds on its
    first range read after a key change.  ``keys`` gives the ``(low,
    high)`` bound values; a NULL (or absent) bound reads open-ended.

    The range predicate stays in the filter above, so the range read
    only has to find a superset of the qualifying rows: it reads them
    in heap order, as the scan it replaces would.  A bound that does
    not evaluate, or that the keys do not compare with, reads every
    row, and the filter decides (or raises) as it does over a scan.
    Under a read view the candidates are the physical range plus every
    row the view overlays, read through the view (the physical index
    holds the uncommitted keys).
    """

    def __init__(self, table: Table, index: HashIndex, keys: BatchKernel,
                 low_inclusive: bool, high_inclusive: bool,
                 with_rid: bool = False):
        super().__init__(table, index, keys, with_rid=with_rid)
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def _read(self, ctx: ExecutionContext) -> list[tuple[int, Row]]:
        table = self.table
        view = active_read_view(table.name)
        try:
            low, high = self.keys([()], ctx)[0]
            rids = self.index.range_scan(
                None if low is None else (low,),
                None if high is None else (high,),
                self.low_inclusive, self.high_inclusive)
        except (TypeError, ExecutionError):
            return list(table.scan())
        if view is not None:
            overlaid = view.rows
            rids = [rid for rid in rids if rid not in overlaid]
            rids += [rid for rid, image in overlaid.items()
                     if image is not None]
        rids.sort()
        return table.fetch_many(rids, view=view)


class Filter(PlanNode):
    """Keeps rows whose predicate is exactly True.

    ``predicate`` is a :data:`BatchPredicate` (a batch to its kept
    rows); ``expression``, when given, is what it was compiled from,
    for the planner to fuse into a Project above.
    """

    def __init__(self, child: PlanNode, predicate: BatchPredicate,
                 description: str = "", expression=None):
        super().__init__(child.columns)
        self.child = child
        self.predicate = predicate
        self.description = description
        self.expression = expression

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        predicate = self.predicate
        for batch in self.child.execute_batches(ctx, batch_size):
            kept = predicate(batch, ctx)
            if kept:
                yield kept

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        suffix = f": {self.description}" if self.description else ""
        return f"Filter{suffix}"


class Project(PlanNode):
    """One output tuple per input row, computed by a batch kernel; a
    filter fused into the kernel (``where`` describes it) drops rows.
    A Project of its input's columns in order names them and passes
    the input batches through."""

    def __init__(self, child: PlanNode, kernel: BatchKernel,
                 columns: Sequence[str],
                 positions: Optional[tuple[int, ...]] = None,
                 where: str = ""):
        super().__init__(columns)
        self.child = child
        self.kernel = kernel
        #: Input positions when every output is a plain input column
        #: and no filter is fused.
        self.positions = positions
        self.where = where
        self.identity = positions == tuple(range(len(child.columns)))

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        stream = self.child.execute_batches(ctx, batch_size)
        if self.identity:
            return stream
        return self._projected(stream, ctx)

    def _projected(self, stream: Iterator[list[Row]],
                   ctx: ExecutionContext) -> Iterator[list[Row]]:
        kernel = self.kernel
        for batch in stream:
            out = kernel(batch, ctx)
            if out:
                yield out

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        if self.where:
            return f"FilterProject({', '.join(self.columns)}): {self.where}"
        return f"Project({', '.join(self.columns)})"


class _EmittingJoin(PlanNode):
    """An inner join whose output comprehension is one generated kernel
    (:func:`~repro.executor.expressions.join_kernel`): the full-width
    concatenation of each match, or, after :meth:`emit_head`, the
    plain-column head of the box the join was built for."""

    kind = ""

    def __init__(self, columns: Sequence[str], left: PlanNode,
                 right_width: int, with_rid: bool,
                 residual: Optional[BatchPredicate]):
        super().__init__(columns)
        self.left = left
        self.residual = residual
        self.with_rid = with_rid
        self._widths = (len(left.columns), right_width)
        #: Positions of the emitted columns over the concatenation (None:
        #: all of it).
        self.positions: Optional[tuple[int, ...]] = None
        self.emit = join_kernel(self.kind, *self._widths,
                                with_rid=with_rid)

    def emit_head(self, positions: Sequence[int],
                  columns: Sequence[str]) -> None:
        """Emit ``columns``, the given positions of the concatenated
        row, instead of the concatenation.  Only for a join without a
        residual: a residual reads the concatenation."""
        self.positions = tuple(positions)
        self.columns = list(columns)
        self.emit = join_kernel(self.kind, *self._widths, self.positions,
                                self.with_rid)

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return _full_batches(self._joined(ctx, batch_size), batch_size,
                             ctx, "rows_joined")

    def emits(self) -> str:
        """The EXPLAIN suffix naming what a head-emitting join emits."""
        if self.positions is None:
            return ""
        return f" -> ({', '.join(self.columns)})"


class HashJoin(_EmittingJoin):
    """Equi inner join: builds on the right input, probes with the left.
    Keys are batch kernels (None for a NULL key); the residual is a
    batch predicate over joined rows."""

    kind = "hash"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: BatchKernel, right_keys: BatchKernel,
                 residual: Optional[BatchPredicate] = None):
        super().__init__(list(left.columns) + list(right.columns), left,
                         len(right.columns), False, residual)
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left batch."""
        get = _build_buckets(self, ctx, batch_size).get
        keys_of = self.left_keys
        emit = self.emit
        residual = self.residual
        for batch in self.left.execute_batches(ctx, batch_size):
            # A NULL key is never a bucket key, so it finds no matches.
            joined = emit(batch, map(get, keys_of(batch, ctx)))
            if residual is not None and joined:
                joined = residual(joined, ctx)
            yield joined

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"HashJoin{self.emits()}"


class IndexNestedLoopJoin(_EmittingJoin):
    """For each outer row, probe a base-table index (the paper's
    'parent/child links' navigation, Sect. 5.1).  ``keys`` is a batch
    kernel giving each outer row's probe key tuple; the residual is a
    batch predicate over joined rows."""

    kind = "index"

    def __init__(self, left: PlanNode, table: Table, index: HashIndex,
                 keys: BatchKernel, with_rid: bool = False,
                 residual: Optional[BatchPredicate] = None):
        inner_columns = list(table.column_names)
        if with_rid:
            inner_columns.append("$RID$")
        super().__init__(list(left.columns) + inner_columns, left,
                         len(table.column_names), with_rid, residual)
        self.table = table
        self.index = index
        self.keys = keys

    def _joined(self, ctx: ExecutionContext,
                batch_size: int) -> Iterator[list[Row]]:
        """The join result of each left batch."""
        residual = self.residual
        keys_of = self.keys
        table = self.table
        index = self.index
        lookup_many = index.lookup_many
        fetch_many = table.fetch_many
        emit = self.emit
        for batch in self.left.execute_batches(ctx, batch_size):
            # Looked up once per input batch: a streaming cursor's pulls
            # may install (or drop) a committed-state read view between
            # batches as foreign writers come and go.
            view = active_read_view(table.name)
            ctx.bump("index_lookups", len(batch))
            keys = keys_of(batch, ctx)
            if view is None:
                # One probe and one heap read for the batch: each outer
                # row once per RID its key found, zipped with the fetch.
                positions, rids = lookup_many(keys)
                joined = emit(zip(map(batch.__getitem__, positions),
                                  fetch_many(rids, view=None)))
            else:
                joined = emit([(left_row, found)
                               for left_row, key in zip(batch, keys)
                               for found in visible_index_lookup(
                                   table, index, key)])
            if residual is not None and joined:
                joined = residual(joined, ctx)
            yield joined

    def children(self) -> list[PlanNode]:
        return [self.left]

    def describe(self) -> str:
        return (f"IndexNLJoin({self.table.name} via {self.index.name})"
                f"{self.emits()}")


class NestedLoopJoin(PlanNode):
    """General inner join; the right input is materialized once.  The
    condition is a batch predicate over joined rows."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 condition: Optional[BatchPredicate] = None):
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
                if condition is not None and joined:
                    joined = condition(joined, ctx)
                yield joined

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return "NestedLoopJoin" if self.condition else "CrossJoin"


class LeftOuterJoin(PlanNode):
    """LEFT OUTER JOIN; hash-based when key kernels are given (as for
    :class:`HashJoin`), else nested loops.  The residual is a batch
    predicate over one left row's joined rows."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Optional[BatchKernel],
                 right_keys: Optional[BatchKernel],
                 residual: Optional[BatchPredicate] = None):
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
        if self.left_keys is not None:
            get = _build_buckets(self, ctx, batch_size).get
            keys_of = self.left_keys

            def candidates(batch: list[Row]) -> list:
                return [get(key, ()) for key in keys_of(batch, ctx)]
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
                if residual is not None and joined:
                    joined = residual(joined, ctx)
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
    rejects the outer row.  The keys are batch kernels giving each
    row's key tuple (NULLs kept); the residual is a value kernel over
    the concatenated outer + inner row, since UNKNOWN matters here.
    """

    def __init__(self, outer: PlanNode, inner: PlanNode,
                 outer_keys: Optional[BatchKernel],
                 inner_keys: Optional[BatchKernel],
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
        if self.outer_keys is not None and self.residual is None:
            keep = self._hash_path(ctx, inner_rows)
        else:
            keep = self._scan_path(ctx, inner_rows)
        for batch in self.outer.execute_batches(ctx, batch_size):
            kept = keep(batch)
            if kept:
                yield kept

    def _hash_path(self, ctx: ExecutionContext, inner_rows: list[Row]
                   ) -> Callable[[list[Row]], list[Row]]:
        inner_keys = self.inner_keys(inner_rows, ctx) if inner_rows else []
        keys = {key for key in inner_keys if None not in key}
        inner_has_null = any(None in key for key in inner_keys)
        outer_keys = self.outer_keys
        poison = self.null_poison

        def anti_keeps(key) -> bool:
            if not inner_rows:
                return True
            if None in key:
                # NOT EXISTS: a NULL key never matches; NOT IN: UNKNOWN.
                return not poison
            if poison and inner_has_null:
                return False
            return key not in keys
        # Semi: a key with a NULL is never in ``keys``, so it never
        # matches.
        keeps = anti_keeps if self.anti else keys.__contains__
        return lambda batch: [row for row, key
                              in zip(batch, outer_keys(batch, ctx))
                              if keeps(key)]

    def _scan_path(self, ctx: ExecutionContext, inner_rows: list[Row]
                   ) -> Callable[[list[Row]], list[Row]]:
        if not inner_rows:
            # Nothing to match: semi keeps no row, anti keeps every row.
            return (lambda batch: batch) if self.anti else (lambda batch: [])
        residual = self.residual
        keys_of = self.outer_keys
        inner = list(zip(inner_rows, [()] * len(inner_rows)
                         if keys_of is None
                         else self.inner_keys(inner_rows, ctx)))

        def qualifies(outer_row: Row, outer_key: tuple) -> bool:
            matched = False
            unknown = False
            for inner_row, inner_key in inner:
                verdict = True
                for left, right in zip(outer_key, inner_key):
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

        def keep(batch: list[Row]) -> list[Row]:
            keys = repeat(()) if keys_of is None else keys_of(batch, ctx)
            return [row for row, key in zip(batch, keys)
                    if qualifies(row, key)]
        return keep

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner]

    def describe(self) -> str:
        kind = "AntiJoin" if self.anti else "SemiJoin"
        method = "hash" if self.outer_keys is not None \
            and self.residual is None else "nl"
        return f"{kind}[{method}]"


class Dedup(PlanNode):
    def __init__(self, child: PlanNode):
        super().__init__(child.columns)
        self.child = child

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        return self.pipe(self.child.execute_batches(ctx, batch_size))

    @staticmethod
    def pipe(stream: Iterator[list[Row]]) -> Iterator[list[Row]]:
        """First occurrence of every row of ``stream``, in order."""
        seen: set[Row] = set()
        for batch in stream:
            fresh = dict.fromkeys(batch)
            for row in seen.intersection(fresh):
                del fresh[row]
            if fresh:
                seen.update(fresh)
                yield list(fresh)

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
        limit = self.limit
        if limit is not None and limit <= 0:
            return
        to_skip = self.offset
        remaining = limit
        for batch in self.child.execute_batches(ctx, batch_size):
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
    """Hash aggregation.  ``keys`` is a batch kernel giving each row's
    group-key tuple (None: one global group); ``specs`` are (function,
    argument kernel, distinct) triples, where the argument kernel gives
    one value per row and None means COUNT(*)."""

    def __init__(self, child: PlanNode, keys: Optional[BatchKernel],
                 specs: list[tuple[str, Optional[BatchKernel], bool]],
                 columns: Sequence[str]):
        super().__init__(columns)
        self.child = child
        self.keys = keys
        self.specs = specs

    def execute_batches(self, ctx: ExecutionContext,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[list[Row]]:
        states = self._states(ctx, batch_size)
        yield from _chunked(list(self._results(states)), batch_size)

    def _states(self, ctx: ExecutionContext,
                batch_size: int) -> dict[tuple, list]:
        """Group key -> one accumulator state per spec, keys in
        first-seen order.  Each input batch is grouped, then every
        group's rows of that batch are folded into the group's states in
        one step; only the states outlive the batch."""
        specs = self.specs
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
                    fold(accumulator, rows, ctx, *spec)
        return states

    def _group(self, batch: list[Row],
               ctx: ExecutionContext) -> dict[tuple, list[Row]]:
        """One batch's rows by group key, keys in first-seen order."""
        if self.keys is None:
            return {(): batch}
        groups: dict[Any, list[Row]] = defaultdict(list)
        for key, row in zip(self.keys(batch, ctx), batch):
            groups[key].append(row)
        return groups

    @staticmethod
    def _fold(state: list, rows: list[Row], ctx: ExecutionContext,
              function: str, values_of, distinct: bool) -> None:
        """Fold one group's rows of one batch into the accumulator of
        one aggregate, in input order, as one value at a time would."""
        if values_of is None:  # COUNT(*)
            state[_COUNT] += len(rows)
            return
        values = values_of(rows, ctx)
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
        if not states and self.keys is None:
            # Global aggregate over an empty input: one default row.
            states = {(): [[0, None, None, None, None] for _ in self.specs]}
        functions = [spec[0] for spec in self.specs]
        finalize = self._finalize
        for key, state in states.items():
            yield key + tuple([finalize(acc, function)
                               for acc, function in zip(state, functions)])

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
