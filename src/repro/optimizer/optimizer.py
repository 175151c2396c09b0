"""Plan optimization: QGM -> physical plan (QEP).

Implements the plan-optimization and plan-refinement stages of Fig. 2:
cost-compared access path selection (table scan vs. index scan vs.
index-nested-loop through "parent/child links"), join-order
enumeration — exhaustive left-deep dynamic programming up to
``DP_JOIN_THRESHOLD`` relations, greedy cost-ordered beyond it —
semi/anti-join realization of E/A quantifiers, and spooling of shared
boxes so common subexpressions are evaluated once (Sect. 5.1's
multi-query optimization).

``PlannerOptions`` exposes the ablation levers the benchmarks sweep
(``use_indexes``, ``share_common_subexpressions``) and
``join_order_hook`` — the debug hook the plan-equivalence differential
harness uses to force every enumerated join order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import PlanningError
from repro.executor.expressions import (RID_COLUMN, ExpressionCompiler,
                                        Layout)
from repro.optimizer.cost import CostModel
from repro.optimizer.plan import (DEFAULT_BATCH_SIZE, Aggregate, Dedup,
                                  ExecutionContext, Filter, HashJoin,
                                  IndexNestedLoopJoin, IndexRangeScan,
                                  IndexScan, LeftOuterJoin, Limit,
                                  NestedLoopJoin, PlanNode, Project, SemiJoin,
                                  SetOperation, SingleRow, Sort, Spool,
                                  TableScan)
from repro.qgm.model import (BaseBox, Box, GroupByBox, OuterJoinBox,
                             OutputStream, QGMGraph, QRef, Quantifier, RidRef,
                             SelectBox, SetOpBox, XNFBox, replace_qrefs,
                             rewrite_box_expressions, subgraph_outer_leaves,
                             walk_qgm_expression)
from repro.rewrite.nf_rules import head_keyed
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.stats import StatisticsManager

#: Join fans up to this many sources are ordered by exhaustive
#: left-deep DP (2^n subsets); wider fans are ordered greedily.
DP_JOIN_THRESHOLD = 8

#: A range comparison read from its other side.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class PlannerOptions:
    """Knobs for the optimizer; the benchmarks ablate these."""

    use_indexes: bool = True
    share_common_subexpressions: bool = True
    #: Rows per batch of the executor's batch protocol; values below 1
    #: run as 1.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Total rule firings the rewrite fixpoint may spend on one graph
    #: before raising RewriteError (naming the last-fired rule and the
    #: per-rule counts).  Raise it for pathologically deep view stacks.
    rewrite_budget: int = 10_000
    #: Debug-only hook for the plan-equivalence harness: called with
    #: the quantifier names of each join fan; returning a permutation
    #: forces that order, returning None keeps the cost-based choice.
    #: Not part of the plan-cache options signature — combine with an
    #: uncached compile.
    join_order_hook: Optional[
        Callable[[list[str]], Optional[Sequence[str]]]] = None
    #: Morsel-driven multi-process execution.  ``parallel_degree > 1``
    #: makes the planner wrap decomposable SELECT plans in a Gather
    #: node; the engine's worker pool then fans morsels of the driving
    #: scan out to that many workers.  ``1`` (the default) produces
    #: exactly the serial plans.
    parallel_degree: int = 1
    #: Driving tables with fewer (estimated) rows than this execute
    #: serially even under a Gather — fan-out overhead would dominate.
    parallel_row_threshold: int = 2048


@dataclass(frozen=True)
class JoinOrderRecord:
    """One join fan's chosen order, surfaced by ``session.explain()``."""

    #: Quantifier names, outermost (driving) source first.
    names: tuple
    #: How the order was chosen: "dp" | "greedy" | "forced".
    method: str
    estimated_rows: float
    estimated_cost: float

    def render(self) -> str:
        return (f"{' -> '.join(self.names)} [{self.method}; "
                f"~{self.estimated_rows:.0f} rows, "
                f"cost ~{self.estimated_cost:.0f}]")


@dataclass
class ExecutablePlan:
    """The finished QEP: one plan per TOP output stream."""

    outputs: list[tuple[OutputStream, PlanNode]]
    scalar_plans: dict[int, PlanNode] = field(default_factory=dict)
    #: Rows per batch, stamped from :class:`PlannerOptions`.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: One record per multi-source join fan the planner ordered
    #: (including fans inside views/subqueries), in planning order.
    join_orders: list[JoinOrderRecord] = field(default_factory=list)

    def new_context(self, params=None) -> ExecutionContext:
        ctx = ExecutionContext()
        ctx.scalar_plans.update(self.scalar_plans)
        ctx.bind_parameters(params)
        return ctx

    def single_output(self) -> tuple[OutputStream, PlanNode]:
        if len(self.outputs) != 1:
            raise PlanningError(
                f"expected a single output stream, found {len(self.outputs)}"
            )
        return self.outputs[0]

    def batches(self, node: PlanNode, ctx: ExecutionContext,
                batch_size: Optional[int] = None) -> Iterator[list[tuple]]:
        """One output node's batch stream, ``batch_size`` (default: the
        plan's) clamped to at least 1 row.  The width is stamped on
        ``ctx`` so the plan's scalar subqueries run at it too."""
        if batch_size is None:
            batch_size = self.batch_size
        ctx.batch_size = max(batch_size, 1)
        return node.execute_batches(ctx, ctx.batch_size)

    def run_node(self, node: PlanNode,
                 ctx: ExecutionContext) -> list[tuple]:
        """Materialize one output node."""
        rows: list[tuple] = []
        for batch in self.batches(node, ctx):
            rows.extend(batch)
        return rows

    def execute(self, ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Run the single output stream to completion."""
        if ctx is None:
            ctx = self.new_context()
        _stream, node = self.single_output()
        return self.run_node(node, ctx)

    def explain(self) -> str:
        parts = []
        for stream, node in self.outputs:
            parts.append(f"output {stream.name}:")
            parts.append(node.explain(1))
        return "\n".join(parts)


@dataclass
class _Source:
    """One joinable input of a select box during join enumeration."""

    quantifier: Quantifier
    node: PlanNode
    layout: Layout
    rows: float
    with_rid: bool = False
    #: Estimated cost of producing this source once (scan or index
    #: scan plus filters) — the DP enumeration's leaf costs.
    access_cost: float = 0.0
    #: For base sources planned as (possibly filtered) scans or range
    #: reads: the underlying table, so an index-nested-loop probe can
    #: replace the scan with the local filters folded into the probe
    #: residual.
    #: None when a constant-equality index scan was already chosen.
    table: Optional[object] = None
    #: The local predicates applied as filters over the scan (become
    #: the probe residual on index-nested-loop replacement).
    filter_preds: list = field(default_factory=list)


def _filter_node(node: PlanNode, compiler: ExpressionCompiler,
                 predicate: ast.Expression) -> Filter:
    return Filter(node, compiler.compile_filter(predicate), str(predicate),
                  predicate)


def _referenced_quantifiers(expression: ast.Expression) -> set[Quantifier]:
    found: set[Quantifier] = set()
    for node in walk_qgm_expression(expression):
        if isinstance(node, QRef) or isinstance(node, RidRef):
            found.add(node.quantifier)
    return found


class Planner:
    """Compiles a (rewritten, NF) QGM graph into an executable plan."""

    def __init__(self, catalog: Catalog, stats: StatisticsManager,
                 options: Optional[PlannerOptions] = None,
                 peek: Optional[dict] = None):
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.cost = CostModel(stats, peek=peek)
        #: Join-order decisions made while planning (stamped onto the
        #: finished ExecutablePlan for EXPLAIN).
        self.join_orders: list[JoinOrderRecord] = []
        self._memo: dict[int, PlanNode] = {}
        self._shared: set[int] = set()
        self.scalar_plans: dict[int, PlanNode] = {}
        #: Correlated scalar quantifier -> the outer quantifiers its
        #: subquery reads; predicates using the scalar must wait until
        #: these are bound in the join order.
        self._scalar_deps: dict[int, set[Quantifier]] = {}
        self._correlation_slots = 0

    # ------------------------------------------------------------------
    def plan(self, graph: QGMGraph) -> ExecutablePlan:
        self.cost.invalidate()
        self._memo.clear()
        self.scalar_plans.clear()
        self._scalar_deps.clear()
        self.join_orders.clear()
        counts = graph.reference_counts()
        self._shared = {box_id for box_id, count in counts.items()
                        if count > 1}
        outputs: list[tuple[OutputStream, PlanNode]] = []
        for stream in graph.top.outputs:
            outputs.append((stream, self.plan_box(stream.box)))
        if (self.options.parallel_degree > 1
                and len(outputs) == 1 and not self.scalar_plans):
            from repro.executor.parallel import wrap_parallel

            wrapped = wrap_parallel(outputs[0][1],
                                    self.options.parallel_degree)
            if wrapped is not None:
                outputs[0] = (outputs[0][0], wrapped)
        return ExecutablePlan(outputs, dict(self.scalar_plans),
                              batch_size=self.options.batch_size,
                              join_orders=list(self.join_orders))

    def plan_box(self, box: Box) -> PlanNode:
        memoized = self._memo.get(box.box_id)
        if memoized is not None:
            return memoized
        node = self._plan_fresh(box)
        node.estimated_rows = self.cost.box_rows(box)
        if (box.box_id in self._shared
                and self.options.share_common_subexpressions
                and not isinstance(box, BaseBox)):
            node = Spool(node, label=box.label)
            node.estimated_rows = self.cost.box_rows(box)
            self._memo[box.box_id] = node
        return node

    def _plan_fresh(self, box: Box) -> PlanNode:
        if isinstance(box, BaseBox):
            return TableScan(box.table)
        if isinstance(box, SelectBox):
            return self._plan_select(box)
        if isinstance(box, GroupByBox):
            return self._plan_groupby(box)
        if isinstance(box, SetOpBox):
            return self._plan_setop(box)
        if isinstance(box, OuterJoinBox):
            return self._plan_outer_join(box)
        if isinstance(box, XNFBox):
            raise PlanningError(
                "XNF operator reached the planner; run XNF semantic "
                "rewrite first"
            )
        raise PlanningError(f"cannot plan box kind {box.kind!r}")

    # ------------------------------------------------------------------
    # SELECT boxes
    # ------------------------------------------------------------------
    def _plan_select(self, box: SelectBox) -> PlanNode:
        foreach = [q for q in box.body_quantifiers if q.qtype == "F"]
        existential = [q for q in box.body_quantifiers if q.qtype == "E"]
        anti = [q for q in box.body_quantifiers if q.qtype == "A"]
        scalar = [q for q in box.body_quantifiers if q.qtype == "S"]
        for quantifier in scalar:
            self._register_scalar(box, quantifier)
        scalar_set = set(scalar)

        rid_needed = self._rid_quantifiers(box)

        # Classify predicates by the non-scalar quantifiers they touch.
        # A correlated scalar counts as a reference to the outer
        # quantifiers its subquery reads: the predicate can only run
        # once those provide values for the correlation slots.
        local: dict[int, list[ast.Expression]] = {}
        constant: list[ast.Expression] = []
        multi: list[ast.Expression] = []
        for predicate in box.predicates:
            refs = self._placement_refs(predicate)
            if not refs:
                constant.append(predicate)
            elif len(refs) == 1:
                quantifier = next(iter(refs))
                local.setdefault(quantifier.qid, []).append(predicate)
            else:
                multi.append(predicate)

        # ForEach side: build and join sources.
        if foreach:
            sources = [
                self._build_source(q, local.get(q.qid, []),
                                   with_rid=q in rid_needed)
                for q in foreach
            ]
            foreach_set = set(foreach)
            join_preds = [p for p in multi
                          if self._placement_refs(p) <= foreach_set]
            node, layout = self._join_sources(sources, join_preds)
        else:
            node, layout = SingleRow(), {}
        # The join this box built (a lone source's plan may be a join a
        # sub-box built, over another layout).
        joined = node if len(foreach) > 1 else None

        if constant:
            compiler = ExpressionCompiler(layout)
            for predicate in constant:
                node = _filter_node(node, compiler, predicate)

        # Existential components (jointly existential quantifiers).
        remaining_preds = [
            p for p in multi
            if not self._placement_refs(p) <= set(foreach)
        ]
        used: set[int] = set()
        for component in self._existential_components(existential,
                                                      remaining_preds,
                                                      scalar_set):
            node, layout = self._apply_quantified(
                node, layout, component, remaining_preds, local, used,
                scalar_set, anti_join=False, rid_needed=rid_needed,
            )
        for quantifier in anti:
            node, layout = self._apply_quantified(
                node, layout, [quantifier], remaining_preds, local, used,
                scalar_set, anti_join=True, rid_needed=rid_needed,
            )
        leftovers = [p for i, p in enumerate(remaining_preds)
                     if i not in used]
        if leftovers:
            raise PlanningError(
                f"unplaceable predicates in box {box.label!r}: "
                f"{[str(p) for p in leftovers]}"
            )

        # ORDER BY runs before projection (its keys may use any column).
        if box.order_by:
            compiler = ExpressionCompiler(layout)
            rows = node.estimated_rows
            node = Sort(node,
                        [compiler.compile(e) for e, _d in box.order_by],
                        [d for _e, d in box.order_by])
            node.estimated_rows = rows

        # Filters right under the projection fuse into its kernel: one
        # comprehension filters and projects each batch.  The Project
        # keeps the estimate of its filtered input (plan_box overrides
        # it with the box estimate when nothing sits above it).
        rows = node.estimated_rows
        fused: list[ast.Expression] = []
        while isinstance(node, Filter) and node.expression is not None:
            fused.insert(0, node.expression)
            node = node.child
        positions = ExpressionCompiler(layout).positions(
            [c.expression for c in box.head])
        if node is joined and not fused and positions is not None \
                and isinstance(node, (HashJoin, IndexNestedLoopJoin)) \
                and node.residual is None:
            # A plain-column head is what the join emits: no wide row
            # is built and then copied.
            node.emit_head(positions, [c.name for c in box.head])
        else:
            node = self._project(node, layout, box.head, fused)
            node.estimated_rows = rows
        if box.distinct and not head_keyed(box):
            node = Dedup(node)
        if box.limit is not None or box.offset is not None:
            node = Limit(node, box.limit, box.offset)
        return node

    @staticmethod
    def _project(node: PlanNode, layout: Layout, head: list,
                 where: Optional[list[ast.Expression]] = None) -> Project:
        compiler = ExpressionCompiler(layout)
        expressions = [c.expression for c in head]
        names = [c.name for c in head]
        if where:
            return Project(node, compiler.compile_project(
                expressions, ast.conjoin(where)), names,
                where=" AND ".join(str(p) for p in where))
        return Project(node, compiler.compile_project(expressions), names,
                       positions=compiler.positions(expressions))

    # ------------------------------------------------------------------
    # Scalar subqueries (uncorrelated and correlated)
    # ------------------------------------------------------------------
    def _register_scalar(self, box: SelectBox,
                         quantifier: Quantifier) -> None:
        """Compile an S quantifier's subquery once.

        Uncorrelated subqueries evaluate once per execution (cached in
        the context).  Correlated ones get their outer references
        rewritten into named parameter slots; at run time the outer row
        binds the slots and the plan re-executes per distinct binding
        (memoized).  The rewrite layer decorrelates the common aggregate
        shape before it ever reaches this fallback.
        """
        if quantifier.qid in self.scalar_plans:
            return
        leaves = subgraph_outer_leaves(quantifier.box)
        if leaves:
            outside = [leaf for leaf in leaves
                       if leaf.quantifier not in box.body_quantifiers]
            if outside:
                raise PlanningError(
                    "correlated scalar subquery references quantifiers "
                    "outside its enclosing block: "
                    f"{[str(leaf) for leaf in outside]}"
                )
            pairs = []
            for leaf in leaves:
                slot = f"$CORR{quantifier.qid}_{self._correlation_slots}$"
                self._correlation_slots += 1
                pairs.append((slot, leaf))
            self._parameterize_subgraph(quantifier.box, pairs)
            quantifier.correlation = tuple(pairs)
        self.scalar_plans[quantifier.qid] = self.plan_box(quantifier.box)
        self._scalar_deps[quantifier.qid] = {
            leaf.quantifier for _slot, leaf in quantifier.correlation
        }

    @staticmethod
    def _parameterize_subgraph(box: Box, pairs: list) -> None:
        """Replace the given outer leaves with named Parameter slots,
        throughout the subgraph (in place)."""
        replacements = {
            (leaf.quantifier.qid, getattr(leaf, "column", "$RID$")):
                ast.Parameter(name=slot)
            for slot, leaf in pairs
        }

        def mapping(leaf):
            key = (leaf.quantifier.qid, getattr(leaf, "column", "$RID$"))
            return replacements.get(key, leaf)

        seen: set[int] = set()
        stack = [box]
        while stack:
            current = stack.pop()
            if current.box_id in seen:
                continue
            seen.add(current.box_id)
            stack.extend(q.box for q in current.quantifiers())
            rewrite_box_expressions(
                current,
                lambda expression: replace_qrefs(expression, mapping))

    def _placement_refs(self, expression: ast.Expression
                        ) -> set[Quantifier]:
        """Quantifiers a predicate needs bound before it can run: its
        direct non-scalar references plus, for each correlated scalar it
        uses, the outer quantifiers feeding the correlation slots."""
        refs: set[Quantifier] = set()
        for quantifier in _referenced_quantifiers(expression):
            if quantifier.qtype == Quantifier.S:
                refs |= self._scalar_deps.get(quantifier.qid, set())
            else:
                refs.add(quantifier)
        return refs

    def _rid_quantifiers(self, box: SelectBox) -> set[Quantifier]:
        found: set[Quantifier] = set()
        expressions: list[ast.Expression] = []
        expressions.extend(c.expression for c in box.head
                           if c.expression is not None)
        expressions.extend(box.predicates)
        expressions.extend(e for e, _d in box.order_by)
        for expression in expressions:
            for node in walk_qgm_expression(expression):
                if isinstance(node, RidRef):
                    found.add(node.quantifier)
        return found

    # ------------------------------------------------------------------
    def _build_source(self, quantifier: Quantifier,
                      local_preds: list[ast.Expression],
                      with_rid: bool) -> _Source:
        box = quantifier.box
        if isinstance(box, BaseBox):
            return self._build_base_source(quantifier, box, local_preds,
                                           with_rid)
        if with_rid:
            raise PlanningError(
                f"RID reference on non-base quantifier {quantifier.name!r}"
            )
        node = self.plan_box(box)
        layout = {(quantifier.qid, c.name.upper()): i
                  for i, c in enumerate(box.head)}
        rows = self.cost.local_rows(box, local_preds)
        if local_preds:
            compiler = ExpressionCompiler(layout)
            for predicate in local_preds:
                node = _filter_node(node, compiler, predicate)
        node.estimated_rows = rows
        # A derived source is produced by its own subplan; charge its
        # output volume as the access cost.
        access_cost = max(self.cost.box_rows(box), 1.0)
        return _Source(quantifier, node, layout, rows,
                       access_cost=access_cost)

    def _build_base_source(self, quantifier: Quantifier, box: BaseBox,
                           local_preds: list[ast.Expression],
                           with_rid: bool) -> _Source:
        table = box.table
        columns = list(table.column_names)
        layout = {(quantifier.qid, c.upper()): i
                  for i, c in enumerate(columns)}
        if with_rid:
            layout[(quantifier.qid, RID_COLUMN)] = len(columns)
        rows = self.cost.local_rows(box, local_preds)
        cardinality = float(max(len(table), 1))
        full_scan_cost = self.cost.scan_cost(cardinality)

        # Access-path selection: every index fully covered by constant
        # equalities (the primary key's among them), and every
        # single-column ordered one (the primary key or an ordered
        # index) a constant range bounds, is a candidate; cost-compare
        # them against the full scan.
        remaining = list(local_preds)
        node: PlanNode = TableScan(table, with_rid=with_rid)
        access_cost = full_scan_cost
        probeable = True
        if self.options.use_indexes:
            const_eq: dict[str, ast.Expression] = {}
            const_pred: dict[str, ast.Expression] = {}
            ranges: dict[str, list] = {}
            for predicate in local_preds:
                column, value = self._constant_equality(predicate,
                                                        quantifier)
                if column is not None and column not in const_eq:
                    const_eq[column] = value
                    const_pred[column] = predicate
                self._collect_range(predicate, quantifier, ranges)
            chosen = None
            for index in table.access_indexes:
                names = [c.upper() for c in index.column_names]
                if all(name in const_eq for name in names):
                    ranged = False
                    bounding = [const_pred[name] for name in names]
                elif index.ordered and len(names) == 1 \
                        and names[0] in ranges:
                    ranged = True
                    bounding = ranges[names[0]][2]
                else:
                    continue
                matching = cardinality \
                    * self.cost.conjunct_selectivity(bounding)
                index_cost = self.cost.index_scan_cost(matching)
                if index_cost < access_cost:
                    chosen = (index, names, ranged)
                    access_cost = index_cost
            if chosen is not None:
                index, names, ranged = chosen
                if not ranged:
                    keys = ExpressionCompiler({}).compile_project(
                        [const_eq[name] for name in names])
                    node = IndexScan(table, index, keys,
                                     with_rid=with_rid)
                    # Only the predicates that became probe keys are
                    # consumed; a second equality on a keyed column
                    # (``a = 1 AND a = 2``) still filters.
                    keys = [const_pred[name] for name in names]
                    remaining = [p for p in local_preds
                                 if not any(p is key for key in keys)]
                    probeable = False
                else:
                    # The range predicates stay in the filter: the
                    # range read only narrows what it scans.
                    low, high, _preds = ranges[names[0]]
                    null = (ast.Literal(None), True)
                    low, high = low or null, high or null
                    bounds = ExpressionCompiler({}).compile_project(
                        [low[0], high[0]])
                    node = IndexRangeScan(table, index, bounds, low[1],
                                          high[1], with_rid=with_rid)
        node.estimated_rows = rows
        node.estimated_cost = access_cost
        if remaining:
            compiler = ExpressionCompiler(layout)
            for predicate in remaining:
                node = _filter_node(node, compiler, predicate)
            node.estimated_rows = rows
            node.estimated_cost = access_cost
        return _Source(quantifier, node, layout, rows,
                       with_rid=with_rid, access_cost=access_cost,
                       table=table if probeable else None,
                       filter_preds=remaining if probeable else [])

    @staticmethod
    def _constant_equality(predicate: ast.Expression,
                           quantifier: Quantifier):
        """Match ``q.col = constant-expression`` (either side)."""
        if not isinstance(predicate, ast.BinaryOp) or predicate.op != "=":
            return None, None
        for this, other in ((predicate.left, predicate.right),
                            (predicate.right, predicate.left)):
            if isinstance(this, QRef) and this.quantifier is quantifier \
                    and not _referenced_quantifiers(other):
                return this.column.upper(), other
        return None, None

    @staticmethod
    def _collect_range(predicate: ast.Expression, quantifier: Quantifier,
                       ranges: dict[str, list]) -> None:
        """Add a constant bound of ``q.col`` — a non-negated BETWEEN, or
        ``<``, ``<=``, ``>``, ``>=`` against a constant expression
        (either side) — to ``ranges``: column -> [low, high, the
        predicates giving them], each bound ``(expression, inclusive)``
        and the first one found on each side kept."""
        def column_of(expression):
            if isinstance(expression, QRef) \
                    and expression.quantifier is quantifier:
                return expression.column.upper()
            return None

        def constant(expression):
            return not _referenced_quantifiers(expression)

        low = high = None
        if isinstance(predicate, ast.Between):
            column = column_of(predicate.operand)
            if predicate.negated or column is None \
                    or not constant(predicate.low) \
                    or not constant(predicate.high):
                return
            low, high = (predicate.low, True), (predicate.high, True)
        elif isinstance(predicate, ast.BinaryOp) \
                and predicate.op in _FLIPPED:
            op, column, value = predicate.op, \
                column_of(predicate.left), predicate.right
            if column is None:
                op, column, value = _FLIPPED[op], \
                    column_of(predicate.right), predicate.left
            if column is None or not constant(value):
                return
            bound = (value, op in ("<=", ">="))
            if op in (">", ">="):
                low = bound
            else:
                high = bound
        else:
            return
        entry = ranges.setdefault(column, [None, None, []])
        used = False
        for side, bound in ((0, low), (1, high)):
            if bound is not None and entry[side] is None:
                entry[side] = bound
                used = True
        if used:
            entry[2].append(predicate)

    # ------------------------------------------------------------------
    def _join_sources(self, sources: list[_Source],
                      predicates: list[ast.Expression]
                      ) -> tuple[PlanNode, Layout]:
        """Join the given sources in an enumerated cost-chosen order."""
        pending = list(predicates)
        order, method = self._choose_join_order(sources, predicates)
        current = order[0]
        node = current.node
        layout = dict(current.layout)
        bound = {current.quantifier}
        rows = current.rows
        total_cost = current.access_cost
        node, layout, pending = self._apply_ready(node, layout, bound,
                                                  pending)

        for candidate in order[1:]:
            equi = self._equi_predicates(pending, bound,
                                         candidate.quantifier)
            out_rows, _newly = self._step_rows(rows, bound, candidate,
                                               pending)
            step = self._join_method(rows, candidate, equi, out_rows)
            total_cost += step[2]
            node, layout = self._join_pair(node, layout, candidate, equi,
                                           pending, step)
            bound.add(candidate.quantifier)
            rows = out_rows
            node.estimated_rows = rows
            node.estimated_cost = total_cost
            node, layout, pending = self._apply_ready(node, layout, bound,
                                                      pending)
        if len(order) > 1:
            self.join_orders.append(JoinOrderRecord(
                names=tuple(s.quantifier.name for s in order),
                method=method, estimated_rows=rows,
                estimated_cost=total_cost))
        return node, layout

    # ------------------------------------------------------------------
    # Join-order enumeration
    # ------------------------------------------------------------------
    def _choose_join_order(self, sources: list[_Source],
                           predicates: list[ast.Expression]
                           ) -> tuple[list[_Source], str]:
        if len(sources) <= 1:
            return list(sources), "single"
        hook = self.options.join_order_hook
        if hook is not None:
            names = [s.quantifier.name for s in sources]
            forced = hook(list(names))
            if forced is not None:
                if sorted(forced) != sorted(names):
                    raise PlanningError(
                        f"join_order_hook returned {list(forced)!r}; "
                        f"expected a permutation of {names!r}"
                    )
                by_name = {s.quantifier.name: s for s in sources}
                return [by_name[name] for name in forced], "forced"
        if len(sources) > DP_JOIN_THRESHOLD:
            return self._greedy_order(sources, predicates), "greedy"
        return self._dp_order(sources, predicates), "dp"

    def _greedy_order(self, sources: list[_Source],
                      predicates: list[ast.Expression]) -> list[_Source]:
        """The classic greedy heuristic: start from the smallest
        source, repeatedly add the connected candidate with the lowest
        estimated join output (estimated by the fold's
        :meth:`_step_rows`)."""
        pending = list(predicates)
        remaining = sorted(sources, key=lambda s: s.rows)
        current = remaining.pop(0)
        order = [current]
        bound = {current.quantifier}
        rows = current.rows
        pending = [p for p in pending
                   if not self._placement_refs(p) <= bound]
        while remaining:
            best = None
            for candidate in remaining:
                equi = self._equi_predicates(pending, bound,
                                             candidate.quantifier)
                estimate, _newly = self._step_rows(rows, bound, candidate,
                                                   pending)
                key = (not bool(equi), estimate, candidate.rows)
                if best is None or key < best[0]:
                    best = (key, candidate, estimate)
            _key, candidate, rows = best
            remaining.remove(candidate)
            order.append(candidate)
            bound.add(candidate.quantifier)
            pending = [p for p in pending
                       if not self._placement_refs(p) <= bound]
        return order

    def _dp_order(self, sources: list[_Source],
                  predicates: list[ast.Expression]) -> list[_Source]:
        """Exhaustive left-deep join enumeration (Selinger-style DP
        over quantifier subsets): for every subset keep the cheapest
        order, extending by one source at a time.  2^n subsets — only
        run below ``dp_join_threshold``."""
        by_qid = {s.quantifier.qid: s for s in sources}
        qids = [s.quantifier.qid for s in sources]
        #: subset -> (total cost, output rows, order tuple)
        best: dict[frozenset, tuple[float, float, tuple]] = {
            frozenset((s.quantifier.qid,)): (s.access_cost, s.rows, (s,))
            for s in sources
        }
        for size in range(2, len(sources) + 1):
            for combo in combinations(qids, size):
                subset = frozenset(combo)
                winner = None
                for last in combo:
                    previous = best.get(subset - {last})
                    if previous is None:
                        continue
                    prev_cost, prev_rows, prev_order = previous
                    candidate = by_qid[last]
                    step_cost, out_rows = self._dp_step(
                        prev_order, prev_rows, candidate, predicates)
                    total = prev_cost + step_cost
                    if winner is None or (total, out_rows) < winner[:2]:
                        winner = (total, out_rows,
                                  prev_order + (candidate,))
                best[subset] = winner
        return list(best[frozenset(qids)][2])

    def _dp_step(self, prev_order: tuple, prev_rows: float,
                 candidate: _Source,
                 predicates: list[ast.Expression]) -> tuple[float, float]:
        """(cost, output rows) of joining ``candidate`` onto the bound
        prefix — the DP's transition function."""
        bound = {s.quantifier for s in prev_order}
        out_rows, newly = self._step_rows(prev_rows, bound, candidate,
                                          predicates)
        equi = self._equi_predicates(newly, bound, candidate.quantifier)
        step_cost = self._join_method(prev_rows, candidate, equi,
                                      out_rows)[2]
        return step_cost, out_rows

    def _step_rows(self, prev_rows: float, bound: set[Quantifier],
                   candidate: _Source, predicates: list[ast.Expression]
                   ) -> tuple[float, list[ast.Expression]]:
        """(output rows, newly placeable predicates) of joining
        ``candidate`` onto the ``bound`` prefix of ``prev_rows`` rows:
        the cross product filtered by every predicate that becomes
        placeable at this step, equi or not.  The one step estimate of
        the DP, the greedy order and the fold, so the method the DP
        priced is the operator the fold builds."""
        both = bound | {candidate.quantifier}
        newly: list[ast.Expression] = []
        for predicate in predicates:
            refs = self._placement_refs(predicate)
            if not refs or refs <= bound \
                    or refs <= {candidate.quantifier}:
                continue
            if refs <= both:
                newly.append(predicate)
        return self.cost.join_rows(prev_rows, candidate.rows, newly), newly

    # ------------------------------------------------------------------
    # Join-method selection (shared by costing and realization)
    # ------------------------------------------------------------------
    def _join_method(self, prev_rows: float, candidate: _Source,
                     equi: list, out_rows: float) -> tuple[str, object, float]:
        """(method, index, cost) of joining ``candidate`` onto a bound
        prefix of ``prev_rows`` rows: "nested_loop" without equi keys,
        else "index" — probing an index on the candidate that the
        candidate-side equi columns cover — when that costs no more
        than "hash".  The DP prices its steps with it and
        :meth:`_join_pair` builds the operator it names."""
        if not equi:
            return "nested_loop", None, self.cost.nested_loop_cost(
                prev_rows, candidate.rows, candidate.access_cost)
        hash_cost = self.cost.hash_join_cost(prev_rows, candidate.rows,
                                             candidate.access_cost)
        # A (filtered) scan is probe-able: its local predicates fold
        # into the probe residual.  A chosen index scan is not.
        if self.options.use_indexes and candidate.table is not None:
            columns = {sides[1].column.upper() for _p, sides in equi
                       if isinstance(sides[1], QRef)}
            index = next((index for index in candidate.table.access_indexes
                          if all(c.upper() in columns
                                 for c in index.column_names)), None)
            if index is not None:
                inl_cost = self.cost.inl_join_cost(prev_rows, out_rows)
                if inl_cost <= hash_cost:
                    return "index", index, inl_cost
        return "hash", None, hash_cost

    def _apply_ready(self, node: PlanNode, layout: Layout,
                     bound: set[Quantifier],
                     pending: list[ast.Expression]):
        """Filter with predicates whose quantifiers are all bound."""
        ready = [p for p in pending
                 if self._placement_refs(p) <= bound]
        if ready:
            compiler = ExpressionCompiler(layout)
            for predicate in ready:
                node = _filter_node(node, compiler, predicate)
            pending = [p for p in pending if p not in ready]
        return node, layout, pending

    @staticmethod
    def _non_scalar_refs(predicate: ast.Expression) -> set[Quantifier]:
        return {q for q in _referenced_quantifiers(predicate)
                if q.qtype != Quantifier.S}

    def _equi_predicates(self, pending: list[ast.Expression],
                         bound: set[Quantifier], candidate: Quantifier
                         ) -> list[tuple[ast.BinaryOp, tuple]]:
        """Equality predicates usable as hash keys for joining
        ``candidate`` to the bound set.  Returns (predicate,
        (bound_side_expr, candidate_side_expr)) pairs."""
        result = []
        for predicate in pending:
            if not isinstance(predicate, ast.BinaryOp) \
                    or predicate.op != "=":
                continue
            refs = self._placement_refs(predicate)
            if candidate not in refs or not refs <= bound | {candidate}:
                continue
            for this, other in ((predicate.left, predicate.right),
                                (predicate.right, predicate.left)):
                this_refs = self._placement_refs(this) if isinstance(
                    this, ast.Expression) else set()
                other_refs = self._placement_refs(other)
                if this_refs <= bound and other_refs == {candidate}:
                    result.append((predicate, (this, other)))
                    break
        return result

    def _join_pair(self, node: PlanNode, layout: Layout,
                   candidate: _Source,
                   equi: list[tuple[ast.BinaryOp, tuple]],
                   pending: list[ast.Expression],
                   step: tuple) -> tuple[PlanNode, Layout]:
        """Realize one join step with the method :meth:`_join_method`
        chose for it."""
        width = len(node.columns)
        combined = dict(layout)
        for key, position in candidate.layout.items():
            combined[key] = position + width
        for predicate, _sides in equi:
            pending.remove(predicate)
        method, index, _cost = step
        if method == "nested_loop":
            return NestedLoopJoin(node, candidate.node), combined
        if method == "index":
            # Index-nested-loop through a parent/child link.
            return self._index_probe(node, candidate, index, equi,
                                     layout, combined), combined
        left_keys = ExpressionCompiler(layout).compile_keys(
            [sides[0] for _p, sides in equi])
        right_keys = ExpressionCompiler(candidate.layout).compile_keys(
            [sides[1] for _p, sides in equi])
        return HashJoin(node, candidate.node, left_keys, right_keys), \
            combined

    def _index_probe(self, outer: PlanNode, candidate: _Source,
                     index, equi: list[tuple[ast.BinaryOp, tuple]],
                     outer_layout: Layout,
                     combined_layout: Layout) -> PlanNode:
        names = [c.upper() for c in index.column_names]
        by_column: dict[str, ast.Expression] = {}
        residual_preds: list[ast.Expression] = []
        for predicate, (outer_expr, inner_expr) in equi:
            column = inner_expr.column.upper() \
                if isinstance(inner_expr, QRef) else None
            if column in names and column not in by_column:
                by_column[column] = outer_expr
            else:
                # Not a probe key — a second equality on an already
                # keyed column included — so it must hold on every
                # probed row.
                residual_preds.append(predicate)
        keys = ExpressionCompiler(outer_layout).compile_project(
            [by_column[name] for name in names])
        # Local filters on the candidate fold into the probe residual
        # (the probe replaces the candidate's filtered-scan subtree).
        residual_preds.extend(candidate.filter_preds)
        residual = None
        if residual_preds:
            residual = ExpressionCompiler(combined_layout).compile_filter(
                ast.conjoin(residual_preds))
        return IndexNestedLoopJoin(
            outer, candidate.table, index, keys,
            with_rid=candidate.with_rid, residual=residual,
        )

    # ------------------------------------------------------------------
    # E/A quantifiers
    # ------------------------------------------------------------------
    def _existential_components(self, existential: list[Quantifier],
                                predicates: list[ast.Expression],
                                scalar_set: set[Quantifier]
                                ) -> list[list[Quantifier]]:
        """Connected components of E quantifiers (joint existentials)."""
        if not existential:
            return []
        parent: dict[int, int] = {q.qid: q.qid for q in existential}

        def find(qid: int) -> int:
            while parent[qid] != qid:
                parent[qid] = parent[parent[qid]]
                qid = parent[qid]
            return qid

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        ids = {q.qid for q in existential}
        for predicate in predicates:
            touched = [q.qid for q in _referenced_quantifiers(predicate)
                       if q.qid in ids]
            for first, second in zip(touched, touched[1:]):
                union(first, second)
        groups: dict[int, list[Quantifier]] = {}
        for quantifier in existential:
            groups.setdefault(find(quantifier.qid), []).append(quantifier)
        return list(groups.values())

    def _apply_quantified(self, node: PlanNode, layout: Layout,
                          members: list[Quantifier],
                          predicates: list[ast.Expression],
                          local: dict[int, list[ast.Expression]],
                          used: set[int], scalar_set: set[Quantifier],
                          anti_join: bool,
                          rid_needed: set[Quantifier]
                          ) -> tuple[PlanNode, Layout]:
        member_set = set(members)
        sources = [
            self._build_source(q, local.get(q.qid, []),
                               with_rid=q in rid_needed)
            for q in members
        ]
        intra: list[ast.Expression] = []
        cross: list[tuple[int, ast.Expression]] = []
        for position, predicate in enumerate(predicates):
            refs = self._placement_refs(predicate)
            if not refs & member_set:
                continue
            if refs <= member_set:
                intra.append(predicate)
                used.add(position)
            else:
                cross.append((position, predicate))
                used.add(position)
        inner_node, inner_layout = self._join_sources(sources, intra) \
            if len(sources) > 1 or intra else (sources[0].node,
                                               sources[0].layout)

        # Split cross predicates into hashable equi keys and residual.
        outer_sides: list[ast.Expression] = []
        inner_sides: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for _position, predicate in cross:
            sides = self._split_cross_equality(predicate, member_set)
            if sides is not None:
                outer_sides.append(sides[0])
                inner_sides.append(sides[1])
            else:
                residual.append(predicate)
        outer_keys = inner_keys = None
        if outer_sides:
            outer_keys = ExpressionCompiler(layout).compile_project(
                outer_sides)
            inner_keys = ExpressionCompiler(inner_layout).compile_project(
                inner_sides)
        residual_fn = None
        if residual:
            width = len(node.columns)
            combined = dict(layout)
            for key, position in inner_layout.items():
                combined[key] = position + width
            combined_compiler = ExpressionCompiler(combined)
            conjoined = ast.conjoin(residual)
            residual_fn = combined_compiler.compile(conjoined)

        null_poison = any(q.null_poison for q in members)
        node = SemiJoin(node, inner_node, outer_keys, inner_keys,
                        residual_fn, anti=anti_join,
                        null_poison=null_poison)
        return node, layout

    def _split_cross_equality(self, predicate: ast.Expression,
                              member_set: set[Quantifier]):
        if not isinstance(predicate, ast.BinaryOp) or predicate.op != "=":
            return None
        for this, other in ((predicate.left, predicate.right),
                            (predicate.right, predicate.left)):
            this_refs = self._placement_refs(this)
            other_refs = self._placement_refs(other)
            if this_refs and not this_refs & member_set \
                    and other_refs <= member_set and other_refs:
                return this, other
        return None

    # ------------------------------------------------------------------
    # Other box kinds
    # ------------------------------------------------------------------
    def _plan_groupby(self, box: GroupByBox) -> PlanNode:
        if box.input is None:
            raise PlanningError("group-by box has no input")
        child = self.plan_box(box.input.box)
        positions = list(range(len(box.input.box.head)))
        if isinstance(child, Project) and child.positions is not None:
            # A pure column projection feeding the aggregate: read its
            # input directly, through the projected positions.
            child, positions = child.child, list(child.positions)
        layout = {(box.input.qid, c.name.upper()): positions[i]
                  for i, c in enumerate(box.input.box.head)}
        compiler = ExpressionCompiler(layout)
        keys = (compiler.compile_project(box.group_keys)
                if box.group_keys else None)
        specs = []
        key_count = 0
        for column in box.head:
            if column.name in box.aggregates:
                spec = box.aggregates[column.name]
                argument = (compiler.compile_keys([spec.argument])
                            if spec.argument is not None else None)
                specs.append((spec.function, argument, spec.distinct))
            else:
                key_count += 1
                if specs:
                    raise PlanningError(
                        "group keys must precede aggregates in the head"
                    )
        if key_count != len(box.group_keys):
            raise PlanningError("group-by head/key mismatch")
        return Aggregate(child, keys, specs, [c.name for c in box.head])

    def _plan_setop(self, box: SetOpBox) -> PlanNode:
        if len(box.inputs) != 2:
            raise PlanningError("set operations take exactly two inputs")
        left = self.plan_box(box.inputs[0].box)
        right = self.plan_box(box.inputs[1].box)
        return SetOperation(box.operator, box.all_rows, left, right)

    def _plan_outer_join(self, box: OuterJoinBox) -> PlanNode:
        left = self.plan_box(box.left.box)
        right = self.plan_box(box.right.box)
        left_layout = {(box.left.qid, c.name.upper()): i
                       for i, c in enumerate(box.left.box.head)}
        right_layout = {(box.right.qid, c.name.upper()): i
                        for i, c in enumerate(box.right.box.head)}
        combined = dict(left_layout)
        width = len(left.columns)
        for key, position in right_layout.items():
            combined[key] = position + width

        left_sides: list[ast.Expression] = []
        right_sides: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in ast.conjuncts(box.condition):
            sides = self._outer_equality(conjunct, box)
            if sides is not None:
                left_sides.append(sides[0])
                right_sides.append(sides[1])
            else:
                residual.append(conjunct)
        left_keys = right_keys = None
        if left_sides:
            left_keys = ExpressionCompiler(left_layout).compile_keys(
                left_sides)
            right_keys = ExpressionCompiler(right_layout).compile_keys(
                right_sides)
        residual_fn = None
        if residual:
            residual_fn = ExpressionCompiler(combined).compile_filter(
                ast.conjoin(residual))
        node = LeftOuterJoin(left, right, left_keys, right_keys, residual_fn)
        return self._project(node, combined, box.head)

    def _outer_equality(self, conjunct: ast.Expression, box: OuterJoinBox):
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            return None
        for this, other in ((conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left)):
            if self._non_scalar_refs(this) == {box.left} \
                    and self._non_scalar_refs(other) == {box.right}:
                return this, other
        return None
