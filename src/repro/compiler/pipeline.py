"""The pass manager owning the canonical compile stage sequence.

Sect. 4.4's implementation claim is that NF and XNF queries share one
rule representation and one rule engine over QGM.  This module makes
the *whole compile path* shared as well: the
:class:`CompilationPipeline` drives

    parse -> QGM build -> rewrite-to-fixpoint -> prune -> plan

for every consumer — the session's query/execute, DML
qualification, XNF and materialized-view translation, and the plan
cache's read-through — with per-stage tracing for EXPLAIN.

Plan-cache keying is two-level.  The first key is the parameterized
statement AST (cheap, catches exact repeats).  On a miss the pipeline
runs the front half (build/rewrite/prune) and probes again
with the *post-rewrite canonical form* of the QGM graph
(:func:`repro.qgm.dump.canonical_fingerprint`): two statements that
differ only pre-rewrite — a view reference and its hand-inlined
equivalent, say — converge to one compiled plan, and the AST key is
aliased to it so the next repeat hits on the first probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import CatalogError
from repro.executor.plan_cache import (CacheInfo, CompileClaim, PlanCache,
                                       ParameterizedStatement,
                                       parameterize_select)
from repro.optimizer.optimizer import (ExecutablePlan, Planner,
                                       PlannerOptions)
from repro.qgm.builder import QGMBuilder
from repro.qgm.dump import canonical_fingerprint, dump_graph
from repro.qgm.model import BaseBox, Box, QGMGraph
from repro.rewrite.engine import RewriteContext, RuleEngine
from repro.rewrite.nf_rules import default_nf_rules, prune_unused_columns
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.stats import StatisticsManager
from repro.storage.table import read_view_installed


#: A SELECT as the compile entry points take it: the parsed AST, or the
#: statement the front end (or a prepared statement) lifted already.
SelectSource = Union[ast.SelectStatement, ParameterizedStatement]


@dataclass
class PipelineOptions:
    """Stage toggles, exposed so benchmarks can ablate the rewrites.

    Planner and executor knobs live in the nested planner options:
    ``PlannerOptions(batch_size=...)`` tunes the executor's batch width,
    and ``PlannerOptions(rewrite_budget=...)`` bounds the rewrite
    fixpoint.
    """

    apply_nf_rewrite: bool = True
    prune_columns: bool = True
    #: Capacity of the parameterized plan cache (entries); 0 disables
    #: caching, so every statement recompiles through the full pipeline.
    plan_cache_size: int = 256
    planner: PlannerOptions = field(default_factory=PlannerOptions)


@dataclass
class CompiledQuery:
    """Everything the pipeline produced for one statement."""

    graph: QGMGraph
    #: None only transiently, between the front half and planning.
    plan: Optional[ExecutablePlan]
    rewrite_context: Optional[RewriteContext] = None
    pruned_columns: int = 0
    #: Post-rewrite canonical fingerprint (set on cached compiles).
    canonical: Optional[str] = None


@dataclass
class StageRecord:
    """One pipeline stage's trace entry."""

    stage: str
    detail: str
    dump: Optional[str] = None


@dataclass
class CompilationTrace:
    """Per-stage QGM dumps plus the ordered rule firings.

    Collected when a caller passes ``trace=CompilationTrace()`` (the
    session's ``explain(sql, rewrite_trace=True)``); rendering follows
    the stage order, then the rule sequence.
    """

    records: list[StageRecord] = field(default_factory=list)
    rules_fired: list[str] = field(default_factory=list)

    def record(self, stage: str, detail: str,
               graph: Optional[QGMGraph] = None) -> None:
        dump = None if graph is None else dump_graph(graph)
        self.records.append(StageRecord(stage, detail, dump))

    def render(self) -> str:
        lines: list[str] = ["-- rewrite trace --"]
        for entry in self.records:
            lines.append(f"stage {entry.stage}: {entry.detail}")
            if entry.dump is not None:
                lines.extend("  " + line
                             for line in entry.dump.splitlines())
        fired = " -> ".join(self.rules_fired) if self.rules_fired \
            else "(none)"
        lines.append(f"rules fired: {fired}")
        return "\n".join(lines)


def rewrite_fixpoint(graph: QGMGraph, catalog: Catalog,
                     budget: Optional[int] = None,
                     prune: bool = True,
                     trace: Optional[CompilationTrace] = None
                     ) -> RewriteContext:
    """Run the shared rule catalog to a fixpoint, then a final prune.

    The one rewrite implementation in the codebase: the pipeline's
    rewrite stage and the XNF translator's post-translation cleanup both
    call this.  ``prune`` includes the PruneColumns rule in the fixpoint
    (and a belt-and-braces final sweep, normally a no-op).
    """
    engine = RuleEngine(
        default_nf_rules(prune=prune),
        budget=budget if budget is not None
        else PlannerOptions().rewrite_budget,
    )
    context = engine.run(graph, catalog)
    if trace is not None:
        trace.rules_fired.extend(context.fired)
        trace.record("rewrite",
                     f"fixpoint after {len(context.fired)} rule "
                     f"applications: {context.applications}", graph)
    if prune:
        context.pruned_columns += prune_unused_columns(graph)
    if trace is not None:
        trace.record("prune",
                     f"{context.pruned_columns} head columns removed",
                     graph)
    return context


class CompilationPipeline:
    """The single compile path from SQL text (or QGM) to a plan.

    Owns the stage sequence, the rewrite rule catalog and budget, the
    planner, and the plan cache with its two-level (AST + canonical)
    keying.  Entry points:

    * :meth:`compile_select` / :meth:`compile_select_cached` — SELECTs;
    * :meth:`compile_qgm` — pre-built graphs (DML qualification);
    * :meth:`rewrite_graph` — rewrite+prune only (XNF translation);
    * :meth:`cached_compile` — generic read-through for other compiled
      artifacts (XNF executables) sharing this cache's invalidation.
    """

    def __init__(self, catalog: Catalog,
                 stats: Optional[StatisticsManager] = None,
                 options: Optional[PipelineOptions] = None,
                 xnf_component_resolver: Optional[
                     Callable[[str, str], Box]] = None):
        self.catalog = catalog
        # A self-created manager subscribes to the delta protocol so DML
        # through this pipeline invalidates statistics automatically.
        self.stats = stats or StatisticsManager(catalog, subscribe=True)
        self.options = options or PipelineOptions()
        self.xnf_component_resolver = xnf_component_resolver
        self.plan_cache = PlanCache(self.options.plan_cache_size,
                                    clock=self._validation_clock)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def builder(self) -> QGMBuilder:
        return QGMBuilder(self.catalog, self.xnf_component_resolver)

    def build_select(self, statement: ast.SelectStatement) -> QGMGraph:
        return self.builder().build_select(statement)

    def build_xnf(self, query: ast.XNFQuery,
                  view_name: str = "XNF") -> QGMGraph:
        return self.builder().build_xnf(query, view_name=view_name)

    def rewrite_graph(self, graph: QGMGraph,
                      trace: Optional[CompilationTrace] = None
                      ) -> RewriteContext:
        """Rewrite-to-fixpoint + prune, without planning."""
        return rewrite_fixpoint(
            graph, self.catalog,
            budget=self.options.planner.rewrite_budget,
            prune=self.options.prune_columns, trace=trace,
        )

    def plan(self, graph: QGMGraph,
             peek: Optional[dict] = None) -> ExecutablePlan:
        planner = Planner(self.catalog, self.stats, self.options.planner,
                          peek=peek)
        return planner.plan(graph)

    # ------------------------------------------------------------------
    # Whole-pipeline compiles
    # ------------------------------------------------------------------
    def compile_select(self, statement: ast.SelectStatement,
                       trace: Optional[CompilationTrace] = None
                       ) -> CompiledQuery:
        graph = self.build_select(statement)
        if trace is not None:
            trace.record("build", "AST resolved to QGM", graph)
        return self.compile_qgm(graph, trace=trace)

    def compile_qgm(self, graph: QGMGraph,
                    trace: Optional[CompilationTrace] = None
                    ) -> CompiledQuery:
        """rewrite -> prune -> plan over a built graph."""
        compiled, _canonical = self._front_half(graph, trace)
        compiled.plan = self.plan(graph)
        if trace is not None:
            trace.record("plan", compiled.plan.explain().splitlines()[0]
                         if compiled.plan.outputs else "empty plan")
        return compiled

    def _front_half(self, graph: QGMGraph,
                    trace: Optional[CompilationTrace] = None,
                    want_canonical: bool = False
                    ) -> tuple[CompiledQuery, Optional[str]]:
        """Everything before planning; returns a plan-less
        CompiledQuery plus (optionally) the canonical fingerprint."""
        context = None
        pruned = 0
        if self.options.apply_nf_rewrite:
            context = self.rewrite_graph(graph, trace=trace)
            pruned = context.pruned_columns
        elif self.options.prune_columns:
            pruned = prune_unused_columns(graph)
            if trace is not None:
                trace.record("prune",
                             f"{pruned} head columns removed", graph)
        canonical = canonical_fingerprint(graph) if want_canonical \
            else None
        compiled = CompiledQuery(graph=graph, plan=None,
                                 rewrite_context=context,
                                 pruned_columns=pruned,
                                 canonical=canonical)
        return compiled, canonical

    # ------------------------------------------------------------------
    # Plan-cache integration
    # ------------------------------------------------------------------
    def _options_signature(self) -> tuple:
        """The option values a compiled plan depends on; part of the
        cache key so toggling a knob never serves a stale plan."""
        planner = self.options.planner
        return (self.options.apply_nf_rewrite, self.options.prune_columns,
                planner.use_indexes, planner.share_common_subexpressions,
                planner.batch_size, planner.parallel_degree,
                planner.parallel_row_threshold)

    def _schema_version(self) -> int:
        """The catalog's schema version, read by the plan cache at
        every look (a session waiting on another's compile reads it
        again when that compile ends)."""
        return self.catalog.schema_version

    def _stats_view(self, table_name: str) -> tuple[int, int]:
        """(table epoch, live cardinality) — what cached entries over
        this table are validated against.  Cardinality -1 when the
        table is gone (the schema version catches that anyway)."""
        name = table_name.upper()
        try:
            live = len(self.catalog.table(name))
        except CatalogError:
            live = -1
        return self.stats.table_epoch(name), live

    def _validation_clock(self) -> Optional[int]:
        """The catalog's change count, which moves with everything
        :meth:`_stats_view` reads — except a read view's live-count
        overlay, so under one there is no value to vouch with."""
        return None if read_view_installed() else self.catalog.changes.value

    def _on_stats_drift(self, table_name: str) -> None:
        """Lookup detected direct-storage drift the delta protocol
        never saw: invalidate the table's statistics (bumping its
        epoch, so sibling cached plans fall too)."""
        self.stats.invalidate(table_name)

    @staticmethod
    def graph_tables(graph: QGMGraph) -> list[str]:
        """The base tables a compiled graph reads (for cache
        validation keys)."""
        return sorted({box.table.name for box in graph.all_boxes()
                       if isinstance(box, BaseBox)})

    @staticmethod
    def _plan_estimated_rows(plan: ExecutablePlan) -> float:
        """The planner's output-row estimate for a single-output plan
        (-1.0 when there is no single output to summarize)."""
        if plan is not None and len(plan.outputs) == 1:
            return float(plan.outputs[0][1].estimated_rows)
        return -1.0

    def _stats_keys(self, tables) -> tuple:
        return tuple(
            (name.upper(),) + tuple(self._stats_view(name))
            for name in tables
        )

    def cache_key(self, kind: str, statement, *qualifiers) -> tuple:
        """The plan-cache key of every statement kind.

        ``kind`` tags the artifact ('select', 'xnf', 'dml_qualify'),
        ``statement`` is the (normally literal-lifted) AST, and
        ``qualifiers`` carry whatever else the artifact depends on (an
        XNF view name and translation options, a DML target table).
        The option signature is appended so toggling a knob never
        serves an artifact built under other options.
        """
        return (kind, statement) + qualifiers \
            + (self._options_signature(),)

    def compile_parameterized(self, parameterized) -> CompiledQuery:
        """Compile a pre-parameterized SELECT through the plan cache.

        Both the ad-hoc path (:meth:`compile_select_cached`) and
        prepared statements go through here.
        """
        key = self.cache_key("select", parameterized.key
                             if parameterized.key is not None
                             else parameterized.statement)
        cache = self.plan_cache
        if not cache.enabled:
            cache.last_info = CacheInfo(status="bypass",
                                        reason="plan cache disabled")
            return self.compile_select(parameterized.statement)
        entry, claim = cache.claim(key, self._schema_version,
                                   self._stats_view, self._on_stats_drift)
        if entry is not None:
            self._stamp_epoch()
            return entry.value
        try:
            compiled = self._compile_claimed(parameterized, key, claim)
        finally:
            cache.release(claim)
        self._stamp_epoch()
        return compiled

    def _compile_claimed(self, parameterized, key,
                         claim: CompileClaim) -> CompiledQuery:
        """The miss side of :meth:`compile_parameterized`, run by the
        one session holding ``claim`` on ``key``."""
        cache = self.plan_cache
        schema_version = claim.schema_version
        # First-level miss: run the front half and probe the canonical
        # (post-rewrite) key before paying for plan optimization.
        graph = self.build_select(parameterized.statement)
        compiled, canonical = self._front_half(graph,
                                               want_canonical=True)
        canon_key = self.cache_key("canon", canonical)
        canon_entry = cache.probe(canon_key, schema_version,
                                  self._stats_view, self._on_stats_drift)
        if canon_entry is not None:
            # Equivalent statement already compiled: alias the AST key
            # to the same artifact and report a (canonical) hit.
            cache.count_canonical_hit(key, canon_key, canon_entry,
                                      schema_version)
            return canon_entry.value
        # Plan with the lifted literals peeked, so the cost model keeps
        # value-aware (MCV/histogram) estimates for ad-hoc statements.
        compiled.plan = self.plan(graph, peek=parameterized.bindings)
        miss_info = claim.info
        stats_keys = self._stats_keys(self.graph_tables(graph))
        estimated = self._plan_estimated_rows(compiled.plan)
        miss_info.estimated_rows = estimated
        cache.store(key, compiled, schema_version, stats_keys,
                    estimated_rows=estimated)
        cache.alias(canon_key, key)
        cache.last_info = miss_info
        return compiled

    def compile_select_cached(self, statement: SelectSource
                              ) -> tuple[CompiledQuery, dict]:
        """Compile through the plan cache.

        The statement is auto-parameterized (literals lifted into
        synthetic parameters) to form the cache key; returns the
        compiled query plus the synthetic bindings to install in the
        execution context.  A statement the front end lifted already
        is taken as it is.  With the cache disabled a literal
        statement falls through to a plain compile with no lifting.
        """
        if isinstance(statement, ParameterizedStatement):
            return self.compile_parameterized(statement), \
                statement.bindings
        if not self.plan_cache.enabled:
            self.plan_cache.last_info = CacheInfo(
                status="bypass", reason="plan cache disabled")
            return self.compile_select(statement), {}
        parameterized = parameterize_select(statement)
        return self.compile_parameterized(parameterized), \
            parameterized.bindings

    def cached_compile(self, key: tuple, compile_fn,
                       tables_of=None) -> object:
        """Generic read-through for compiled artifacts (XNF
        executables, DML qualification plans) sharing this pipeline's
        cache and invalidation rules.  ``tables_of(value)`` names the
        base tables the artifact reads, for per-table statistics
        validation."""
        if not self.plan_cache.enabled:
            self.plan_cache.last_info = CacheInfo(
                status="bypass", reason="plan cache disabled")
            return compile_fn()
        value = self.plan_cache.get_or_compile(
            key, self._schema_version, self._stats_view,
            compile_fn, tables_of=tables_of,
            on_drift=self._on_stats_drift,
        )
        self._stamp_epoch()
        return value

    def _stamp_epoch(self) -> None:
        # Display-only: EXPLAIN's cache section reports the manager's
        # total epoch alongside the schema version.
        self.plan_cache.last_info.stats_epoch = self.stats.epoch
