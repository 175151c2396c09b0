"""Execution front-end for NF (plain SQL) queries.

Compilation lives in :mod:`repro.compiler.pipeline` — the one
CompilationPipeline all entry points share.  This module keeps the
execution half (running compiled plans, shaping results) and re-exports
the pipeline types under their historical names so existing callers and
tests keep working: ``QueryPipeline`` is now a thin facade that owns a
:class:`~repro.compiler.pipeline.CompilationPipeline` and delegates all
compile work to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.compiler.pipeline import (CompilationPipeline, CompilationTrace,
                                     CompiledQuery, PipelineOptions,
                                     SelectSource)
from repro.optimizer.plan import ExecutionContext
from repro.qgm.builder import QGMBuilder
from repro.qgm.model import Box, QGMGraph
from repro.rewrite.engine import RewriteContext
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.stats import StatisticsManager

__all__ = [
    "CompiledQuery", "PipelineOptions", "QueryPipeline", "QueryResult",
    "QueryStream",
]


@dataclass
class QueryResult:
    """A completed homogeneous (single-stream) query result."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        try:
            position = [c.upper() for c in self.columns].index(name.upper())
        except ValueError:
            available = ", ".join(self.columns) or "<none>"
            raise KeyError(
                f"result has no column {name!r}; available columns: "
                f"{available}"
            ) from None
        return [row[position] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class QueryStream:
    """A lazily-evaluated SELECT: batches are produced on demand.

    This is the cursor protocol's engine-side half — nothing executes
    until the first :meth:`next_batch` call, and each call advances the
    underlying batch executor by exactly one batch.  ``ctx`` is exposed
    so callers can read the instrumentation counters mid-stream (the
    easiest way to *prove* no full materialization happened before the
    first fetch).
    """

    def __init__(self, columns: list[str], batches, ctx: ExecutionContext):
        self.columns = list(columns)
        self.ctx = ctx
        self._batches = batches
        self._exhausted = False

    def next_batch(self) -> Optional[list[tuple]]:
        """The next non-empty batch of rows, or None when exhausted."""
        if self._exhausted:
            return None
        batch = next(self._batches, None)
        if batch is None:
            self._exhausted = True
        return batch

    def close(self) -> None:
        """Abandon the stream, releasing executor state deterministically.

        Closing the underlying generator runs its ``finally`` blocks
        *now* (operator cleanup, context managers) instead of whenever
        the garbage collector gets around to it — an abandoned
        half-consumed stream must not pin resources until collection.
        """
        self._exhausted = True
        batches, self._batches = self._batches, iter(())
        close = getattr(batches, "close", None)
        if close is not None:
            close()


class QueryPipeline:
    """AST -> result, reusing one catalog/statistics pair.

    Compilation delegates to the owned :attr:`compiler`
    (CompilationPipeline); this class adds plan execution and result
    shaping.
    """

    def __init__(self, catalog: Catalog, stats: StatisticsManager,
                 options: Optional[PipelineOptions] = None,
                 xnf_component_resolver: Optional[
                     Callable[[str, str], Box]] = None):
        self.compiler = CompilationPipeline(
            catalog, stats=stats, options=options,
            xnf_component_resolver=xnf_component_resolver,
        )

    # -- shared state (delegated) --------------------------------------
    @property
    def catalog(self) -> Catalog:
        return self.compiler.catalog

    @property
    def stats(self) -> StatisticsManager:
        return self.compiler.stats

    @property
    def options(self) -> PipelineOptions:
        return self.compiler.options

    @property
    def xnf_component_resolver(self):
        return self.compiler.xnf_component_resolver

    @property
    def plan_cache(self):
        return self.compiler.plan_cache

    # -- compile stages (delegated) ------------------------------------
    def builder(self) -> QGMBuilder:
        return self.compiler.builder()

    def build(self, statement: ast.SelectStatement) -> QGMGraph:
        return self.compiler.build_select(statement)

    def rewrite(self, graph: QGMGraph) -> RewriteContext:
        return self.compiler.rewrite_graph(graph)

    def compile_select(self, statement: ast.SelectStatement,
                       trace: Optional[CompilationTrace] = None
                       ) -> CompiledQuery:
        return self.compiler.compile_select(statement, trace=trace)

    def compile_graph(self, graph: QGMGraph) -> CompiledQuery:
        return self.compiler.compile_qgm(graph)

    def compile_parameterized(self, parameterized) -> CompiledQuery:
        return self.compiler.compile_parameterized(parameterized)

    def compile_select_cached(self, statement: SelectSource
                              ) -> tuple[CompiledQuery, dict]:
        return self.compiler.compile_select_cached(statement)

    def cached_compile(self, key: tuple, compile_fn,
                       tables_of=None) -> object:
        return self.compiler.cached_compile(key, compile_fn,
                                            tables_of=tables_of)

    def cache_key(self, kind: str, statement, *qualifiers) -> tuple:
        return self.compiler.cache_key(kind, statement, *qualifiers)

    @staticmethod
    def graph_tables(graph: QGMGraph) -> list[str]:
        return CompilationPipeline.graph_tables(graph)

    # -- execution -----------------------------------------------------
    def run_select(self, statement: SelectSource,
                   ctx: Optional[ExecutionContext] = None,
                   params=None) -> QueryResult:
        compiled, bindings = self.compile_select_cached(statement)
        if ctx is None:
            ctx = compiled.plan.new_context()
        ctx.bind_parameters(params)
        if bindings:
            ctx.parameters.update(bindings)
        return self.run_compiled(compiled, ctx)

    @staticmethod
    def run_compiled(compiled: CompiledQuery,
                     ctx: Optional[ExecutionContext] = None) -> QueryResult:
        if ctx is None:
            ctx = compiled.plan.new_context()
        _stream, node = compiled.plan.single_output()
        rows = compiled.plan.run_node(node, ctx)
        return QueryResult(columns=list(node.columns), rows=rows)

    # -- streaming execution (the session/cursor surface) --------------
    def stream_select(self, statement: SelectSource,
                      params=None,
                      batch_size: Optional[int] = None) -> QueryStream:
        """Compile a SELECT and return a lazy batch stream.

        Unlike :meth:`run_select` nothing is executed here; the caller
        pulls batches one at a time (``Cursor.fetchmany`` rides this).
        ``batch_size`` overrides the planner's default batch width for
        this stream only — a per-session execution option.
        """
        compiled, bindings = self.compile_select_cached(statement)
        ctx = compiled.plan.new_context()
        ctx.bind_parameters(params)
        if bindings:
            ctx.parameters.update(bindings)
        return self.stream_compiled(compiled, ctx, batch_size=batch_size)

    @staticmethod
    def stream_compiled(compiled: CompiledQuery, ctx: ExecutionContext,
                        batch_size: Optional[int] = None) -> QueryStream:
        plan = compiled.plan
        _stream, node = plan.single_output()
        return QueryStream(list(node.columns),
                           plan.batches(node, ctx, batch_size), ctx)
