"""The unified CompilationPipeline: stages, tracing, budget, caching.

Covers the ISSUE-4 acceptance criteria: one compile path for all four
entry points, a configurable rewrite budget with a named failure, the
EXPLAIN rewrite trace, and plan-cache convergence on the post-rewrite
canonical form.
"""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.compiler.pipeline import (CompilationPipeline, CompilationTrace,
                                     PipelineOptions)
from repro.errors import RewriteError
from repro.executor.runtime import QueryPipeline
from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement

INLINE_VIEW_BODY = ("SELECT e.eno, e.ename, d.loc FROM EMP e, DEPT d "
                    "WHERE e.edno = d.dno")


@pytest.fixture
def viewed_db(simple_db) -> Session:
    simple_db.execute(f"CREATE VIEW emp_dept AS {INLINE_VIEW_BODY}")
    return simple_db


class TestStages:
    def test_trace_records_stage_sequence(self, simple_db):
        trace = CompilationTrace()
        simple_db.engine.pipeline.compile_select(
            parse_statement("SELECT ename FROM EMP WHERE sal > 100"),
            trace=trace)
        stages = [record.stage for record in trace.records]
        assert stages == ["build", "normalize", "rewrite", "prune",
                          "plan"]

    def test_trace_renders_rules_in_order(self, simple_db):
        trace = CompilationTrace()
        simple_db.engine.pipeline.compile_select(
            parse_statement(
                "SELECT x.ename FROM (SELECT ename FROM EMP "
                "WHERE sal > 100) x"),
            trace=trace)
        assert "SelectMerge" in trace.rules_fired
        rendered = trace.render()
        assert rendered.startswith("-- rewrite trace --")
        assert "rules fired:" in rendered

    def test_explain_rewrite_trace_flag(self, simple_db):
        plain = simple_db.explain("SELECT ename FROM EMP")
        assert "-- rewrite trace --" not in plain
        traced = simple_db.explain("SELECT ename FROM EMP",
                                   rewrite_trace=True)
        assert "-- rewrite trace --" in traced
        assert "stage build" in traced
        assert "rules fired:" in traced
        assert "rewrite trace requested" in traced  # cache bypassed

    def test_normalize_drops_trivial_conjuncts(self, simple_db):
        graph = simple_db.engine.pipeline.compiler.build_select(parse_statement(
            "SELECT ename FROM EMP WHERE EXISTS "
            "(SELECT 1 FROM DEPT WHERE dno = 1)"))
        from repro.sql import ast
        box = graph.top.single_output().box
        box.predicates.append(ast.Literal(True))
        assert CompilationPipeline.normalize(graph) >= 1


class TestRewriteBudget:
    EXHAUSTING_SQL = ("SELECT x.ename FROM (SELECT ename FROM EMP "
                      "WHERE sal > 100) x")

    def test_budget_configurable_via_planner_options(self, simple_db):
        options = PipelineOptions(
            planner=PlannerOptions(rewrite_budget=1))
        pipeline = QueryPipeline(simple_db.engine.catalog, simple_db.engine.stats,
                                 options)
        with pytest.raises(RewriteError) as excinfo:
            pipeline.compile_select(parse_statement(self.EXHAUSTING_SQL))
        message = str(excinfo.value)
        assert "rewrite budget (1) exhausted" in message
        assert "last rule:" in message
        assert "applications:" in message

    def test_default_budget_suffices(self, simple_db):
        compiled = simple_db.engine.pipeline.compile_select(
            parse_statement(self.EXHAUSTING_SQL))
        assert compiled.plan is not None


class TestCanonicalCacheKeying:
    THROUGH_VIEW = "SELECT v.ename FROM emp_dept v WHERE v.eno = 10"
    INLINED = (f"SELECT v.ename FROM ({INLINE_VIEW_BODY}) v "
               f"WHERE v.eno = 10")

    def test_view_and_inline_share_plan_entry(self, viewed_db):
        cache = viewed_db.engine.pipeline.plan_cache
        first = viewed_db.query(self.THROUGH_VIEW)
        assert cache.last_info.status == "miss"
        second = viewed_db.query(self.INLINED)
        assert cache.last_info.status == "hit"
        assert cache.last_info.reason == \
            "post-rewrite canonical form matched"
        assert first.rows == second.rows == [("ann",)]

    def test_alias_promotes_to_first_level_hit(self, viewed_db):
        viewed_db.query(self.THROUGH_VIEW)
        viewed_db.query(self.INLINED)   # canonical hit, aliased
        viewed_db.query(self.INLINED)   # now a plain AST-key hit
        info = viewed_db.engine.pipeline.plan_cache.last_info
        assert info.status == "hit"
        assert info.reason == ""        # first-level, not canonical

    def test_literals_share_through_parameterization(self, viewed_db):
        viewed_db.query(self.THROUGH_VIEW)
        viewed_db.query(
            "SELECT v.ename FROM emp_dept v WHERE v.eno = 13")
        info = viewed_db.engine.pipeline.plan_cache.last_info
        assert info.status == "hit"

    def test_different_shapes_do_not_collide(self, viewed_db):
        first = viewed_db.query(self.THROUGH_VIEW)
        other = viewed_db.query(
            "SELECT v.loc FROM emp_dept v WHERE v.eno = 10")
        assert viewed_db.engine.pipeline.plan_cache.last_info.status == "miss"
        assert first.rows != other.rows

    def test_compiled_carries_canonical_fingerprint(self, viewed_db):
        compiled, _bindings = viewed_db.engine.pipeline.compile_select_cached(
            parse_statement(self.THROUGH_VIEW))
        assert compiled.canonical

    def test_canonical_hit_counts_as_one_hit(self, viewed_db):
        # One compile is exactly one hit or one miss, even when the
        # hit comes from the second-level canonical probe.
        stats = viewed_db.engine.pipeline.plan_cache.stats
        viewed_db.query(self.THROUGH_VIEW)
        before = (stats.hits, stats.misses)
        viewed_db.query(self.INLINED)
        assert (stats.hits, stats.misses) == (before[0] + 1, before[1])


class TestSingleCompilePath:
    """All four entry points drive the one CompilationPipeline."""

    def test_select_goes_through_compiler(self, simple_db, monkeypatch):
        calls = []
        original = CompilationPipeline.compile_parameterized

        def spy(self, parameterized):
            calls.append("select")
            return original(self, parameterized)

        monkeypatch.setattr(CompilationPipeline, "compile_parameterized",
                            spy)
        simple_db.query("SELECT ename FROM EMP WHERE eno = 10")
        assert calls == ["select"]

    def test_dml_qualification_goes_through_compiler(self, simple_db,
                                                     monkeypatch):
        calls = []
        original = CompilationPipeline.compile_qgm

        def spy(self, graph, trace=None):
            calls.append(graph.top.outputs[0].name)
            return original(self, graph, trace=trace)

        monkeypatch.setattr(CompilationPipeline, "compile_qgm", spy)
        simple_db.execute("UPDATE EMP SET sal = 101 WHERE eno = 10")
        assert "DML" in calls

    def test_xnf_compile_goes_through_compiler(self, org_db,
                                               monkeypatch):
        built, rewritten = [], []
        original_build = CompilationPipeline.build_xnf
        original_rewrite = CompilationPipeline.rewrite_graph

        def spy_build(self, query, view_name="XNF"):
            built.append(view_name)
            return original_build(self, query, view_name=view_name)

        def spy_rewrite(self, graph, trace=None):
            rewritten.append(graph.statement_kind)
            return original_rewrite(self, graph, trace=trace)

        monkeypatch.setattr(CompilationPipeline, "build_xnf", spy_build)
        monkeypatch.setattr(CompilationPipeline, "rewrite_graph",
                            spy_rewrite)
        org_db.xnf("deps_arc")
        assert "DEPS_ARC" in built
        assert "xnf" in rewritten

    def test_matview_compile_goes_through_compiler(self, org_db,
                                                   monkeypatch):
        built = []
        original_build = CompilationPipeline.build_xnf

        def spy_build(self, query, view_name="XNF"):
            built.append(view_name)
            return original_build(self, query, view_name=view_name)

        monkeypatch.setattr(CompilationPipeline, "build_xnf", spy_build)
        org_db.create_materialized_view(
            "mv_deps", org_db.engine.catalog.view("deps_arc").definition)
        assert built

    def test_plan_cache_read_through_is_compiler_owned(self, simple_db):
        assert simple_db.engine.pipeline.plan_cache is \
            simple_db.engine.pipeline.compiler.plan_cache
