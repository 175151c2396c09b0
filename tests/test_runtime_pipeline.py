"""QueryPipeline behaviour: options, compiled reuse, result helpers."""

import pytest

from repro.executor.runtime import (PipelineOptions, QueryPipeline,
                                    QueryResult)
from repro.optimizer.optimizer import PlannerOptions
from repro.sql.parser import parse_statement


class TestQueryResult:
    def test_column_accessor(self, simple_db):
        result = simple_db.query("SELECT eno, ename FROM EMP ORDER BY eno")
        assert result.column("ename")[0] == "ann"
        assert result.column("ENO")[:2] == [10, 11]

    def test_unknown_column_raises_named_key_error(self, simple_db):
        result = simple_db.query("SELECT eno, ename FROM EMP")
        with pytest.raises(KeyError) as excinfo:
            result.column("ghost")
        message = str(excinfo.value)
        assert "'ghost'" in message
        assert "eno" in message.lower() and "ename" in message.lower()

    def test_unknown_column_on_empty_result(self):
        result = QueryResult(columns=[], rows=[])
        with pytest.raises(KeyError, match="<none>"):
            result.column("anything")

    def test_as_dicts(self, simple_db):
        result = simple_db.query("SELECT dno, loc FROM DEPT "
                                 "WHERE dno = 1")
        assert result.as_dicts() == [{"dno": 1, "loc": "ARC"}] or \
            result.as_dicts() == [{"DNO": 1, "LOC": "ARC"}]

    def test_len_and_iter(self, simple_db):
        result = simple_db.query("SELECT dno FROM DEPT")
        assert len(result) == 3
        assert sorted(result) == [(1,), (2,), (3,)]


class TestCompiledReuse:
    def test_compiled_query_runs_repeatedly(self, simple_db):
        pipeline = simple_db.engine.pipeline
        compiled = pipeline.compile_select(parse_statement(
            "SELECT COUNT(*) FROM EMP"))
        first = pipeline.run_compiled(compiled)
        simple_db.execute("DELETE FROM EMP WHERE eno = 10")
        second = pipeline.run_compiled(compiled)
        assert first.rows == [(5,)]
        assert second.rows == [(4,)]

    def test_context_reuse_requires_reset(self, org_db):
        org_db.execute("CREATE VIEW arc2 AS SELECT DISTINCT dno "
                       "FROM DEPT WHERE loc = 'ARC'")
        pipeline = org_db.engine.pipeline
        compiled = pipeline.compile_select(parse_statement(
            "SELECT a.dno FROM arc2 a, arc2 b WHERE a.dno = b.dno"))
        ctx = compiled.plan.new_context()
        first = pipeline.run_compiled(compiled, ctx)
        org_db.execute("UPDATE DEPT SET loc = 'SF' WHERE dno = 1")
        stale = pipeline.run_compiled(compiled, ctx)  # spool cached
        assert stale.rows == first.rows
        ctx.reset_volatile()
        fresh = pipeline.run_compiled(compiled, ctx)
        assert len(fresh.rows) == len(first.rows) - 1


class TestOptionToggles:
    EXISTS_SQL = ("SELECT e.eno FROM EMP e WHERE EXISTS "
                  "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND "
                  "d.loc = 'ARC')")

    def test_rewrite_toggle_preserves_semantics(self, org_db):
        on = QueryPipeline(org_db.engine.catalog, org_db.engine.stats,
                           PipelineOptions(apply_nf_rewrite=True))
        off = QueryPipeline(org_db.engine.catalog, org_db.engine.stats,
                            PipelineOptions(apply_nf_rewrite=False))
        statement = parse_statement(self.EXISTS_SQL)
        assert sorted(on.run_select(statement).rows) == \
            sorted(off.run_select(statement).rows)

    def test_rewrite_toggle_changes_graph(self, org_db):
        off = QueryPipeline(org_db.engine.catalog, org_db.engine.stats,
                            PipelineOptions(apply_nf_rewrite=False))
        compiled = off.compile_select(parse_statement(self.EXISTS_SQL))
        assert compiled.rewrite_context is None
        box = compiled.graph.top.single_output().box
        assert any(q.qtype == "E" for q in box.body_quantifiers)

    def test_prune_toggle(self, org_db):
        sql = ("SELECT x.eno FROM (SELECT eno, ename, sal FROM EMP "
               "LIMIT 3) x")
        pruned = QueryPipeline(org_db.engine.catalog, org_db.engine.stats,
                               PipelineOptions(prune_columns=True))
        unpruned = QueryPipeline(org_db.engine.catalog, org_db.engine.stats,
                                 PipelineOptions(prune_columns=False))
        assert pruned.compile_select(
            parse_statement(sql)).pruned_columns == 2
        assert unpruned.compile_select(
            parse_statement(sql)).pruned_columns == 0

    def test_degenerate_batch_sizes_clamped(self, org_db):
        reference = org_db.engine.pipeline.run_select(parse_statement(
            "SELECT eno FROM EMP WHERE sal > 0 ORDER BY eno")).rows
        for batch_size in (0, -5, 1):
            pipeline = QueryPipeline(
                org_db.engine.catalog, org_db.engine.stats,
                PipelineOptions(planner=PlannerOptions(
                    batch_size=batch_size)))
            got = pipeline.run_select(parse_statement(
                "SELECT eno FROM EMP WHERE sal > 0 ORDER BY eno")).rows
            assert got == reference, f"batch_size={batch_size}"

    def test_all_toggles_off_still_correct(self, org_db):
        options = PipelineOptions(
            apply_nf_rewrite=False, prune_columns=False,
            planner=PlannerOptions(use_indexes=False,
                                   share_common_subexpressions=False))
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options)
        statement = parse_statement(
            "SELECT d.loc, COUNT(*) FROM DEPT d, EMP e "
            "WHERE d.dno = e.edno GROUP BY d.loc")
        baseline = org_db.engine.pipeline.run_select(statement)
        degraded = pipeline.run_select(statement)
        assert sorted(baseline.rows) == sorted(degraded.rows)
