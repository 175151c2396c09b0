"""Prepared statements, parameter binding, and the plan cache.

Covers the ISSUE-3 tentpole surface: ``?`` / ``:name`` markers through
lexer, parser and execution; auto-parameterization (literal lifting);
``db.prepare`` / ``db.query(sql, params=...)``; cache hit/miss and LRU
behavior; and invalidation on DDL, ANALYZE, material statistics drift,
transaction rollback, and materialized-view interplay.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, LexerError, SemanticError
from repro.executor.plan_cache import (PlanCache, parameterize_dml,
                                       parameterize_select)
from repro.executor.runtime import PipelineOptions
from repro.sql import ast
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY


def rows(db, sql, params=None):
    return db.query(sql, params=params).rows


# ----------------------------------------------------------------------
# Lexing and parsing of parameter markers
# ----------------------------------------------------------------------
class TestParameterSyntax:
    def test_question_mark_token(self):
        tokens = tokenize("SELECT ?")
        assert tokens[1].type is TokenType.PARAMETER
        assert tokens[1].value == "?"

    def test_named_parameter_token(self):
        tokens = tokenize("WHERE x = :dept_no")
        parameter = [t for t in tokens
                     if t.type is TokenType.PARAMETER][0]
        assert parameter.value == "dept_no"

    def test_colon_without_name_is_error(self):
        with pytest.raises(LexerError, match="parameter name"):
            tokenize("SELECT :")

    def test_positional_parameters_numbered_in_order(self):
        statement = parse_statement(
            "SELECT * FROM T WHERE a = ? AND b = ? AND c = ?")
        indices = [n.index for n in ast.walk_expression(statement.where)
                   if isinstance(n, ast.Parameter)]
        assert indices == [0, 1, 2]

    def test_named_parameters_uppercased(self):
        statement = parse_statement("SELECT * FROM T WHERE a = :low")
        names = [n.name for n in ast.walk_expression(statement.where)
                 if isinstance(n, ast.Parameter)]
        assert names == ["LOW"]

    def test_parameter_str_forms(self):
        assert str(ast.Parameter(index=0)) == "?1"
        assert str(ast.Parameter(name="N")) == ":N"

    def test_script_numbers_parameters_per_statement(self):
        from repro.sql.parser import parse_script
        statements = parse_script(
            "SELECT * FROM T WHERE a = ?; SELECT * FROM T WHERE b = ?")
        for statement in statements:
            indices = [n.index
                       for n in ast.walk_expression(statement.where)
                       if isinstance(n, ast.Parameter)]
            assert indices == [0]

    def test_analyze_statement_parses(self):
        statement = parse_statement("ANALYZE")
        assert isinstance(statement, ast.AnalyzeStatement)
        assert statement.table is None
        statement = parse_statement("ANALYZE emp")
        assert statement.table == "emp"


# ----------------------------------------------------------------------
# Execution with bound parameters
# ----------------------------------------------------------------------
class TestParameterBinding:
    def test_positional(self, simple_db):
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE ENO = ?", [11]) \
            == [("bob",)]

    def test_named(self, simple_db):
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE SAL > :floor "
                    "ORDER BY ENO",
                    {"floor": 120}) == [("dee",), ("eve",)]

    def test_same_plan_different_bindings(self, simple_db):
        sql = "SELECT ENAME FROM EMP WHERE ENO = ?"
        assert rows(simple_db, sql, [10]) == [("ann",)]
        assert rows(simple_db, sql, [13]) == [("dee",)]
        assert simple_db.engine.pipeline.plan_cache.stats.hits >= 1

    def test_parameter_in_select_list(self, simple_db):
        assert rows(simple_db, "SELECT ? FROM DEPT WHERE DNO = 1",
                    ["tag"]) == [("tag",)]

    def test_parameter_null_equality_matches_nothing(self, simple_db):
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE EDNO = ?",
                    [None]) == []

    def test_missing_parameter_raises(self, simple_db):
        with pytest.raises(ExecutionError, match="no bound value"):
            rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = ?")

    def test_missing_named_parameter_raises(self, simple_db):
        with pytest.raises(ExecutionError, match=":GHOST"):
            rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = :ghost",
                 {"other": 1})

    def test_bad_params_type_raises(self, simple_db):
        with pytest.raises(ExecutionError, match="parameters must be"):
            rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = ?", 11)

    def test_parameters_in_in_list(self, simple_db):
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE ENO IN (?, ?) "
                    "ORDER BY ENO", [10, 12]) == [("ann",), ("carl",)]

    def test_parameters_in_between(self, simple_db):
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE SAL BETWEEN ? AND ? "
                    "ORDER BY ENO", [100, 130]) \
            == [("ann",), ("bob",)]

    def test_dml_insert_with_parameters(self, simple_db):
        count = simple_db.execute(
            "INSERT INTO EMP VALUES (?, ?, ?, ?)", [99, "zed", 1, 50])
        assert count == 1
        assert rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = 99") \
            == [("zed",)]

    def test_dml_update_with_parameters(self, simple_db):
        simple_db.execute("UPDATE EMP SET SAL = :sal WHERE ENO = :eno",
                          {"sal": 777, "eno": 12})
        assert rows(simple_db, "SELECT SAL FROM EMP WHERE ENO = 12") \
            == [(777,)]

    def test_dml_delete_with_parameters(self, simple_db):
        assert simple_db.execute("DELETE FROM EMP WHERE ENO = ?",
                                 [14]) == 1
        assert rows(simple_db, "SELECT COUNT(*) FROM EMP") == [(4,)]


# ----------------------------------------------------------------------
# db.prepare
# ----------------------------------------------------------------------
class TestPreparedStatements:
    def test_prepared_select_repeats(self, simple_db):
        stmt = simple_db.prepare("SELECT ENAME FROM EMP WHERE ENO = ?")
        assert stmt.run([10]).rows == [("ann",)]
        assert stmt.run([11]).rows == [("bob",)]
        assert stmt([13]).rows == [("dee",)]

    def test_prepared_select_hits_cache(self, simple_db):
        stmt = simple_db.prepare("SELECT ENAME FROM EMP WHERE ENO = ?")
        stmt.run([10])
        before = simple_db.engine.pipeline.plan_cache.stats.hits
        stmt.run([11])
        stmt.run([12])
        assert simple_db.engine.pipeline.plan_cache.stats.hits == before + 2

    def test_prepared_statement_shares_plan_with_adhoc(self, simple_db):
        # The auto-parameterized ad-hoc form and the explicit prepared
        # form normalize to different keys (literal lifted vs explicit
        # marker share the same shape), so both must at least agree on
        # results.
        stmt = simple_db.prepare("SELECT ENAME FROM EMP WHERE ENO = ?")
        assert stmt.run([12]).rows == rows(
            simple_db, "SELECT ENAME FROM EMP WHERE ENO = 12")

    def test_prepared_dml(self, simple_db):
        stmt = simple_db.prepare(
            "UPDATE EMP SET SAL = ? WHERE ENO = ?")
        stmt.run([300, 10])
        stmt.run([400, 11])
        assert rows(simple_db,
                    "SELECT SAL FROM EMP WHERE ENO IN (10, 11) "
                    "ORDER BY ENO") == [(300,), (400,)]

    def test_prepared_xnf(self, org_db):
        stmt = org_db.prepare(DEPS_ARC_QUERY)
        first = stmt.run()
        second = stmt.run()
        assert first.component("XDEPT").rows \
            == second.component("XDEPT").rows

    def test_prepare_rejects_ddl(self, simple_db):
        with pytest.raises(SemanticError, match="cannot prepare"):
            simple_db.prepare("CREATE TABLE X (A INT)")

    def test_prepared_xnf_rejects_params(self, org_db):
        stmt = org_db.prepare(DEPS_ARC_QUERY)
        with pytest.raises(SemanticError, match="parameters"):
            stmt.run([1])

    def test_prepared_survives_ddl_between_runs(self, simple_db):
        stmt = simple_db.prepare("SELECT ENAME FROM EMP WHERE ENO = ?")
        assert stmt.run([10]).rows == [("ann",)]
        simple_db.execute("CREATE INDEX IX_SAL ON EMP (SAL)")
        # schema version moved: the cached entry is invalid, but the
        # prepared statement transparently recompiles.
        assert stmt.run([10]).rows == [("ann",)]


# ----------------------------------------------------------------------
# Auto-parameterization
# ----------------------------------------------------------------------
class TestAutoParameterization:
    def test_literal_variants_share_one_plan(self, simple_db):
        cache = simple_db.engine.pipeline.plan_cache
        rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = 10")
        stores = cache.stats.stores
        rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = 11")
        rows(simple_db, "SELECT ENAME FROM EMP WHERE ENO = 12")
        assert cache.stats.stores == stores  # no new compiles

    def test_lift_skips_bool_and_null(self):
        statement = parse_statement(
            "SELECT * FROM T WHERE a = 5 AND b IS NULL AND c = TRUE")
        parameterized = parameterize_select(statement)
        lifted = [n for n in ast.walk_expression(parameterized.statement.where)
                  if isinstance(n, ast.Parameter)]
        assert len(lifted) == 1  # only the 5
        assert parameterized.values == ((0, 5),)

    def test_lift_continues_after_explicit_markers(self):
        statement = parse_statement(
            "SELECT * FROM T WHERE a = ? AND b = 7")
        parameterized = parameterize_select(statement)
        assert parameterized.values == ((1, 7),)

    def test_grouped_head_not_lifted(self):
        statement = parse_statement(
            "SELECT sal / 100, COUNT(*) FROM EMP GROUP BY sal / 100")
        parameterized = parameterize_select(statement)
        head = parameterized.statement.select_items[0].expression
        assert isinstance(head.right, ast.Literal)

    def test_where_lifted_even_when_grouped(self):
        statement = parse_statement(
            "SELECT EDNO, COUNT(*) FROM EMP WHERE SAL > 100 "
            "GROUP BY EDNO")
        parameterized = parameterize_select(statement)
        assert parameterized.values == ((0, 100),)

    def test_like_pattern_not_lifted(self):
        statement = parse_statement(
            "SELECT * FROM T WHERE name LIKE 'a%'")
        parameterized = parameterize_select(statement)
        like = parameterized.statement.where
        assert isinstance(like.pattern, ast.Literal)

    def test_dml_lifting(self):
        update = parameterize_dml(parse_statement(
            "UPDATE T SET c = c + 2 WHERE a = 3 AND b = ?"))
        # SET before WHERE, after the explicit ? at index 0.
        assert update.values == ((1, 2), (2, 3))
        assert update.statement.assignments[0].value.right \
            == ast.Parameter(index=1)
        delete = parameterize_dml(parse_statement("DELETE FROM T"))
        assert delete.statement.where is None
        assert delete.values == ()
        assert hash(delete.key) == hash(parameterize_dml(
            parse_statement("delete from T")).key)

    def test_grouped_queries_still_work(self, simple_db):
        expected = [(0.9, 1), (1, 1), (1.2, 1), (1.5, 1), (2, 1)]
        got = rows(simple_db,
                   "SELECT sal / 100, COUNT(*) FROM EMP "
                   "GROUP BY sal / 100 ORDER BY 1")
        assert got == expected
        # and again, through the cache
        assert rows(simple_db,
                    "SELECT sal / 100, COUNT(*) FROM EMP "
                    "GROUP BY sal / 100 ORDER BY 1") == expected


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------
class TestPlanCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store("a", 1, 0)
        cache.store("b", 2, 0)
        cache.store("c", 3, 0)
        assert cache.lookup("a", 0) is None
        assert cache.lookup("c", 0).value == 3
        assert cache.stats.evictions == 1

    def test_lookup_moves_to_front(self):
        cache = PlanCache(capacity=2)
        cache.store("a", 1, 0)
        cache.store("b", 2, 0)
        cache.lookup("a", 0)
        cache.store("c", 3, 0)  # evicts b, not a
        assert cache.lookup("a", 0) is not None
        assert cache.lookup("b", 0) is None

    def test_schema_version_mismatch_invalidates(self):
        cache = PlanCache()
        cache.store("k", 1, schema_version=1)
        assert cache.lookup("k", 2) is None
        assert cache.stats.invalidations == 1
        assert "schema" in cache.last_info.reason

    def test_table_epoch_mismatch_invalidates(self):
        cache = PlanCache()
        cache.store("k", 1, schema_version=1,
                    stats_keys=(("EMP", 1, 100),))
        assert cache.lookup("k", 1, lambda t: (2, 100)) is None
        assert "statistics" in cache.last_info.reason

    def test_unrelated_table_epoch_ignored(self):
        cache = PlanCache()
        cache.store("k", 1, schema_version=1,
                    stats_keys=(("EMP", 1, 100),))
        # EMP's view is unchanged; whatever happened elsewhere in the
        # database never reaches this entry's validation keys.
        assert cache.lookup("k", 1, lambda t: (1, 104)) is not None

    def test_cardinality_drift_invalidates_and_reports(self):
        cache = PlanCache()
        cache.store("k", 1, schema_version=1,
                    stats_keys=(("EMP", 1, 100),))
        drifted: list[str] = []
        assert cache.lookup("k", 1, lambda t: (1, 200),
                            on_drift=drifted.append) is None
        assert "drifted" in cache.last_info.reason
        assert drifted == ["EMP"]

    def test_alias_is_free_and_leaves_with_its_artifact(self):
        cache = PlanCache(capacity=2)
        cache.store("a", 1, 0)
        cache.alias("a-canon", "a")
        cache.store("b", 2, 0)
        assert len(cache) == 2 and cache.stats.evictions == 0
        assert cache.lookup("a-canon", 0).value == 1  # a is now MRU
        cache.store("c", 3, 0)  # evicts b
        cache.store("d", 4, 0)  # evicts a, and its alias with it
        assert cache.lookup("a-canon", 0) is None
        assert cache.stats.evictions == 2

    def test_concurrent_store_alias_lookup_keeps_aliases_consistent(self):
        import sys
        import threading
        cache = PlanCache(capacity=4)
        errors: list = []

        def hammer(worker: int) -> None:
            try:
                for step in range(400):
                    key = (worker + step) % 9
                    cache.store(key, key, 0)
                    cache.alias(("canon", key), key)
                    entry = cache.lookup(("canon", key), 0)
                    if entry is not None and entry.value != key:
                        errors.append((key, entry.value))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,),
                                        daemon=True) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 4
        # Every alias names a live artifact that lists it, and back.
        for alias, primary in cache._aliases.items():
            assert alias in cache._entries[primary].aliases
        for primary, entry in cache._entries.items():
            for alias in entry.aliases:
                assert cache._aliases[alias] == primary

    def test_capacity_counts_compiled_select_shapes(self, simple_db):
        # Each SELECT compile is keyed twice (AST + post-rewrite
        # canonical form); capacity must count the plan once, so a
        # cycle of capacity // 2 + 1 shapes still hits on every repeat.
        capacity = 8
        cache = simple_db.engine.pipeline.plan_cache
        cache.capacity = capacity
        cache.clear()
        projections = ["ENAME", "SAL", "EDNO", "ENO", "ENAME, SAL"]
        assert len(projections) == capacity // 2 + 1
        for projection in projections:
            rows(simple_db, f"SELECT {projection} FROM EMP WHERE ENO = 10")
        for projection in projections:
            rows(simple_db, f"SELECT {projection} FROM EMP WHERE ENO = 12")
            assert cache.last_info.status == "hit", projection
        assert cache.stats.evictions == 0

    def test_capacity_zero_disables(self, simple_db):
        from repro.api.engine import Engine
        db = Engine(PipelineOptions(plan_cache_size=0)).connect()
        db.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        db.execute("INSERT INTO T VALUES (1)")
        assert db.query("SELECT * FROM T WHERE A = 1").rows == [(1,)]
        assert db.query("SELECT * FROM T WHERE A = ?", [1]).rows \
            == [(1,)]
        assert len(db.engine.pipeline.plan_cache) == 0
        assert db.engine.pipeline.plan_cache.stats.hits == 0


# ----------------------------------------------------------------------
# Invalidation end to end
# ----------------------------------------------------------------------
class TestInvalidation:
    def probe(self, db, sql="SELECT ENAME FROM EMP WHERE ENO = 10"):
        """Run, then return the cache status of an immediate re-run."""
        db.query(sql)
        db.query(sql)
        return db.engine.pipeline.plan_cache.last_info

    def test_warm_cache_hits(self, simple_db):
        assert self.probe(simple_db).status == "hit"

    def test_create_table_invalidates(self, simple_db):
        assert self.probe(simple_db).status == "hit"
        simple_db.execute("CREATE TABLE AUX (A INT)")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        info = simple_db.engine.pipeline.plan_cache.last_info
        assert info.status == "miss"
        assert "schema" in info.reason

    def test_drop_table_invalidates(self, simple_db):
        simple_db.execute("CREATE TABLE AUX (A INT)")
        assert self.probe(simple_db).status == "hit"
        simple_db.execute("DROP TABLE AUX")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        assert simple_db.engine.pipeline.plan_cache.last_info.status == "miss"

    def test_create_index_invalidates_and_replans(self, simple_db):
        sql = "SELECT ENAME FROM EMP WHERE SAL = 100"
        simple_db.query(sql)
        explain_before = simple_db.explain(sql)
        assert "IndexScan" not in explain_before
        simple_db.execute("CREATE INDEX IX_SAL ON EMP (SAL)")
        explain_after = simple_db.explain(sql)
        assert "IndexScan" in explain_after
        assert rows(simple_db, sql) == [("ann",)]

    def test_drop_index_invalidates_and_replans(self, simple_db):
        simple_db.execute("CREATE INDEX IX_SAL ON EMP (SAL)")
        sql = "SELECT ENAME FROM EMP WHERE SAL = 100"
        assert "IndexScan" in simple_db.explain(sql)
        simple_db.execute("DROP INDEX IX_SAL")
        assert "IndexScan" not in simple_db.explain(sql)
        assert rows(simple_db, sql) == [("ann",)]

    def test_analyze_invalidates(self, simple_db):
        assert self.probe(simple_db).status == "hit"
        analyzed = simple_db.execute("ANALYZE")
        assert analyzed == 2
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        info = simple_db.engine.pipeline.plan_cache.last_info
        assert info.status == "miss"
        assert "statistics" in info.reason

    def test_analyze_single_table(self, simple_db):
        epoch = simple_db.engine.stats.epoch
        assert simple_db.execute("ANALYZE EMP") == 1
        assert simple_db.engine.stats.epoch == epoch + 1

    def test_small_dml_keeps_cache_warm(self, simple_db):
        assert self.probe(simple_db).status == "hit"
        simple_db.execute("INSERT INTO EMP VALUES (90,'x',1,1)")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        assert simple_db.engine.pipeline.plan_cache.last_info.status == "hit"

    def test_material_dml_drift_invalidates(self, simple_db):
        assert self.probe(simple_db).status == "hit"
        for i in range(40):
            simple_db.execute(
                f"INSERT INTO EMP VALUES ({500 + i}, 'm{i}', 1, 10)")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        info = simple_db.engine.pipeline.plan_cache.last_info
        assert info.status == "miss"
        assert "statistics" in info.reason

    def test_unrelated_table_drift_keeps_plans_warm(self, simple_db):
        """Material drift on one table must not flush plans over
        other tables (per-table statistics epochs)."""
        assert self.probe(simple_db).status == "hit"
        simple_db.execute("CREATE TABLE LOG (N INT)")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")  # rewarm
        for i in range(40):  # material drift, but only on LOG
            simple_db.execute(f"INSERT INTO LOG VALUES ({i})")
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        assert simple_db.engine.pipeline.plan_cache.last_info.status == "hit"

    def test_direct_storage_drift_invalidates(self, simple_db):
        """Rows added via Table.insert (no DML deltas) are caught by
        the per-entry cardinality check at lookup."""
        assert self.probe(simple_db).status == "hit"
        emp = simple_db.table("EMP")
        for i in range(60):
            emp.insert((700 + i, f"bulk-{i}", 1, 10))
        simple_db.query("SELECT ENAME FROM EMP WHERE ENO = 10")
        info = simple_db.engine.pipeline.plan_cache.last_info
        assert info.status == "miss"
        assert "drifted" in info.reason
        # ... and the recompiled plan serves the new data correctly.
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE ENO = 705") \
            == [("bulk-5",)]

    def test_rollback_of_delta_emitting_txn(self, simple_db):
        sql = "SELECT COUNT(*) FROM EMP"
        assert rows(simple_db, sql) == [(5,)]
        simple_db.begin()
        simple_db.execute("INSERT INTO EMP VALUES (77,'tmp',1,1)")
        assert rows(simple_db, sql) == [(6,)]
        simple_db.rollback()
        # The cached plan must see the rolled-back state.
        assert rows(simple_db, sql) == [(5,)]
        assert rows(simple_db,
                    "SELECT ENAME FROM EMP WHERE ENO = 77") == []

    def test_matview_interplay(self, org_db):
        result = org_db.xnf("deps_arc")
        baseline = len(result.component("XEMP"))
        org_db.execute(
            f"CREATE MATERIALIZED VIEW mv AS {DEPS_ARC_QUERY}")
        served = org_db.xnf(DEPS_ARC_QUERY)
        assert len(served.component("XEMP")) == baseline
        # DML flows through deltas to the matview while cached SQL
        # plans still answer correctly.
        org_db.execute("INSERT INTO EMP VALUES (7777, 'new', 1, 1)")
        refreshed = org_db.matview("mv")
        assert len(refreshed.component("XEMP")) == baseline + 1

    def test_xnf_read_path_cached(self, org_db):
        org_db.xnf("deps_arc")
        before = org_db.engine.pipeline.plan_cache.stats.hits
        org_db.xnf("deps_arc")
        assert org_db.engine.pipeline.plan_cache.stats.hits > before


# ----------------------------------------------------------------------
# EXPLAIN surface
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_reports_miss_then_hit(self, simple_db):
        sql = "SELECT ENAME FROM EMP WHERE ENO = 10"
        first = simple_db.explain(sql)
        assert "-- plan cache --" in first
        assert "status: miss" in first
        assert "fingerprint:" in first
        second = simple_db.explain(sql)
        assert "status: hit" in second

    def test_explain_xnf_has_cache_section(self, org_db):
        text = org_db.explain(DEPS_ARC_QUERY)
        assert "-- plan cache --" in text

    def test_explain_bypass_when_disabled(self):
        from repro.api.engine import Engine
        db = Engine(PipelineOptions(plan_cache_size=0)).connect()
        db.execute("CREATE TABLE T (A INT)")
        text = db.explain("SELECT * FROM T")
        assert "status: bypass" in text


# ----------------------------------------------------------------------
# Statistics epoch unit behavior
# ----------------------------------------------------------------------
class TestStatsEpoch:
    def test_invalidate_bumps_epoch(self, simple_db):
        epoch = simple_db.engine.stats.epoch
        simple_db.engine.stats.invalidate("EMP")
        assert simple_db.engine.stats.epoch == epoch + 1

    def test_invalidate_all_bumps_epoch(self, simple_db):
        epoch = simple_db.engine.stats.epoch
        simple_db.engine.stats.invalidate()
        assert simple_db.engine.stats.epoch == epoch + 1

    def test_small_delta_does_not_bump(self, simple_db):
        simple_db.query("SELECT COUNT(*) FROM EMP")  # settle baselines
        epoch = simple_db.engine.stats.epoch
        simple_db.execute("INSERT INTO EMP VALUES (91,'y',1,1)")
        assert simple_db.engine.stats.epoch == epoch
