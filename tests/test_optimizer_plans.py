"""Plan-shape tests: access paths, join methods, spools."""

from repro.executor.runtime import PipelineOptions, QueryPipeline
from repro.optimizer.optimizer import (DP_JOIN_THRESHOLD, Planner,
                                       PlannerOptions)
from repro.optimizer.plan import (Dedup, ExecutionContext, HashJoin,
                                  IndexNestedLoopJoin, IndexScan,
                                  Materialized, NestedLoopJoin, Project,
                                  SemiJoin, Spool, TableScan)
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY


def plan_nodes(plan_node):
    yield plan_node
    for child in plan_node.children():
        yield from plan_nodes(child)


def plan_for(db, sql, **planner_kwargs):
    options = PipelineOptions(planner=PlannerOptions(**planner_kwargs))
    pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, options,
                             db.engine.pipeline.xnf_component_resolver)
    compiled = pipeline.compile_select(parse_statement(sql))
    return compiled.plan.single_output()[1]


def kinds_in(db, sql, **kwargs):
    return [type(n).__name__ for n in plan_nodes(plan_for(db, sql,
                                                          **kwargs))]


class TestAccessPaths:
    def test_index_scan_for_constant_equality(self, org_db):
        node = plan_for(org_db, "SELECT * FROM EMP WHERE edno = 3")
        assert any(isinstance(n, IndexScan) for n in plan_nodes(node))

    def test_no_index_scan_when_disabled(self, org_db):
        node = plan_for(org_db, "SELECT * FROM EMP WHERE edno = 3",
                        use_indexes=False)
        assert not any(isinstance(n, IndexScan) for n in plan_nodes(node))

    def test_range_predicate_uses_scan(self, org_db):
        node = plan_for(org_db, "SELECT * FROM EMP WHERE edno > 3")
        assert any(isinstance(n, TableScan) for n in plan_nodes(node))

    def test_index_results_match_scan(self, org_db):
        fast = org_db.query("SELECT eno FROM EMP WHERE edno = 3")
        options = PipelineOptions(planner=PlannerOptions(
            use_indexes=False))
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options)
        slow = pipeline.run_select(parse_statement(
            "SELECT eno FROM EMP WHERE edno = 3"))
        assert sorted(fast.rows) == sorted(slow.rows)


class TestJoinMethods:
    def test_equi_join_uses_hash_or_index(self, org_db):
        names = kinds_in(org_db,
                         "SELECT e.ename FROM DEPT d, EMP e "
                         "WHERE d.dno = e.edno AND d.loc = 'ARC'")
        assert "HashJoin" in names or "IndexNestedLoopJoin" in names

    def test_index_nested_loop_through_fk_link(self, org_db):
        node = plan_for(org_db,
                        "SELECT e.ename FROM DEPT d, EMP e "
                        "WHERE d.dno = e.edno AND d.loc = 'ARC'")
        assert any(isinstance(n, IndexNestedLoopJoin)
                   for n in plan_nodes(node))

    def test_dp_priced_method_is_the_built_operator(self, org_db,
                                                    monkeypatch):
        """The DP and the fold estimate a step's rows with one helper,
        so the method the DP priced for each step of the chosen order
        is the operator the plan builds, a non-equi cross predicate
        (``e.sal > p.budget``) included."""
        priced: dict = {}
        step: list = []
        join_method, dp_step = Planner._join_method, Planner._dp_step

        def pricing(self, prev_order, prev_rows, candidate, predicates):
            step.append((frozenset(s.quantifier.name for s in prev_order),
                         candidate.quantifier.name))
            try:
                return dp_step(self, prev_order, prev_rows, candidate,
                               predicates)
            finally:
                step.pop()

        def method(self, prev_rows, candidate, equi, out_rows):
            chosen = join_method(self, prev_rows, candidate, equi,
                                 out_rows)
            if step:
                priced[step[-1]] = chosen[0]
            return chosen
        monkeypatch.setattr(Planner, "_dp_step", pricing)
        monkeypatch.setattr(Planner, "_join_method", method)
        options = PipelineOptions()
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options)
        compiled = pipeline.compile_select(parse_statement(
            "SELECT d.dname, e.ename, p.pname FROM DEPT d, EMP e, PROJ p "
            "WHERE d.dno = e.edno AND p.pdno = d.dno "
            "AND e.sal > p.budget"))
        order = compiled.plan.join_orders[0].names
        assert compiled.plan.join_orders[0].method == "dp"
        operators = {HashJoin: "hash", IndexNestedLoopJoin: "index",
                     NestedLoopJoin: "nested_loop"}
        built = [operators[type(node)] for node in
                 plan_nodes(compiled.plan.single_output()[1])
                 if type(node) in operators][::-1]
        assert built == [priced[(frozenset(order[:i]), order[i])]
                         for i in range(1, len(order))]
        assert "index" in built

    def test_cross_join_nested_loop(self, org_db):
        names = kinds_in(org_db, "SELECT 1 FROM DEPT, SKILLS")
        assert "NestedLoopJoin" in names

    def test_semi_join_for_unconverted_exists(self, org_db):
        # Non-unique correlation keeps the semi-join at plan level.
        node = plan_for(org_db,
                        "SELECT s.sname FROM SKILLS s WHERE EXISTS "
                        "(SELECT 1 FROM EMPSKILLS es "
                        "WHERE es.essno = s.sno)")
        assert any(isinstance(n, SemiJoin) for n in plan_nodes(node))

    def test_anti_join_for_not_exists(self, org_db):
        node = plan_for(org_db,
                        "SELECT s.sname FROM SKILLS s WHERE NOT EXISTS "
                        "(SELECT 1 FROM EMPSKILLS es "
                        "WHERE es.essno = s.sno)")
        semis = [n for n in plan_nodes(node) if isinstance(n, SemiJoin)]
        assert semis and semis[0].anti


class TestSpools:
    def test_shared_view_spooled(self, org_db):
        org_db.execute("CREATE VIEW arc AS SELECT DISTINCT dno FROM DEPT "
                       "WHERE loc = 'ARC'")
        node = plan_for(org_db,
                        "SELECT a.dno FROM arc a, arc b "
                        "WHERE a.dno = b.dno")
        spools = [n for n in plan_nodes(node) if isinstance(n, Spool)]
        assert len(spools) >= 2
        assert spools[0].spool_id == spools[1].spool_id

    def test_spool_materializes_once(self, org_db):
        org_db.execute("CREATE VIEW arc AS SELECT DISTINCT dno FROM DEPT "
                       "WHERE loc = 'ARC'")
        options = PipelineOptions()
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options)
        compiled = pipeline.compile_select(parse_statement(
            "SELECT a.dno FROM arc a, arc b WHERE a.dno = b.dno"))
        ctx = compiled.plan.new_context()
        pipeline.run_compiled(compiled, ctx)
        assert ctx.counters["spool_materializations"] == 1
        assert ctx.counters["spool_reads"] >= 1

    def test_sharing_disabled_reevaluates(self, org_db):
        org_db.execute("CREATE VIEW arc AS SELECT DISTINCT dno FROM DEPT "
                       "WHERE loc = 'ARC'")
        options = PipelineOptions(planner=PlannerOptions(
            share_common_subexpressions=False))
        pipeline = QueryPipeline(org_db.engine.catalog, org_db.engine.stats, options)
        compiled = pipeline.compile_select(parse_statement(
            "SELECT a.dno FROM arc a, arc b WHERE a.dno = b.dno"))
        ctx = compiled.plan.new_context()
        result = pipeline.run_compiled(compiled, ctx)
        assert ctx.counters["spool_materializations"] == 0
        assert len(result.rows) == 2


def unique_nodes(plan):
    """Every node of a multi-output plan once (spools are shared)."""
    seen: dict[int, object] = {}
    for _stream, root in plan.outputs:
        for node in plan_nodes(root):
            seen.setdefault(id(node), node)
    return list(seen.values())


class TestTuplesBuiltOnce:
    """A join emits its box's plain-column head, an identity Project
    passes batches through, and a DISTINCT whose head carries every F
    quantifier's key has no Dedup."""

    VARIANTS = ("WHERE loc = 'ARC'", "WHERE dno BETWEEN 2 AND 5")

    def deps_arc_plan(self, db, variant):
        text = DEPS_ARC_QUERY.replace("WHERE loc = 'ARC'", variant)
        return db.xnf_executable(text).plan

    def test_deps_arc_joins_emit_their_heads(self, org_db):
        for variant in self.VARIANTS:
            nodes = unique_nodes(self.deps_arc_plan(org_db, variant))
            joins = (HashJoin, IndexNestedLoopJoin)
            assert not [n for n in nodes if isinstance(n, Project)
                        and n.positions is not None
                        and isinstance(n.child, joins)
                        and n.child.residual is None], variant
            fused = [n for n in nodes
                     if isinstance(n, joins) and n.positions is not None]
            assert len(fused) == 4, variant
            assert all(" -> (" in n.describe() for n in fused)
            identities = [n for n in nodes
                          if isinstance(n, Project) and n.identity]
            assert len(identities) == 5, variant

    def test_deps_arc_dedups_only_under_relationship_outputs(self, org_db):
        for variant in self.VARIANTS:
            plan = self.deps_arc_plan(org_db, variant)
            dedups = [n for n in unique_nodes(plan) if isinstance(n, Dedup)]
            assert len(dedups) == 2, variant
            roots = {stream.name: node for stream, node in plan.outputs}
            assert {id(roots["EMPPROPERTY"]), id(roots["PROJPROPERTY"])} \
                == {id(n) for n in dedups}

    def test_identity_project_passes_batches_through(self):
        batch = [(1, "a"), (2, "b")]
        child = Materialized(["A", "B"], batch)
        # The kernel would raise: an identity Project never calls it.
        project = Project(child, lambda rows, ctx: 1 / 0, ["X", "Y"],
                          positions=(0, 1))
        assert project.identity
        assert list(project.execute_batches(ExecutionContext(), 8)) \
            == [batch]

    def test_emitted_head_matches_the_projected_join(self):
        left = [(1, "a"), (2, "b"), (None, "n"), (2, "c")]
        right = [(2, "x", 7), (1, "y", 8), (2, "z", 9), (None, "w", 0)]

        def key(position):
            return lambda rows, ctx: [row[position] for row in rows]

        def join():
            return HashJoin(Materialized(["L", "LV"], left),
                            Materialized(["R", "RV", "RW"], right),
                            key(0), key(0))
        wide = list(join().execute(ExecutionContext(), 2))
        for positions in ((4, 1, 0), (3,), (0, 1, 2, 3, 4)):
            fused = join()
            fused.emit_head(positions, [f"C{p}" for p in positions])
            assert list(fused.execute(ExecutionContext(), 2)) == \
                [tuple(row[p] for p in positions) for row in wide]

    def test_index_join_emits_its_head_under_a_read_view(self, org_db,
                                                          monkeypatch):
        import repro.optimizer.plan as plan_module

        sql = ("SELECT e.eno, e.sal, d.dno, e.edno FROM DEPT d, EMP e "
               "WHERE e.edno = d.dno AND d.loc = 'ARC'")
        node = plan_for(org_db, sql)
        assert isinstance(node, IndexNestedLoopJoin), node.explain()
        assert node.positions is not None
        before = sorted(org_db.query(sql).rows)
        writer = org_db.engine.connect()
        writer.begin()
        writer.execute("UPDATE EMP SET sal = sal + 1000, edno = 1")
        probes = []
        real = plan_module.visible_index_lookup

        def counting(*args):
            probes.append(args)
            return real(*args)
        monkeypatch.setattr(plan_module, "visible_index_lookup", counting)
        assert sorted(org_db.query(sql).rows) == before
        assert probes  # the read-view path ran
        writer.rollback()


class TestInstrumentation:
    def test_rows_scanned_counted(self, org_db):
        compiled = org_db.engine.pipeline.compile_select(parse_statement(
            "SELECT * FROM DEPT"))
        ctx = compiled.plan.new_context()
        org_db.engine.pipeline.run_compiled(compiled, ctx)
        assert ctx.counters["rows_scanned"] == 6

    def test_explain_renders_tree(self, org_db):
        text = org_db.explain("SELECT e.ename FROM DEPT d, EMP e "
                              "WHERE d.dno = e.edno")
        assert "plan" in text and "TableScan" in text


class TestEmptyInputs:
    def test_empty_table_joins(self, empty_org_db):
        assert empty_org_db.query(
            "SELECT * FROM DEPT d, EMP e WHERE d.dno = e.edno").rows == []

    def test_empty_aggregate(self, empty_org_db):
        assert empty_org_db.query(
            "SELECT COUNT(*) FROM EMP").rows == [(0,)]

    def test_empty_union(self, empty_org_db):
        assert empty_org_db.query(
            "SELECT dno FROM DEPT UNION SELECT eno FROM EMP").rows == []


# ----------------------------------------------------------------------
# Statistics-driven regressions: cases where a 1/NDV estimate is
# provably wrong and the planner must not be fooled by it.
# ----------------------------------------------------------------------
def make_skew_db():
    """A skewed FK fan-out: CUST (50 rows) -> ORDERS (1000 rows) where
    95% of orders share STATUS 'HOT' and the rest spread over 50 rare
    statuses.  A 1/NDV guess prices STATUS = 'HOT' at ~20 rows — off by
    ~50x — which would flip both the join order and the access path."""
    from repro.api.engine import Engine
    db = Engine().connect()
    db.execute("CREATE TABLE CUST (CID INT PRIMARY KEY, REGION VARCHAR)")
    db.execute("CREATE TABLE ORDERS (OID INT PRIMARY KEY, CID INT, "
               "STATUS VARCHAR)")
    db.execute("CREATE INDEX ORD_CID ON ORDERS (CID)")
    db.execute("CREATE INDEX ORD_STATUS ON ORDERS (STATUS)")
    cust = db.table("CUST")
    orders = db.table("ORDERS")
    for cid in range(50):
        cust.insert((cid, "WEST" if cid % 2 else "EAST"))
    for oid in range(1000):
        status = "HOT" if oid % 20 else f"S{oid // 20}"
        orders.insert((oid, oid % 50, status))
    db.analyze()
    return db


def compiled_for(db, sql, **planner_kwargs):
    options = PipelineOptions(planner=PlannerOptions(**planner_kwargs))
    pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, options,
                             db.engine.pipeline.xnf_component_resolver)
    return pipeline.compile_select(parse_statement(sql))


class TestSkewRegressions:
    SQL = ("SELECT c.cid, o.oid FROM CUST c, ORDERS o "
           "WHERE o.cid = c.cid AND o.status = 'HOT'")

    def test_new_planner_drives_from_the_small_side(self):
        db = make_skew_db()
        compiled = compiled_for(db, self.SQL)
        record = compiled.plan.join_orders[0]
        assert record.method == "dp"
        assert record.names[0] == "c"

    def test_orders_differ_and_answers_match(self):
        db = make_skew_db()
        new = compiled_for(db, self.SQL)
        # The fact-table-first order a 1/NDV estimate would pick.
        forced = compiled_for(db, self.SQL,
                              join_order_hook=lambda names: ["o", "c"])
        assert new.plan.join_orders[0].names != \
            forced.plan.join_orders[0].names
        options = PipelineOptions()
        pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, options)
        assert sorted(pipeline.run_compiled(new).rows) == \
            sorted(pipeline.run_compiled(forced).rows)


class TestAccessPathRegressions:
    def test_low_selectivity_filter_prefers_scan(self):
        db = make_skew_db()
        # 95% of the table matches: fetching it through the index costs
        # ~2x a plain scan.
        node = compiled_for(
            db, "SELECT * FROM ORDERS o WHERE o.status = 'HOT'"
        ).plan.single_output()[1]
        assert not any(isinstance(n, IndexScan) for n in plan_nodes(node))
        assert any(isinstance(n, TableScan) for n in plan_nodes(node))

    def test_selective_filter_still_uses_index(self):
        db = make_skew_db()
        node = compiled_for(
            db, "SELECT * FROM ORDERS o WHERE o.status = 'S7'"
        ).plan.single_output()[1]
        assert any(isinstance(n, IndexScan) for n in plan_nodes(node))

    def test_scan_and_index_answers_match(self):
        db = make_skew_db()
        options = PipelineOptions()
        pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, options)
        for sql in ("SELECT * FROM ORDERS o WHERE o.status = 'HOT'",
                    "SELECT * FROM ORDERS o WHERE o.status = 'S7'"):
            new = compiled_for(db, sql)
            scan = compiled_for(db, sql, use_indexes=False)
            assert sorted(pipeline.run_compiled(new).rows) == \
                sorted(pipeline.run_compiled(scan).rows)


class TestEnumerationModes:
    def test_greedy_beyond_threshold(self):
        from repro.api.engine import Engine
        width = DP_JOIN_THRESHOLD + 1
        db = Engine().connect()
        for i in range(width):
            db.execute(f"CREATE TABLE T{i} (K INT PRIMARY KEY, NXT INT)")
            db.execute(f"INSERT INTO T{i} VALUES "
                       + ", ".join(f"({k}, {(k * 3 + i) % 5})"
                                   for k in range(5)))
        aliases = [f"t{i}" for i in range(width)]
        sql = ("SELECT " + ", ".join(f"{a}.k" for a in aliases)
               + " FROM " + ", ".join(f"T{i} t{i}" for i in range(width))
               + " WHERE " + " AND ".join(
                   f"t{i}.nxt = t{i + 1}.k" for i in range(width - 1)))
        chosen = compiled_for(db, sql)
        assert chosen.plan.join_orders[0].method == "greedy"
        forced = compiled_for(
            db, sql, join_order_hook=lambda names: list(reversed(names)))
        assert forced.plan.join_orders[0].method == "forced"
        pipeline = QueryPipeline(db.engine.catalog, db.engine.stats, PipelineOptions())
        rows = sorted(pipeline.run_compiled(chosen).rows)
        assert rows and rows == sorted(pipeline.run_compiled(forced).rows)

    def test_dp_below_threshold(self, org_db):
        compiled = compiled_for(
            org_db,
            "SELECT d.dname, e.ename FROM DEPT d, EMP e "
            "WHERE d.dno = e.edno")
        assert compiled.plan.join_orders[0].method == "dp"

    def test_explain_surfaces_join_order(self, org_db):
        text = org_db.explain("SELECT e.ename FROM DEPT d, EMP e "
                              "WHERE d.dno = e.edno")
        assert "-- join order --" in text
        assert "cost ~" in text
