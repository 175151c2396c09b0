"""Auto-parameterized XNF queries and the shared plan cache.

An ad-hoc XNF query is lifted like a SELECT: the literals of every
component query and of every relationship predicate and attribute
become synthetic parameters, so all literal variants of one CO-query
shape share one compiled executable.  The sweep below checks that the
lifted run, a literal compile (an engine with the plan cache disabled
compiles the query as written) and the naive reference evaluator build
the same composite objects; the remaining tests pin the cache behaviour
(hits, invalidation, EXPLAIN), the one compile path every XNF consumer
shares (extraction, client caches, materialized views), and the
materialized-view read-through, which must keep matching the query *as
written*.
``REPRO_DIFF_SEEDS=<n>`` widens the sweep as in the other differential
suites.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.errors import ViewUpdateError
from repro.executor.runtime import PipelineOptions
from repro.executor.plan_cache import parameterize_xnf
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.workloads.bom import (BOMScale, bom_view_query,
                                 create_bom_schema, populate_bom)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, LOCATIONS, OrgScale,
                                   create_org_schema, populate_org)

BASE_SEED = 1994
QUERIES_PER_SEED = 12

ORG = OrgScale(departments=12, employees_per_dept=4, projects_per_dept=2,
               skills=10, skills_per_employee=2, skills_per_project=2,
               arc_fraction=0.34, seed=11)


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


def deps_query(dept_where: str, employment_extra: str = "") -> str:
    """DEPS_ARC's shape with another department restriction and,
    optionally, an extra conjunct in the EMPLOYMENT predicate."""
    text = DEPS_ARC_QUERY.replace("WHERE loc = 'ARC'", dept_where)
    if employment_extra:
        text = text.replace("WHERE xdept.dno = xemp.edno",
                            f"WHERE xdept.dno = xemp.edno AND "
                            f"{employment_extra}")
    return text


def co_signature(result) -> dict:
    """A COResult with identities resolved to rows: component rows as
    sorted lists, connections as sorted (parent row, child rows...,
    attribute values...) tuples — comparable across evaluators that
    assign different identifiers."""
    rows_by_oid = {name: dict(zip(stream.oids, stream.rows))
                   for name, stream in result.components.items()}
    out: dict = {name: sorted(stream.rows, key=repr)
                 for name, stream in result.components.items()}
    for name, stream in result.relationships.items():
        partners = (stream.parent,) + tuple(stream.children)
        resolved = []
        for connection in stream.connections:
            identities = connection[:len(partners)]
            attributes = connection[len(partners):]
            resolved.append(tuple(
                rows_by_oid[partner][oid]
                for partner, oid in zip(partners, identities))
                + tuple(attributes))
        out[name] = sorted(resolved, key=repr)
    return out


def assert_three_way(db: Session, literal_db: Session, text: str,
                     label: str) -> str:
    """Compare the three evaluations (``literal_db`` holds the same data
    with the plan cache disabled); returns the plan-cache status of the
    lifted run."""
    lifted = db.xnf(text)
    status = db.engine.pipeline.plan_cache.last_info.status
    inline = literal_db.xnf_executable(text).run()
    naive = db.xnf_naive(text)
    want = co_signature(naive)
    assert co_signature(inline) == want, f"{label}: inline diverged"
    assert co_signature(lifted) == want, f"{label}: lifted diverged"
    return status


def org_session(plan_cache_size: int = 256) -> Session:
    db = Engine(PipelineOptions(plan_cache_size=plan_cache_size)).connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, ORG)
    return db


def bom_session(plan_cache_size: int = 256) -> tuple[Session, dict]:
    db = Engine(PipelineOptions(plan_cache_size=plan_cache_size)).connect()
    create_bom_schema(db.engine.catalog)
    info = populate_bom(db.engine.catalog, BOMScale(roots=3, depth=3, fanout=2,
                                                    seed=5))
    return db, info


@pytest.fixture(scope="module")
def org() -> Session:
    return org_session()


@pytest.fixture(scope="module")
def org_literal() -> Session:
    """The org database on an engine that compiles queries as written."""
    return org_session(plan_cache_size=0)


@pytest.fixture
def fresh_org() -> Session:
    return org_session()


@pytest.fixture(scope="module")
def bom() -> tuple[Session, dict]:
    return bom_session()


def random_query(rng: random.Random) -> str:
    """One literal variant of one of a few fixed CO-query shapes."""
    low = rng.randint(1, ORG.departments - 1)
    high = rng.randint(low, ORG.departments)
    shape = rng.randrange(5)
    if shape == 0:      # numeric range
        return deps_query(f"WHERE dno BETWEEN {low} AND {high}")
    if shape == 1:      # string literal
        return deps_query(f"WHERE loc = '{rng.choice(LOCATIONS)}'")
    if shape == 2:      # a literal inside a relationship WHERE
        return deps_query(f"WHERE dno >= {low}",
                          f"xemp.sal > {rng.randint(0, 3000)}")
    if shape == 3:      # NULL, boolean and LIKE stay inline
        return deps_query(f"WHERE dno <= {high} AND loc IS NOT NULL "
                          f"AND dname LIKE 'dept-1%' AND TRUE")
    return deps_query(  # string + numeric mixed, IN list
        f"WHERE loc IN ('{rng.choice(LOCATIONS)}', "
        f"'{rng.choice(LOCATIONS)}') OR dno = {low}")


@pytest.mark.parametrize("seed", _seeds())
def test_lifted_inline_and_naive_agree(org, org_literal, seed):
    rng = random.Random(seed)
    for number in range(QUERIES_PER_SEED):
        assert_three_way(org, org_literal, random_query(rng),
                         f"seed {seed} q{number}")


def test_recursive_query_variants_agree(bom):
    db, info = bom
    literal_db, _info = bom_session(plan_cache_size=0)
    roots = info["roots"]
    statuses = []
    # Same shape (two anchors, one scaled attribute), other literals.
    for first, second, factor in ((roots[0], roots[1], 2),
                                  (roots[1], roots[2], 3),
                                  (roots[0], roots[2], 5)):
        text = bom_view_query([first, second]).replace(
            "WITH c.qty AS qty\n                        WHERE xassembly",
            f"WITH c.qty * {factor} AS qty\n"
            "                        WHERE xassembly")
        assert f"c.qty * {factor}" in text
        statuses.append(
            assert_three_way(db, literal_db, text,
                             f"anchors {first}, {second}"))
    assert statuses == ["miss", "hit", "hit"]


# ----------------------------------------------------------------------
# Lifting rules
# ----------------------------------------------------------------------
class TestParameterizeXNF:
    def test_components_and_relationships_lifted(self):
        query = parse_statement(deps_query("WHERE dno BETWEEN 3 AND 5",
                                           "xemp.sal > 100"))
        lifted = parameterize_xnf(query)
        assert [value for _, value in lifted.values] == [3, 5, 100]
        employment = next(r for r in lifted.statement.relationships
                          if r.name.upper() == "EMPLOYMENT")
        assert any(isinstance(node, ast.Parameter)
                   for node in ast.walk_expression(employment.where))

    def test_attribute_expressions_lifted(self):
        query = parse_statement(bom_view_query([1]).replace(
            "WITH c.qty AS qty", "WITH c.qty * 4 AS qty", 1))
        lifted = parameterize_xnf(query)
        assert sorted(value for _, value in lifted.values) == [1, 4]

    def test_null_boolean_like_stay_inline(self):
        query = parse_statement(deps_query(
            "WHERE loc IS NOT NULL AND dname LIKE 'dept-1%' AND TRUE "
            "AND dno = NULL"))
        assert parameterize_xnf(query).values == ()

    def test_synthetic_indices_follow_explicit_markers(self):
        query = parse_statement(
            "OUT OF xd AS (SELECT * FROM DEPT WHERE dno = 7), "
            "xe AS EMP, r AS (RELATE xd VIA HAS, xe "
            "WHERE xd.dno = xe.edno AND xe.sal > ?) TAKE *")
        assert parameterize_xnf(query).values == ((1, 7),)

    def test_literal_variants_normalize_equal(self):
        one = parameterize_xnf(parse_statement(
            deps_query("WHERE dno BETWEEN 1 AND 4")))
        two = parameterize_xnf(parse_statement(
            deps_query("WHERE dno BETWEEN 6 AND 9")))
        assert one.statement == two.statement
        assert one.values != two.values


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
class TestSharedExecutable:
    def test_literal_variants_one_miss_then_hits(self, fresh_org):
        cache = fresh_org.engine.pipeline.plan_cache
        misses, hits = cache.stats.misses, cache.stats.hits
        for low in (1, 4, 7):
            fresh_org.xnf(deps_query(f"WHERE dno BETWEEN {low} AND "
                                     f"{low + 3}"))
        assert cache.stats.misses == misses + 1
        assert cache.stats.hits == hits + 2
        assert len(cache) == 1

    def test_lifted_plan_peeks_literal_values(self, fresh_org):
        # Bind peeking: the lifted plan's estimates match a plan
        # compiled with the literals inline (by an engine whose plan
        # cache is disabled, over the same data).
        literal = org_session(plan_cache_size=0).engine

        def estimates(executable) -> dict:
            return {stream.name: node.estimated_rows
                    for stream, node in executable.plan.outputs}
        for where in ("WHERE dno BETWEEN 1 AND 2", "WHERE loc = 'ARC'"):
            query = parse_statement(deps_query(where))
            lifted = fresh_org.engine.compile_xnf(query, "XNF")
            assert lifted.bindings
            inline = literal.compile_xnf(query, "XNF")
            assert inline.bindings == {}  # the literals stay inline
            assert estimates(lifted) == estimates(inline), where

    def test_ddl_invalidates(self, fresh_org):
        cache = fresh_org.engine.pipeline.plan_cache
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 1 AND 3"))
        fresh_org.execute("CREATE INDEX IX_DEPT_LOC ON DEPT (LOC)")
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 2 AND 5"))
        assert cache.last_info.status == "miss"
        assert cache.last_info.reason == "schema changed (DDL)"
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 3 AND 6"))
        assert cache.last_info.status == "hit"

    def test_analyze_invalidates(self, fresh_org):
        cache = fresh_org.engine.pipeline.plan_cache
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 1 AND 3"))
        fresh_org.execute("ANALYZE DEPT")
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 2 AND 5"))
        assert cache.last_info.status == "miss"
        assert "statistics" in cache.last_info.reason

    def test_disabled_cache_neither_caches_nor_lifts(self):
        db = Engine(PipelineOptions(plan_cache_size=0)).connect()
        create_org_schema(db.engine.catalog)
        populate_org(db.engine.catalog, ORG)
        text = deps_query("WHERE dno BETWEEN 2 AND 6")
        result = db.xnf(text)
        assert db.engine.pipeline.plan_cache.last_info.status == "bypass"
        assert len(db.engine.pipeline.plan_cache) == 0
        assert co_signature(result) == co_signature(db.xnf_naive(text))

    def test_sessions_share_the_executable(self):
        engine = Engine()
        create_org_schema(engine.catalog)
        populate_org(engine.catalog, ORG)
        first, second = engine.connect(), engine.connect()
        first.xnf(deps_query("WHERE dno BETWEEN 1 AND 2"))
        second.xnf(deps_query("WHERE dno BETWEEN 5 AND 8"))
        assert engine.pipeline.plan_cache.last_info.status == "hit"
        engine.close()


class TestExplain:
    def test_same_shape_other_literals_is_a_hit(self, fresh_org):
        fresh_org.xnf(deps_query("WHERE dno BETWEEN 1 AND 3"))
        fingerprint = fresh_org.engine.pipeline.plan_cache.last_info.fingerprint
        text = fresh_org.explain(deps_query("WHERE dno BETWEEN 8 AND 11"))
        section = text.split("-- plan cache --")[1]
        assert "status: hit" in section
        assert f"fingerprint: {fingerprint}" in section


class TestMaterializedViewReadThrough:
    DEFINITION = deps_query("WHERE loc = 'ARC'")

    def test_equal_query_served_from_matview(self, fresh_org):
        # The lifted shape is cached first; the exact definition must
        # still go to the materialization, not to the shared plan.
        fresh_org.xnf(deps_query("WHERE loc = 'SF'"))
        view = fresh_org.create_materialized_view("deps_m",
                                                  self.DEFINITION)
        reads = view.stats["reads"]
        result = fresh_org.xnf(self.DEFINITION)
        assert view.stats["reads"] == reads + 1
        assert co_signature(result) == co_signature(
            fresh_org.xnf_naive(self.DEFINITION))

    def test_other_literals_not_served_from_matview(self, fresh_org):
        view = fresh_org.create_materialized_view("deps_m",
                                                  self.DEFINITION)
        reads = view.stats["reads"]
        other = deps_query("WHERE loc = 'SF'")
        result = fresh_org.xnf(other)
        assert view.stats["reads"] == reads
        assert co_signature(result) == co_signature(
            fresh_org.xnf_naive(other))
        assert co_signature(result) != co_signature(
            fresh_org.matview("deps_m"))


# ----------------------------------------------------------------------
# One compile path: extraction, client caches and materialized views
# ----------------------------------------------------------------------
class TestOneCompilePath:
    SF = deps_query("WHERE loc = 'SF'")

    def test_extraction_and_cache_share_one_entry(self, fresh_org):
        cache = fresh_org.engine.pipeline.plan_cache
        fresh_org.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
        fresh_org.xnf("deps_arc")
        assert cache.last_info.status == "miss"
        fresh_org.open_cache("deps_arc")
        assert cache.last_info.status == "hit"
        assert len(cache) == 1

    def test_cache_over_literal_variants_compiles_once(self, fresh_org):
        cache = fresh_org.engine.pipeline.plan_cache
        statuses = []
        for loc in ("ARC", "SF"):
            opened = fresh_org.open_cache(deps_query(f"WHERE loc = '{loc}'"))
            statuses.append(cache.last_info.status)
            assert {o.get("LOC") for o in opened.extent("XDEPT")} == {loc}
        assert statuses == ["miss", "hit"]
        assert len(cache) == 1

    def test_write_through_checks_bind_their_own_literals(self, fresh_org):
        """A write-through cache over query text behaves as one over the
        same view created by name: the component check reads the
        literal of the text it was opened on, also when its executable
        is another variant's, bound to other values."""
        fresh_org.execute(f"CREATE VIEW deps_sf AS {self.SF}")
        plan_cache = fresh_org.engine.pipeline.plan_cache
        fresh_org.open_cache(DEPS_ARC_QUERY, write_through=True)
        caches = {"text": fresh_org.open_cache(self.SF, write_through=True)}
        assert plan_cache.last_info.status == "hit"
        caches["name"] = fresh_org.open_cache("deps_sf", write_through=True)
        for label, cache in caches.items():
            dept = cache.extent("XDEPT")[0]
            before = fresh_org.query(
                f"SELECT loc FROM DEPT WHERE dno = {dept.get('DNO')}").rows
            with pytest.raises(ViewUpdateError,
                               match="view predicate.*'SF'"):
                dept.set("LOC", "ARC")
            assert dept.get("LOC") == "SF", label
            assert fresh_org.query(
                f"SELECT loc FROM DEPT WHERE dno = {dept.get('DNO')}"
            ).rows == before, label
            dept.set("DNAME", f"renamed-{label}")
            assert fresh_org.query(
                f"SELECT dname FROM DEPT WHERE dno = {dept.get('DNO')}"
            ).rows == [(f"renamed-{label}",)], label

    def test_matviews_over_literal_variants(self, fresh_org):
        """Materialized views over query text and over a view created
        by name compile their lifted definition, stay incremental, and
        each equals a fresh extraction of its own text after every
        write."""
        fresh_org.execute(f"CREATE VIEW deps_sf AS {self.SF}")
        views = {
            DEPS_ARC_QUERY: fresh_org.create_materialized_view(
                "m_arc", DEPS_ARC_QUERY),
            self.SF: fresh_org.create_materialized_view("m_sf", "deps_sf")}
        for view, loc in zip(views.values(), ("ARC", "SF")):
            assert view.is_incremental, view.fallback_reason
            assert list(view.executable.bindings.values()) == [loc]
        assert fresh_org.engine.catalog.view("m_sf").definition \
            == parse_statement(self.SF)
        for write in ("UPDATE DEPT SET loc = 'SF' WHERE dno = 1",
                      "UPDATE DEPT SET loc = 'ARC' WHERE dno = 2",
                      "UPDATE EMP SET sal = sal + 5 WHERE edno = 3",
                      "UPDATE EMP SET edno = 4 WHERE eno = 1",
                      "DELETE FROM EMPSKILLS WHERE eseno = 2"):
            fresh_org.execute(write)
            for text, view in views.items():
                assert co_signature(fresh_org.matview(view.name)) == \
                    co_signature(fresh_org.xnf_naive(text)), (write,
                                                              view.name)
