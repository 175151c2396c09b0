"""Auto-parameterized XNF queries and the shared plan cache.

An ad-hoc XNF query is lifted like a SELECT: the literals of every
component query and of every relationship predicate and attribute
become synthetic parameters, so all literal variants of one CO-query
shape share one compiled executable.  The sweep below checks that the
lifted run, a literal-inline compile and the naive reference evaluator
build the same composite objects; the remaining tests pin the cache
behaviour (hits, invalidation, EXPLAIN) and the materialized-view
read-through, which must keep matching the query *as written*.
``REPRO_DIFF_SEEDS=<n>`` widens the sweep as in the other differential
suites.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
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


def assert_three_way(db: Session, text: str, label: str) -> str:
    """Compare the three evaluations; returns the plan-cache status of
    the lifted run."""
    lifted = db.xnf(text)
    status = db.engine.pipeline.plan_cache.last_info.status
    inline = db.xnf_executable(text).run()
    naive = db.xnf_naive(text)
    want = co_signature(naive)
    assert co_signature(inline) == want, f"{label}: inline diverged"
    assert co_signature(lifted) == want, f"{label}: lifted diverged"
    return status


@pytest.fixture(scope="module")
def org() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, ORG)
    return db


@pytest.fixture
def fresh_org() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, ORG)
    return db


@pytest.fixture(scope="module")
def bom() -> tuple[Session, dict]:
    db = Engine().connect()
    create_bom_schema(db.engine.catalog)
    info = populate_bom(db.engine.catalog, BOMScale(roots=3, depth=3, fanout=2,
                                                    seed=5))
    return db, info


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
def test_lifted_inline_and_naive_agree(org, seed):
    rng = random.Random(seed)
    for number in range(QUERIES_PER_SEED):
        assert_three_way(org, random_query(rng), f"seed {seed} q{number}")


def test_recursive_query_variants_agree(bom):
    db, info = bom
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
            assert_three_way(db, text, f"anchors {first}, {second}"))
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
        # compiled with the literals inline.
        engine = fresh_org.engine

        def estimates(executable) -> dict:
            return {stream.name: node.estimated_rows
                    for stream, node in executable.plan.outputs}
        for where in ("WHERE dno BETWEEN 1 AND 2", "WHERE loc = 'ARC'"):
            query = parse_statement(deps_query(where))
            lifted, bindings = engine.compile_xnf(query, "XNF")
            assert bindings
            inline = engine.compile_xnf_inline(query, "XNF")
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
