"""Equivalence: optimized XNF pipeline vs. the naive reference evaluator.

The strongest correctness check in the suite: for a range of views and
option combinations, the translated multi-output plans must produce the
same composite objects as the directly-implemented semantics.
"""

from repro.api.engine import Engine
from repro.executor.runtime import PipelineOptions
from repro.optimizer.optimizer import PlannerOptions
from repro.workloads.orgdb import DEPS_ARC_QUERY
from repro.xnf.translate import XNFOptions


def assert_equivalent(db, query_text, xnf_options=None):
    optimized = (db.xnf_executable(query_text, xnf_options=xnf_options)
                 .run())
    naive = db.xnf_naive(query_text)
    assert set(optimized.components) == set(naive.components)
    for name in optimized.components:
        left = sorted(optimized.component(name).rows)
        right = sorted(naive.component(name).rows)
        assert left == right, f"component {name} differs"
    assert set(optimized.relationships) == set(naive.relationships)
    for name in optimized.relationships:
        assert len(optimized.relationship(name)) == \
            len(naive.relationship(name)), f"relationship {name} differs"
    return optimized, naive


class TestDepsArc:
    def test_default_options(self, org_db):
        assert_equivalent(org_db, DEPS_ARC_QUERY)

    def test_without_output_optimization(self, org_db):
        assert_equivalent(org_db, DEPS_ARC_QUERY,
                          XNFOptions(output_optimization=False))

    def test_without_nf_rewrite(self, org_db):
        assert_equivalent(org_db, DEPS_ARC_QUERY,
                          XNFOptions(apply_nf_rewrite=False))

    def test_without_indexes_or_sharing(self):
        db = Engine(pipeline_options=PipelineOptions(
            planner=PlannerOptions(use_indexes=False,
                                   share_common_subexpressions=False))).connect()
        from repro.workloads.orgdb import create_org_schema, populate_org
        from tests.conftest import SMALL_ORG
        create_org_schema(db.engine.catalog, with_indexes=False)
        populate_org(db.engine.catalog, SMALL_ORG)
        assert_equivalent(db, DEPS_ARC_QUERY)


class TestOtherShapes:
    def test_empty_database(self, empty_org_db):
        optimized, naive = assert_equivalent(empty_org_db,
                                             DEPS_ARC_QUERY)
        assert optimized.total_tuples() == 0

    def test_single_relationship_view(self, org_db):
        query = """
        OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               xemp AS (SELECT eno, ename, edno FROM EMP WHERE sal > 0),
               employment AS (RELATE xdept VIA EMPLOYS, xemp
                              WHERE xdept.dno = xemp.edno)
        TAKE *
        """
        assert_equivalent(org_db, query)

    def test_non_equality_relationship_predicate(self, org_db):
        query = """
        OUT OF rich AS (SELECT * FROM EMP WHERE sal > 150000),
               poor AS EMP,
               gap AS (RELATE rich VIA DOMINATES, poor
                       WHERE rich.sal > poor.sal + 50000)
        TAKE *
        """
        assert_equivalent(org_db, query)

    def test_chain_of_three(self, org_db):
        query = """
        OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               xemp AS EMP,
               xskills AS SKILLS,
               employment AS (RELATE xdept VIA EMPLOYS, xemp
                              WHERE xdept.dno = xemp.edno),
               empproperty AS (RELATE xemp VIA POSSESSES, xskills
                               USING EMPSKILLS es
                               WHERE xemp.eno = es.eseno AND
                                     es.essno = xskills.sno)
        TAKE *
        """
        assert_equivalent(org_db, query)

    def test_nary_relationship(self, org_db):
        query = """
        OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               xemp AS EMP,
               xproj AS PROJ,
               staffing AS (RELATE xdept VIA RUNS, xemp, xproj
                            WHERE xdept.dno = xemp.edno AND
                                  xdept.dno = xproj.pdno)
        TAKE *
        """
        optimized, naive = assert_equivalent(org_db, query)
        connections = optimized.relationship("staffing").connections
        assert all(len(c) == 3 for c in connections)

    def test_restriction_on_child_component(self, org_db):
        query = """
        OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               xemp AS (SELECT * FROM EMP WHERE sal > 100000),
               employment AS (RELATE xdept VIA EMPLOYS, xemp
                              WHERE xdept.dno = xemp.edno)
        TAKE *
        """
        optimized, _naive = assert_equivalent(org_db, query)
        assert all(row[3] > 100000
                   for row in optimized.component("xemp").rows)


class TestRecursiveEquivalence:
    def test_bom_closure(self, bom_db):
        db, info = bom_db
        from repro.workloads.bom import bom_view_query
        assert_equivalent(db, bom_view_query(info["roots"]))

    def test_oo1_small_closure(self, oo1_db):
        from repro.workloads.oo1 import oo1_view_query
        assert_equivalent(oo1_db, oo1_view_query(1, 3))

    def test_anchored_subgraph_smaller_than_full(self, oo1_db):
        from repro.workloads.oo1 import oo1_view_query
        partial = oo1_db.xnf(oo1_view_query(1, 1))
        # Locality keeps the closure well below the full database.
        assert 1 <= len(partial.component("xpart")) <= 120
