"""Baseline correctness: navigational extraction and single-component
derivation must reproduce what the XNF pipeline produces."""

import pytest

from repro.baseline.navigational import NavigationalExtractor
from repro.baseline.single_component import (SingleComponentDerivation,
                                             table1_rows)
from repro.errors import XNFError
from repro.qgm.ops import count_operations, replicated_operations
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY


@pytest.fixture
def deps_query():
    return parse_statement(DEPS_ARC_QUERY)


class TestNavigational:
    def test_same_components_as_xnf(self, org_db, deps_query):
        fragmented = NavigationalExtractor(org_db.engine.pipeline).extract(
            deps_query)
        set_oriented = org_db.xnf("deps_arc")
        for name in set_oriented.components:
            assert sorted(fragmented.components[name]) == \
                sorted(set_oriented.component(name).rows), name

    def test_query_count_tracks_parent_instances(self, org_db,
                                                 deps_query):
        fragmented = NavigationalExtractor(org_db.engine.pipeline).extract(
            deps_query)
        departments = len(fragmented.components["XDEPT"])
        employees = len(fragmented.components["XEMP"])
        projects = len(fragmented.components["XPROJ"])
        # 1 root query + 2 per dept (emps, projs) + 1 per emp + 1 per proj
        expected = 1 + 2 * departments + employees + projects
        assert fragmented.queries_issued == expected

    def test_set_oriented_is_one_logical_request(self, org_db):
        co = org_db.xnf("deps_arc")
        assert co.shipped_tuples > 0  # one extraction, no per-parent calls

    def test_recursive_views_rejected(self, oo1_db):
        from repro.workloads.oo1 import oo1_view_query
        with pytest.raises(XNFError, match="recursive"):
            NavigationalExtractor(oo1_db.engine.pipeline).extract(
                parse_statement(oo1_view_query(1, 2)))

    def test_empty_database(self, empty_org_db, deps_query):
        fragmented = NavigationalExtractor(
            empty_org_db.engine.pipeline).extract(deps_query)
        assert fragmented.total_tuples() == 0
        assert fragmented.queries_issued == 1  # only the root query


class TestSingleComponent:
    def test_results_match_xnf(self, org_db, deps_query):
        derivation = SingleComponentDerivation(org_db.engine.catalog)
        queries = derivation.build_queries(deps_query)
        results = derivation.run_queries(queries)
        co = org_db.xnf("deps_arc")
        for name in ("XDEPT", "XEMP", "XPROJ", "XSKILLS"):
            standalone = sorted(set(results[name]))
            reference = sorted(co.component(name).rows)
            assert standalone == reference, name

    def test_relationship_queries_match_counts(self, org_db, deps_query):
        derivation = SingleComponentDerivation(org_db.engine.catalog)
        queries = derivation.build_queries(deps_query)
        results = derivation.run_queries(queries)
        co = org_db.xnf("deps_arc")
        for name in ("EMPLOYMENT", "OWNERSHIP"):
            assert len(set(results[name])) == \
                len(co.relationship(name).connections), name

    def test_eight_queries_for_deps_arc(self, org_db, deps_query):
        queries = SingleComponentDerivation(
            org_db.engine.catalog).build_queries(deps_query)
        assert len(queries) == 8

    def test_operation_counts_shape(self, org_db, deps_query):
        """The Table 1 shape: XNF does strictly less work, and most
        baseline operations are replicated."""
        derivation = SingleComponentDerivation(org_db.engine.catalog)
        queries = derivation.build_queries(deps_query)
        sql_total = sum(q.operations.total for q in queries)
        replicated = sum(replicated_operations(
            [q.operations for q in queries]))

        translated = org_db.xnf_executable("deps_arc").translated
        xnf_total = count_operations(translated.graph).total

        assert xnf_total == 7  # the paper's 6 joins + 1 selection
        assert sql_total >= 3 * xnf_total  # 23-vs-7 shaped gap
        assert replicated >= sql_total // 3  # pervasive redundancy

    def test_per_component_counts(self, org_db, deps_query):
        derivation = SingleComponentDerivation(org_db.engine.catalog)
        queries = derivation.build_queries(deps_query)
        by_name = {q.name: q.operations.total for q in queries}
        assert by_name["XDEPT"] == 1  # one selection
        assert by_name["XEMP"] == 2  # selection + join (paper: 2)
        assert by_name["XPROJ"] == 2
        assert by_name["EMPLOYMENT"] == 3  # paper: 3
        assert by_name["OWNERSHIP"] == 3

    def test_table1_rows_helper(self, org_db, deps_query):
        derivation = SingleComponentDerivation(org_db.engine.catalog)
        queries = derivation.build_queries(deps_query)
        rows = table1_rows(queries, {"XDEPT": 1, "XEMP": 1})
        assert rows[0].component == "XDEPT"
        assert rows[0].replicated == 0
