"""XNF semantic rewrite tests: graph shapes, op counts, elision."""

import pytest

from repro.errors import XNFError
from repro.qgm.builder import QGMBuilder
from repro.qgm.model import SetOpBox
from repro.qgm.ops import count_operations
from repro.sql.parser import parse_statement
from repro.workloads.orgdb import DEPS_ARC_QUERY
from repro.xnf.translate import OID, POID, XNFOptions, XNFTranslator


def translate(db, query_text, **options):
    builder = QGMBuilder(db.engine.catalog)
    graph = builder.build_xnf(parse_statement(query_text), "V")
    return XNFTranslator(db.engine.catalog, XNFOptions(**options)).translate(graph)


class TestDepsArcTranslation:
    def test_paper_operation_count(self, org_db):
        """Table 1's XNF column: 6 joins + 1 selection, exactly."""
        translated = translate(org_db, DEPS_ARC_QUERY)
        ops = count_operations(translated.graph)
        assert ops.selections == 1
        assert ops.joins == 6
        assert ops.total == 7

    def test_stream_inventory(self, org_db):
        translated = translate(org_db, DEPS_ARC_QUERY)
        streams = {s.name: s.stream_kind
                   for s in translated.graph.top.outputs}
        assert streams["XDEPT"] == "component"
        assert streams["EMPPROPERTY"] == "relationship"
        # employment/ownership elided by output optimization:
        assert "EMPLOYMENT" not in streams
        assert translated.relationships["EMPLOYMENT"].elided

    def test_elision_disabled_emits_all_streams(self, org_db):
        translated = translate(org_db, DEPS_ARC_QUERY,
                               output_optimization=False)
        names = {s.name for s in translated.graph.top.outputs}
        assert "EMPLOYMENT" in names and "OWNERSHIP" in names
        assert not translated.relationships["EMPLOYMENT"].elided

    def test_multi_parent_reachability_is_union(self, org_db):
        translated = translate(org_db, DEPS_ARC_QUERY)
        final = translated.components["XSKILLS"].final_box
        assert isinstance(final, SetOpBox)
        assert final.operator == "UNION" and not final.all_rows

    def test_component_identity_columns_installed(self, org_db):
        translated = translate(org_db, DEPS_ARC_QUERY)
        for stream in translated.graph.top.outputs:
            if stream.stream_kind == "component":
                assert stream.identity_position is not None
                assert stream.box.head[stream.identity_position].name \
                    == OID

    def test_elided_child_carries_parent_identity(self, org_db):
        translated = translate(org_db, DEPS_ARC_QUERY)
        xemp_stream = [s for s in translated.graph.top.outputs
                       if s.name == "XEMP"][0]
        assert xemp_stream.embedded_parent is not None
        rel, parent, position = xemp_stream.embedded_parent
        assert rel == "EMPLOYMENT" and parent == "XDEPT"
        assert xemp_stream.box.head[position].name == POID

    def test_connection_box_shared(self, org_db):
        """The conn box feeds both the child derivation and the
        relationship stream — Fig. 5b's common subexpression."""
        translated = translate(org_db, DEPS_ARC_QUERY)
        counts = translated.graph.reference_counts()
        conn = translated.relationships["EMPPROPERTY"].connection_box
        assert counts[conn.box_id] == 2


class TestTakeProjection:
    def test_take_subset_components(self, org_db):
        query = DEPS_ARC_QUERY.replace("TAKE *",
                                       "TAKE xdept, xemp, employment")
        translated = translate(org_db, query)
        names = {s.name for s in translated.graph.top.outputs}
        assert "XDEPT" in names and "XEMP" in names
        assert "XSKILLS" not in names

    def test_take_column_projection(self, org_db):
        query = DEPS_ARC_QUERY.replace("TAKE *",
                                       "TAKE xdept(dname), xemp, employment")
        translated = translate(org_db, query)
        xdept = [s for s in translated.graph.top.outputs
                 if s.name == "XDEPT"][0]
        visible = [c.name for c in xdept.box.head
                   if not c.name.startswith("$")]
        assert visible == ["DNAME"]

    def test_take_empty_projection_rejected(self, org_db):
        query = DEPS_ARC_QUERY.replace("TAKE *",
                                       "TAKE xdept(ghost), xemp, employment")
        with pytest.raises(XNFError, match="keeps no columns"):
            translate(org_db, query)

    def test_untaken_components_still_derive_children(self, org_db):
        # Take only skills: reachability still goes through emps/projs.
        query = DEPS_ARC_QUERY.replace("TAKE *", "TAKE xskills")
        translated = translate(org_db, query)
        from repro.xnf.result import XNFExecutable
        result = XNFExecutable(translated, org_db.engine.catalog).run()
        naive = org_db.xnf_naive(parse_statement(DEPS_ARC_QUERY))
        assert sorted(result.component("xskills").rows) == \
            sorted(naive.component("xskills").rows)


class TestValidation:
    def test_unreachable_component_rejected(self, org_db):
        query = """
        OUT OF a AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               b AS EMP,
               orphan AS SKILLS,
               r AS (RELATE a VIA X, b WHERE a.dno = b.edno)
        TAKE *
        """
        # orphan has no incoming edges -> it is a root, so it is fine;
        # but a component that is targeted yet unreachable must fail.
        translated = translate(org_db, query)
        assert translated.components["ORPHAN"].is_root

    def test_value_identity_for_derived_components(self, org_db):
        query = """
        OUT OF agg AS (SELECT loc, COUNT(*) AS n FROM DEPT GROUP BY loc),
               d AS DEPT,
               r AS (RELATE agg VIA AT, d WHERE agg.loc = d.loc)
        TAKE *
        """
        translated = translate(org_db, query)
        from repro.xnf.result import XNFExecutable
        result = XNFExecutable(translated, org_db.engine.catalog).run()
        aggregates = result.component("agg")
        assert all(isinstance(oid, tuple) for oid in aggregates.oids)
        assert len(result.component("d")) == 6


class TestRecursiveDetection:
    def test_cycle_routes_to_recursive_mode(self, bom_db):
        db, info = bom_db
        from repro.workloads.bom import bom_view_query
        translated = translate(db, bom_view_query(info["roots"]))
        assert translated.recursive
        assert "SUBPARTS" in translated.relationships
