"""Workspace tests: swizzling, navigation, local updates, the log."""

import pytest

from repro.errors import CacheError
from repro.cache.workspace import Workspace


@pytest.fixture
def workspace(org_db) -> Workspace:
    return Workspace(org_db.xnf("deps_arc"))


class TestConstruction:
    def test_objects_indexed_by_identity(self, workspace):
        for name in workspace.component_names():
            for obj in workspace.extent(name):
                assert workspace.by_oid[(name, obj.oid)] is obj

    def test_no_dangling_connections_with_take_all(self, workspace):
        assert workspace.dangling_connections == 0

    def test_column_access_variants(self, workspace):
        dept = workspace.extent("xdept")[0]
        assert dept["DNO"] == dept.dno == dept.get("dno")

    def test_unknown_column_raises(self, workspace):
        dept = workspace.extent("xdept")[0]
        with pytest.raises(CacheError, match="no column"):
            dept.get("ghost")
        with pytest.raises(AttributeError):
            dept.ghost

    def test_as_dict(self, workspace):
        dept = workspace.extent("xdept")[0]
        assert set(dept.as_dict()) == {"DNO", "DNAME", "LOC"}


class TestNavigation:
    def test_children_and_parents_inverse(self, workspace):
        for dept in workspace.extent("xdept"):
            for emp in dept.children("employment"):
                assert dept in emp.parents("employment")

    def test_all_relationships_without_name(self, workspace):
        dept = workspace.extent("xdept")[0]
        combined = dept.children()
        assert len(combined) == len(dept.children("employment")) + \
            len(dept.children("ownership"))

    def test_unknown_relationship(self, workspace):
        dept = workspace.extent("xdept")[0]
        with pytest.raises(CacheError, match="no relationship"):
            dept.children("ghost")

    def test_shared_object_has_multiple_parents(self, workspace):
        shared = [
            s for s in workspace.extent("xskills")
            if len(s.parents("empproperty")) +
            len(s.parents("projproperty")) > 1
        ]
        assert shared  # the seeded workload produces sharing

    def test_find(self, workspace):
        dept = workspace.extent("xdept")[0]
        assert workspace.find("xdept", dno=dept.dno) == [dept]
        assert workspace.find("xdept", dno=-1) == []

    def test_connections_of(self, workspace):
        pairs = list(workspace.connections_of("employment"))
        total = sum(len(d.children("employment"))
                    for d in workspace.extent("xdept"))
        assert len(pairs) == total


class TestLocalUpdates:
    def test_set_logs_update(self, workspace):
        emp = workspace.extent("xemp")[0]
        emp.set("SAL", emp.sal + 5)
        assert workspace.dirty
        entry = workspace.log[-1]
        assert entry.operation == "update"
        assert entry.payload["column"] == "SAL"

    def test_noop_set_not_logged(self, workspace):
        emp = workspace.extent("xemp")[0]
        emp.set("SAL", emp.sal)
        assert not workspace.dirty

    def test_insert_appears_in_extent(self, workspace):
        size = len(workspace.extent("xemp"))
        obj = workspace.insert_object("xemp", {"ENO": 999,
                                               "ENAME": "new"})
        assert len(workspace.extent("xemp")) == size + 1
        assert obj.is_new and obj.edno is None

    def test_insert_unknown_column_rejected(self, workspace):
        with pytest.raises(CacheError, match="unknown columns"):
            workspace.insert_object("xemp", {"GHOST": 1})

    def test_delete_hides_object(self, workspace):
        emp = workspace.extent("xemp")[0]
        workspace.delete_object(emp)
        assert emp not in workspace.extent("xemp")
        assert emp.deleted

    def test_deleted_object_left_out_of_navigation(self, workspace):
        dept = workspace.extent("xdept")[0]
        victim = dept.children("employment")[0]
        workspace.delete_object(victim)
        assert victim not in dept.children("employment")

    def test_update_deleted_object_rejected(self, workspace):
        emp = workspace.extent("xemp")[0]
        workspace.delete_object(emp)
        with pytest.raises(CacheError, match="deleted"):
            emp.set("SAL", 0)

    def test_connect_updates_both_directions(self, workspace):
        dept = workspace.extent("xdept")[0]
        emp = workspace.insert_object("xemp", {"ENO": 998})
        workspace.connect("employment", dept, emp)
        assert emp in dept.children("employment")
        assert dept in emp.parents("employment")

    def test_connect_duplicate_is_noop(self, workspace):
        dept = workspace.extent("xdept")[0]
        emp = dept.children("employment")[0]
        before = len(workspace.log)
        workspace.connect("employment", dept, emp)
        assert len(workspace.log) == before

    def test_connect_wrong_components_rejected(self, workspace):
        dept = workspace.extent("xdept")[0]
        skill = workspace.extent("xskills")[0]
        with pytest.raises(CacheError, match="not a child"):
            workspace.connect("employment", dept, skill)
        emp = workspace.extent("xemp")[0]
        with pytest.raises(CacheError, match="not the parent"):
            workspace.connect("employment", emp, emp)

    def test_disconnect(self, workspace):
        dept = workspace.extent("xdept")[0]
        emp = dept.children("employment")[0]
        workspace.disconnect("employment", dept, emp)
        assert emp not in dept.children("employment")
        assert dept not in emp.parents("employment")

    def test_disconnect_missing_rejected(self, workspace):
        dept = workspace.extent("xdept")[0]
        emp = workspace.insert_object("xemp", {"ENO": 997})
        with pytest.raises(CacheError, match="no such connection"):
            workspace.disconnect("employment", dept, emp)

    def test_clear_log(self, workspace):
        emp = workspace.extent("xemp")[0]
        emp.set("SAL", emp.sal + 5)
        workspace.clear_log()
        assert not workspace.dirty


class TestProjectionDanglingConnections:
    def test_untaken_partner_counts_dangling(self, org_db):
        query = org_db.engine.catalog.view("deps_arc").definition
        from repro.sql import ast as sql_ast
        projected = sql_ast.XNFQuery(
            definitions=query.definitions,
            take_all=False,
            take_items=(sql_ast.TakeItem("xdept"),
                        sql_ast.TakeItem("xemp"),
                        sql_ast.TakeItem("xskills"),
                        sql_ast.TakeItem("empproperty"),
                        sql_ast.TakeItem("projproperty")),
        )
        workspace = Workspace(org_db.xnf(projected))
        # projproperty references xproj objects that were not taken.
        assert workspace.dangling_connections > 0
