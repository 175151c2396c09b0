"""Cursor tests: independent, dependent, path (Sect. 2's API)."""

import pytest

from repro.errors import CacheError
from repro.cache.cursor import (DependentCursor, IndependentCursor,
                                PathCursor)
from repro.cache.workspace import Workspace


@pytest.fixture
def workspace(org_db) -> Workspace:
    return Workspace(org_db.xnf("deps_arc"))


class TestIndependentCursor:
    def test_iterates_whole_extent(self, workspace):
        cursor = IndependentCursor(workspace, "xemp")
        assert len(list(cursor)) == len(workspace.extent("xemp"))

    def test_fetch_protocol(self, workspace):
        cursor = IndependentCursor(workspace, "xdept")
        first = cursor.fetch_next()
        second = cursor.fetch_next()
        assert first is not second
        assert cursor.current() is second
        assert cursor.fetch_prev() is first

    def test_fetch_past_end_returns_none(self, workspace):
        cursor = IndependentCursor(workspace, "xdept")
        while cursor.fetch_next() is not None:
            pass
        assert cursor.fetch_next() is None

    def test_fetch_prev_before_start(self, workspace):
        cursor = IndependentCursor(workspace, "xdept")
        assert cursor.fetch_prev() is None
        assert cursor.current() is None

    def test_reset(self, workspace):
        cursor = IndependentCursor(workspace, "xdept")
        first = cursor.fetch_next()
        cursor.reset()
        assert cursor.fetch_next() is first

    def test_fetch_absolute(self, workspace):
        cursor = IndependentCursor(workspace, "xemp")
        obj = cursor.fetch_absolute(2)
        assert cursor.current() is obj
        with pytest.raises(CacheError, match="out of range"):
            cursor.fetch_absolute(999)

    def test_requery_after_insert(self, workspace):
        cursor = IndependentCursor(workspace, "xemp")
        before = len(cursor)
        workspace.insert_object("xemp", {"ENO": 900})
        cursor.requery()
        assert len(cursor) == before + 1

    def test_unknown_component(self, workspace):
        with pytest.raises(CacheError):
            IndependentCursor(workspace, "ghost")


class TestDependentCursor:
    def test_children_of_parent(self, workspace):
        dept = workspace.extent("xdept")[0]
        cursor = DependentCursor(workspace, "employment", dept)
        assert tuple(cursor) == dept.children("employment")

    def test_repositioning(self, workspace):
        depts = workspace.extent("xdept")
        cursor = DependentCursor(workspace, "employment")
        seen = []
        for dept in depts:
            cursor.position_on(dept)
            seen.extend(cursor)
        total = sum(len(d.children("employment")) for d in depts)
        assert len(seen) == total

    def test_unpositioned_cursor_is_empty(self, workspace):
        cursor = DependentCursor(workspace, "employment")
        assert len(cursor) == 0 and cursor.fetch_next() is None

    def test_wrong_parent_component(self, workspace):
        emp = workspace.extent("xemp")[0]
        cursor = DependentCursor(workspace, "employment")
        with pytest.raises(CacheError, match="expects parent"):
            cursor.position_on(emp)

    def test_unknown_relationship(self, workspace):
        with pytest.raises(CacheError, match="no relationship"):
            DependentCursor(workspace, "ghost")


class TestPathCursor:
    def test_two_step_path(self, workspace):
        cursor = PathCursor(workspace, "xdept.xemp.xskills")
        via_navigation = set()
        for dept in workspace.extent("xdept"):
            for emp in dept.children("employment"):
                for skill in emp.children("empproperty"):
                    via_navigation.add(id(skill))
        assert {id(o) for o in cursor} == via_navigation

    def test_path_with_relationship_names(self, workspace):
        explicit = PathCursor(workspace, "xdept.employment.xemp")
        implicit = PathCursor(workspace, "xdept.xemp")
        assert {id(o) for o in explicit} == {id(o) for o in implicit}

    def test_path_results_distinct(self, workspace):
        cursor = PathCursor(workspace, "xdept.xemp.xskills")
        identities = [id(o) for o in cursor]
        assert len(identities) == len(set(identities))

    def test_explicit_start_set(self, workspace):
        dept = workspace.extent("xdept")[0]
        cursor = PathCursor(workspace, "xdept.xemp", start=[dept])
        assert {id(o) for o in cursor} == \
            {id(o) for o in dept.children("employment")}

    def test_single_component_path(self, workspace):
        cursor = PathCursor(workspace, "xdept")
        assert len(cursor) == len(workspace.extent("xdept"))

    def test_arrow_syntax(self, workspace):
        arrow = PathCursor(workspace, "xdept->xemp")
        dotted = PathCursor(workspace, "xdept.xemp")
        assert len(arrow) == len(dotted)
