"""Property-based round-trip: cache edits == server state after
write-back == what a fresh extraction sees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.api.session import Session
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

#: An edit script: each entry picks an employee (by index) and an action.
edit_scripts = st.lists(
    st.tuples(
        st.sampled_from(["raise", "rename", "hire", "rehome"]),
        st.integers(0, 9),
        st.integers(1, 500),
    ),
    max_size=12,
)


def fresh_db() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, OrgScale(
        departments=4, employees_per_dept=3, projects_per_dept=1,
        skills=6, arc_fraction=0.5, seed=77,
    ))
    db.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return db


def apply_script(cache, script) -> None:
    next_eno = 5000
    for action, index, amount in script:
        employees = cache.extent("xemp")
        departments = cache.extent("xdept")
        if action == "raise" and employees:
            employee = employees[index % len(employees)]
            employee.set("SAL", amount * 1000)
        elif action == "rename" and employees:
            employee = employees[index % len(employees)]
            employee.set("ENAME", f"renamed-{amount}")
        elif action == "hire" and departments:
            dept = departments[index % len(departments)]
            recruit = cache.insert("xemp", ENO=next_eno,
                                   ENAME=f"hire-{next_eno}",
                                   EDNO=dept.dno, SAL=amount * 1000)
            cache.connect("employment", dept, recruit)
            next_eno += 1
        elif action == "rehome" and employees and len(departments) > 1:
            employee = employees[index % len(employees)]
            parents = employee.parents("employment")
            if not parents:
                continue
            current = parents[0]
            target = departments[(index + 1) % len(departments)]
            if target is current:
                continue
            cache.disconnect("employment", current, employee)
            cache.connect("employment", target, employee)
            employee.set("EDNO", target.dno)


class TestWriteBackRoundTrip:
    @given(edit_scripts)
    @settings(max_examples=25, deadline=None)
    def test_fresh_extraction_sees_all_edits(self, script):
        db = fresh_db()
        cache = db.open_cache("deps_arc")
        apply_script(cache, script)
        expected = sorted(tuple(obj.values)
                          for obj in cache.extent("xemp"))
        cache.write_back()
        fresh = db.open_cache("deps_arc")
        observed = sorted(tuple(obj.values)
                          for obj in fresh.extent("xemp"))
        assert observed == expected

    @given(edit_scripts)
    @settings(max_examples=25, deadline=None)
    def test_connections_round_trip(self, script):
        db = fresh_db()
        cache = db.open_cache("deps_arc")
        apply_script(cache, script)
        expected = sorted(
            (parent.dno, child_tuple[0].eno)
            for parent, child_tuple in
            cache.workspace.connections_of("employment")
        )
        cache.write_back()
        fresh = db.open_cache("deps_arc")
        observed = sorted(
            (parent.dno, child_tuple[0].eno)
            for parent, child_tuple in
            fresh.workspace.connections_of("employment")
        )
        assert observed == expected

    @given(edit_scripts)
    @settings(max_examples=15, deadline=None)
    def test_log_cleared_and_idempotent(self, script):
        db = fresh_db()
        cache = db.open_cache("deps_arc")
        apply_script(cache, script)
        cache.write_back()
        assert not cache.dirty
        before = sorted(db.table("EMP").rows())
        assert cache.write_back() == 0
        assert sorted(db.table("EMP").rows()) == before
