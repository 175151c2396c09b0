"""The Object/SQL gateway: seamless objects over relational data.

Sect. 5.2/6: XNF "allows the cache to be stored in C++ structures,
allowing seamless interface between applications and the data in the
cache ... creating classes for xemp and xdept" plus container classes —
realized in the 'Object/SQL Gateway' prototype bridging ObjectStore to
Starburst.  The Python analogue generates one class per CO component,
with properties, role-named navigation methods and extents.

Run:  python examples/object_gateway.py
"""

from repro import Engine, ObjectGateway
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


def main() -> None:
    engine = Engine()
    db = engine.connect(label="app-client")
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(departments=6,
                                          employees_per_dept=4,
                                          projects_per_dept=2, skills=10,
                                          arc_fraction=0.34, seed=30))
    db.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")

    # The gateway rides one session: its commits apply through that
    # session's transaction scope on the shared engine.
    gateway = ObjectGateway(db)
    org = gateway.open("deps_arc", name="org")

    # Generated classes with property access and role-named navigation:
    # dept.employs(), dept.has(), emp.possesses(), skill sharing, etc.
    print("generated classes:", sorted(org.classes))
    for dept in org.XDEPT.extent:
        print(f"\n{dept.dname} ({dept.loc})")
        for employee in dept.employs():
            skills = ", ".join(s.sname for s in employee.possesses())
            print(f"  {employee.ename:10s} salary={employee.sal:>7} "
                  f"skills=[{skills}]")
        for project in dept.has():
            print(f"  project {project.pname} budget={project.budget}")

    # Objects are plain Python: comprehensions, sorting, aggregation.
    staff = list(org.XEMP.extent)
    top = max(staff, key=lambda e: e.sal)
    print(f"\ntop earner: {top.ename} (${top.sal})")
    print("works for:", [d.dname for d in top.employs_parents()])

    # The unit of work: assign everyone a raise, commit once.
    for employee in staff:
        employee.sal = int(employee.sal * 1.03)
    print(f"\ndirty: {org.dirty}; committing...")
    applied = org.commit()
    print(f"committed {applied} updates; server average now:",
          db.query("SELECT AVG(e.sal) FROM EMP e, DEPT d "
                   "WHERE e.edno = d.dno AND d.loc = 'ARC'").rows)

    # New objects through the extent, wired into the graph, committed.
    tools = next(iter(org.XDEPT.extent))
    recruit = org.XEMP.extent.insert(ENO=7777, ENAME="hopper",
                                     EDNO=tools.dno, SAL=210000)
    db_cache = org.cache
    db_cache.connect("employment", tools, recruit)
    org.commit()
    print("\nrecruit persisted:",
          db.query("SELECT ename, edno FROM EMP WHERE eno = 7777").rows)


if __name__ == "__main__":
    main()
