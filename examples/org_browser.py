"""The paper's running example end to end: the deps_ARC view (Fig. 1).

Loads the six-table organizational database, defines the exact CO view
printed in the paper, and walks through the facilities Sects. 2-5
describe: reachability, object sharing, path expressions, all three
cursor kinds, update operators with write-back, and cache persistence.

Run:  python examples/org_browser.py
"""

import os
import tempfile

from repro import Engine
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


def main() -> None:
    engine = Engine()
    session = engine.connect()
    create_org_schema(engine.catalog)
    counts = populate_org(engine.catalog, OrgScale(
        departments=8, employees_per_dept=4, projects_per_dept=3,
        skills=12, arc_fraction=0.25, seed=21,
    ))
    print("base data:", counts)

    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    cache = session.open_cache("deps_arc")
    workspace = cache.workspace

    # --- reachability (Sect. 2): only ARC-anchored tuples appear --------
    print(f"\ncached: {len(cache.extent('xdept'))} departments, "
          f"{len(cache.extent('xemp'))} employees, "
          f"{len(cache.extent('xproj'))} projects, "
          f"{len(cache.extent('xskills'))} skills "
          f"(of {counts['skills']} stored)")

    # --- object sharing: one tuple, many connections --------------------
    shared = [
        skill for skill in cache.extent("xskills")
        if len(skill.parents("empproperty"))
        + len(skill.parents("projproperty")) > 1
    ]
    print(f"shared skill objects (like s3 in Fig. 1): {len(shared)}")

    # --- path expressions ------------------------------------------------
    path = cache.path_cursor("xdept.employment.xemp.empproperty.xskills")
    print(f"skills reachable via employees: {len(path)}")

    # --- browse with cursors ---------------------------------------------
    dept_cursor = cache.independent_cursor("xdept")
    emp_cursor = cache.dependent_cursor("employment")
    print("\norganization browser:")
    dept = dept_cursor.fetch_next()
    while dept is not None:
        emp_cursor.position_on(dept)
        names = [e.ename for e in emp_cursor]
        projects = [p.pname for p in dept.children("ownership")]
        print(f"  {dept.dname} ({dept.loc}): staff={names} "
              f"projects={projects}")
        dept = dept_cursor.fetch_next()

    # --- the CO update operators (Sect. 2) -------------------------------
    first_dept = cache.extent("xdept")[0]
    hire = cache.insert("xemp", ENO=9001, ENAME="grace",
                        EDNO=first_dept.dno, SAL=180000)
    cache.connect("employment", first_dept, hire)
    star_skill = cache.extent("xskills")[0]
    cache.connect("empproperty", hire, star_skill)
    veteran = first_dept.children("employment")[0]
    veteran.set("SAL", veteran.sal + 5000)
    print(f"\npending changes: "
          f"{[entry.operation for entry in cache.pending_changes()]}")
    applied = cache.write_back()
    print(f"write-back applied {applied} changes")
    print("server sees grace:",
          session.query("SELECT ename, edno FROM EMP WHERE eno = 9001").rows)
    print("and her skill row:",
          session.query("SELECT * FROM EMPSKILLS WHERE eseno = 9001").rows)

    # --- long transactions: persist the cache (Sect. 3) ------------------
    snapshot = os.path.join(tempfile.gettempdir(), "deps_arc.cache")
    fresh = session.open_cache("deps_arc")
    fresh.extent("xemp")[0].set("SAL", 1_000_000)  # not yet written back
    fresh.save(snapshot)
    reloaded = session.load_cache(snapshot, "deps_arc")
    print(f"\nreloaded cache from {snapshot}: "
          f"{reloaded.object_count()} objects, "
          f"{len(reloaded.pending_changes())} pending change(s)")
    reloaded.write_back()
    print("pending change applied after reload")
    os.unlink(snapshot)

    del workspace


if __name__ == "__main__":
    main()
