"""Materialized composite-object views, maintained by deltas.

Builds the paper's org database, materializes the Fig. 1 ``deps_arc``
view under both staleness policies, and shows single-row DML flowing
through the delta-propagation engine instead of triggering
recomputation.  See docs/MATVIEWS.md for the full story.

Run:  python examples/matview_demo.py
"""

from repro import Engine, Session
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


def describe(session: Session, name: str) -> str:
    result = session.matview(name)
    view = session.engine.matviews.get(name)
    sizes = ", ".join(f"{component.lower()}={len(stream)}"
                      for component, stream in
                      result.components.items())
    return f"{sizes} | stats={view.stats}"


def main() -> None:
    engine = Engine()
    session = engine.connect()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(departments=8,
                                      employees_per_dept=5,
                                      projects_per_dept=3, skills=15,
                                      arc_fraction=0.25, seed=42))

    # --- eager: maintained on every write ------------------------------
    session.execute(f"CREATE MATERIALIZED VIEW deps_arc AS {DEPS_ARC_QUERY}")
    view = engine.matviews.get("deps_arc")
    print("created deps_arc (eager policy)")
    print("  incrementally maintainable:", view.is_incremental)
    print("  base tables:", ", ".join(sorted(view.base_tables)))
    print("  initial:", describe(session, "deps_arc"))

    # A single-row insert propagates as a delta through the component
    # and connection streams — no recomputation (watch full_refreshes).
    session.execute("INSERT INTO EMP VALUES (900, 'delta-emp', 1, 75000)")
    print("\nafter INSERT of one employee:")
    print("  ", describe(session, "deps_arc"))

    # Moving a department out of ARC cascades: the department, its
    # employees and projects, and any skills now unreachable all leave
    # the view — still purely by delta propagation.
    session.execute("UPDATE DEPT SET LOC = 'SF' WHERE DNO = 1")
    print("\nafter moving dept 1 out of ARC (three-level cascade):")
    print("  ", describe(session, "deps_arc"))

    # --- deferred: queue on write, apply on read -----------------------
    session.execute(f"CREATE MATERIALIZED VIEW deps_lazy REFRESH DEFERRED "
                    f"AS {DEPS_ARC_QUERY}")
    lazy = engine.matviews.get("deps_lazy")
    session.execute("INSERT INTO EMP VALUES (901, 'queued-1', 2, 60000)")
    session.execute("INSERT INTO EMP VALUES (902, 'queued-2', 2, 61000)")
    print(f"\ndeferred view has {len(lazy.pending)} queued delta(s); "
          f"fresh={lazy.fresh}")
    session.execute("REFRESH MATERIALIZED VIEW deps_lazy")
    print(f"after REFRESH: fresh={lazy.fresh} | stats={lazy.stats}")

    # --- read-through ---------------------------------------------------
    # session.xnf() recognizes queries structurally equal to a registered
    # view's definition and serves the materialization.
    before = view.stats["reads"]
    session.xnf("deps_arc")
    print(f"\ndb.xnf('deps_arc') served from the materialization "
          f"(reads {before} -> {view.stats['reads']})")

    # Components still compose into plain SQL, like any XNF view.
    print("avg ARC salary:",
          session.query("SELECT AVG(sal) FROM deps_arc.xemp").rows[0][0])


if __name__ == "__main__":
    main()
