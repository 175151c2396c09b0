"""Recursive composite objects: a bill-of-materials explosion.

Sect. 2: "An XNF query may also specify a recursive CO being identified
by a cycle in the query's schema graph.  This cycle basically defines a
'derivation rule' that iterates along the cycle's relationships to
collect the tuples until a fixed point is reached."

The CONTAINS_PART relationship relates xpart to itself; the translator
detects the cycle and evaluates the view by semi-naive fixpoint, then
the cache walks the explosion and costs the assemblies.

Run:  python examples/recursive_bom.py
"""

from repro import Engine
from repro.workloads.bom import (BOMScale, bom_view_query,
                                 create_bom_schema, populate_bom)


def explode(cache, part, depth: int = 0, budget: list | None = None,
            seen: set | None = None, qty: int = 1) -> None:
    seen = seen if seen is not None else set()
    marker = " (shared)" if id(part) in seen else ""
    seen.add(id(part))
    print("  " * depth + f"- {qty} x {part.pname} [{part.kind}] "
          f"cost={part.cost}{marker}")
    if budget is not None:
        budget[0] += part.cost * qty
    if marker:
        return  # do not re-expand shared subassemblies
    for child in part.children("subparts"):
        attrs = cache.workspace.connection_attributes(
            "subparts", part, child)
        explode(cache, child, depth + 1, budget, seen,
                qty=attrs.get("QTY", 1))


def main() -> None:
    engine = Engine()
    session = engine.connect()
    create_bom_schema(engine.catalog)
    info = populate_bom(engine.catalog, BOMScale(
        roots=2, depth=3, fanout=2, share_probability=0.25, seed=13,
    ))
    print(f"parts database: {info['parts']} parts, "
          f"{info['edges']} containment edges, "
          f"roots = {info['roots']}")

    co = session.xnf(bom_view_query(info["roots"]))
    print(f"\nfixpoint closed in "
          f"{co.counters['fixpoint_iterations']} iterations; "
          f"{len(co.component('xpart'))} of {info['parts']} parts are "
          f"reachable from the anchors")

    cache = session.open_cache(bom_view_query(info["roots"]))
    for root in cache.extent("xassembly"):
        print(f"\nexplosion of {root.pname}:")
        budget = [root.cost]
        for top in root.children("toplevel"):
            attrs = cache.workspace.connection_attributes(
                "toplevel", root, top)
            explode(cache, top, 1, budget, qty=attrs.get("QTY", 1))
        print(f"  => total materialized cost: {budget[0]}")

    # The flat relational view of the same data stays available.
    heaviest = session.query(
        "SELECT p.pname, COUNT(*) AS uses FROM PART p, CONTAINS c "
        "WHERE p.pno = c.child GROUP BY p.pname "
        "ORDER BY uses DESC, p.pname LIMIT 3")
    print("\nmost-used subparts (plain SQL):", heaviest.rows)


if __name__ == "__main__":
    main()
