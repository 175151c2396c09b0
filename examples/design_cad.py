"""A CAD-style workload: the Cattell OO1 traversal on the XNF cache.

Sect. 5.2: "the performance of XNF cache is quite comparable with fast
OODBMSs reported in Cattell's benchmark ...  we could access in a
pre-loaded XNF cache more than 100,000 tuples per second which matches
the requirements for CAD applications."

This example builds the OO1 parts database, extracts the connected
design neighborhood of a set of anchor parts as a recursive CO, and
runs the depth-7 traversal against the swizzled cache.

Run:  python examples/design_cad.py
"""

import random
import time

from repro import Engine
from repro.workloads.oo1 import (OO1Scale, create_oo1_schema,
                                 oo1_view_query, populate_oo1)

PARTS = 5000
DEPTH = 7
TRAVERSALS = 25


def traverse(part, depth: int) -> int:
    touched = 1
    if depth == 0:
        return touched
    for child in part.children("connects"):
        touched += traverse(child, depth - 1)
    return touched


def main() -> None:
    engine = Engine()
    session = engine.connect()
    create_oo1_schema(engine.catalog)
    summary = populate_oo1(engine.catalog, OO1Scale(parts=PARTS, seed=1994))
    print(f"OO1 database: {summary['parts']} parts, "
          f"{summary['connections']} connections")

    # Extract the design: anchors plus the transitive CONNECTS closure
    # (a recursive CO evaluated by fixpoint, Sect. 2).
    start = time.perf_counter()
    cache = session.open_cache(oo1_view_query(1, PARTS // 100))
    load_time = time.perf_counter() - start
    parts = cache.extent("xpart")
    connections = sum(len(p.children("connects")) for p in parts)
    print(f"cache loaded in {load_time:.2f}s: {len(parts)} parts, "
          f"{connections} swizzled connections")

    # The OO1 traversal: depth-7 from random parts, all in memory.
    rng = random.Random(7)
    starts = [rng.choice(parts) for _ in range(TRAVERSALS)]
    begin = time.perf_counter()
    touched = sum(traverse(s, DEPTH) for s in starts)
    elapsed = time.perf_counter() - begin
    rate = touched / elapsed
    print(f"\ndepth-{DEPTH} traversal x{TRAVERSALS}: "
          f"{touched:,} tuples in {elapsed * 1e3:.1f} ms "
          f"-> {rate:,.0f} tuples/second")
    print("paper's bar: >100,000 tuples/second — "
          + ("MET" if rate > 100_000 else "NOT MET"))

    # Reverse navigation works on the same pointers.
    popular = max(parts, key=lambda p: len(p.parents("connects")))
    print(f"\nmost referenced part: id={popular.id} with "
          f"{len(popular.parents('connects'))} incoming connections")

    # A type-filtered scan, the other OO1 lookup pattern.
    typed = [p for p in parts if p.ptype == "part-type1"]
    print(f"parts of type 'part-type1' in the cache: {len(typed)}")


if __name__ == "__main__":
    main()
