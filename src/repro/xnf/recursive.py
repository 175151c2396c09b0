"""Fixpoint evaluation of recursive composite objects.

Sect. 2: "An XNF query may also specify a recursive CO being identified
by a cycle in the query's schema graph.  This cycle basically defines a
'derivation rule' that iterates along the cycle's relationships to
collect the tuples until a fixed point is reached and no more tuples
qualify."

The translator materializes every component's raw derivation and every
relationship's *unrestricted* connection table (parent-raw x child-raw)
once; this module then runs a semi-naive reachability iteration over the
materialized connections, seeded with the root components' tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.optimizer.plan import ExecutionContext
from repro.xnf.result import ComponentStream, ConnectionStream, COResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xnf.result import XNFExecutable


def evaluate_recursive(executable: "XNFExecutable",
                       ctx: ExecutionContext) -> COResult:
    translated = executable.translated

    # 1. Materialize raw component streams and unrestricted connections.
    raw_components: dict[str, ComponentStream] = {}
    raw_connections: dict[str, ConnectionStream] = {}
    for stream, node in executable.plan.outputs:
        rows = executable.plan.run_node(node, ctx)
        if stream.stream_kind == "component":
            # No stream of a recursive CO embeds its parent.
            component = executable._decode_component(stream, node, rows,
                                                     {})
            raw_components[component.name] = component
        else:
            raw_connections[stream.name.upper()] = ConnectionStream(
                name=stream.name.upper(), number=stream.component_number,
                role=stream.role or "", parent=stream.parent or "",
                children=stream.children,
                connections=[tuple(r) for r in rows],
                attribute_names=stream.attribute_names,
            )

    # 2. Semi-naive fixpoint over reachable identities.
    reachable: dict[str, set] = {name: set()
                                 for name in raw_components}
    frontier: dict[str, set] = {name: set() for name in raw_components}
    iterations = 0
    for root in translated.root_names:
        oids = set(raw_components[root].oids)
        reachable[root] = set(oids)
        frontier[root] = set(oids)

    changed = True
    while changed:
        iterations += 1
        changed = False
        next_frontier: dict[str, set] = {name: set()
                                         for name in raw_components}
        for name, stream in raw_connections.items():
            info = translated.relationships[name]
            parent = info.parent
            if not frontier[parent]:
                continue
            active_parents = frontier[parent]
            for connection in stream.connections:
                if connection[0] not in active_parents:
                    continue
                for child, child_oid in zip(info.children, connection[1:]):
                    if child_oid not in reachable[child]:
                        reachable[child].add(child_oid)
                        next_frontier[child].add(child_oid)
                        changed = True
        frontier = next_frontier

    # 3. Filter streams down to reachable tuples: a connection stays
    # when its parent is reachable.
    result = COResult(schema=translated.schema, components={},
                      relationships={})
    shipped = 0
    for name, component in raw_components.items():
        info = translated.components[name]
        allowed = reachable[name]
        filtered = ComponentStream(name=name, number=component.number,
                                   columns=component.columns)
        for oid, row in zip(component.oids, component.rows):
            if oid in allowed:
                filtered.oids.append(oid)
                filtered.rows.append(row)
        if info.taken:
            result.components[name] = filtered
            shipped += len(filtered)
    for name, stream in raw_connections.items():
        info = translated.relationships[name]
        parent_reachable = reachable[info.parent]
        kept = [c for c in stream.connections if c[0] in parent_reachable]
        filtered = ConnectionStream(
            name=name, number=stream.number, role=stream.role,
            parent=stream.parent, children=stream.children,
            connections=kept, attribute_names=stream.attribute_names,
        )
        if info.taken:
            result.relationships[name] = filtered
            shipped += len(filtered)
    result.shipped_tuples = shipped
    result.counters = dict(ctx.counters)
    result.counters["fixpoint_iterations"] = iterations
    return result
