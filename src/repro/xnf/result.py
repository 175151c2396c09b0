"""Execution of translated XNF queries: the heterogeneous result.

Sect. 5: "XNF COs are handled by the database server as a heterogeneous
collection of tuples.  Each tuple either represents a row of a component
table or a connection ...  Each tuple has a (system generated) identifier
and also a component number".

:class:`XNFExecutable` compiles a :class:`~repro.xnf.translate.TranslatedXNF`
into physical plans (one per output stream, sharing spooled common
subexpressions through a single execution context) and materializes a
:class:`COResult`.  The tagged-tuple iterator :meth:`COResult.tuples`
reproduces the wire format the XNF cache consumes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional

from repro.errors import XNFError
from repro.executor.expressions import column_kernel
from repro.optimizer.optimizer import (ExecutablePlan, Planner,
                                       PlannerOptions)
from repro.optimizer.plan import ExecutionContext
from repro.storage.catalog import Catalog
from repro.storage.stats import StatisticsManager
from repro.xnf.schema_graph import SchemaGraph
from repro.xnf.translate import TranslatedXNF


@dataclass
class ComponentStream:
    """All tuples of one component table, with their identities."""

    name: str
    number: int
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    oids: list = field(default_factory=list)
    #: When the output optimization embedded the parent identity into
    #: this stream, the per-row parent oids (parallel to ``rows``).
    embedded_parent_oids: Optional[list] = None

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass
class ConnectionStream:
    """All connections of one relationship: (parent_oid, child_oids...)."""

    name: str
    number: int
    role: str
    parent: str
    children: tuple[str, ...]
    connections: list[tuple] = field(default_factory=list)
    #: Relationship attribute names; each connection tuple carries the
    #: attribute values after the partner identities (Sect. 2:
    #: connections "might have some relationship attributes").
    attribute_names: tuple[str, ...] = ()
    #: True when rebuilt from embedded parent identities (the output
    #: optimization elided the stream on the wire).
    reconstructed: bool = False

    def __len__(self) -> int:
        return len(self.connections)


@dataclass
class TaggedTuple:
    """One element of the heterogeneous result stream."""

    component_number: int
    stream_name: str
    kind: str  # 'component' | 'connection'
    identifier: object
    values: tuple


@dataclass
class COResult:
    """A fully materialized composite object (set of COs, strictly)."""

    schema: SchemaGraph
    components: dict[str, ComponentStream]
    relationships: dict[str, ConnectionStream]
    counters: dict[str, int] = field(default_factory=dict)
    #: Number of tuples the server actually shipped (before elided
    #: connection streams were reconstructed client-side).
    shipped_tuples: int = 0

    def component(self, name: str) -> ComponentStream:
        try:
            return self.components[name.upper()]
        except KeyError:
            raise XNFError(f"no component stream {name!r}") from None

    def relationship(self, name: str) -> ConnectionStream:
        try:
            return self.relationships[name.upper()]
        except KeyError:
            raise XNFError(f"no relationship stream {name!r}") from None

    def total_tuples(self) -> int:
        return (sum(len(s) for s in self.components.values())
                + sum(len(s) for s in self.relationships.values()))

    def tuples(self) -> Iterator[TaggedTuple]:
        """The heterogeneous stream, component-number tagged."""
        for stream in self.components.values():
            for oid, row in zip(stream.oids, stream.rows):
                yield TaggedTuple(stream.number, stream.name, "component",
                                  oid, row)
        for stream in self.relationships.values():
            for connection in stream.connections:
                yield TaggedTuple(stream.number, stream.name, "connection",
                                  connection, connection)

    def wire_tuples(self) -> Iterator[TaggedTuple]:
        """What the server actually shipped: component rows carry an
        embedded parent identity when the output optimization applied,
        and reconstructed relationship streams never cross the wire
        (Sect. 4.2 footnote)."""
        for stream in self.components.values():
            embedded = stream.embedded_parent_oids
            for index, (oid, row) in enumerate(zip(stream.oids,
                                                   stream.rows)):
                if embedded is not None:
                    row = row + (embedded[index],)
                yield TaggedTuple(stream.number, stream.name,
                                  "component", oid, row)
        for stream in self.relationships.values():
            if stream.reconstructed:
                continue
            for connection in stream.connections:
                yield TaggedTuple(stream.number, stream.name,
                                  "connection", connection, connection)


class XNFExecutable:
    """A compiled XNF query: plans per output stream plus metadata.

    ``bindings`` holds the values of literals the plan cache lifted
    into parameters.  The planner peeks at them (bind peeking), so the
    cost model keeps value-aware estimates, and :meth:`run` binds
    them.  :meth:`bind` shares the plans with another literal variant
    of the same query shape.
    """

    def __init__(self, translated: TranslatedXNF, catalog: Catalog,
                 stats: Optional[StatisticsManager] = None,
                 planner_options: Optional[PlannerOptions] = None,
                 bindings: Optional[dict] = None):
        self.translated = translated
        self.catalog = catalog
        self.stats = stats or StatisticsManager(catalog)
        self.planner_options = planner_options or PlannerOptions()
        self.bindings = bindings or {}
        planner = Planner(catalog, self.stats, self.planner_options,
                          peek=self.bindings)
        self.plan: ExecutablePlan = planner.plan(translated.graph)
        #: component stream name -> (value columns, value kernel)
        self._decoders: dict[str, tuple] = {}

    def bind(self, bindings: dict) -> "XNFExecutable":
        """A copy sharing this executable's plans, with ``bindings`` as
        the lifted literals' values."""
        bound = copy.copy(self)
        bound.bindings = bindings
        return bound

    def new_context(self) -> ExecutionContext:
        """A fresh execution context with the bindings bound."""
        return self.plan.new_context(self.bindings)

    # ------------------------------------------------------------------
    def run(self) -> COResult:
        ctx = self.new_context()
        if self.translated.recursive:
            from repro.xnf.recursive import evaluate_recursive
            return evaluate_recursive(self, ctx)
        return self._run_dag(ctx)

    def _run_dag(self, ctx: ExecutionContext) -> COResult:
        result = COResult(schema=self.translated.schema, components={},
                          relationships={})
        shipped = 0

        embedded_connections: dict[str, list[tuple]] = {}
        for stream, node in self.plan.outputs:
            rows = self.plan.run_node(node, ctx)
            shipped += len(rows)
            if stream.stream_kind == "component":
                component = self._decode_component(stream, node, rows,
                                                   embedded_connections)
                result.components[stream.name.upper()] = component
            elif stream.stream_kind == "relationship":
                result.relationships[stream.name.upper()] = \
                    ConnectionStream(
                        name=stream.name.upper(), number=stream.component_number,
                        role=stream.role or "", parent=stream.parent or "",
                        children=stream.children,
                        connections=rows,
                        attribute_names=stream.attribute_names,
                    )
            else:  # pragma: no cover - translate only emits these kinds
                raise XNFError(
                    f"unexpected stream kind {stream.stream_kind!r}"
                )

        # Reconstruct elided relationship streams from embedded parents.
        for name, info in self.translated.relationships.items():
            if not info.elided:
                continue
            connections = embedded_connections.get(name.upper(), [])
            result.relationships[name.upper()] = ConnectionStream(
                name=name.upper(), number=info.number, role=info.role,
                parent=info.parent, children=info.children,
                connections=connections, reconstructed=True,
            )

        result.shipped_tuples = shipped
        result.counters = dict(ctx.counters)
        return result

    def _decode_component(self, stream, node, rows,
                          embedded_connections) -> ComponentStream:
        identity_position = stream.identity_position
        if identity_position is None:
            raise XNFError(
                f"component stream {stream.name!r} lacks an identity column"
            )
        embedded = stream.embedded_parent
        decoder = self._decoders.get(stream.name)
        if decoder is None:
            system_positions = {identity_position}
            if embedded is not None:
                system_positions.add(embedded[2])
            value_positions = [i for i in range(len(node.columns))
                               if i not in system_positions]
            decoder = self._decoders[stream.name] = (
                [node.columns[i] for i in value_positions],
                column_kernel(value_positions))
        columns, values_of = decoder
        identities = list(map(itemgetter(identity_position), rows))
        oids, unique = identities, rows
        if len(set(identities)) < len(identities):
            # Object sharing: one tuple per identity, the first row's.
            first: dict = {}
            for oid, row in zip(identities, rows):
                first.setdefault(oid, row)
            oids, unique = list(first), list(first.values())
        component = ComponentStream(
            name=stream.name.upper(), number=stream.component_number,
            columns=list(columns), rows=values_of(unique, None), oids=oids,
        )
        if embedded is not None:
            parent_of = itemgetter(embedded[2])
            component.embedded_parent_oids = list(map(parent_of, unique))
            bucket = embedded_connections.setdefault(embedded[0].upper(), [])
            bucket.extend(dict.fromkeys(zip(map(parent_of, rows),
                                            identities)))
        return component

    # ------------------------------------------------------------------
    def explain(self) -> str:
        return self.plan.explain()
