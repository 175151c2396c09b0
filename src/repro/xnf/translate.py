"""XNF semantic rewrite: lowering the XNF operator to NF QGM (Sect. 4.2).

The two major steps the paper names:

1. **Removal of the XNF operator box** — the multi-output TOP takes one
   stream per TAKEn component/relationship, each fed by plain NF boxes.
2. **Consideration of XNF predicates (reachability)** — every non-root
   component is restricted to tuples reachable from a root:

   * each relationship R gets one shared **connection box** joining the
     parent's *final* (already reachability-restricted) derivation with
     the children's *raw* derivations under R's predicate;
   * a child's final derivation projects its columns out of the
     connection box(es) and deduplicates by tuple identity — with
     several incoming relationships the projections are UNIONed, which
     is how "reachable via empproperty OR projproperty" is expressed
     without disjunctive existentials;
   * connection boxes are *shared* between the child derivation and the
     relationship's output stream: this is exactly the common
     subexpression exploitation of Fig. 5b / Table 1.

Tuple identity: every component derivation gets a hidden ``$OID$`` head
column — the base-table RID when the derivation is a simple restriction
of one table, otherwise a value tuple (Sect. 5: "each tuple has a
(system generated) identifier").

Output optimization (Sect. 4.2 footnote): when a binary relationship's
parent side is provably unique on the join columns and the child has no
other incoming relationship, the child stream carries its parent's
identity in a hidden ``$POID$`` column and the separate connection
stream is elided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import XNFError
from repro.qgm.model import (BaseBox, Box, HeadColumn, OutputStream,
                             QGMGraph, QRef, Quantifier, RidRef, SelectBox,
                             SetOpBox, TopBox, XNFBox, XNFRelationship,
                             replace_qrefs)
from repro.rewrite.nf_rules import columns_unique_in, equated_columns
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.xnf.schema_graph import SchemaGraph

OID = "$OID$"
POID = "$POID$"


@dataclass
class XNFOptions:
    """Translation toggles the benchmarks ablate."""

    #: Elide connection streams captured by child tuples (Sect. 4.2 fn).
    output_optimization: bool = True
    #: Run the NF rule engine over the translated graph (box merges etc.).
    apply_nf_rewrite: bool = True


@dataclass
class ComponentPlanInfo:
    """Translation artifacts for one component."""

    name: str
    number: int
    raw_box: Box
    final_box: Box
    is_root: bool
    taken: bool
    columns: list[str] = field(default_factory=list)


@dataclass
class RelationshipPlanInfo:
    """Translation artifacts for one relationship."""

    name: str
    number: int
    role: str
    parent: str
    children: tuple[str, ...]
    connection_box: Box
    elided: bool
    taken: bool


@dataclass
class TranslatedXNF:
    """The result of XNF semantic rewrite: a multi-output NF graph."""

    graph: QGMGraph
    schema: SchemaGraph
    components: dict[str, ComponentPlanInfo]
    relationships: dict[str, RelationshipPlanInfo]
    recursive: bool = False
    #: For recursive COs: per-relationship *unrestricted* connection
    #: boxes (parent raw x child raw) driving the fixpoint.
    recursive_connection_boxes: dict[str, Box] = field(default_factory=dict)
    root_names: list[str] = field(default_factory=list)
    #: The original XNF operator box (kept for updatability analysis).
    xnf_box: Optional[XNFBox] = None


class XNFTranslator:
    """Implements XNF semantic rewrite over a built XNF QGM graph.

    ``compiler`` (a :class:`~repro.compiler.pipeline.CompilationPipeline`,
    installed by the engine) supplies the post-translation NF
    rewrite so XNF compilation shares the one rule catalog and fixpoint
    budget; without one, the shared :func:`rewrite_fixpoint` runs with
    defaults.
    """

    def __init__(self, catalog: Catalog,
                 options: Optional[XNFOptions] = None,
                 compiler=None):
        self.catalog = catalog
        self.options = options or XNFOptions()
        self.compiler = compiler

    def _nf_rewrite(self, graph: QGMGraph) -> None:
        """The shared NF cleanup pass over a translated graph."""
        from repro.compiler.pipeline import rewrite_fixpoint
        if self.compiler is not None:
            self.compiler.rewrite_graph(graph)
        else:
            rewrite_fixpoint(graph, self.catalog)

    # ------------------------------------------------------------------
    def translate(self, graph: QGMGraph) -> TranslatedXNF:
        xnf = graph.xnf_box()
        if xnf is None:
            raise XNFError("graph has no XNF operator box")
        schema = SchemaGraph.from_xnf_box(xnf)
        unreachable = schema.unreachable_components()
        if unreachable:
            raise XNFError(
                f"components not reachable from any root: "
                f"{sorted(unreachable)}"
            )
        for name in schema.components:
            self._install_identity(xnf.components[name].box)
        order = schema.topological_order()
        if order is None:
            return self._translate_recursive(xnf, schema)
        return self._translate_dag(xnf, schema, order)

    # ------------------------------------------------------------------
    # Identity columns
    # ------------------------------------------------------------------
    def _install_identity(self, box: Box) -> None:
        if box.has_head_column(OID):
            return
        if isinstance(box, SelectBox):
            foreach = box.foreach_quantifiers()
            simple = (len(foreach) == 1
                      and isinstance(foreach[0].box, BaseBox)
                      and not box.distinct)
            if simple:
                box.head.append(HeadColumn(OID, RidRef(foreach[0])))
                return
            values = ast.FunctionCall(
                "$IDTUPLE$",
                tuple(c.expression for c in box.head
                      if c.expression is not None),
            )
            box.head.append(HeadColumn(OID, values))
            return
        raise XNFError(
            f"component derivation {box.label!r} must be wrapped in a "
            f"select box before identity installation"
        )

    # ------------------------------------------------------------------
    # DAG translation (the paper's main path)
    # ------------------------------------------------------------------
    def _translate_dag(self, xnf: XNFBox, schema: SchemaGraph,
                       order: list[str]) -> TranslatedXNF:
        taken_components, taken_relationships, take_columns = \
            self._taken(xnf)
        finals: dict[str, Box] = {}
        connections: dict[str, SelectBox] = {}
        elided: dict[str, bool] = {}
        child_single_rel: dict[str, str] = {}

        for name in order:
            component = xnf.components[name]
            incoming = schema.incoming(name)
            if component.is_root or not component.reachability_required \
                    or not incoming:
                finals[name] = component.box
                continue
            branch_boxes: list[SelectBox] = []
            for edge in incoming:
                relationship = xnf.relationships[edge.name]
                connection = connections.get(edge.name)
                if connection is None:
                    connection = self._build_connection_box(
                        relationship, xnf, finals
                    )
                    connections[edge.name] = connection
                branch_boxes.append(
                    self._child_projection(connection, relationship,
                                           name, xnf)
                )
            if len(branch_boxes) == 1:
                branch = branch_boxes[0]
                branch.distinct = True
                finals[name] = branch
                if len(incoming) == 1:
                    child_single_rel[name] = incoming[0].name
            else:
                union = SetOpBox("UNION", all_rows=False,
                                 label=f"{name.lower()}_reach")
                for branch in branch_boxes:
                    union.inputs.append(Quantifier(branch, Quantifier.F))
                union.head = [HeadColumn(c.name)
                              for c in branch_boxes[0].head]
                finals[name] = union

        # Connection boxes for relationships whose children needed no
        # reachability (e.g. relationships between roots) still must
        # exist if the relationship is taken.
        for rel_name, relationship in xnf.relationships.items():
            if rel_name not in connections and rel_name \
                    in taken_relationships:
                connections[rel_name] = self._build_connection_box(
                    relationship, xnf, finals
                )

        # Output optimization: embed parent identity into child streams.
        for rel_name, relationship in xnf.relationships.items():
            elided[rel_name] = False
            if not self.options.output_optimization:
                continue
            if len(relationship.children) != 1:
                continue
            if relationship.attributes:
                continue  # attribute values must ship with connections
            child = relationship.children[0]
            if child_single_rel.get(child) != rel_name:
                continue
            if child not in taken_components:
                continue
            if not self._parent_side_unique(relationship, finals):
                continue
            child_final = finals[child]
            if not isinstance(child_final, SelectBox):
                continue
            self._embed_parent_identity(child_final, connections[rel_name])
            elided[rel_name] = True

        return self._assemble(xnf, schema, finals, connections, elided,
                              taken_components, taken_relationships,
                              take_columns)

    # ------------------------------------------------------------------
    def _build_connection_box(self, relationship: XNFRelationship,
                              xnf: XNFBox,
                              finals: dict[str, Box]) -> SelectBox:
        """One shared derivation of a relationship's connections.

        Joins the parent's final box with every child's raw box (and the
        USING tables) under the relationship predicate; its head carries
        the partner identities plus all child columns, so both the child
        reachability derivation and the relationship output stream can
        project from it (common subexpression, Fig. 5b).
        """
        box = SelectBox(label=f"conn_{relationship.name.lower()}")
        parent_box = finals.get(relationship.parent,
                                xnf.components[relationship.parent].box)
        parent_q = box.add_quantifier(
            Quantifier(parent_box, Quantifier.F,
                       name=f"p_{relationship.parent.lower()}")
        )
        child_qs: list[Quantifier] = []
        for child in relationship.children:
            raw = xnf.components[child].box
            child_qs.append(box.add_quantifier(
                Quantifier(raw, Quantifier.F, name=f"c_{child.lower()}")
            ))
        using_qs: list[Quantifier] = []
        for old in relationship.using_quantifiers:
            using_qs.append(box.add_quantifier(
                Quantifier(old.box, Quantifier.F, name=old.name)
            ))

        remap: dict[int, Quantifier] = {
            relationship.parent_quantifier.qid: parent_q
        }
        for old, new in zip(relationship.child_quantifiers, child_qs):
            remap[old.qid] = new
        for old, new in zip(relationship.using_quantifiers, using_qs):
            remap[old.qid] = new

        def mapping(leaf):
            if isinstance(leaf, QRef):
                target = remap.get(leaf.quantifier.qid)
                if target is not None:
                    return QRef(target, leaf.column)
            elif isinstance(leaf, RidRef):
                target = remap.get(leaf.quantifier.qid)
                if target is not None:
                    return RidRef(target)
            return leaf

        if relationship.predicate is not None:
            predicate = replace_qrefs(relationship.predicate, mapping)
            box.predicates.extend(
                p for p in ast.conjuncts(predicate)
                if p != ast.Literal(True)
            )

        head = [HeadColumn(POID, QRef(parent_q, OID))]
        for index, (child, quantifier) in enumerate(
                zip(relationship.children, child_qs)):
            for column in quantifier.box.head:
                head.append(HeadColumn(f"${index}${column.name}",
                                       QRef(quantifier, column.name)))
        for name, expression in relationship.attributes:
            head.append(HeadColumn(f"$A${name}",
                                   replace_qrefs(expression, mapping)))
        box.head = head
        return box

    def _child_projection(self, connection: SelectBox,
                          relationship: XNFRelationship, child: str,
                          xnf: XNFBox) -> SelectBox:
        """Project one child's columns back out of a connection box."""
        index = relationship.children.index(child)
        raw = xnf.components[child].box
        box = SelectBox(label=f"{child.lower()}_via_"
                              f"{relationship.name.lower()}")
        quantifier = box.add_quantifier(
            Quantifier(connection, Quantifier.F, name="conn")
        )
        box.head = [
            HeadColumn(column.name,
                       QRef(quantifier, f"${index}${column.name}"))
            for column in raw.head
        ]
        return box

    def _parent_side_unique(self, relationship: XNFRelationship,
                            finals: dict[str, Box]) -> bool:
        """Can a child row match at most one parent row?  Checked on the
        relationship predicate's equated parent columns (same uniqueness
        inference the E-to-F rule uses)."""
        if relationship.predicate is None:
            return False
        probe = SelectBox("probe")
        probe.predicates = list(ast.conjuncts(relationship.predicate))
        equated = equated_columns(probe, relationship.parent_quantifier)
        if not equated:
            return False
        parent_box = finals.get(relationship.parent,
                                relationship.parent_quantifier.box)
        return columns_unique_in(parent_box, equated)

    def _embed_parent_identity(self, child_final: SelectBox,
                               connection: SelectBox) -> None:
        quantifier = child_final.body_quantifiers[0]
        if quantifier.box is not connection:  # pragma: no cover
            raise XNFError("output optimization: unexpected child shape")
        child_final.head.append(
            HeadColumn(POID, QRef(quantifier, POID))
        )

    # ------------------------------------------------------------------
    def _taken(self, xnf: XNFBox):
        take_columns: dict[str, tuple[str, ...]] = {}
        if xnf.take_all:
            return (set(xnf.components), set(xnf.relationships),
                    take_columns)
        components: set[str] = set()
        relationships: set[str] = set()
        for item in xnf.take_items:
            key = item.name.upper()
            if key in xnf.components:
                components.add(key)
                if item.columns is not None:
                    take_columns[key] = tuple(c.upper()
                                              for c in item.columns)
            else:
                relationships.add(key)
        return components, relationships, take_columns

    def _assemble(self, xnf: XNFBox, schema: SchemaGraph,
                  finals: dict[str, Box],
                  connections: dict[str, SelectBox],
                  elided: dict[str, bool],
                  taken_components: set[str],
                  taken_relationships: set[str],
                  take_columns: dict[str, tuple[str, ...]]
                  ) -> TranslatedXNF:
        top = TopBox()
        components: dict[str, ComponentPlanInfo] = {}
        relationships: dict[str, RelationshipPlanInfo] = {}
        number = 0

        for name in xnf.components:
            final = finals[name]
            taken = name in taken_components
            info = ComponentPlanInfo(
                name=name, number=number, raw_box=xnf.components[name].box,
                final_box=final, is_root=xnf.components[name].is_root,
                taken=taken,
            )
            components[name] = info
            number += 1
            if not taken:
                continue
            stream_box = self._component_stream_box(
                final, take_columns.get(name)
            )
            info.columns = [c.name for c in stream_box.head
                            if not c.name.startswith("$")]
            stream = OutputStream(
                name=name, box=stream_box, stream_kind="component",
                component_number=info.number,
                identity_position=stream_box.head_position(OID),
            )
            embedded = self._embedded_of(name, xnf, elided)
            if embedded is not None:
                rel_name, parent_name = embedded
                stream.embedded_parent = (
                    rel_name, parent_name,
                    stream_box.head_position(POID),
                )
            top.outputs.append(stream)

        for name, relationship in xnf.relationships.items():
            connection = connections.get(name)
            taken = name in taken_relationships and not elided.get(name,
                                                                   False)
            info = RelationshipPlanInfo(
                name=name, number=number, role=relationship.role,
                parent=relationship.parent,
                children=relationship.children,
                connection_box=connection, elided=elided.get(name, False),
                taken=taken,
            )
            relationships[name] = info
            number += 1
            if not taken or connection is None:
                continue
            stream_box = self._relationship_stream_box(relationship,
                                                       connection)
            identity_width = 1 + len(relationship.children)
            identity_columns = tuple(
                c.name for c in stream_box.head[:identity_width])
            top.outputs.append(OutputStream(
                name=name, box=stream_box, stream_kind="relationship",
                component_number=info.number,
                parent=relationship.parent,
                children=relationship.children,
                role=relationship.role,
                identity_columns=identity_columns,
                attribute_names=tuple(n for n, _e in
                                      relationship.attributes),
            ))

        graph = QGMGraph(top=top, statement_kind="xnf")
        if self.options.apply_nf_rewrite:
            self._nf_rewrite(graph)
        return TranslatedXNF(
            graph=graph, schema=schema, components=components,
            relationships=relationships,
            root_names=schema.roots, xnf_box=xnf,
        )

    @staticmethod
    def _embedded_of(component: str, xnf: XNFBox,
                     elided: dict[str, bool]):
        for rel_name, relationship in xnf.relationships.items():
            if elided.get(rel_name) and relationship.children == \
                    (component,):
                return rel_name, relationship.parent
        return None

    def _component_stream_box(self, final: Box,
                              columns: Optional[tuple[str, ...]]
                              ) -> SelectBox:
        """Wrap a component's final box for output (TAKE projection).

        Always wraps: streams need a stable box to prune/project without
        disturbing the shared final derivation.
        """
        box = SelectBox(label=f"out_{final.label}")
        quantifier = box.add_quantifier(
            Quantifier(final, Quantifier.F, name=final.label)
        )
        for column in final.head:
            if column.name.startswith("$"):
                continue
            if columns is not None and column.name.upper() not in columns:
                continue
            box.head.append(HeadColumn(column.name,
                                       QRef(quantifier, column.name)))
        if not box.head:
            raise XNFError(
                f"TAKE projection of {final.label!r} keeps no columns"
            )
        box.head.append(HeadColumn(OID, QRef(quantifier, OID)))
        if final.has_head_column(POID):
            box.head.append(HeadColumn(POID, QRef(quantifier, POID)))
        return box

    def _relationship_stream_box(self, relationship: XNFRelationship,
                                 connection: SelectBox) -> SelectBox:
        box = SelectBox(label=f"out_{relationship.name.lower()}")
        quantifier = box.add_quantifier(
            Quantifier(connection, Quantifier.F, name="conn")
        )
        box.head = [HeadColumn(POID, QRef(quantifier, POID))]
        for index in range(len(relationship.children)):
            box.head.append(
                HeadColumn(f"$COID{index}$",
                           QRef(quantifier, f"${index}${OID}"))
            )
        for name, _expression in relationship.attributes:
            box.head.append(
                HeadColumn(name, QRef(quantifier, f"$A${name}"))
            )
        box.distinct = True
        return box

    # ------------------------------------------------------------------
    # Recursive COs (cycle in the schema graph)
    # ------------------------------------------------------------------
    def _translate_recursive(self, xnf: XNFBox,
                             schema: SchemaGraph) -> TranslatedXNF:
        """Cyclic schema graphs evaluate by fixpoint (Sect. 2): derive
        every component raw table and every relationship's unrestricted
        connection table once, then iterate reachability in the
        executor (:mod:`repro.xnf.recursive`)."""
        taken_components, taken_relationships, take_columns = \
            self._taken(xnf)
        top = TopBox()
        components: dict[str, ComponentPlanInfo] = {}
        relationships: dict[str, RelationshipPlanInfo] = {}
        connection_boxes: dict[str, Box] = {}
        number = 0
        raw_finals = {name: xnf.components[name].box
                      for name in xnf.components}
        for name in xnf.components:
            raw = xnf.components[name].box
            info = ComponentPlanInfo(
                name=name, number=number, raw_box=raw, final_box=raw,
                is_root=xnf.components[name].is_root,
                taken=name in taken_components,
            )
            components[name] = info
            number += 1
            stream_box = self._component_stream_box(
                raw, take_columns.get(name))
            info.columns = [c.name for c in stream_box.head
                            if not c.name.startswith("$")]
            top.outputs.append(OutputStream(
                name=name, box=stream_box, stream_kind="component",
                component_number=info.number,
                identity_position=stream_box.head_position(OID),
            ))
        for name, relationship in xnf.relationships.items():
            connection = self._build_connection_box(relationship, xnf,
                                                    raw_finals)
            connection_boxes[name] = connection
            info = RelationshipPlanInfo(
                name=name, number=number, role=relationship.role,
                parent=relationship.parent,
                children=relationship.children,
                connection_box=connection, elided=False,
                taken=name in taken_relationships,
            )
            relationships[name] = info
            number += 1
            stream_box = self._relationship_stream_box(relationship,
                                                       connection)
            identity_width = 1 + len(relationship.children)
            top.outputs.append(OutputStream(
                name=name, box=stream_box, stream_kind="relationship",
                component_number=info.number,
                parent=relationship.parent,
                children=relationship.children,
                role=relationship.role,
                identity_columns=tuple(
                    c.name for c in stream_box.head[:identity_width]),
                attribute_names=tuple(n for n, _e in
                                      relationship.attributes),
            ))
        graph = QGMGraph(top=top, statement_kind="xnf")
        if self.options.apply_nf_rewrite:
            self._nf_rewrite(graph)
        return TranslatedXNF(
            graph=graph, schema=schema, components=components,
            relationships=relationships, recursive=True,
            recursive_connection_boxes=connection_boxes,
            root_names=schema.roots, xnf_box=xnf,
        )
