"""Exporting cached composite objects to other representations.

Sect. 5.2/6: the XNF API "is designed to be multi-lingual ... adequate
main-memory representations of the extracted COs as well as efficient
navigation and manipulation facilities are inherently supported" and
"XNF does not bind itself to only one kind of application language".

Besides the generated-class binding (:mod:`repro.cache.objects`), this
module offers:

* :func:`to_documents` — each root object as a nested dict tree (the
  natural hand-off to JSON-speaking environments).  Object sharing is
  preserved with ``"$ref"`` markers so shared components (e2, s3 in
  Fig. 1) serialize once per root.
* :func:`schema_graph_dot` / :func:`instance_graph_dot` — Graphviz DOT
  renderings of the CO schema graph and instance graphs, reproducing
  the two panels of the paper's Fig. 1.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.workspace import CachedObject, Workspace
from repro.xnf.schema_graph import SchemaGraph


def _object_key(obj: CachedObject) -> str:
    return f"{obj.component}:{obj.oid}"


def to_documents(workspace: Workspace,
                 roots: Optional[list[CachedObject]] = None,
                 max_depth: int = 12) -> list[dict]:
    """Serialize each root's composite object as a nested document.

    Children appear under keys named after the relationship's role.
    Within one document, an object revisited (sharing or a cycle) is
    emitted as ``{"$ref": key}`` pointing at its first, full occurrence
    (which carries ``"$id"``).
    """
    if roots is None:
        roots = []
        for name in workspace.component_names():
            if name in workspace.schema.roots:
                roots.extend(workspace.extent(name))

    # Per component: (document key, position in child_lists) of each
    # outgoing relationship, resolved once for the whole export.
    roles = workspace.relationship_role
    steps = {component: [((roles.get(name) or name).lower(), index)
                         for name, index in positions.items()]
             for component, positions in workspace.outgoing.items()}

    def render(obj: CachedObject, depth: int, seen: set) -> dict:
        key = _object_key(obj)
        if key in seen:
            return {"$ref": key}
        seen.add(key)
        document: dict = {"$id": key, "$component": obj.component}
        document.update(obj.as_dict())
        if depth >= max_depth:
            return document
        for field, index in steps[obj.component]:
            children = obj.child_lists[index]
            if not children:
                continue
            rendered = []
            for child in children:
                if isinstance(child, tuple):
                    rendered.append([render(c, depth + 1, seen)
                                     for c in child])
                else:
                    rendered.append(render(child, depth + 1, seen))
            document[field] = rendered
        return document

    return [render(root, 0, set()) for root in roots]


def schema_graph_dot(schema: SchemaGraph) -> str:
    """The Fig. 1 schema graph: component nodes, relationship edges."""
    lines = ["digraph schema {", "  rankdir=TB;",
             "  node [shape=box];"]
    for component in schema.components:
        shape = ("box, peripheries=2" if component in schema.roots
                 else "box")
        lines.append(f'  "{component}" [shape={shape}];')
    for edge in schema.edges:
        for child in edge.children:
            lines.append(
                f'  "{edge.parent}" -> "{child}" '
                f'[label="{edge.role.lower()}"];'
            )
    lines.append("}")
    return "\n".join(lines)


def instance_graph_dot(workspace: Workspace,
                       label_columns: Optional[dict[str, str]] = None
                       ) -> str:
    """The Fig. 1 instance graphs: one node per cached tuple, one edge
    per connection.  ``label_columns`` picks the column shown per
    component (defaults to the first column)."""
    label_columns = {k.upper(): v
                     for k, v in (label_columns or {}).items()}
    lines = ["digraph instances {", "  rankdir=TB;",
             "  node [shape=ellipse, fontsize=10];"]
    for name in workspace.component_names():
        columns = workspace.components_columns[name]
        label_col = label_columns.get(name, columns[0] if columns
                                      else None)
        for obj in workspace.extent(name):
            label = obj.get(label_col) if label_col else obj.oid
            lines.append(
                f'  "{_object_key(obj)}" [label="{label}"];'
            )
    for rel_name in workspace.relationship_names():
        role = workspace.relationship_role.get(rel_name, rel_name)
        for parent, child_tuple in workspace.connections_of(rel_name):
            for child in child_tuple:
                lines.append(
                    f'  "{_object_key(parent)}" -> '
                    f'"{_object_key(child)}" '
                    f'[label="{role.lower()}", fontsize=8];'
                )
    lines.append("}")
    return "\n".join(lines)
