"""CO cache: workspace, cursors, cache manager, object binding."""

from repro.cache.cursor import (Cursor, DependentCursor, IndependentCursor,
                                PathCursor)
from repro.cache.export import (instance_graph_dot, schema_graph_dot,
                                to_documents)
from repro.cache.manager import XNFCache
from repro.cache.matview import (MaterializedView,
                                 MaterializedViewRegistry, co_canonical,
                                 co_results_equal)
from repro.cache.objects import Extent, bind_classes
from repro.cache.workspace import CachedObject, LogEntry, Workspace

__all__ = [
    "Cursor", "DependentCursor", "IndependentCursor", "PathCursor",
    "instance_graph_dot", "schema_graph_dot", "to_documents",
    "XNFCache",
    "MaterializedView", "MaterializedViewRegistry",
    "co_canonical", "co_results_equal",
    "Extent", "bind_classes",
    "CachedObject", "LogEntry", "Workspace",
]
