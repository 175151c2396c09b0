"""Public API: engine/session surface, transport simulation, object
gateway."""

from repro.api.cursor import Cursor
from repro.api.engine import Engine
from repro.api.gateway import ObjectGateway, ObjectView
from repro.api.prepared import PreparedStatement
from repro.api.session import Session
from repro.api.transport import (TransportSimulator, TransportStats,
                                 tuple_size, value_size)

__all__ = [
    "Engine", "Session", "Cursor", "PreparedStatement",
    "ObjectGateway", "ObjectView",
    "TransportSimulator", "TransportStats", "tuple_size", "value_size",
]
