"""Sect. 5.3: shipping disciplines — message traffic and payload.

"Object shipping typically is slower than page shipping, since it often
increases the traffic (number of messages) between client and server by
an order of magnitude.  RDBMS go to the extreme of only shipping the
objects and within that only the requested attributes, although many
such objects could be blocked into a single message."

XNF's block shipping delivers the whole CO in a few large messages and,
via TAKE projection, only the requested attributes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.api.transport import TransportSimulator
from repro.sql import ast


@pytest.mark.benchmark(group="shipping")
def test_shipping_discipline_comparison(bench_org_db, benchmark):
    co = bench_org_db.xnf("deps_arc")
    simulator = TransportSimulator()

    tuple_stats = simulator.tuple_at_a_time(co)
    block_stats = simulator.block_shipping(co)
    object_stats = simulator.object_shipping(co)
    page_stats = simulator.page_shipping(co)
    benchmark(lambda: simulator.block_shipping(co))

    print_table(
        "Sect. 5.3 — shipping disciplines (deps_ARC extraction)",
        ["discipline", "messages", "total bytes"],
        [["tuple-at-a-time (classic RDBMS)", tuple_stats.messages,
          f"{tuple_stats.total_bytes:,}"],
         ["object shipping (Versant-style)", object_stats.messages,
          f"{object_stats.total_bytes:,}"],
         ["page shipping (ObjectStore-style)", page_stats.messages,
          f"{page_stats.total_bytes:,}"],
         ["XNF block shipping", block_stats.messages,
          f"{block_stats.total_bytes:,}"]],
    )

    # Order-of-magnitude message gaps, as Sect. 5.3 argues.
    assert tuple_stats.messages >= 10 * block_stats.messages
    assert object_stats.messages >= 10 * block_stats.messages
    # Page shipping has few messages but ships unrequested bytes.
    assert page_stats.total_bytes > block_stats.total_bytes
    # All disciplines carry the same wire tuples.
    assert tuple_stats.tuples == block_stats.tuples == \
        object_stats.tuples == co.shipped_tuples


@pytest.mark.benchmark(group="shipping")
def test_projection_ships_requested_attributes_only(bench_org_db,
                                                    benchmark):
    """RDBMS-style attribute filtering through TAKE projection."""
    db = bench_org_db
    full = db.xnf("deps_arc")
    definition = db.engine.catalog.view("deps_arc").definition
    narrow_query = ast.XNFQuery(
        definitions=definition.definitions,
        take_all=False,
        take_items=(ast.TakeItem("xdept", ("DNO", "DNAME")),
                    ast.TakeItem("xemp", ("ENO",)),
                    ast.TakeItem("employment")),
    )
    narrow = db.xnf(narrow_query)
    benchmark(lambda: db.xnf(narrow_query))

    simulator = TransportSimulator()
    full_bytes = simulator.block_shipping(full).payload_bytes
    narrow_bytes = simulator.block_shipping(narrow).payload_bytes
    print_table(
        "Sect. 5.3 — attribute projection",
        ["extraction", "tuples", "payload bytes"],
        [["TAKE * (all attributes)", full.total_tuples(),
          f"{full_bytes:,}"],
         ["TAKE projected columns", narrow.total_tuples(),
          f"{narrow_bytes:,}"]],
    )
    assert narrow_bytes < full_bytes / 2
