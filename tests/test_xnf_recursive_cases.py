"""Recursive-CO edge cases beyond the basic BOM closure."""

import pytest

from repro.api.engine import Engine
from repro.api.session import Session


def graph_db(edges: list[tuple[int, int]], parts: int) -> Session:
    db = Engine().connect()
    db.execute("CREATE TABLE PART (ID INT PRIMARY KEY, TAG VARCHAR)")
    db.execute("CREATE TABLE LINK (SRC INT, DST INT)")
    db.execute("CREATE INDEX IX_LINK_SRC ON LINK (SRC)")
    for number in range(1, parts + 1):
        db.table("PART").insert((number, f"p{number}"))
    for src, dst in edges:
        db.table("LINK").insert((src, dst))
    return db


def closure_view(anchor: int) -> str:
    return f"""
    OUT OF seed AS (SELECT * FROM PART WHERE id = {anchor}),
           node AS PART,
           starts AS (RELATE seed VIA STARTS, node USING LINK l
                      WHERE seed.id = l.src AND l.dst = node.id),
           hops AS (RELATE node VIA HOPS, node USING LINK l
                    WHERE HOPS.id = l.src AND l.dst = node.id)
    TAKE *
    """


class TestClosures:
    def test_simple_chain(self):
        db = graph_db([(1, 2), (2, 3), (3, 4)], parts=5)
        co = db.xnf(closure_view(1))
        assert {r[0] for r in co.component("node").rows} == {2, 3, 4}
        assert co.counters["fixpoint_iterations"] >= 3

    def test_cycle_terminates(self):
        db = graph_db([(1, 2), (2, 3), (3, 1)], parts=3)
        co = db.xnf(closure_view(1))
        assert {r[0] for r in co.component("node").rows} == {1, 2, 3}

    def test_self_loop(self):
        db = graph_db([(1, 1)], parts=2)
        co = db.xnf(closure_view(1))
        assert {r[0] for r in co.component("node").rows} == {1}

    def test_diamond_visits_once(self):
        db = graph_db([(1, 2), (1, 3), (2, 4), (3, 4)], parts=4)
        co = db.xnf(closure_view(1))
        nodes = co.component("node")
        assert {r[0] for r in nodes.rows} == {2, 3, 4}
        assert len(nodes.oids) == len(set(nodes.oids))
        # hops carries only links whose parent is itself reachable:
        # (2,4) and (3,4); the anchor's own links travel via 'starts'.
        assert len(co.relationship("hops").connections) == 2
        assert len(co.relationship("starts").connections) == 2

    def test_empty_anchor(self):
        db = graph_db([(1, 2)], parts=2)
        co = db.xnf(closure_view(999))
        assert len(co.component("seed")) == 0
        assert len(co.component("node")) == 0
        assert len(co.relationship("hops")) == 0

    def test_disconnected_subgraph_excluded(self):
        db = graph_db([(1, 2), (3, 4)], parts=4)
        co = db.xnf(closure_view(1))
        assert {r[0] for r in co.component("node").rows} == {2}

    def test_connections_restricted_to_reachable_parents(self):
        db = graph_db([(1, 2), (3, 2), (2, 4)], parts=4)
        co = db.xnf(closure_view(1))
        node_ids = {r[0] for r in co.component("node").rows}
        assert node_ids == {2, 4}
        # The (3 -> 2) link's parent 3 is unreachable: its connection
        # must not appear.
        node_oids = set(co.component("node").oids)
        for parent_oid, _child_oid in \
                co.relationship("hops").connections:
            assert parent_oid in node_oids


class TestRecursiveWithCache:
    def test_cache_navigation_over_closure(self):
        db = graph_db([(1, 2), (2, 3), (2, 4)], parts=4)
        cache = db.open_cache(closure_view(1))
        seed = cache.extent("seed")[0]
        level1 = seed.children("starts")
        assert [o.id for o in level1] == [2]
        level2 = sorted(o.id for o in level1[0].children("hops"))
        assert level2 == [3, 4]

    def test_recursive_view_composition_rejected(self):
        db = graph_db([(1, 2)], parts=2)
        db.execute(f"CREATE VIEW closure AS {closure_view(1)}")
        from repro.errors import SemanticError
        with pytest.raises(SemanticError, match="recursive"):
            db.query("SELECT * FROM closure.node")

    def test_take_projection_on_recursive_view(self):
        db = graph_db([(1, 2), (2, 3)], parts=3)
        view = closure_view(1).replace("TAKE *", "TAKE node(id), hops")
        co = db.xnf(view)
        assert co.component("node").columns == ["ID"]
        assert "SEED" not in co.components
        # Only (2 -> 3) qualifies: the anchor's outgoing link belongs
        # to 'starts', which the TAKE clause dropped.
        assert len(co.relationship("hops")) == 1
