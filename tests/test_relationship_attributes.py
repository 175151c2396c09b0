"""Relationship attributes (Sect. 2: connections "might have some
relationship attributes"), via the WITH clause of RELATE."""

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.sql.parser import parse_statement


@pytest.fixture
def bom_qty_db() -> Session:
    db = Engine().connect()
    db.execute_script("""
    CREATE TABLE PART (PNO INT PRIMARY KEY, PNAME VARCHAR);
    CREATE TABLE CONTAINS (PARENT INT, CHILD INT, QTY INT);
    INSERT INTO PART VALUES (1, 'engine'), (2, 'piston'), (3, 'bolt');
    INSERT INTO CONTAINS VALUES (1, 2, 4), (1, 3, 12), (2, 3, 2);
    """)
    return db


VIEW = """
OUT OF xassembly AS (SELECT * FROM PART WHERE pno = 1),
       xpart AS PART,
       contains_top AS (RELATE xassembly VIA USES, xpart
                        USING CONTAINS c
                        WITH c.qty AS qty
                        WHERE xassembly.pno = c.parent AND
                              c.child = xpart.pno)
TAKE *
"""


class TestParsing:
    def test_with_clause_parsed(self):
        query = parse_statement(VIEW)
        relationship = query.relationships[0]
        assert len(relationship.attributes) == 1
        assert relationship.attributes[0].alias == "qty"

    def test_multiple_attributes(self):
        query = parse_statement(VIEW.replace(
            "WITH c.qty AS qty",
            "WITH c.qty AS qty, c.qty * 2 AS double_qty"))
        assert len(query.relationships[0].attributes) == 2

    def test_duplicate_attribute_names_rejected(self, bom_qty_db):
        from repro.errors import SemanticError
        with pytest.raises(SemanticError, match="duplicate"):
            bom_qty_db.xnf(VIEW.replace(
                "WITH c.qty AS qty",
                "WITH c.qty AS qty, c.qty AS qty"))


class TestExtraction:
    def test_connections_carry_attribute_values(self, bom_qty_db):
        co = bom_qty_db.xnf(VIEW)
        stream = co.relationship("contains_top")
        assert stream.attribute_names == ("QTY",)
        quantities = sorted(connection[2]
                            for connection in stream.connections)
        assert quantities == [4, 12]

    def test_attributed_relationship_never_elided(self, bom_qty_db):
        co = bom_qty_db.xnf(VIEW)
        assert not co.relationship("contains_top").reconstructed

    def test_naive_equivalence_with_attributes(self, bom_qty_db):
        optimized = bom_qty_db.xnf(VIEW)
        naive = bom_qty_db.xnf_naive(VIEW)
        assert sorted(optimized.relationship(
            "contains_top").connections) == sorted(
            naive.relationship("contains_top").connections)
        assert naive.relationship("contains_top").attribute_names == \
            ("QTY",)

    def test_computed_attribute(self, bom_qty_db):
        co = bom_qty_db.xnf(VIEW.replace("WITH c.qty AS qty",
                                         "WITH c.qty * 10 AS bulk"))
        values = sorted(c[2] for c in
                        co.relationship("contains_top").connections)
        assert values == [40, 120]

    def test_attribute_from_partner_table(self, bom_qty_db):
        co = bom_qty_db.xnf(VIEW.replace(
            "WITH c.qty AS qty",
            "WITH c.qty AS qty, xpart.pname AS part_name"))
        names = {c[3] for c in
                 co.relationship("contains_top").connections}
        assert names == {"piston", "bolt"}


class TestCacheAccess:
    def test_connection_attributes_accessor(self, bom_qty_db):
        cache = bom_qty_db.open_cache(VIEW)
        assembly = cache.extent("xassembly")[0]
        for child in assembly.children("contains_top"):
            attrs = cache.workspace.connection_attributes(
                "contains_top", assembly, child)
            expected = {"piston": 4, "bolt": 12}[child.pname]
            assert attrs == {"QTY": expected}

    def test_attributes_survive_persistence(self, bom_qty_db, tmp_path):
        from repro.cache.manager import XNFCache
        cache = bom_qty_db.open_cache(VIEW)
        path = str(tmp_path / "qty.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        assembly = loaded.extent("xassembly")[0]
        quantities = sorted(
            loaded.workspace.connection_attributes(
                "contains_top", assembly, child)["QTY"]
            for child in assembly.children("contains_top")
        )
        assert quantities == [4, 12]

    def test_attribute_free_relationship_returns_empty(self, org_db):
        cache = org_db.open_cache("deps_arc")
        dept = cache.extent("xdept")[0]
        emp = dept.children("employment")[0]
        assert cache.workspace.connection_attributes(
            "employment", dept, emp) == {}


class TestRecursiveWithAttributes:
    def test_recursive_closure_keeps_quantities(self):
        db = Engine().connect()
        db.execute_script("""
        CREATE TABLE PART (PNO INT PRIMARY KEY, PNAME VARCHAR);
        CREATE TABLE CONTAINS (PARENT INT, CHILD INT, QTY INT);
        INSERT INTO PART VALUES (1, 'a'), (2, 'b'), (3, 'c');
        INSERT INTO CONTAINS VALUES (1, 2, 5), (2, 3, 7);
        """)
        co = db.xnf("""
        OUT OF anchor AS (SELECT * FROM PART WHERE pno = 1),
               xpart AS PART,
               top AS (RELATE anchor VIA HOLDS, xpart USING CONTAINS c
                       WITH c.qty AS qty
                       WHERE anchor.pno = c.parent AND
                             c.child = xpart.pno),
               sub AS (RELATE xpart VIA SUBHOLDS, xpart USING CONTAINS c
                       WITH c.qty AS qty
                       WHERE SUBHOLDS.pno = c.parent AND
                             c.child = xpart.pno)
        TAKE *
        """)
        top_qty = [c[2] for c in co.relationship("top").connections]
        sub_qty = [c[2] for c in co.relationship("sub").connections]
        assert top_qty == [5]
        assert sub_qty == [7]
