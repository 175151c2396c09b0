"""Regression: put-back over hash-partitioned tables.

Updating a partition-key column relocates the base row (delete + insert,
new RID).  A later operation in the same write-back batch — or the same
transaction — still addresses the object by its *original* RID, so the
write path must chase the relocation chain; before the fix the delete
raised (stale RID) or, worse, removed a resurrected ghost row.
"""

import pytest

from repro.api.engine import Engine
from repro.cache.objects import bind_classes
from repro.errors import ViewUpdateError


def org_view(s):
    s.execute(
        "CREATE VIEW ORG AS OUT OF"
        " xdept AS DEPT,"
        " xemp AS EMP,"
        " employment AS (RELATE xdept VIA EMPLOYS, xemp"
        " WHERE xdept.dno = xemp.edno)"
        " TAKE xdept, xemp, employment")


@pytest.fixture
def session():
    engine = Engine()
    s = engine.connect()
    s.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, DNAME CHAR(10))")
    s.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, ENAME CHAR(10),"
              " EDNO INT) PARTITION BY HASH (EDNO) PARTITIONS 4")
    s.execute("INSERT INTO DEPT VALUES (1,'d1'),(2,'d2'),(3,'d3'),"
              "(4,'d4'),(5,'d5')")
    s.execute("INSERT INTO EMP VALUES (1,'a',1),(2,'b',2),(3,'c',1)")
    yield s
    s.close()
    engine.close()


def moving_dept(session, eno):
    """A department number whose hash routes ENO's row to a different
    partition than it occupies now (guaranteeing a relocation)."""
    table = session.engine.catalog.table("EMP")
    home = table.partition_of_rid(table.lookup_pk((eno,)))
    for dno in range(1, 6):
        probe = table.lookup_pk((90 + dno,))
        if probe is None:
            session.execute("INSERT INTO EMP VALUES (?, 'probe', ?)",
                            [90 + dno, dno])
            probe = table.lookup_pk((90 + dno,))
        if table.partition_of_rid(probe) != home:
            return dno
    pytest.fail("hash places every department in one partition")


def emp_row(session, eno):
    rows = session.query(
        "SELECT ENO, EDNO FROM EMP WHERE ENO = ?", [eno]).rows
    return rows[0] if rows else None


class TestWriteBackRelocation:
    def test_relocate_then_delete_same_batch(self, session):
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG")
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        emp.edno = target      # moves the row across partitions
        emp.delete()           # same batch, original RID in the log
        assert cache.write_back() == 2
        assert emp_row(session, 1) is None
        assert emp_row(session, 3) is not None  # bystander intact

    def test_relocate_then_update_again(self, session):
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG")
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        emp.edno = target
        emp.ename = "moved"    # second write chases the new RID
        cache.write_back()
        row = session.query(
            "SELECT ENAME, EDNO FROM EMP WHERE ENO = 1").rows
        assert row[0][0].strip() == "moved" and row[0][1] == target

    def test_failed_batch_restores_relocated_row(self, session):
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG")
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        other = next(o for o in classes["XEMP"].extent if o.eno == 2)
        emp.edno = target        # relocates
        other.eno = 3            # duplicate PK: the batch must fail
        with pytest.raises(Exception):
            cache.write_back()
        # undo restored the relocated row to its original state
        assert emp_row(session, 1) == (1, 1)
        assert emp_row(session, 2) == (2, 2)

    def test_relocation_delta_is_delete_plus_insert(self, session,
                                                    monkeypatch):
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG")
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        emp.edno = target
        seen = []
        engine = session.engine
        publish = engine.publish

        def observe(delta):
            seen.append(delta)
            publish(delta)
        monkeypatch.setattr(engine, "publish", observe)
        cache.write_back()
        (delta,) = [d for d in seen if d.table == "EMP"]
        # a cross-partition move is reported as delete + insert with
        # distinct RIDs, never an in-place update of a changed RID
        assert len(delta.deleted) == 1 and len(delta.inserted) == 1
        assert delta.deleted[0][0] != delta.inserted[0][0]
        assert delta.inserted[0][1][2] == target

    def test_write_through_relocate_and_delete(self, session):
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG", write_through=True)
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        emp.edno = target
        assert emp_row(session, 1) == (1, target)
        emp.delete()
        assert emp_row(session, 1) is None

    def test_insert_child_relocated_by_its_connect(self, session):
        # the insert lands under a NULL partition key; the connect that
        # fills EDNO moves it, and both the round-trip check and the
        # new object's oid must follow the move
        org_view(session)
        cache = session.open_cache("ORG", write_through=True)
        classes = bind_classes(cache)
        table = session.engine.catalog.table("EMP")
        for dept in list(classes["XDEPT"].extent):
            child = dept.insert_child("employs", ENO=100 + dept.dno,
                                      ENAME="new")
            assert emp_row(session, 100 + dept.dno) == (100 + dept.dno,
                                                        dept.dno)
            assert child.oid == table.lookup_pk((100 + dept.dno,))
            assert cache.workspace.by_oid[("XEMP", child.oid)] is child


class TestViewDMLRelocation:
    def test_view_update_moves_partition_key(self, session):
        target = moving_dept(session, 1)
        session.execute("CREATE VIEW VEMP AS SELECT ENO, EDNO FROM EMP")
        session.begin()
        assert session.execute(
            "UPDATE VEMP SET EDNO = ? WHERE ENO = 1", [target]) == 1
        assert session.execute("DELETE FROM VEMP WHERE ENO = 1") == 1
        session.commit()
        assert emp_row(session, 1) is None

    def test_view_update_relocation_rolls_back(self, session):
        target = moving_dept(session, 1)
        session.execute("CREATE VIEW VEMP AS SELECT ENO, EDNO FROM EMP")
        session.begin()
        session.execute("UPDATE VEMP SET EDNO = ? WHERE ENO = 1",
                        [target])
        session.rollback()
        assert emp_row(session, 1) == (1, 1)

    def test_write_through_rejection_after_relocation(self, session):
        # a batch that relocates and then violates the view contract
        # must restore the original row (undo across the relocation)
        target = moving_dept(session, 1)
        org_view(session)
        cache = session.open_cache("ORG", write_through=True)
        classes = bind_classes(cache)
        emp = next(o for o in classes["XEMP"].extent if o.eno == 1)
        with pytest.raises(ViewUpdateError):
            emp.update(EDNO=target, ENO=3)  # relocate + duplicate PK
        assert emp_row(session, 1) == (1, 1)
        assert emp.edno == 1 and emp.eno == 1  # workspace reverted
