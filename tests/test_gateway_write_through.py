"""Write-through CRUD on the object gateway.

Opening a composite-object view with ``write_through=True`` turns every
object mutation (attribute assignment, ``update``, ``insert_child``,
``delete``, extent inserts) into an immediate put-back statement against
the base tables; rejected writes revert the workspace so the cache never
drifts from the database.
"""

import pytest

from repro.api.gateway import ObjectGateway

from repro.cache.objects import bind_classes
from repro.errors import UpdateError, ViewUpdateError


@pytest.fixture
def live(org_db):
    cache = org_db.open_cache("deps_arc", write_through=True)
    return cache, bind_classes(cache)


def base_emp(org_db, eno):
    rows = org_db.query(
        "SELECT ENAME, EDNO, SAL FROM EMP WHERE ENO = ?", [eno]).rows
    return rows[0] if rows else None


def some_emp(classes):
    emp = next(iter(classes["XEMP"].extent))
    return emp


class TestWriteThrough:
    def test_attribute_assignment_hits_base(self, org_db, live):
        cache, classes = live
        emp = some_emp(classes)
        emp.sal = emp.sal + 7
        assert base_emp(org_db, emp.eno)[2] == emp.sal
        assert not cache.workspace.log  # flushed, not queued
        assert not cache.dirty

    def test_update_many_columns_is_one_write(self, org_db, live):
        cache, classes = live
        emp = some_emp(classes)
        emp.update(SAL=emp.sal + 1, ENAME="renamed")
        name, _, sal = base_emp(org_db, emp.eno)
        assert name.strip() == "renamed" and sal == emp.sal

    def test_insert_child_wires_foreign_key(self, org_db, live):
        cache, classes = live
        dept = next(iter(classes["XDEPT"].extent))
        child = dept.insert_child("EMPLOYS", ENO=7001,
                                  ENAME="hire", SAL=11)
        # the FK column was filled from the connect, base row exists
        assert base_emp(org_db, 7001)[1] == dept.dno
        assert child.edno == dept.dno  # cache shows the wired FK too
        # the new object's oid was fixed up to its real rid
        assert not child.is_new
        assert child in dept.employs()

    def test_extent_insert(self, org_db, live):
        cache, classes = live
        classes["XEMP"].extent.insert(ENO=7002, ENAME="solo",
                                      EDNO=1, SAL=9)
        assert base_emp(org_db, 7002) is not None

    def test_delete_removes_base_row(self, org_db, live):
        cache, classes = live
        # a fresh employee: seeded ones have EMPSKILLS children, which
        # RESTRICT semantics would (correctly) refuse to strand
        emp = classes["XEMP"].extent.insert(ENO=7003, ENAME="temp",
                                            EDNO=1, SAL=1)
        emp.delete()
        assert base_emp(org_db, 7003) is None
        assert emp.deleted

    def test_delete_with_children_is_restricted(self, org_db, live):
        cache, classes = live
        emp = some_emp(classes)  # seeded: has EMPSKILLS rows
        eno = emp.eno
        with pytest.raises(ViewUpdateError) as info:
            emp.delete()
        assert "foreign key" in info.value.reason
        assert base_emp(org_db, eno) is not None
        assert not emp.deleted  # workspace reverted too

    def test_rejected_write_reverts_workspace(self, org_db, live):
        cache, classes = live
        emp = some_emp(classes)
        old = emp.edno
        with pytest.raises(ViewUpdateError) as info:
            emp.edno = 424242  # FK violation: no such department
        assert info.value.reason  # names why the server refused it
        # neither the base nor the cached object changed
        assert base_emp(org_db, emp.eno)[1] == old
        assert emp.edno == old
        assert not cache.workspace.log

    def test_rejected_insert_child_reverts(self, org_db, live):
        cache, classes = live
        dept = next(iter(classes["XDEPT"].extent))
        taken = some_emp(classes).eno  # duplicate primary key
        count = len(classes["XEMP"].extent)
        with pytest.raises(ViewUpdateError):
            dept.insert_child("EMPLOYS", ENO=taken, ENAME="dup", SAL=1)
        assert len(classes["XEMP"].extent) == count
        assert not cache.workspace.log


def lists_of(cache) -> list:
    return [(obj, obj.deleted, list(obj.child_lists),
             list(obj.parent_lists))
            for bucket in cache.workspace.objects.values()
            for obj in bucket]


class TestCacheMethodsWriteThrough:
    """``XNFCache.insert`` / ``delete`` / ``connect`` / ``disconnect``
    write through like the generated-class operations."""

    @pytest.fixture
    def cache(self, org_db):
        return org_db.open_cache("deps_arc", write_through=True)

    def test_disconnect_hits_base(self, org_db, cache):
        d1 = next(d for d in cache.extent("xdept")
                  if d.children("employment"))
        e = d1.children("employment")[0]
        cache.disconnect("employment", d1, e)
        assert base_emp(org_db, e.get("ENO"))[1] is None
        assert not cache.dirty
        assert e not in d1.children("employment")

    def test_connect_insert_delete_hit_base(self, org_db, cache):
        dept = cache.extent("xdept")[0]
        emp = cache.insert("xemp", ENO=7101, ENAME="solo", SAL=3)
        assert base_emp(org_db, 7101)[1] is None
        cache.connect("employment", dept, emp)
        assert base_emp(org_db, 7101)[1] == dept.get("DNO")
        cache.delete(emp)
        assert base_emp(org_db, 7101) is None
        assert not cache.dirty

    def test_rejected_write_leaves_lists(self, org_db, cache):
        emp = next(e for e in cache.extent("xemp")
                   if e.children("empproperty"))
        before = lists_of(cache)
        with pytest.raises(ViewUpdateError):
            cache.delete(emp)  # EMPSKILLS rows restrict it
        with pytest.raises(ViewUpdateError):
            cache.insert("xemp", ENO=emp.get("ENO"), ENAME="dup", SAL=1)
        assert lists_of(cache) == before
        assert base_emp(org_db, emp.get("ENO")) is not None
        assert not cache.dirty

    def test_insert_child_puts_back_one_batch(self, cache, monkeypatch):
        import repro.viewupdate.objects as put_back
        batches = []
        apply = put_back.apply_write_through

        def counted(target, entries):
            batches.append(len(entries))
            return apply(target, entries)
        monkeypatch.setattr(put_back, "apply_write_through", counted)
        dept = bind_classes(cache)["XDEPT"].extent.find()[0]
        dept.insert_child("EMPLOYS", ENO=7102, ENAME="hire", SAL=2)
        assert batches == [2]  # the insert and its connect, together


@pytest.mark.parametrize("write_through", (True, False))
class TestForeignKeyAssignment:
    """Assigning a child's foreign-key column moves it between the
    cached parents, in both modes, as a fresh extraction would show."""

    @staticmethod
    def open(org_db, write_through):
        cache = org_db.open_cache("deps_arc", write_through=write_through)
        classes = bind_classes(cache)
        depts = {d.dno: d for d in classes["XDEPT"].extent}
        emp = depts[1].employs()[0]
        return cache, depts, emp

    @staticmethod
    def fresh_parents(org_db, eno) -> list:
        """An extraction returns only the employees it reaches."""
        fresh = bind_classes(org_db.open_cache("deps_arc"))
        return [d.dno for e in fresh["XEMP"].extent if e.eno == eno
                for d in e.employs_parents()]

    def test_assignment_moves_the_child(self, org_db, write_through):
        cache, depts, emp = self.open(org_db, write_through)
        emp.edno = 2
        if not write_through:
            cache.write_back()
        assert base_emp(org_db, emp.eno)[1] == 2
        assert emp.employs_parents() == (depts[2],)
        assert emp not in depts[1].employs()
        assert emp in depts[2].employs()
        assert self.fresh_parents(org_db, emp.eno) == [2]

    @pytest.mark.parametrize("edno", (3, None))
    def test_assignment_away_from_the_view_unlinks(self, org_db,
                                                   write_through, edno):
        # Department 3 is not at ARC, so it is not cached.
        cache, depts, emp = self.open(org_db, write_through)
        emp.edno = edno
        if not write_through:
            cache.write_back()
        assert base_emp(org_db, emp.eno)[1] == edno
        assert emp.employs_parents() == ()
        assert emp not in depts[1].employs()
        assert self.fresh_parents(org_db, emp.eno) == []
        emp.edno = 1
        if not write_through:
            cache.write_back()
        assert emp.employs_parents() == (depts[1],)

    def test_reverted_assignment_restores_lists(self, org_db,
                                                write_through):
        cache, depts, emp = self.open(org_db, write_through)
        before = lists_of(cache)
        with pytest.raises(RuntimeError):
            with cache.one_write():
                emp.edno = 2
                assert emp.employs_parents() == (depts[2],)
                raise RuntimeError("abandon the write")
        assert lists_of(cache) == before
        assert emp.edno == 1 and not cache.dirty
        if write_through:
            # Rejected by the server: no such department.
            with pytest.raises(ViewUpdateError):
                emp.edno = 424242
            with pytest.raises(ViewUpdateError):
                emp.update(EDNO=2, SAL="not a salary")
            assert lists_of(cache) == before
            assert base_emp(org_db, emp.eno)[1] == 1


class TestDeferredStillWorks:
    def test_deferred_mode_queues_until_writeback(self, org_db):
        cache = org_db.open_cache("deps_arc")  # write_through=False
        classes = bind_classes(cache)
        emp = next(iter(classes["XEMP"].extent))
        emp.sal = emp.sal + 5
        assert cache.dirty
        assert base_emp(org_db, emp.eno)[2] != emp.sal  # not yet
        assert cache.write_back() == 1
        assert base_emp(org_db, emp.eno)[2] == emp.sal

    def test_gateway_open_flag(self, org_db):
        view = ObjectGateway(org_db).open("deps_arc", write_through=True)
        classes = view.classes
        emp = next(iter(classes["XEMP"].extent))
        emp.sal = emp.sal + 3
        assert base_emp(org_db, emp.eno)[2] == emp.sal
        view.refresh()
        refreshed = next(o for o in view.classes["XEMP"].extent
                         if o.eno == emp.eno)
        assert refreshed.sal == emp.sal


def base_tables(org_db) -> dict:
    return {table: sorted(org_db.query(f"SELECT * FROM {table}").rows)
            for table in ("DEPT", "EMP", "EMPSKILLS")}


class TestSharedWriterChecks:
    """The gateway writes through the writer SQL DML uses, so it
    enforces what ``UPDATE DEPT SET dno = ...`` enforces."""

    @pytest.mark.parametrize("write_through", [False, True])
    def test_rekeying_a_parent_with_children_is_restricted(
            self, org_db, write_through):
        before = base_tables(org_db)
        view = ObjectGateway(org_db).open("deps_arc", write_through=write_through)
        dept = next(d for d in view.extent("xdept") if d.employs())
        old = dept.dno
        with pytest.raises(UpdateError, match="still references"):
            dept.dno = 999  # its employees would be stranded
            view.commit()
        assert base_tables(org_db) == before
        if write_through:
            assert dept.dno == old  # the cached object is reverted
            assert not view.dirty

    def test_set_on_a_write_through_cache_puts_back(self, org_db):
        cache = org_db.open_cache("deps_arc", write_through=True)
        emp = cache.extent("xemp")[0]
        emp.set("SAL", 4242)  # a bare cached object, no bound classes
        assert base_emp(org_db, emp.get("ENO"))[2] == 4242
        assert not cache.dirty

    def test_rejected_set_reverts_the_object(self, org_db):
        cache = org_db.open_cache("deps_arc", write_through=True)
        emp = cache.extent("xemp")[0]
        old = emp.get("EDNO")
        with pytest.raises(ViewUpdateError):
            emp.set("EDNO", 424242)
        assert emp.get("EDNO") == old
        assert base_emp(org_db, emp.get("ENO"))[1] == old
        assert not cache.dirty
