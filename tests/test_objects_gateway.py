"""The seamless object interface and the Object/SQL gateway."""

import pytest

from repro.api.gateway import ObjectGateway
from repro.errors import CacheError, ViewUpdateError
from repro.cache.objects import bind_classes


@pytest.fixture
def bound(org_db):
    cache = org_db.open_cache("deps_arc")
    return cache, bind_classes(cache)


class TestGeneratedClasses:
    def test_one_class_per_component(self, bound):
        _cache, classes = bound
        assert set(classes) == {"XDEPT", "XEMP", "XPROJ", "XSKILLS"}

    def test_column_properties_read(self, bound):
        _cache, classes = bound
        dept = next(iter(classes["XDEPT"].extent))
        assert dept.dno == dept.get("DNO")

    def test_column_properties_write_through_log(self, bound):
        cache, classes = bound
        emp = next(iter(classes["XEMP"].extent))
        emp.sal = 555
        assert cache.dirty
        assert emp.get("SAL") == 555

    def test_navigation_by_role_name(self, bound):
        _cache, classes = bound
        dept = next(iter(classes["XDEPT"].extent))
        children = dept.employs()
        assert all(type(c).__name__ == "Xemp" for c in children)

    def test_parent_navigation(self, bound):
        _cache, classes = bound
        emp = next(iter(classes["XEMP"].extent))
        parents = emp.employs_parents()
        assert all(type(p).__name__ == "Xdept" for p in parents)

    def test_extent_find_and_len(self, bound):
        _cache, classes = bound
        Dept = classes["XDEPT"]
        first = next(iter(Dept.extent))
        assert Dept.extent.find(dno=first.dno)[0] == first
        assert len(Dept.extent) >= 1

    def test_extent_insert(self, bound):
        cache, classes = bound
        Emp = classes["XEMP"]
        before = len(Emp.extent)
        created = Emp.extent.insert(ENO=800, ENAME="gen", EDNO=1, SAL=5)
        assert len(Emp.extent) == before + 1
        assert created.ename == "gen"

    def test_delete_through_object(self, bound):
        cache, classes = bound
        Emp = classes["XEMP"]
        victim = next(iter(Emp.extent))
        before = len(Emp.extent)
        victim.delete()
        assert len(Emp.extent) == before - 1

    def test_equality_by_underlying_object(self, bound):
        _cache, classes = bound
        Dept = classes["XDEPT"]
        a = next(iter(Dept.extent))
        b = Dept.extent.find(dno=a.dno)[0]
        assert a is b  # the generated instance is the cached object
        assert a == b and hash(a) == hash(b)


class TestGateway:
    def test_open_and_navigate(self, org_db):
        gateway = ObjectGateway(org_db)
        view = gateway.open("deps_arc")
        dept = next(iter(view.XDEPT.extent))
        assert dept.employs()

    def test_attribute_access_to_classes(self, org_db):
        view = ObjectGateway(org_db).open("deps_arc")
        assert view.xemp is view.XEMP

    def test_commit_writes_back(self, org_db):
        view = ObjectGateway(org_db).open("deps_arc")
        emp = next(iter(view.XEMP.extent))
        emp.sal = 999111
        assert view.dirty
        view.commit()
        assert org_db.query(
            f"SELECT sal FROM EMP WHERE eno = {emp.eno}").rows == \
            [(999111,)]
        assert not view.dirty

    def test_refresh_discards_local_state(self, org_db):
        view = ObjectGateway(org_db).open("deps_arc")
        emp = next(iter(view.XEMP.extent))
        emp.sal = 1
        view.refresh()
        fresh = next(iter(view.XEMP.extent))
        assert fresh.sal != 1

    def test_named_views(self, org_db):
        gateway = ObjectGateway(org_db)
        gateway.open("deps_arc", name="org")
        assert gateway.view("org")
        with pytest.raises(CacheError):
            gateway.view("ghost")

    def test_unknown_component_attribute(self, org_db):
        view = ObjectGateway(org_db).open("deps_arc")
        with pytest.raises(AttributeError):
            view.GHOST
        with pytest.raises(CacheError):
            view.extent("ghost")


class TestCachedInstances:
    """The generated instances are the cached objects themselves."""

    def test_extent_and_find_return_the_same_instances(self, bound):
        cache, classes = bound
        Emp = classes["XEMP"]
        first, again = list(Emp.extent), list(Emp.extent)
        assert all(a is b for a, b in zip(first, again))
        assert all(type(e) is Emp for e in first)
        assert Emp.extent.find(eno=first[0].eno)[0] is first[0]
        assert cache.workspace.by_oid[("XEMP", first[0].oid)] is first[0]

    def test_insert_and_insert_child_return_cached_instances(self, org_db):
        cache = org_db.open_cache("deps_arc", write_through=True)
        classes = bind_classes(cache)
        created = classes["XEMP"].extent.insert(ENO=8101, ENAME="a",
                                                EDNO=1, SAL=1)
        assert type(created) is classes["XEMP"]
        assert any(e is created for e in classes["XEMP"].extent)
        dept = next(iter(classes["XDEPT"].extent))
        child = dept.insert_child("employs", ENO=8102, ENAME="b", SAL=2)
        assert type(child) is classes["XEMP"]
        assert cache.workspace.by_oid[("XEMP", child.oid)] is child
        assert any(c is child for c in dept.employs())
        assert child.employs_parents()[0] is dept

    def test_navigation_returns_cached_instances(self, bound):
        cache, classes = bound
        for dept in classes["XDEPT"].extent:
            employees = dept.employs()
            assert all(a is b for a, b in zip(employees, dept.employs()))
            for emp in employees:
                assert cache.workspace.by_oid[("XEMP", emp.oid)] is emp
                assert any(p is dept for p in emp.employs_parents())
                assert all(a is b for a, b in
                           zip(emp.possesses(), emp.children("empproperty")))

    def test_mutating_a_returned_list_leaves_the_graph(self, bound):
        """Navigation returns immutable tuples: an attempt to edit one
        fails and the graph is as it was."""
        cache, classes = bound
        dept = next(d for d in classes["XDEPT"].extent if d.employs())
        emp = dept.employs()[0]
        before = (dept.employs(), emp.employs_parents(), dept.children())
        for returned in (dept.employs(), emp.employs_parents(),
                         dept.children(), dept.children("employment"),
                         emp.parents("employment")):
            with pytest.raises(AttributeError):
                returned.clear()
            with pytest.raises(AttributeError):
                returned.append(dept)
        assert (dept.employs(), emp.employs_parents(),
                dept.children()) == before
        assert not cache.dirty


def partner_tuples(cache) -> list:
    """Every object's child and parent tuples, contents and order."""
    return [(obj, obj.deleted, list(obj.child_lists),
             list(obj.parent_lists))
            for bucket in cache.workspace.objects.values()
            for obj in bucket]


@pytest.mark.parametrize("write_through", (False, True))
class TestNavigationTuples:
    """Navigation hands out the stored partner tuple itself; a write
    replaces the tuple, so one held from before the write is a stable
    snapshot, and a revert puts every previous tuple back."""

    @staticmethod
    def open(org_db, write_through):
        cache = org_db.open_cache("deps_arc", write_through=write_through)
        classes = bind_classes(cache)
        depts = sorted((d for d in classes["XDEPT"].extent if d.employs()),
                       key=lambda d: d.dno)
        return cache, classes, depts

    def test_navigation_returns_the_stored_tuple(self, org_db,
                                                 write_through):
        _cache, _classes, depts = self.open(org_db, write_through)
        dept = depts[0]
        emp = dept.employs()[0]
        assert dept.employs() is dept.employs()
        assert dept.children("employment") is dept.employs()
        assert emp.employs_parents() is emp.parents("employment")
        for returned in (dept.employs(), emp.employs_parents(),
                         emp.possesses(), dept.children(),
                         emp.parents()):
            assert type(returned) is tuple
            with pytest.raises(AttributeError):
                returned.append(emp)

    def test_held_tuples_survive_connect(self, org_db, write_through):
        cache, classes, _depts = self.open(org_db, write_through)
        emp = next(iter(classes["XEMP"].extent))
        skill = next(s for s in classes["XSKILLS"].extent
                     if s not in emp.possesses())
        held = (emp.possesses(), skill.possesses_parents())
        cache.connect("empproperty", emp, skill)
        assert (emp.possesses(), skill.possesses_parents()) \
            == (held[0] + (skill,), held[1] + (emp,))
        assert skill not in held[0] and emp not in held[1]

    def test_held_tuples_survive_disconnect(self, org_db, write_through):
        cache, _classes, depts = self.open(org_db, write_through)
        dept = depts[0]
        emp = dept.employs()[0]
        held = (dept.employs(), emp.employs_parents())
        cache.disconnect("employment", dept, emp)
        assert held == ((emp,) + dept.employs(), (dept,))
        assert emp not in dept.employs()
        assert emp.employs_parents() == ()

    def test_held_tuples_survive_delete(self, org_db, write_through):
        cache, _classes, depts = self.open(org_db, write_through)
        dept = depts[0]
        emp = dept.employs()[-1]
        if write_through:
            # The base refuses to delete an employee who has skills.
            for skill in emp.possesses():
                cache.disconnect("empproperty", emp, skill)
        skills = emp.possesses()
        held = (dept.employs(), emp.employs_parents(), skills,
                [s.possesses_parents() for s in skills])
        emp.delete()
        assert held[0] == dept.employs() + (emp,)
        assert held[1] == (dept,) and held[2] == skills
        assert all(emp in parents for parents in held[3])
        assert (emp.employs_parents(), emp.possesses()) == ((), ())
        assert all(emp not in s.possesses_parents() for s in skills)

    def test_held_tuples_survive_foreign_key_reassignment(
            self, org_db, write_through):
        cache, _classes, depts = self.open(org_db, write_through)
        old, new = depts[0], depts[1]
        emp = old.employs()[0]
        held = (old.employs(), new.employs(), emp.employs_parents())
        emp.edno = new.dno
        if not write_through:
            cache.write_back()
        assert held[2] == (old,) and emp.employs_parents() == (new,)
        assert emp in held[0] and emp not in old.employs()
        assert emp not in held[1] and new.employs() == held[1] + (emp,)

    def test_abandoned_write_restores_every_tuple(self, org_db,
                                                  write_through):
        cache, classes, depts = self.open(org_db, write_through)
        before = partner_tuples(cache)
        with pytest.raises(RuntimeError):
            with cache.one_write():
                edit_every_way(cache, classes, depts)
                raise RuntimeError("abandon the write")
        assert partner_tuples(cache) == before
        assert not cache.dirty


def test_refused_write_through_restores_every_tuple(org_db):
    cache, classes, depts = TestNavigationTuples.open(org_db, True)
    before = partner_tuples(cache)
    with pytest.raises(ViewUpdateError):
        with cache.one_write():
            edit_every_way(cache, classes, depts)
            taken = next(iter(classes["XEMP"].extent)).eno
            classes["XEMP"].extent.insert(ENO=taken, ENAME="dup", SAL=1)
    assert partner_tuples(cache) == before
    assert not cache.dirty


def edit_every_way(cache, classes, depts) -> None:
    """One of each graph write: connect, disconnect, delete, foreign-key
    reassignment and insert-and-connect."""
    first, second = depts[0], depts[1]
    emp = first.employs()[0]
    skill = next(s for s in classes["XSKILLS"].extent
                 if s not in emp.possesses())
    cache.connect("empproperty", emp, skill)
    cache.disconnect("employment", first, first.employs()[-1])
    second.employs()[0].delete()
    emp.edno = second.dno
    first.insert_child("employs", ENO=9901, ENAME="new", SAL=1)
    assert emp.employs_parents() == (second,)


COLLIDING = ("OID", "VALUES", "DELETED", "COMPONENT", "DELETE", "UPDATE")


class TestMemberNameCollisions:
    """View columns named like members of the object stay readable and
    writable under their name with a trailing ``_``; the object's own
    state and methods keep working."""

    @pytest.fixture
    def clash(self, org_db):
        columns = ", ".join(f'"{c}" INT' for c in COLLIDING)
        org_db.execute(f"CREATE TABLE CLASH (ID INT PRIMARY KEY, {columns})")
        org_db.execute("INSERT INTO CLASH VALUES (1, 10, 20, 30, 40, 50, 60),"
                       " (2, 11, 21, 31, 41, 51, 61)")
        view = ObjectGateway(org_db).open("OUT OF xc AS CLASH TAKE *",
                                          write_through=True)
        obj = next(o for o in view.XC.extent if o.id == 1)
        return org_db, view, obj

    def test_columns_read_under_trailing_underscore(self, clash):
        _db, _view, obj = clash
        assert [getattr(obj, c.lower() + "_") for c in COLLIDING] == \
            [10, 20, 30, 40, 50, 60]

    def test_columns_write_through(self, clash):
        db, _view, obj = clash
        for offset, column in enumerate(COLLIDING):
            setattr(obj, column.lower() + "_", 100 + offset)
        obj.update(UPDATE=7)
        assert db.query("SELECT * FROM CLASH WHERE id = 1").rows == \
            [(1, 100, 101, 102, 103, 104, 7)]
        assert obj.get("UPDATE") == 7 and obj.update_ == 7

    def test_object_state_and_methods_intact(self, clash):
        db, view, obj = clash
        assert obj.component == "XC"
        assert obj.deleted is False
        assert obj.values == [1, 10, 20, 30, 40, 50, 60]
        assert view.cache.workspace.by_oid[("XC", obj.oid)] is obj
        obj.update(OID=5)
        assert obj.oid_ == 5
        obj.delete()
        assert obj.deleted
        assert db.query("SELECT id FROM CLASH").rows == [(2,)]
