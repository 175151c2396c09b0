"""Differential: write-through gateway navigation == a fresh extraction.

Seeded random mutation sequences run against write-through gateway
views of the org view (``deps_arc``) and the OO1 view, over base tables
hash-partitioned on a column the mutations change, so that writes
relocate rows (new RIDs) under cached objects:

* committed steps — connect, disconnect, moving a child to another
  parent (disconnect + connect as one write), delete, ``insert_child``,
  on the org view assignments to the foreign key, and on OO1
  assignments to the partition key;
* rejected steps — deletes the foreign keys restrict, duplicate-key
  ``insert_child``, foreign-key assignments to no department, and list
  edits batched with a value the base column refuses.

After each committed step the cached graph must equal a fresh
``gateway.open`` of the same view (cached == fresh): the same objects,
and from each of them the same children and parents along every
relationship.  Both sides are compared on the objects reachable from the
view's roots, which is what an extraction returns; the cache keeps an
object a write made unreachable until it is re-extracted.  After each
rejected step every object's child and parent lists equal their
pre-step state, order included.  Every step also checks that the lists
are mutual inverses and hold no deleted object.

Tier-1 runs one fixed seed per view; ``REPRO_DIFF_SEEDS=<n>`` sweeps
``n`` more.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.api.engine import Engine
from repro.api.gateway import ObjectGateway
from repro.errors import ViewUpdateError
from repro.storage.partition import HashPartitioning
from repro.workloads.oo1 import (OO1Scale, create_oo1_schema,
                                 oo1_view_query, populate_oo1)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

BASE_SEED = 19940328  # matches the other differential suites
STEPS = 24

#: component -> key column identifying an object across extractions
ORG_KEYS = {"XDEPT": "DNO", "XEMP": "ENO", "XPROJ": "PNO",
            "XSKILLS": "SNO"}
OO1_KEYS = {"XANCHOR": "ID", "XPART": "ID"}


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED + i for i in range(1 + extra)]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def key_of(obj, keys) -> tuple:
    return (obj.component, obj.get(keys[obj.component]))


def reachable(view) -> list:
    """Objects reachable from the view's root components."""
    workspace = view.cache.workspace
    seen: dict[int, object] = {}
    frontier = [obj for root in workspace.schema.roots
                for obj in view.extent(root)]
    while frontier:
        obj = frontier.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        frontier.extend(obj.children())
    return list(seen.values())


def navigation(view, keys) -> dict:
    """key -> sorted child and parent keys per relationship, through
    the generated navigation methods, over the reachable objects."""
    workspace = view.cache.workspace
    objects = reachable(view)
    inside = {id(o) for o in objects}
    graph = {}
    for obj in objects:
        edges = {}
        for rel in workspace.outgoing[obj.component]:
            method = workspace.relationship_role[rel].lower()
            edges[rel] = sorted(key_of(c, keys)
                                for c in getattr(obj, method)())
        for rel in workspace.incoming[obj.component]:
            method = workspace.relationship_role[rel].lower() + "_parents"
            edges["^" + rel] = sorted(
                key_of(p, keys) for p in getattr(obj, method)()
                if id(p) in inside)
        graph[key_of(obj, keys)] = edges
    return graph


def check_lists(workspace) -> None:
    """Child and parent lists are mutual inverses; no deleted object
    is linked anywhere."""
    down: Counter = Counter()
    up: Counter = Counter()
    for bucket in workspace.objects.values():
        for obj in bucket:
            lists = obj.child_lists + obj.parent_lists
            if obj.deleted:
                assert not any(lists), f"deleted {obj!r} still linked"
                continue
            for rel, index in workspace.outgoing[obj.component].items():
                for child in obj.child_lists[index]:
                    assert not child.deleted
                    down[(rel, id(obj), id(child))] += 1
            for rel, index in workspace.incoming[obj.component].items():
                for parent in obj.parent_lists[index]:
                    assert not parent.deleted
                    up[(rel, id(parent), id(obj))] += 1
    assert down == up


def snapshot(workspace) -> list:
    return [(obj, obj.deleted, list(obj.values),
             list(obj.child_lists),
             list(obj.parent_lists))
            for bucket in workspace.objects.values() for obj in bucket]


class Harness:
    """One write-through view plus its fresh-extraction oracle."""

    def __init__(self, session, view_text: str, keys: dict):
        self.session = session
        self.gateway = ObjectGateway(session)
        self.view_text = view_text
        self.keys = keys
        self.view = self.gateway.open(view_text, name="live",
                                      write_through=True)
        self.cache = self.view.cache
        self.workspace = self.cache.workspace
        self.committed = self.rejected = 0

    def live(self, component: str) -> list:
        return list(self.view.extent(component))

    def run(self, step) -> None:
        """Apply one step; it commits, is rejected, or (returning
        False) had nothing to do."""
        before = snapshot(self.workspace)
        try:
            if step() is False:
                return
        except ViewUpdateError:
            self.rejected += 1
            assert snapshot(self.workspace) == before
            assert not self.workspace.log
            check_lists(self.workspace)
            return
        self.committed += 1
        assert not self.workspace.log
        check_lists(self.workspace)
        fresh = self.gateway.open(self.view_text, name="fresh")
        assert navigation(self.view, self.keys) == \
            navigation(fresh, self.keys)

    def batch(self, *edits) -> None:
        """Several edits put back as one write."""
        with self.cache.one_write():
            for edit in edits:
                edit()


# ----------------------------------------------------------------------
# The org view: employees move between departments, skills come and go
# ----------------------------------------------------------------------
def org_session(seed: int):
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(
        departments=6, employees_per_dept=3, projects_per_dept=1,
        skills=8, skills_per_employee=2, skills_per_project=1,
        arc_fraction=0.5, seed=seed))
    # Moving an employee rewrites EDNO: every move may relocate the row.
    engine.repartition("EMP", HashPartitioning(("EDNO",), 4))
    session = engine.connect()
    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return engine, session


def org_steps(h: Harness, rng: random.Random):
    cache = h.cache
    next_eno = iter(range(9000, 10000))

    def move():
        emp = rng.choice(h.live("xemp"))
        old = emp.employs_parents()
        others = [d for d in h.live("xdept") if d not in old]
        if not old or not others:
            return False
        new = rng.choice(others)
        h.batch(lambda: cache.disconnect("employment", old[0], emp),
                lambda: cache.connect("employment", new, emp))

    def move_refused():
        emp = rng.choice(h.live("xemp"))
        old = emp.employs_parents()
        others = [d for d in h.live("xdept") if d not in old]
        if not old or not others:
            return False
        new = rng.choice(others)
        h.batch(lambda: cache.disconnect("employment", old[0], emp),
                lambda: cache.connect("employment", new, emp),
                lambda: emp.set("SAL", "not a salary"))

    def hire():
        dept = rng.choice(h.live("xdept"))
        dept.insert_child("employs", ENO=next(next_eno),
                          ENAME="hire", SAL=rng.randint(1, 9) * 1000)

    def hire_duplicate():
        dept = rng.choice(h.live("xdept"))
        taken = rng.choice(h.live("xemp")).eno
        dept.insert_child("employs", ENO=taken, ENAME="dup", SAL=1)

    # learn / forget / release call the XNFCache methods directly:
    # each writes through on its own.
    def learn():
        emp = rng.choice(h.live("xemp"))
        new = [s for s in h.live("xskills") if s not in emp.possesses()]
        if not new:
            return False
        cache.connect("empproperty", emp, rng.choice(new))

    def forget():
        emp = rng.choice(h.live("xemp"))
        skills = emp.possesses()
        if not skills:
            return False
        cache.disconnect("empproperty", emp, rng.choice(skills))

    dnos = [row[0] for row in
            h.session.query("SELECT dno FROM DEPT").rows]

    def assign_fk():
        # A department in or out of the view, NULL, or none at all
        # (refused): the employee moves between the cached parents.
        emp = rng.choice(h.live("xemp"))
        edno = rng.choice(dnos + [None, 424242])
        if edno == emp.edno:
            return False
        emp.edno = edno

    def release():
        # Sets the base EDNO to NULL: the employee leaves the view.
        emp = rng.choice(h.live("xemp"))
        depts = emp.employs_parents()
        if not depts:
            return False
        cache.disconnect("employment", depts[0], emp)

    def fire():
        # Refused while EMPSKILLS rows reference the employee.
        rng.choice(h.live("xemp")).delete()

    def close_dept():
        # Refused while employees or projects reference it.
        rng.choice(h.live("xdept")).delete()

    return [move, move_refused, hire, hire_duplicate, learn, forget,
            assign_fk, release, fire, close_dept]


# ----------------------------------------------------------------------
# The OO1 view: connections are rows of CONNECTION, parts relocate on
# every BUILD assignment
# ----------------------------------------------------------------------
def oo1_session(seed: int):
    engine = Engine()
    create_oo1_schema(engine.catalog)
    populate_oo1(engine.catalog, OO1Scale(parts=40, seed=seed))
    engine.repartition("PART", HashPartitioning(("BUILD",), 4))
    return engine, engine.connect()


#: anchors of the OO1 view under test: parts 1..ANCHORS
ANCHORS = 4


def oo1_steps(h: Harness, rng: random.Random):
    cache = h.cache
    next_id = iter(range(9000, 10000))

    def parts():
        return h.live("xpart")

    def free():
        """Parts whose outgoing CONNECTION rows back only CONNECTS
        connections (see test_shared_connect_table_row below)."""
        return [p for p in parts() if p.id > ANCHORS]

    def rebuild():
        part = rng.choice(parts())
        part.build = part.build + rng.randint(1, 5)

    def link():
        part = rng.choice(free())
        new = [p for p in parts() if p not in part.connects()]
        if not new:
            return False
        h.batch(lambda: cache.connect("connects", part, rng.choice(new)))

    def unlink():
        part = rng.choice(free())
        targets = part.connects()
        if not targets:
            return False
        h.batch(lambda: cache.disconnect("connects", part,
                                         rng.choice(targets)))

    def rewire_refused():
        part = rng.choice(parts())
        targets = part.connects()
        new = [p for p in parts() if p not in targets]
        if not targets or not new:
            return False
        h.batch(lambda: cache.disconnect("connects", part,
                                         rng.choice(targets)),
                lambda: cache.connect("connects", part, rng.choice(new)),
                lambda: part.set("BUILD", "not a number"))

    def grow():
        rng.choice(free()).insert_child(
            "connects", ID=next(next_id), PTYPE="new", X=1, Y=2,
            BUILD=rng.randint(0, 99))

    def scrap():
        # Refused while CONNECTION rows reference the part.
        rng.choice(parts()).delete()

    def scrap_leaf():
        leaves = [p for p in parts() if p.ptype == "new"
                  and not p.connects()]
        if not leaves:
            return False
        # A new part is referenced by its parent's CONNECTION row.
        leaf = rng.choice(leaves)
        for parent in leaf.connects_parents():
            h.batch(lambda: cache.disconnect("connects", parent, leaf))
        leaf.delete()

    return [rebuild, link, unlink, rewire_refused, grow, scrap,
            scrap_leaf]


CASES = {
    "org": (org_session, lambda: "deps_arc", ORG_KEYS, org_steps),
    "oo1": (oo1_session, lambda: oo1_view_query(1, ANCHORS), OO1_KEYS,
            oo1_steps),
}


@pytest.mark.parametrize("seed", _seeds())
@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_navigation_matches_fresh(case, seed):
    make_session, view_text, keys, make_steps = CASES[case]
    engine, session = make_session(seed)
    try:
        h = Harness(session, view_text(), keys)
        assert navigation(h.view, keys) == \
            navigation(h.gateway.open(view_text(), name="fresh"), keys)
        rng = random.Random(seed)
        steps = make_steps(h, rng)
        for _ in range(STEPS):
            h.run(rng.choice(steps))
        assert h.committed and h.rejected
    finally:
        session.close()
        engine.close()


@pytest.mark.xfail(strict=True, reason=(
    "one CONNECTION row backs both a SEEDS and a CONNECTS connection; "
    "a write through one relationship does not update the other's "
    "cached connections"))
def test_shared_connect_table_row():
    engine, session = oo1_session(BASE_SEED)
    try:
        h = Harness(session, oo1_view_query(1, ANCHORS), OO1_KEYS)
        anchor_part = next(p for p in h.live("xpart") if p.id == 1)
        target = anchor_part.connects()[0]
        h.run(lambda: h.batch(lambda: h.cache.disconnect(
            "connects", anchor_part, target)))
    finally:
        session.close()
        engine.close()
