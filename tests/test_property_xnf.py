"""Property-based tests: XNF pipeline vs. naive semantics on random data."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.api.session import Session
from repro.xnf.translate import XNFOptions

VIEW = """
OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
       xemp AS EMP,
       xskills AS SKILLS,
       employment AS (RELATE xdept VIA EMPLOYS, xemp
                      WHERE xdept.dno = xemp.edno),
       empproperty AS (RELATE xemp VIA POSSESSES, xskills
                       USING EMPSKILLS es
                       WHERE xemp.eno = es.eseno AND
                             es.essno = xskills.sno)
TAKE *
"""

locations = st.sampled_from(["ARC", "SF", "NY"])

#: Random org databases: departments, employees (with possibly dangling
#: or NULL department references), skills, and mapping rows.
org_data = st.fixed_dictionaries({
    "depts": st.lists(locations, max_size=5),
    "emps": st.lists(st.integers(0, 6), max_size=10),
    "skills": st.integers(0, 5),
    "mappings": st.lists(st.tuples(st.integers(1, 10),
                                   st.integers(1, 5)), max_size=15),
})


def build_database(data) -> Session:
    db = Engine().connect()
    db.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, LOC VARCHAR)")
    db.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, EDNO INT)")
    db.execute("CREATE TABLE SKILLS (SNO INT PRIMARY KEY, NM VARCHAR)")
    db.execute("CREATE TABLE EMPSKILLS (ESENO INT, ESSNO INT)")
    for number, loc in enumerate(data["depts"], start=1):
        db.table("DEPT").insert((number, loc))
    for number, dept_ref in enumerate(data["emps"], start=1):
        edno = dept_ref if dept_ref != 0 else None
        db.table("EMP").insert((number, edno))
    for number in range(1, data["skills"] + 1):
        db.table("SKILLS").insert((number, f"s{number}"))
    for eno, sno in data["mappings"]:
        db.table("EMPSKILLS").insert((eno, sno))
    return db


def assert_same(co_a, co_b):
    assert set(co_a.components) == set(co_b.components)
    for name in co_a.components:
        assert sorted(co_a.component(name).rows) == \
            sorted(co_b.component(name).rows), name
    for name in co_a.relationships:
        assert len(co_a.relationship(name)) == \
            len(co_b.relationship(name)), name


class TestPipelineEquivalence:
    @given(org_data)
    @settings(max_examples=30, deadline=None)
    def test_translated_equals_naive(self, data):
        db = build_database(data)
        optimized = db.xnf(VIEW)
        naive = db.xnf_naive(VIEW)
        assert_same(optimized, naive)

    @given(org_data)
    @settings(max_examples=20, deadline=None)
    def test_output_optimization_invisible(self, data):
        db = build_database(data)
        with_opt = db.xnf_executable(
            VIEW, xnf_options=XNFOptions(output_optimization=True)).run()
        without = db.xnf_executable(
            VIEW, xnf_options=XNFOptions(output_optimization=False)).run()
        assert_same(with_opt, without)
        assert with_opt.shipped_tuples <= without.shipped_tuples

    @given(org_data)
    @settings(max_examples=20, deadline=None)
    def test_reachability_closure_invariant(self, data):
        """Every non-root tuple has a parent connection; every
        connection's parent is itself in the result."""
        db = build_database(data)
        co = db.xnf(VIEW)
        emp_oids = set(co.component("xemp").oids)
        dept_oids = set(co.component("xdept").oids)
        connected_emps = set()
        for parent, child in co.relationship("employment").connections:
            assert parent in dept_oids
            connected_emps.add(child)
        assert connected_emps == emp_oids
        skill_oids = set(co.component("xskills").oids)
        connected_skills = {
            child for _p, child in
            co.relationship("empproperty").connections
        }
        assert connected_skills == skill_oids


class TestRecursiveClosureOracle:
    graph_data = st.fixed_dictionaries({
        "parts": st.integers(1, 12),
        "edges": st.lists(st.tuples(st.integers(1, 12),
                                    st.integers(1, 12)), max_size=25),
        "anchor": st.integers(1, 3),
    })

    @given(graph_data)
    @settings(max_examples=30, deadline=None)
    def test_fixpoint_matches_bfs(self, data):
        db = Engine().connect()
        db.execute("CREATE TABLE PART (ID INT PRIMARY KEY)")
        db.execute("CREATE TABLE LINK (SRC INT, DST INT)")
        for number in range(1, data["parts"] + 1):
            db.table("PART").insert((number,))
        edges = [(s, d) for s, d in data["edges"]
                 if s <= data["parts"] and d <= data["parts"]]
        for src, dst in edges:
            db.table("LINK").insert((src, dst))
        anchor = min(data["anchor"], data["parts"])
        co = db.xnf(f"""
        OUT OF seed AS (SELECT * FROM PART WHERE id = {anchor}),
               node AS PART,
               starts AS (RELATE seed VIA STARTS, node USING LINK l
                          WHERE seed.id = l.src AND l.dst = node.id),
               hops AS (RELATE node VIA HOPS, node USING LINK l
                        WHERE HOPS.id = l.src AND l.dst = node.id)
        TAKE *
        """)
        # Python BFS oracle over the same edge set.
        adjacency: dict[int, set[int]] = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
        reachable: set[int] = set()
        frontier = set(adjacency.get(anchor, set()))
        while frontier:
            reachable |= frontier
            frontier = {
                nxt for part in frontier
                for nxt in adjacency.get(part, set())
            } - reachable
        produced = {row[0] for row in co.component("node").rows}
        assert produced == reachable
