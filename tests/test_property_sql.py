"""Property-based tests: the SQL engine against a Python oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.api.session import Session

#: Small value domains keep joins meaningful (collisions happen).
ints = st.one_of(st.none(), st.integers(-3, 7))
names = st.sampled_from(["a", "b", "c", "d"])

rows_r = st.lists(st.tuples(ints, ints, names), max_size=12)
rows_s = st.lists(st.tuples(ints, names), max_size=10)


def load(rows_r_values, rows_s_values) -> Session:
    db = Engine().connect()
    db.execute("CREATE TABLE R (X INT, Y INT, N VARCHAR)")
    db.execute("CREATE TABLE S (Z INT, M VARCHAR)")
    r = db.table("R")
    for row in rows_r_values:
        r.insert(row)
    s = db.table("S")
    for row in rows_s_values:
        s.insert(row)
    return db


class TestFilterOracle:
    @given(rows_r, st.integers(-3, 7))
    @settings(max_examples=40, deadline=None)
    def test_comparison_filter(self, data, threshold):
        db = load(data, [])
        result = db.query(f"SELECT x, y FROM R WHERE x > {threshold}")
        expected = [(x, y) for x, y, _n in data
                    if x is not None and x > threshold]
        assert sorted(result.rows, key=repr) == sorted(expected, key=repr)

    @given(rows_r)
    @settings(max_examples=40, deadline=None)
    def test_null_handling(self, data):
        db = load(data, [])
        qualified = db.query("SELECT x FROM R WHERE x = x").rows
        expected = [(x,) for x, _y, _n in data if x is not None]
        assert sorted(qualified, key=repr) == sorted(expected, key=repr)

    @given(rows_r)
    @settings(max_examples=40, deadline=None)
    def test_complement_partitions_non_null(self, data):
        db = load(data, [])
        low = len(db.query("SELECT 1 FROM R WHERE x < 2").rows)
        high = len(db.query("SELECT 1 FROM R WHERE x >= 2").rows)
        nulls = len(db.query("SELECT 1 FROM R WHERE x IS NULL").rows)
        assert low + high + nulls == len(data)


class TestJoinOracle:
    @given(rows_r, rows_s)
    @settings(max_examples=40, deadline=None)
    def test_equi_join(self, left, right):
        db = load(left, right)
        result = db.query("SELECT r.n, s.m FROM R r, S s WHERE r.x = s.z")
        expected = [(n, m) for x, _y, n in left for z, m in right
                    if x is not None and x == z]
        assert sorted(result.rows) == sorted(expected)

    @given(rows_r, rows_s)
    @settings(max_examples=40, deadline=None)
    def test_left_join_preserves_left_rows(self, left, right):
        db = load(left, right)
        result = db.query(
            "SELECT r.n, s.m FROM R r LEFT JOIN S s ON r.x = s.z")
        matches = {}
        for x, _y, n in left:
            matches.setdefault(repr((x, n)), 0)
        total = 0
        for x, _y, n in left:
            count = sum(1 for z, _m in right
                        if x is not None and x == z)
            total += max(count, 1)
        assert len(result.rows) == total

    @given(rows_r, rows_s)
    @settings(max_examples=40, deadline=None)
    def test_exists_equals_semijoin_oracle(self, left, right):
        db = load(left, right)
        result = db.query("SELECT r.n FROM R r WHERE EXISTS "
                          "(SELECT 1 FROM S s WHERE s.z = r.x)")
        expected = [(n,) for x, _y, n in left
                    if any(x == z for z, _m in right if z is not None)
                    and x is not None]
        assert sorted(result.rows) == sorted(expected)

    @given(rows_r, rows_s)
    @settings(max_examples=40, deadline=None)
    def test_in_matches_exists(self, left, right):
        db = load(left, right)
        via_in = db.query("SELECT n FROM R WHERE x IN "
                          "(SELECT z FROM S)").rows
        via_exists = db.query("SELECT r.n FROM R r WHERE EXISTS "
                              "(SELECT 1 FROM S s WHERE s.z = r.x)").rows
        assert sorted(via_in) == sorted(via_exists)

    @given(rows_r, rows_s)
    @settings(max_examples=40, deadline=None)
    def test_not_exists_is_complement(self, left, right):
        db = load(left, right)
        total = len(left)
        matched = len(db.query(
            "SELECT 1 FROM R r WHERE EXISTS "
            "(SELECT 1 FROM S s WHERE s.z = r.x)").rows)
        unmatched = len(db.query(
            "SELECT 1 FROM R r WHERE NOT EXISTS "
            "(SELECT 1 FROM S s WHERE s.z = r.x)").rows)
        assert matched + unmatched == total


class TestAggregationOracle:
    @given(rows_r)
    @settings(max_examples=40, deadline=None)
    def test_global_aggregates(self, data):
        db = load(data, [])
        result = db.query("SELECT COUNT(*), COUNT(x), SUM(x) FROM R")
        xs = [x for x, _y, _n in data if x is not None]
        assert result.rows == [(len(data), len(xs),
                                sum(xs) if xs else None)]

    @given(rows_r)
    @settings(max_examples=40, deadline=None)
    def test_group_by_partitions(self, data):
        db = load(data, [])
        result = db.query("SELECT n, COUNT(*) FROM R GROUP BY n")
        expected = {}
        for _x, _y, n in data:
            expected[n] = expected.get(n, 0) + 1
        assert dict(result.rows) == expected

    @given(rows_r)
    @settings(max_examples=40, deadline=None)
    def test_distinct_matches_set(self, data):
        db = load(data, [])
        result = db.query("SELECT DISTINCT n FROM R").rows
        assert sorted(result) == sorted({(n,) for _x, _y, n in data})


class TestSetOperationOracle:
    @given(rows_r, rows_r)
    @settings(max_examples=30, deadline=None)
    def test_union_all_length(self, first, second):
        db = Engine().connect()
        db.execute("CREATE TABLE A (X INT, Y INT, N VARCHAR)")
        db.execute("CREATE TABLE B (X INT, Y INT, N VARCHAR)")
        for row in first:
            db.table("A").insert(row)
        for row in second:
            db.table("B").insert(row)
        result = db.query("SELECT n FROM A UNION ALL SELECT n FROM B")
        assert len(result.rows) == len(first) + len(second)

    @given(rows_r, rows_r)
    @settings(max_examples=30, deadline=None)
    def test_intersect_subset_of_both(self, first, second):
        db = Engine().connect()
        db.execute("CREATE TABLE A (X INT, Y INT, N VARCHAR)")
        db.execute("CREATE TABLE B (X INT, Y INT, N VARCHAR)")
        for row in first:
            db.table("A").insert(row)
        for row in second:
            db.table("B").insert(row)
        rows = db.query("SELECT n FROM A INTERSECT SELECT n FROM B").rows
        names_a = {(n,) for _x, _y, n in first}
        names_b = {(n,) for _x, _y, n in second}
        assert set(rows) == names_a & names_b


class TestOrderLimitOracle:
    @given(rows_r, st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_limit_prefix_of_sorted(self, data, limit):
        db = load(data, [])
        full = db.query("SELECT y FROM R ORDER BY y").rows
        limited = db.query(f"SELECT y FROM R ORDER BY y "
                           f"LIMIT {limit}").rows
        assert limited == full[:limit]

    @given(rows_r)
    @settings(max_examples=30, deadline=None)
    def test_order_is_total_on_non_nulls(self, data):
        db = load(data, [])
        ordered = [y for (y,) in db.query(
            "SELECT y FROM R WHERE y IS NOT NULL ORDER BY y").rows]
        assert ordered == sorted(ordered)
