"""Direct unit tests of physical plan operators."""

import pytest

from repro.optimizer.plan import (Aggregate, Dedup, ExecutionContext,
                                  Filter, HashJoin, LeftOuterJoin, Limit,
                                  Materialized, NestedLoopJoin, SemiJoin,
                                  SetOperation, SingleRow, Sort, Spool)


def const(position):
    """Value kernel: one column of a row (sort keys, semi-join
    residuals)."""
    return lambda row, ctx: row[position]


def key(position):
    """Batch kernel: one column's value per row (hash-join keys,
    aggregate arguments)."""
    return lambda rows, ctx: [row[position] for row in rows]


def key_tuple(*positions):
    """Batch kernel: a tuple of columns per row (semi-join and
    group-by keys)."""
    return lambda rows, ctx: [tuple(row[p] for p in positions)
                              for row in rows]


def where(test):
    """Batch predicate: the rows for which ``test`` is True."""
    return lambda rows, ctx: [row for row in rows if test(row) is True]


def mat(columns, rows):
    return Materialized(columns, rows)


@pytest.fixture
def ctx():
    return ExecutionContext()


class TestBasics:
    def test_single_row(self, ctx):
        assert list(SingleRow().execute(ctx)) == [()]

    def test_materialized(self, ctx):
        node = mat(["A"], [(1,), (2,)])
        assert list(node.execute(ctx)) == [(1,), (2,)]

    def test_filter_keeps_only_true(self, ctx):
        node = Filter(mat(["A"], [(1,), (None,), (3,)]),
                      lambda rows, ctx: [
                          row for row in rows
                          if (None if row[0] is None
                              else row[0] > 1) is True])
        assert list(node.execute(ctx)) == [(3,)]

    def test_limit_and_offset(self, ctx):
        node = Limit(mat(["A"], [(i,) for i in range(5)]), 2, 1)
        assert list(node.execute(ctx)) == [(1,), (2,)]

    def test_dedup_preserves_first_occurrence_order(self, ctx):
        node = Dedup(mat(["A"], [(2,), (1,), (2,), (1,)]))
        assert list(node.execute(ctx)) == [(2,), (1,)]

    def test_sort_multi_key_mixed_direction(self, ctx):
        rows = [(1, "b"), (2, "a"), (1, "a")]
        node = Sort(mat(["N", "S"], rows),
                    [const(0), const(1)], [True, False])
        assert list(node.execute(ctx)) == [(2, "a"), (1, "a"), (1, "b")]

    def test_sort_nulls_last(self, ctx):
        node = Sort(mat(["A"], [(None,), (2,), (1,)]), [const(0)],
                    [False])
        assert list(node.execute(ctx)) == [(1,), (2,), (None,)]


class TestJoins:
    LEFT = [("a", 1), ("b", 2), ("c", None)]
    RIGHT = [(1, "x"), (1, "y"), (3, "z")]

    def test_hash_join(self, ctx):
        node = HashJoin(mat(["L", "K"], self.LEFT),
                        mat(["K2", "R"], self.RIGHT),
                        key(1), key(0))
        assert sorted(node.execute(ctx)) == [
            ("a", 1, 1, "x"), ("a", 1, 1, "y")]

    def test_hash_join_null_keys_never_match(self, ctx):
        node = HashJoin(mat(["L", "K"], [("n", None)]),
                        mat(["K2", "R"], [(None, "x")]),
                        key(1), key(0))
        assert list(node.execute(ctx)) == []

    def test_left_outer_join_pads(self, ctx):
        node = LeftOuterJoin(mat(["L", "K"], self.LEFT),
                             mat(["K2", "R"], self.RIGHT),
                             key(1), key(0))
        rows = sorted(node.execute(ctx), key=repr)
        assert ("b", 2, None, None) in rows
        assert ("c", None, None, None) in rows

    def test_semi_join_hash(self, ctx):
        node = SemiJoin(mat(["L", "K"], self.LEFT),
                        mat(["K2"], [(1,), (99,)]),
                        key_tuple(1), key_tuple(0))
        assert list(node.execute(ctx)) == [("a", 1)]

    def test_anti_join(self, ctx):
        node = SemiJoin(mat(["L", "K"], self.LEFT),
                        mat(["K2"], [(1,)]),
                        key_tuple(1), key_tuple(0), anti=True)
        assert list(node.execute(ctx)) == [("b", 2), ("c", None)]

    def test_anti_join_null_poison(self, ctx):
        node = SemiJoin(mat(["L", "K"], self.LEFT),
                        mat(["K2"], [(1,), (None,)]),
                        key_tuple(1), key_tuple(0), anti=True,
                        null_poison=True)
        assert list(node.execute(ctx)) == []  # NULL poisons everything

    def test_anti_join_empty_inner_passes_all(self, ctx):
        node = SemiJoin(mat(["L", "K"], self.LEFT), mat(["K2"], []),
                        key_tuple(1), key_tuple(0), anti=True,
                        null_poison=True)
        assert len(list(node.execute(ctx))) == 3

    def test_semi_join_with_residual_uses_scan_path(self, ctx):
        node = SemiJoin(
            mat(["L", "K"], self.LEFT), mat(["K2", "R"], self.RIGHT),
            key_tuple(1), key_tuple(0),
            residual=lambda row, ctx: row[3] == "y",
        )
        assert list(node.execute(ctx)) == [("a", 1)]


class TestSetOperations:
    A = [(1,), (1,), (2,)]
    B = [(1,), (3,)]

    def test_union_all(self, ctx):
        node = SetOperation("UNION", True, mat(["A"], self.A),
                            mat(["A"], self.B))
        assert len(list(node.execute(ctx))) == 5

    def test_union_distinct(self, ctx):
        node = SetOperation("UNION", False, mat(["A"], self.A),
                            mat(["A"], self.B))
        assert sorted(node.execute(ctx)) == [(1,), (2,), (3,)]

    def test_intersect(self, ctx):
        node = SetOperation("INTERSECT", False, mat(["A"], self.A),
                            mat(["A"], self.B))
        assert list(node.execute(ctx)) == [(1,)]

    def test_intersect_all(self, ctx):
        node = SetOperation("INTERSECT", True,
                            mat(["A"], [(1,), (1,), (2,)]),
                            mat(["A"], [(1,), (1,), (1,)]))
        assert list(node.execute(ctx)) == [(1,), (1,)]

    def test_except_all(self, ctx):
        node = SetOperation("EXCEPT", True,
                            mat(["A"], [(1,), (1,), (2,)]),
                            mat(["A"], [(1,)]))
        assert sorted(node.execute(ctx)) == [(1,), (2,)]


class TestAggregateOperator:
    def test_grouped(self, ctx):
        node = Aggregate(
            mat(["G", "V"], [("a", 1), ("a", 2), ("b", None)]),
            key_tuple(0),
            [("COUNT", None, False), ("SUM", key(1), False),
             ("MIN", key(1), False)],
            ["G", "N", "S", "M"],
        )
        rows = dict((r[0], r[1:]) for r in node.execute(ctx))
        assert rows["a"] == (2, 3, 1)
        assert rows["b"] == (1, None, None)

    def test_distinct_aggregate(self, ctx):
        node = Aggregate(
            mat(["V"], [(1,), (1,), (2,)]), None,
            [("COUNT", key(0), True), ("SUM", key(0), True)],
            ["N", "S"],
        )
        assert list(node.execute(ctx)) == [(2, 3)]

    def test_avg(self, ctx):
        node = Aggregate(mat(["V"], [(1,), (3,)]), None,
                         [("AVG", key(0), False)], ["A"])
        assert list(node.execute(ctx)) == [(2.0,)]


class TestSpool:
    def test_materializes_once_per_context(self, ctx):
        calls = []

        class Counting(Materialized):
            def execute_batches(self, inner_ctx, batch_size=1024):
                calls.append(1)
                return super().execute_batches(inner_ctx, batch_size)

        spool = Spool(Counting(["A"], [(1,)]))
        assert list(spool.execute(ctx)) == [(1,)]
        assert list(spool.execute(ctx)) == [(1,)]
        assert len(calls) == 1
        assert ctx.counters["spool_reads"] == 1

    def test_fresh_context_rematerializes(self):
        spool = Spool(Materialized(["A"], [(1,)]))
        first = ExecutionContext()
        second = ExecutionContext()
        list(spool.execute(first))
        list(spool.execute(second))
        assert first.counters["spool_materializations"] == 1
        assert second.counters["spool_materializations"] == 1

    def test_explain_includes_estimates(self):
        spool = Spool(Materialized(["A"], [(1,)]), label="cse")
        text = spool.explain()
        assert "Spool" in text and "cse" in text


class TestBatchProtocol:
    """The batch-at-a-time protocol: chunking, bounds, and counters."""

    def test_materialized_chunking(self, ctx):
        node = mat(["A"], [(i,) for i in range(5)])
        chunks = list(node.execute_batches(ctx, 2))
        assert chunks == [[(0,), (1,)], [(2,), (3,)], [(4,)]]

    def test_single_row_batch(self, ctx):
        assert list(SingleRow().execute_batches(ctx, 4)) == [[()]]

    def test_set_operation_batches(self, ctx):
        node = SetOperation("UNION", False, mat(["A"], [(1,), (2,)]),
                            mat(["A"], [(2,), (3,)]))
        chunks = list(node.execute_batches(ctx, 2))
        assert [row for chunk in chunks for row in chunk] == \
            [(1,), (2,), (3,)]
        assert all(1 <= len(chunk) <= 2 for chunk in chunks)

    def test_filter_with_batch_predicate(self, ctx):
        node = Filter(mat(["A"], [(1,), (2,), (3,), (4,)]),
                      lambda rows, ctx: [r for r in rows if r[0] % 2 == 0])
        assert [row for chunk in node.execute_batches(ctx, 3)
                for row in chunk] == [(2,), (4,)]

    def test_limit_offset_batches(self, ctx):
        node = Limit(mat(["A"], [(i,) for i in range(10)]), 4, 3)
        rows = [row for chunk in node.execute_batches(ctx, 2)
                for row in chunk]
        assert rows == [(3,), (4,), (5,), (6,)]

    def test_limit_zero_yields_nothing(self, ctx):
        node = Limit(mat(["A"], [(1,)]), 0, None)
        assert list(node.execute_batches(ctx, 2)) == []
        assert list(node.execute(ctx)) == []

    def test_hash_join_chunk_bound_and_counters(self, ctx):
        left = mat(["L", "K"], [("a", 1)])
        right = mat(["K", "R"], [(1, i) for i in range(5)])
        node = HashJoin(left, right, key(1), key(0))
        chunks = list(node.execute_batches(ctx, 2))
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        assert ctx.counters["rows_joined"] == 5
        fresh = ExecutionContext()
        assert [row for chunk in chunks for row in chunk] == \
            list(node.execute(fresh))
        assert fresh.counters["rows_joined"] == 5

    def test_sort_batches_are_globally_sorted(self, ctx):
        node = Sort(mat(["A"], [(3,), (1,), (None,), (2,)]),
                    [const(0)], [False])
        chunks = list(node.execute_batches(ctx, 2))
        assert chunks == [[(1,), (2,)], [(3,), (None,)]]

    def test_dedup_batches(self, ctx):
        node = Dedup(mat(["A"], [(2,), (1,), (2,), (1,), (3,)]))
        assert [row for chunk in node.execute_batches(ctx, 2)
                for row in chunk] == [(2,), (1,), (3,)]

    def test_aggregate_batches(self, ctx):
        node = Aggregate(mat(["K", "V"], [("x", 1), ("y", 2), ("x", 3)]),
                         key_tuple(0), [("SUM", key(1), False)],
                         ["K", "S"])
        assert [row for chunk in node.execute_batches(ctx, 1)
                for row in chunk] == [("x", 4), ("y", 2)]

    def test_nested_loop_join_chunk_bound_and_counters(self, ctx):
        node = NestedLoopJoin(mat(["L"], [(1,), (2,), (3,)]),
                              mat(["R"], [(1,), (2,)]),
                              where(lambda row: row[0] <= row[1]))
        chunks = list(node.execute_batches(ctx, 2))
        assert [len(chunk) for chunk in chunks] == [2, 1]
        assert [row for chunk in chunks for row in chunk] == \
            [(1, 1), (1, 2), (2, 2)]
        assert ctx.counters["rows_joined"] == 3

    def test_left_outer_join_residual_pads_unmatched(self, ctx):
        # Hash path: key 1 matches, but the residual rejects "y".
        node = LeftOuterJoin(mat(["L", "K"], [("a", 1), ("b", 2)]),
                             mat(["K2", "R"], [(1, "y"), (2, "z")]),
                             key(1), key(0),
                             residual=where(lambda row: row[3] == "z"))
        assert list(node.execute(ctx, 1)) == [
            ("a", 1, None, None), ("b", 2, 2, "z")]

    def test_left_outer_join_nested_loop_path(self, ctx):
        node = LeftOuterJoin(mat(["L"], [(1,), (5,)]),
                             mat(["R"], [(2,), (3,)]), None, None,
                             residual=where(lambda row: row[0] < row[1]))
        assert list(node.execute(ctx, 1)) == [(1, 2), (1, 3), (5, None)]

    def test_anti_join_null_outer_key_without_poison(self, ctx):
        # NOT EXISTS: a NULL outer key never matches, so the row stays.
        node = SemiJoin(mat(["K"], [(None,), (1,)]), mat(["K2"], [(1,)]),
                        key_tuple(0), key_tuple(0), anti=True)
        assert list(node.execute(ctx, 1)) == [(None,)]

    def test_set_operations_ignore_batch_boundaries(self, ctx):
        left = [(1,), (1,), (2,), (3,), (1,)]
        right = [(1,), (3,), (3,)]
        for operator, all_rows in (("UNION", False), ("INTERSECT", True),
                                   ("INTERSECT", False), ("EXCEPT", True),
                                   ("EXCEPT", False)):
            node = SetOperation(operator, all_rows, mat(["A"], left),
                                mat(["A"], right))
            reference = list(node.execute(ExecutionContext(), 1024))
            for batch_size in (1, 2, 3):
                assert list(node.execute(ExecutionContext(),
                                         batch_size)) == reference

    def test_aggregate_groups_span_batches(self, ctx):
        rows = [("x", 1), ("y", None), ("x", 1), ("x", 3), ("y", 2)]
        node = Aggregate(mat(["K", "V"], rows), key_tuple(0),
                         [("COUNT", None, False), ("SUM", key(1), True),
                          ("MIN", key(1), False),
                          ("MAX", key(1), False)],
                         ["K", "N", "S", "LO", "HI"])
        expected = [("x", 3, 4, 1, 3), ("y", 2, 2, 2, 2)]
        for batch_size in (1, 2, 1024):
            assert list(node.execute(ExecutionContext(),
                                     batch_size)) == expected

    def test_spool_batch_counters(self, ctx):
        spool = Spool(mat(["A"], [(1,), (2,), (3,)]))
        first = list(spool.execute_batches(ctx, 2))
        second = list(spool.execute_batches(ctx, 2))
        assert first == second == [[(1,), (2,)], [(3,)]]
        assert ctx.counters["spool_materializations"] == 1
        assert ctx.counters["spool_reads"] == 1

    def test_spool_cache_shared_between_modes(self, ctx):
        spool = Spool(mat(["A"], [(1,), (2,)]))
        assert list(spool.execute(ctx)) == [(1, ), (2,)]
        assert [row for chunk in spool.execute_batches(ctx, 8)
                for row in chunk] == [(1,), (2,)]
        assert ctx.counters["spool_materializations"] == 1
        assert ctx.counters["spool_reads"] == 1
