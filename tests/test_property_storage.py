"""Property-based tests for the storage layer (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.catalog import Catalog
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.storage.transactions import TransactionManager
from repro.storage.types import Column, INTEGER, VARCHAR


def fresh_table() -> Table:
    return Table("T", [Column("ID", INTEGER), Column("GRP", INTEGER),
                       Column("NAME", VARCHAR)])


#: A random mutation: (op, key-ish values)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update"]),
              st.integers(0, 30), st.integers(0, 5)),
    max_size=60,
)


def apply_operations(table: Table, ops, after=None) -> None:
    """Apply ``ops``; call ``after()`` after each one, if given."""
    counter = 0
    for op, key, group in ops:
        if op == "insert":
            table.insert((counter, group, f"n{counter}"))
            counter += 1
        else:
            live = [rid for rid, _row in table.scan()]
            if not live:
                continue
            rid = live[key % len(live)]
            if op == "delete":
                table.delete(rid)
            else:
                row = table.fetch(rid)
                table.update(rid, (row[0], group, row[2]))
        if after is not None:
            after()


class TestIndexConsistency:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_hash_index_matches_scan(self, ops):
        table = fresh_table()
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        apply_operations(table, ops)
        for group in range(6):
            via_index = sorted(index.lookup((group,)))
            via_scan = sorted(rid for rid, row in table.scan()
                              if row[1] == group)
            assert via_index == via_scan

    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_ordered_index_matches_scan(self, ops):
        table = fresh_table()
        index = HashIndex("OX", table, ["GRP"])
        table.attach_index(index)

        def check() -> None:
            # Each range read builds the key order the next key change
            # must drop.
            via_index = [table.fetch(r)[1] for r in index.range_scan()]
            assert via_index == sorted(via_index)
            assert sorted(via_index) == sorted(
                row[1] for row in table.rows())
            low = len(via_index) % 5
            assert sorted(index.range_scan((low,), (low + 1,))) == sorted(
                rid for rid, row in table.scan()
                if low <= row[1] <= low + 1)

        apply_operations(table, ops, after=check)
        check()


class TestTransactionAtomicity:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_rollback_is_identity(self, ops):
        catalog = Catalog()
        table = catalog.create_table("T", [
            Column("ID", INTEGER), Column("GRP", INTEGER),
            Column("NAME", VARCHAR),
        ])
        for i in range(5):
            table.insert((1000 + i, i, f"seed{i}"))
        before = list(table.scan())
        manager = TransactionManager(catalog)
        manager.begin()
        apply_operations(table, ops)
        manager.rollback()
        assert list(table.scan()) == before

    @given(operations, operations)
    @settings(max_examples=25, deadline=None)
    def test_commit_then_rollback_keeps_committed(self, first, second):
        catalog = Catalog()
        table = catalog.create_table("T", [
            Column("ID", INTEGER), Column("GRP", INTEGER),
            Column("NAME", VARCHAR),
        ])
        manager = TransactionManager(catalog)
        manager.begin()
        apply_operations(table, first)
        manager.commit()
        committed = list(table.scan())
        manager.begin()
        apply_operations(table, second)
        manager.rollback()
        assert list(table.scan()) == committed
