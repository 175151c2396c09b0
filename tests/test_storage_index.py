"""Unit tests for the hash index (equality and range reads) and the
primary key index, including maintenance."""

import random

import pytest

from repro.errors import StorageError, TypeCheckError
from repro.storage import index as index_module
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.storage.types import Column, DOUBLE, INTEGER, VARCHAR


@pytest.fixture
def table() -> Table:
    table = Table("T", [
        Column("ID", INTEGER, primary_key=True),
        Column("GRP", INTEGER),
        Column("NAME", VARCHAR),
    ])
    for i in range(10):
        table.insert((i, i % 3, f"n{i}"))
    return table


class TestHashIndex:
    def test_lookup_after_build(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        assert sorted(index.lookup((1,))) == [1, 4, 7]

    def test_lookup_missing_key(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        assert index.lookup((99,)) == []

    def test_null_key_never_matches(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.insert((100, None, "x"))
        assert index.lookup((None,)) == []

    def test_maintained_on_insert(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        rid = table.insert((50, 1, "new"))
        assert rid in index.lookup((1,))

    def test_maintained_on_delete(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.delete(1)
        assert 1 not in index.lookup((1,))

    def test_maintained_on_update(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.update(1, (1, 2, "n1"))
        assert 1 not in index.lookup((1,))
        assert 1 in index.lookup((2,))

    def test_update_same_key_is_noop(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.update(1, (1, 1, "renamed"))
        assert 1 in index.lookup((1,))

    def test_unique_violation(self, table):
        index = HashIndex("UX", table, ["NAME"], unique=True)
        table.attach_index(index)
        with pytest.raises(TypeCheckError, match="unique index"):
            table.insert((200, 0, "n1"))

    def test_unique_allows_nulls(self, table):
        index = HashIndex("UX", table, ["GRP"], unique=False)
        del index
        unique = HashIndex("UX2", table, ["NAME"], unique=True)
        table.attach_index(unique)
        table.insert((201, 0, None))
        table.insert((202, 0, None))  # multiple NULLs are fine

    def test_composite_key(self, table):
        index = HashIndex("CX", table, ["GRP", "NAME"])
        table.attach_index(index)
        assert index.lookup((1, "n4")) == [4]

    def test_out_of_sync_delete_detected(self, table):
        index = HashIndex("IX", table, ["GRP"])
        index.rebuild(table)
        with pytest.raises(StorageError, match="out of sync"):
            index.on_delete(999, (999, 1, "ghost"))

    def test_distinct_keys(self, table):
        index = HashIndex("IX", table, ["GRP"])
        index.rebuild(table)
        found = [sorted(index.lookup((grp,))) for grp in range(4)]
        assert found == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8], []]


class TestOrderedIndex:
    """Every hash index is also an ordered one: range reads in key
    order over a sorted key list it builds on demand."""

    def test_equality_lookup(self, table):
        index = HashIndex("OX", table, ["GRP"])
        table.attach_index(index)
        index.range_scan()  # equality still answers with the order built
        assert sorted(index.lookup((2,))) == [2, 5, 8]

    def test_range_scan_inclusive(self, table):
        index = HashIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert index.range_scan((3,), (5,)) == [3, 4, 5]

    def test_range_scan_exclusive_bounds(self, table):
        index = HashIndex("OX", table, ["ID"])
        table.attach_index(index)
        rids = index.range_scan((3,), (6,), low_inclusive=False,
                                high_inclusive=False)
        assert rids == [4, 5]

    def test_range_scan_open_ended(self, table):
        index = HashIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert index.range_scan(low=(8,)) == [8, 9]
        assert index.range_scan(high=(1,)) == [0, 1]

    def test_range_scan_skips_null_keys(self, table):
        index = HashIndex("OX", table, ["GRP"])
        table.attach_index(index)
        null = table.insert((300, None, "null-grp"))
        rids = index.range_scan()
        assert null not in rids and len(rids) == 10
        assert all(table.fetch(r)[1] is not None for r in rids)

    def test_ordered_rids_in_key_order(self, table):
        index = HashIndex("OX", table, ["NAME"])
        table.attach_index(index)
        names = [table.fetch(r)[2] for r in index.range_scan()]
        assert names == sorted(names) and len(names) == len(table)

    def test_maintained_on_delete(self, table):
        index = HashIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert index.range_scan((3,), (5,)) == [3, 4, 5]
        table.delete(4)
        assert index.range_scan((3,), (5,)) == [3, 5]

    def test_unique_violation_on_insert(self, table):
        index = HashIndex("OU", table, ["NAME"], unique=True)
        table.attach_index(index)
        index.range_scan()
        with pytest.raises(TypeCheckError, match="unique index"):
            table.insert((400, 0, "n2"))
        assert index.range_scan(("n2",), ("n2",)) == [2]

    def test_delete_missing_rid_detected(self, table):
        index = HashIndex("OX", table, ["ID"])
        index.rebuild(table)
        with pytest.raises(StorageError, match="out of sync"):
            index.on_delete(999, (999, 0, "x"))

    def test_distinct_keys(self, table):
        index = HashIndex("OX", table, ["GRP"])
        index.rebuild(table)
        keys = [table.fetch(r)[1] for r in index.range_scan()]
        # Each RID of a key is its own entry, keys in order.
        assert keys == [0] * 4 + [1] * 3 + [2] * 3
        assert index.range_scan((0,), (2,), low_inclusive=False) \
            == [1, 4, 7, 2, 5, 8]

    def test_maintained_on_insert_and_update(self, table):
        index = HashIndex("OX", table, ["GRP"])
        table.attach_index(index)
        assert index.range_scan((1,), (1,)) == [1, 4, 7]
        rid = table.insert((60, 1, "new"))
        assert index.range_scan((1,), (1,)) == [1, 4, 7, rid]
        table.update(7, (7, 2, "moved"))
        assert index.range_scan((1,), (2,)) == [1, 4, rid, 2, 5, 8, 7]
        table.truncate()
        assert index.range_scan() == []

    def test_composite_key_ranges_by_prefix(self, table):
        index = HashIndex("CX", table, ["GRP", "ID"])
        table.attach_index(index)
        assert index.range_scan((1,), (1, 5)) == [1, 4]
        assert index.range_scan((2, 5)) == [5, 8]


class TestRangeScan:
    """One range method for the primary key and every secondary index."""

    @pytest.mark.parametrize("make", ["pk", "hash"])
    def test_bounds(self, table, make):
        if make == "pk":
            index = table.pk_index
        else:
            index = HashIndex("IX", table, ["ID"])
            table.attach_index(index)
        assert index.range_scan((3,), (5,)) == [3, 4, 5]
        assert index.range_scan((3,), (6,), low_inclusive=False,
                                high_inclusive=False) == [4, 5]
        assert index.range_scan(low=(8,)) == [8, 9]
        assert index.range_scan(high=(1,)) == [0, 1]
        assert index.range_scan((2.5,), (4.5,)) == [3, 4]
        assert index.range_scan((6,), (2,)) == []
        with pytest.raises(TypeError):
            index.range_scan(("x",))

    def test_hash_index_answers_ranges_without_null_keys(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.insert((100, None, "null"))
        assert index.range_scan() == [0, 3, 6, 9, 1, 4, 7, 2, 5, 8]
        assert index.range_scan((1,), (1,)) == [1, 4, 7]
        assert index.range_scan(high=(0,)) == [0, 3, 6, 9]

    def test_pk_sorted_keys_follow_inserts_and_deletes(self, table):
        pk = table.pk_index
        assert pk.range_scan((8,)) == [8, 9]
        kept = pk._order
        table.update(8, (8, 2, "renamed"))  # the key stays
        assert pk._order is kept
        rid = table.insert((85, 0, "new"))
        assert pk._order is kept  # kept in order, not dropped
        assert pk.range_scan((8,)) == [8, 9, rid]
        table.delete(9)
        assert pk.range_scan((8,)) == [8, rid]
        table.update(8, (100, 2, "moved"))  # the key moves
        assert pk.range_scan((8,), (99,)) == [rid]
        table.truncate()
        assert pk.range_scan() == []

    def test_lookup_of_another_type_finds_nothing(self, table):
        index = HashIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert index.lookup(("x",)) == []
        assert index.lookup((3.0,)) == [3]


class TestSortCount:
    """The first range read sorts the keys; later key changes keep the
    order without sorting again: counted by wrapping the ``sorted`` the
    index module calls, not by a clock."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(index_module, "sorted", counting,
                            raising=False)
        return calls

    @pytest.mark.parametrize("make", ["pk", "hash"])
    def test_sorts_once_per_key_change(self, table, sorts, make):
        if make == "pk":
            index, column = table.pk_index, 0
        else:
            index, column = HashIndex("IX", table, ["GRP"]), 1
            table.attach_index(index)
        index.range_scan()
        assert len(sorts) == 1
        index.range_scan((1,))
        index.range_scan(high=(5,))
        assert len(sorts) == 1  # no key change: no sort
        row = list(table.fetch(3))
        row[2] = "renamed"
        table.update(3, tuple(row))  # key kept
        index.range_scan()
        assert len(sorts) == 1
        rid = table.insert((70, 1, "new"))
        index.range_scan()
        index.range_scan((1,))
        table.delete(rid)
        index.range_scan()
        row = list(table.fetch(3))
        row[column] = 71
        table.update(3, tuple(row))  # key moved
        assert index.range_scan((71,)) == [3]
        assert len(sorts) == 1  # one sort serves every key change
        index.rebuild(table)
        index.range_scan()
        assert len(sorts) == 2  # a rebuild drops the order

    def test_null_key_changes_keep_the_order(self, table, sorts):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        index.range_scan()
        rid = table.insert((80, None, "null"))
        table.delete(rid)
        index.range_scan()
        assert len(sorts) == 1

    def test_rejected_insert_keeps_the_order(self, table, sorts):
        index = HashIndex("UX", table, ["NAME"], unique=True)
        table.attach_index(index)
        index.range_scan()
        with pytest.raises(TypeCheckError):
            table.insert((400, 0, "n2"))
        index.range_scan()
        assert len(sorts) == 1


    def test_unorderable_keys_never_break_a_delete(self, sorts):
        """NaN keys leave the key list out of order, so binary search
        can miss a key: such a delete drops the order instead of
        failing, and the next range read sorts again."""
        rng = random.Random(5)
        for _trial in range(20):
            table = Table("F", [Column("ID", INTEGER, primary_key=True),
                                Column("V", DOUBLE)])
            values = [float("nan") if rng.random() < 0.3
                      else float(rng.randrange(20)) for _ in range(12)]
            for rid, value in enumerate(values):
                table.insert((rid, value))
            index = HashIndex("IX", table, ["V"])
            table.attach_index(index)
            index.range_scan()
            for rid in rng.sample(range(12), 12):
                table.delete(rid)
            assert index.range_scan() == []
        assert len(sorts) > 20  # some deletes dropped the order


class TestLookupMany:
    @pytest.mark.parametrize("make", ["pk", "hash"])
    def test_equals_one_lookup_per_key(self, table, make):
        if make == "pk":
            index = table.pk_index
            keys = [(3,), (99,), (0,), (None,), (3,), (9.0,)]
        else:
            index = HashIndex("IX", table, ["GRP"])
            table.attach_index(index)
            table.insert((100, None, "null"))
            keys = [(1,), (None,), (7,), (0,), (1.0,), ("x",)]
        positions, rids = index.lookup_many(keys)
        expected = [(position, rid) for position, key in enumerate(keys)
                    for rid in index.lookup(key)]
        assert list(zip(positions, rids)) == expected
        positions, rids = index.lookup_many([])
        assert list(positions) == [] and rids == []


class TestIndexOnTable:
    def test_empty_columns_rejected(self, table):
        with pytest.raises(StorageError):
            HashIndex("BAD", table, [])

    def test_unknown_column_rejected(self, table):
        with pytest.raises(StorageError):
            HashIndex("BAD", table, ["NOPE"])

    def test_detach_stops_maintenance(self, table):
        index = HashIndex("IX", table, ["GRP"])
        table.attach_index(index)
        table.detach_index(index)
        table.insert((500, 1, "after"))
        assert all(table.fetch(r)[0] != 500 for r in index.lookup((1,)))
