"""Unit tests for hash and ordered indexes, including maintenance."""

import pytest

from repro.errors import StorageError, TypeCheckError
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.table import Table
from repro.storage.types import Column, INTEGER, VARCHAR


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
        assert index.distinct_keys() == 3


class TestOrderedIndex:
    def test_equality_lookup(self, table):
        index = OrderedIndex("OX", table, ["GRP"])
        table.attach_index(index)
        assert sorted(index.lookup((2,))) == [2, 5, 8]

    def test_range_scan_inclusive(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert list(index.range_scan((3,), (5,))) == [3, 4, 5]

    def test_range_scan_exclusive_bounds(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        table.attach_index(index)
        rids = list(index.range_scan((3,), (6,), low_inclusive=False,
                                     high_inclusive=False))
        assert rids == [4, 5]

    def test_range_scan_open_ended(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert list(index.range_scan(low=(8,))) == [8, 9]
        assert list(index.range_scan(high=(1,))) == [0, 1]

    def test_range_scan_skips_null_keys(self, table):
        index = OrderedIndex("OX", table, ["GRP"])
        table.attach_index(index)
        table.insert((300, None, "null-grp"))
        assert all(table.fetch(r)[1] is not None
                   for r in index.range_scan())

    def test_ordered_rids_in_key_order(self, table):
        index = OrderedIndex("OX", table, ["NAME"])
        table.attach_index(index)
        names = [table.fetch(r)[2] for r in index.ordered_rids()]
        assert names == sorted(names)

    def test_maintained_on_delete(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        table.attach_index(index)
        table.delete(4)
        assert list(index.range_scan((3,), (5,))) == [3, 5]

    def test_unique_violation_on_insert(self, table):
        index = OrderedIndex("OU", table, ["NAME"], unique=True)
        table.attach_index(index)
        with pytest.raises(TypeCheckError):
            table.insert((400, 0, "n2"))

    def test_delete_missing_rid_detected(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        index.rebuild(table)
        with pytest.raises(StorageError, match="out of sync"):
            index.on_delete(999, (999, 0, "x"))

    def test_distinct_keys(self, table):
        index = OrderedIndex("OX", table, ["GRP"])
        index.rebuild(table)
        assert index.distinct_keys() == 3


class TestRangeScan:
    """One range method for both ordered key structures."""

    @pytest.mark.parametrize("make", ["pk", "ordered"])
    def test_bounds(self, table, make):
        if make == "pk":
            index = table.pk_index
        else:
            index = OrderedIndex("OX", table, ["ID"])
            table.attach_index(index)
        assert index.ordered
        assert index.range_scan((3,), (5,)) == [3, 4, 5]
        assert index.range_scan((3,), (6,), low_inclusive=False,
                                high_inclusive=False) == [4, 5]
        assert index.range_scan(low=(8,)) == [8, 9]
        assert index.range_scan(high=(1,)) == [0, 1]
        assert index.range_scan((2.5,), (4.5,)) == [3, 4]
        assert index.range_scan((6,), (2,)) == []
        with pytest.raises(TypeError):
            index.range_scan(("x",))

    def test_hash_index_has_no_key_order(self, table):
        index = HashIndex("IX", table, ["GRP"])
        assert not index.ordered
        with pytest.raises(StorageError, match="no key order"):
            index.range_scan((1,))

    def test_pk_sorted_keys_follow_inserts_and_deletes(self, table):
        pk = table.pk_index
        assert pk.range_scan((8,)) == [8, 9]
        kept = pk._order
        table.update(8, (8, 2, "renamed"))  # the key stays
        assert pk._order is kept
        rid = table.insert((85, 0, "new"))
        assert pk._order is None
        assert pk.range_scan((8,)) == [8, 9, rid]
        table.delete(9)
        assert pk.range_scan((8,)) == [8, rid]
        table.update(8, (100, 2, "moved"))  # the key moves
        assert pk.range_scan((8,), (99,)) == [rid]
        table.truncate()
        assert pk.range_scan() == []

    def test_ordered_lookup_of_another_type_finds_nothing(self, table):
        index = OrderedIndex("OX", table, ["ID"])
        table.attach_index(index)
        assert index.lookup(("x",)) == []
        assert index.lookup((3.0,)) == [3]


class TestLookupMany:
    @pytest.mark.parametrize("make", ["pk", "hash", "ordered"])
    def test_equals_one_lookup_per_key(self, table, make):
        if make == "pk":
            index = table.pk_index
            keys = [(3,), (99,), (0,), (None,), (3,), (9.0,)]
        else:
            index = (HashIndex if make == "hash" else OrderedIndex)(
                "IX", table, ["GRP"])
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
