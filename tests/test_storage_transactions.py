"""Unit tests for undo-log transactions and savepoints."""

import pytest

from repro.errors import TransactionError
from repro.storage.catalog import Catalog, ChangeSink
from repro.storage.transactions import TransactionManager
from repro.storage.types import Column, INTEGER, VARCHAR


@pytest.fixture
def setup():
    catalog = Catalog()
    table = catalog.create_table("T", [
        Column("ID", INTEGER, primary_key=True),
        Column("V", VARCHAR),
    ])
    table.insert((1, "one"))
    table.insert((2, "two"))
    manager = TransactionManager(catalog)
    return catalog, table, manager


class TestLifecycle:
    def test_commit_keeps_changes(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        table.insert((3, "three"))
        manager.commit()
        assert len(table) == 3

    def test_rollback_undoes_insert(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        table.insert((3, "three"))
        manager.rollback()
        assert len(table) == 2
        assert table.lookup_pk((3,)) is None

    def test_rollback_undoes_delete(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        table.delete(0)
        manager.rollback()
        assert table.fetch(0) == (1, "one")

    def test_rollback_undoes_update(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        table.update(0, (1, "changed"))
        manager.rollback()
        assert table.fetch(0) == (1, "one")

    def test_rollback_replays_in_reverse(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        rid = table.insert((3, "three"))
        table.update(rid, (3, "third"))
        table.delete(rid)
        manager.rollback()
        assert len(table) == 2

    def test_nested_begin_rejected(self, setup):
        _catalog, _table, manager = setup
        manager.begin()
        with pytest.raises(TransactionError, match="already in progress"):
            manager.begin()

    def test_commit_without_begin(self, setup):
        _catalog, _table, manager = setup
        with pytest.raises(TransactionError, match="no transaction"):
            manager.commit()

    def test_counters(self, setup):
        _catalog, _table, manager = setup
        manager.begin()
        manager.commit()
        manager.begin()
        manager.rollback()
        assert manager.committed_count == 1
        assert manager.rolled_back_count == 1


class TestSavepoints:
    def test_partial_rollback(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        table.insert((3, "three"))
        manager.savepoint("s1")
        table.insert((4, "four"))
        manager.rollback_to_savepoint("s1")
        manager.commit()
        assert table.lookup_pk((3,)) is not None
        assert table.lookup_pk((4,)) is None

    def test_unknown_savepoint(self, setup):
        _catalog, _table, manager = setup
        manager.begin()
        with pytest.raises(TransactionError, match="no savepoint"):
            manager.rollback_to_savepoint("ghost")

    def test_savepoint_reusable_after_rollback(self, setup):
        _catalog, table, manager = setup
        manager.begin()
        manager.savepoint("s1")
        table.insert((3, "x"))
        manager.rollback_to_savepoint("s1")
        table.insert((4, "y"))
        manager.rollback_to_savepoint("s1")
        manager.commit()
        assert len(table) == 2


class TestRunAtomic:
    def test_success_commits(self, setup):
        _catalog, table, manager = setup
        manager.run_atomic(lambda: table.insert((3, "x")))
        assert not manager.in_transaction
        assert len(table) == 3

    def test_failure_rolls_back(self, setup):
        _catalog, table, manager = setup

        def failing():
            table.insert((3, "x"))
            raise ValueError("boom")

        with pytest.raises(ValueError):
            manager.run_atomic(failing)
        assert len(table) == 2
        assert not manager.in_transaction

    def test_nested_atomic_uses_savepoint(self, setup):
        _catalog, table, manager = setup

        def outer():
            table.insert((3, "x"))
            try:
                manager.run_atomic(failing_inner)
            except ValueError:
                pass
            return True

        def failing_inner():
            table.insert((4, "y"))
            raise ValueError("inner")

        manager.run_atomic(outer)
        assert table.lookup_pk((3,)) is not None
        assert table.lookup_pk((4,)) is None

    def test_tables_created_after_begin_are_hooked(self):
        class ForwardTableCreation(ChangeSink):
            # The engine's wiring of this one event, without an engine.
            def table_created(self, table):
                manager.table_created(table)

        catalog = Catalog()
        catalog.sink = ForwardTableCreation()
        manager = TransactionManager(catalog)
        manager.begin()
        late = catalog.create_table("LATE", [Column("A", INTEGER)])
        late.insert((1,))
        manager.rollback()
        # The late table joined the transaction's logging regime at
        # creation: its row rolls back (the table itself is DDL and
        # survives, documented).
        assert len(late) == 0
        assert catalog.has_table("LATE")
