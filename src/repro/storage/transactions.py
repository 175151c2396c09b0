"""Undo-log transactions over heap tables, one open scope per session.

The paper leaves transaction/recovery components "totally unchanged"
(Sect. 6); we provide the minimal machinery the XNF layer needs — atomic
multi-statement updates with rollback and savepoints, so cache write-back
(Sect. 5) can apply a batch of updates all-or-nothing.

The manager supports **multiple concurrently open transactions**, keyed
by an opaque *scope* token (one per engine session).  Every table
mutation performed while any transaction is open appends an undo record
to the transaction of the scope currently *activated* (see
:meth:`TransactionManager.activate`); rollback replays the records in
reverse.  The engine layer (:mod:`repro.api.engine`) guarantees that at
most one scope holds uncommitted writes at a time (the writer latch), so
undo logs of different scopes never interleave on the same row.

Row deltas a write reports while a transaction is open are **buffered
on that transaction** (:meth:`TransactionManager.buffer_delta`) and
published to the catalog's :class:`~repro.storage.catalog.ChangeSink`
only at commit; a rollback (or a savepoint rollback crossing an
emission) simply discards them.  Derived state maintained
from deltas — materialized views, statistics — therefore only ever sees
committed changes, keyed off the emitting session's commit rather than
every statement.

All single-scope entry points (``begin()``/``commit()``/``rollback()``
with no argument) keep working against the default scope, so code
written for the one-transaction model is unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import TransactionError
from repro.storage.catalog import Catalog, TableDelta
from repro.storage.table import Rid, Row

#: Scope token used by all no-argument (legacy single-session) calls.
DEFAULT_SCOPE: str = "main"


@dataclass(frozen=True)
class UndoRecord:
    """One logged mutation: enough to invert it exactly."""

    table_name: str
    action: str  # 'insert' | 'update' | 'delete'
    rid: Rid
    before: Row | None
    after: Row | None


class Transaction:
    """An open transaction: a growing undo log plus named savepoints."""

    def __init__(self, txn_id: int, scope: Hashable = DEFAULT_SCOPE):
        self.txn_id = txn_id
        self.scope = scope
        self.log: list[UndoRecord] = []
        self._savepoints: dict[str, int] = {}
        self._savepoint_deltas: dict[str, int] = {}
        self._savepoint_pending: dict[str, int] = {}
        self.active = True
        #: Number of table deltas published *directly* (not buffered)
        #: while this transaction was open — possible only when
        #: :meth:`TransactionManager.buffer_delta` cannot attribute an
        #: emission (several open transactions, no activation).
        #: Subscribers saw those deltas mid-transaction, so a rollback
        #: must invalidate delta-derived state (``sink.rolled_back``).
        self.delta_count = 0
        #: Deltas emitted by this transaction's scope, buffered until
        #: commit publishes them.
        self.pending_deltas: list[TableDelta] = []

    def record(self, record: UndoRecord) -> None:
        self.log.append(record)

    def set_savepoint(self, name: str) -> None:
        self._savepoints[name] = len(self.log)
        self._savepoint_deltas[name] = self.delta_count
        self._savepoint_pending[name] = len(self.pending_deltas)

    def savepoint_position(self, name: str) -> int:
        try:
            return self._savepoints[name]
        except KeyError:
            raise TransactionError(f"no savepoint named {name!r}") from None

    def savepoint_delta_count(self, name: str) -> int:
        return self._savepoint_deltas.get(name, 0)

    def savepoint_pending_count(self, name: str) -> int:
        return self._savepoint_pending.get(name, 0)

    def drop_savepoints_after(self, position: int) -> None:
        self._savepoints = {
            name: pos for name, pos in self._savepoints.items()
            if pos <= position
        }
        self._savepoint_deltas = {
            name: count for name, count in self._savepoint_deltas.items()
            if name in self._savepoints
        }
        self._savepoint_pending = {
            name: count for name, count in self._savepoint_pending.items()
            if name in self._savepoints
        }


class TransactionManager:
    """Begin/commit/rollback over all tables of one catalog.

    While at least one transaction is open the manager installs itself
    as the ``on_mutation`` hook of every table, so mutations are logged
    no matter which code path performs them (DML executor, cache
    write-back, direct API use).  Mutations route to the transaction of
    the **activated** scope (:meth:`activate`); outside an activation,
    they route to the sole open transaction when exactly one is open —
    which is precisely the legacy single-session behavior.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._sink = catalog.sink
        self._transactions: dict[Hashable, Transaction] = {}
        self._active_scope: Hashable | None = None
        self._replaying = False
        self._next_id = 1
        self.committed_count = 0
        self.rolled_back_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """True when any scope has an open transaction."""
        return bool(self._transactions)

    def in_transaction_for(self, scope: Hashable = DEFAULT_SCOPE) -> bool:
        return scope in self._transactions

    def transaction_for(self, scope: Hashable = DEFAULT_SCOPE
                        ) -> Transaction:
        txn = self._transactions.get(scope)
        if txn is None:
            raise TransactionError("no transaction in progress")
        return txn

    def open_transactions(self) -> list[Transaction]:
        return list(self._transactions.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, scope: Hashable = DEFAULT_SCOPE) -> Transaction:
        if scope in self._transactions:
            raise TransactionError("a transaction is already in progress")
        txn = Transaction(self._next_id, scope)
        self._next_id += 1
        if not self._transactions:
            self._install_hooks()
        self._transactions[scope] = txn
        return txn

    def commit(self, scope: Hashable = DEFAULT_SCOPE) -> None:
        """Commit in three sink phases: log, publish, count.

        A raising ``log_commit`` (the write-ahead log append) aborts
        the commit with the transaction still open and intact: the
        caller can roll back, and nothing was published.  A raising
        subscriber during ``publish`` leaves the commit detached and
        done (the deltas describe rows already written in place);
        derived state is invalidated, so it is stale, never
        half-applied, and the error surfaces.
        """
        txn = self.transaction_for(scope)
        sink = self._sink
        sink.log_commit(txn)
        # Detach *before* publishing: buffering and the undo hooks must
        # not observe the flush, so a subscriber running inside the
        # commit can neither re-buffer deltas into a dead transaction
        # nor append undo records to another scope's log.
        txn.active = False
        del self._transactions[scope]
        if not self._transactions:
            self._remove_hooks()
        self.committed_count += 1
        pending, txn.pending_deltas = txn.pending_deltas, []
        try:
            # A table write a subscriber makes during the flush is
            # upkeep of derived state, not part of some other open
            # transaction: it is not undo-logged.
            self._replaying = True
            try:
                for delta in pending:
                    sink.publish(delta)
            finally:
                self._replaying = False
        except Exception:
            sink.rolled_back(txn)
            raise
        sink.committed(txn)

    def rollback(self, scope: Hashable = DEFAULT_SCOPE) -> None:
        txn = self.transaction_for(scope)
        # Detach before replaying the undo log (mirrors commit):
        # buffering must not attribute anything to this transaction
        # once its fate is decided.
        txn.active = False
        del self._transactions[scope]
        if not self._transactions:
            self._remove_hooks()
        try:
            self._undo(txn.log, down_to=0)
        finally:
            txn.pending_deltas = []
            self.rolled_back_count += 1
            # Buffered deltas never reached anyone — only *directly*
            # published ones require derived state to invalidate.
            if txn.delta_count:
                self._sink.rolled_back(txn)

    # ------------------------------------------------------------------
    # Savepoints
    # ------------------------------------------------------------------
    def savepoint(self, name: str,
                  scope: Hashable = DEFAULT_SCOPE) -> None:
        self.transaction_for(scope).set_savepoint(name)

    def rollback_to_savepoint(self, name: str,
                              scope: Hashable = DEFAULT_SCOPE) -> None:
        txn = self.transaction_for(scope)
        position = txn.savepoint_position(name)
        saved_deltas = txn.savepoint_delta_count(name)
        saved_pending = txn.savepoint_pending_count(name)
        self._undo(txn.log, down_to=position)
        del txn.log[position:]
        txn.drop_savepoints_after(position)
        # Buffered deltas emitted after the savepoint describe undone
        # work; they must never be published.
        del txn.pending_deltas[saved_pending:]
        if txn.delta_count > saved_deltas:
            # Directly-published deltas after the savepoint were undone.
            txn.delta_count = saved_deltas
            self._sink.rolled_back(txn)

    # ------------------------------------------------------------------
    # Activation (mutation routing)
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self, scope: Hashable):
        """Route table mutations and emitted deltas to ``scope``'s
        transaction for the duration of the block."""
        previous = self._active_scope
        self._active_scope = scope
        try:
            yield
        finally:
            self._active_scope = previous

    def _routing_transaction(self) -> Transaction | None:
        if self._active_scope is not None:
            return self._transactions.get(self._active_scope)
        if len(self._transactions) == 1:
            return next(iter(self._transactions.values()))
        return None

    def buffer_delta(self, delta: TableDelta) -> bool:
        """Buffer ``delta`` on the transaction it belongs to, until
        that transaction commits; False when no transaction takes it
        and the caller must publish it now."""
        txn = self._routing_transaction()
        if txn is None:
            # Unattributable emission (several open transactions, no
            # activation): the delta publishes directly, so subscribers
            # observe it before anyone commits.  Charge every open
            # transaction — whichever rolls back must invalidate
            # delta-derived state.
            for open_txn in self._transactions.values():
                open_txn.delta_count += 1
            return False
        txn.pending_deltas.append(delta)
        return True

    # ------------------------------------------------------------------
    def run_atomic(self, thunk, scope: Hashable = DEFAULT_SCOPE) -> Any:
        """Run ``thunk()`` inside a (possibly nested-by-savepoint) txn.

        If a transaction is already open for the scope, uses a savepoint
        so an inner failure rolls back only the inner work.
        """
        if scope in self._transactions:
            txn = self._transactions[scope]
            name = f"__atomic_{len(txn.log)}"
            self.savepoint(name, scope)
            try:
                with self.activate(scope):
                    return thunk()
            except Exception:
                self.rollback_to_savepoint(name, scope)
                raise
        self.begin(scope)
        try:
            with self.activate(scope):
                result = thunk()
        except Exception:
            self.rollback(scope)
            raise
        self.commit(scope)
        return result

    # ------------------------------------------------------------------
    def _install_hooks(self) -> None:
        for table in self._catalog.tables():
            table.on_mutation = self._make_hook(table.name)

    def table_created(self, table) -> None:
        # A table born while a transaction is open joins the logging
        # regime immediately, so its rows roll back like any others
        # (the CREATE itself is DDL and survives — documented).
        if self._transactions:
            table.on_mutation = self._make_hook(table.name)

    def _remove_hooks(self) -> None:
        for table in self._catalog.tables():
            table.on_mutation = None

    def _make_hook(self, table_name: str):
        def hook(action: str, rid: Rid, before: Row | None,
                 after: Row | None) -> None:
            if self._replaying:
                return
            txn = self._routing_transaction()
            if txn is not None:
                txn.record(
                    UndoRecord(table_name, action, rid, before, after))
        return hook

    def _undo(self, log: list[UndoRecord], down_to: int) -> None:
        # Undo replay must not be re-logged.
        self._replaying = True
        try:
            for record in reversed(log[down_to:]):
                table = self._catalog.table(record.table_name)
                if record.action == "insert":
                    table.delete(record.rid)
                elif record.action == "delete":
                    table.insert_at(record.rid, record.before)
                elif record.action == "update":
                    table.update(record.rid, record.before)
                else:  # pragma: no cover - defensive
                    raise TransactionError(
                        f"unknown undo action {record.action!r}")
        finally:
            self._replaying = False

