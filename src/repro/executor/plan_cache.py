"""Prepared statements' engine room: the auto-parameterizing plan cache.

Starburst compiled a query once and stored the plan for repeated
execution ("compile once, execute many"); our reproduction used to
re-run the whole Fig. 2 pipeline — parse -> QGM -> rewrite -> plan —
on every ``session.query()``.  This module adds the missing layer:

* :func:`parameterize` lifts the literals of an ad-hoc statement into
  synthetic :class:`~repro.sql.ast.Parameter` markers, so
  ``SELECT ... WHERE id = 7`` and ``... WHERE id = 8`` normalize to the
  same *statement fingerprint* and share one compiled plan.  The lifted
  values are returned alongside and bound into the
  :class:`~repro.optimizer.plan.ExecutionContext` at run time.
* :func:`parameterize_xnf` does the same for an ad-hoc XNF query: the
  literals of every component query and every relationship predicate
  and attribute are lifted, so all literal variants of one CO-query
  shape share one compiled XNF executable.
* :func:`parameterize_dml` lifts an UPDATE's SET values and WHERE
  predicate (a DELETE's WHERE), so literal variants of one write share
  one qualification plan.  The lifted statement carries its
  qualification key (a :class:`HashedKey`), hashed once per shape.
* :class:`PlanCache` is a bounded LRU mapping fingerprints to compiled
  artifacts (plans, XNF executables, DML qualification plans), each
  entry pinned to the catalog's ``schema_version`` and the statistics
  manager's ``epoch``.  DDL, ``ANALYZE`` and materially-drifted
  statistics therefore invalidate stale entries on the next lookup.
  Compiles are single-flight per key: sessions that miss one key at
  the same moment wait for one compile (:meth:`PlanCache.claim`).

Literals are *not* lifted where their value shapes the plan or the
statement's meaning rather than a runtime comparison: ORDER BY / GROUP
BY (ordinals), LIKE patterns (pre-compiled regexes), booleans and NULL
(3VL shortcuts), and LIMIT/OFFSET (plain ints in the AST).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional, Union

from repro.sql import ast
from repro.storage.stats import material_drift

#: ``stats_view(table) -> (table_epoch, live_cardinality)``: the live
#: statistics state a cached entry is validated against.
StatsView = Callable[[str], tuple[int, int]]

#: ``clock() -> count or None``: a counter that moves whenever any
#: statistics view could read differently, or None when it cannot vouch
#: for them right now (a committed-state read view is installed).
ValidationClock = Callable[[], Optional[int]]


@dataclass(frozen=True)
class ParameterizedStatement:
    """An AST with literals lifted, plus the values to re-bind."""

    statement: Any  # the normalized (hashable) AST
    #: Synthetic bindings: positional parameter index -> lifted value.
    values: tuple = ()
    #: ``(literal token index, parameter index)`` per lifted literal:
    #: which token each synthetic parameter came from (see
    #: :class:`repro.api.frontend.SkeletonCache`).
    slots: tuple = field(default=(), compare=False, repr=False)
    #: The statement's own plan-cache key, hashed once and shared by
    #: every literal variant (the lifted AST; for DML, the
    #: qualification key).
    key: Any = field(default=None, compare=False, repr=False)

    @property
    def bindings(self) -> dict:
        return {index: value for index, value in self.values}


class HashedKey:
    """A plan-cache key that hashes its (deep, immutable) content once.

    A literal variant reuses the key object of its skeleton, so a probe
    costs one cached hash and an identity compare instead of a walk of
    the whole AST.  It hashes and compares equal to its content, so a
    key built over the bare AST finds the same entry.
    """

    __slots__ = ("content", "_hash")

    def __init__(self, content: Any):
        self.content = content
        self._hash: Optional[int] = None

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.content)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, HashedKey):
            other = other.content
        return self.content == other

    def __repr__(self) -> str:
        return repr(self.content)


class _Lifter:
    """One parameterization pass over a statement.

    Synthetic positional indices continue after the statement's own
    explicit ``?`` markers so user and synthetic bindings never collide.
    """

    def __init__(self, next_index: int):
        self.next_index = next_index
        self.values: list[tuple[int, Any]] = []
        self.slots: list[tuple[Optional[int], int]] = []

    # ------------------------------------------------------------------
    def lift(self, expression: ast.Expression) -> ast.Expression:
        if isinstance(expression, ast.Literal):
            value = expression.value
            # Booleans and NULL stay inline: compile-time 3VL shortcuts
            # (e.g. "col = NULL keeps nothing") depend on seeing them.
            if value is None or isinstance(value, bool):
                return expression
            index = self.next_index
            self.next_index += 1
            self.values.append((index, value))
            self.slots.append((expression.slot, index))
            return ast.Parameter(index=index)
        if isinstance(expression, ast.BinaryOp):
            return ast.BinaryOp(expression.op, self.lift(expression.left),
                                self.lift(expression.right))
        if isinstance(expression, ast.UnaryOp):
            return ast.UnaryOp(expression.op, self.lift(expression.operand))
        if isinstance(expression, ast.FunctionCall):
            return ast.FunctionCall(
                expression.name,
                tuple(self.lift(a) for a in expression.args),
                expression.distinct,
            )
        if isinstance(expression, ast.IsNull):
            return ast.IsNull(self.lift(expression.operand),
                              expression.negated)
        if isinstance(expression, ast.Between):
            return ast.Between(self.lift(expression.operand),
                               self.lift(expression.low),
                               self.lift(expression.high),
                               expression.negated)
        if isinstance(expression, ast.Like):
            # Keep the pattern literal: the compiler pre-builds its
            # regex, and patterns rarely vary in hot loops.
            return ast.Like(self.lift(expression.operand),
                            expression.pattern, expression.negated)
        if isinstance(expression, ast.InList):
            return ast.InList(
                self.lift(expression.operand),
                tuple(self.lift(i) for i in expression.items),
                expression.negated,
            )
        if isinstance(expression, ast.InSubquery):
            return ast.InSubquery(self.lift(expression.operand),
                                  self.lift_select(expression.subquery),
                                  expression.negated)
        if isinstance(expression, ast.Exists):
            return ast.Exists(self.lift_select(expression.subquery),
                              expression.negated)
        if isinstance(expression, ast.ScalarSubquery):
            return ast.ScalarSubquery(self.lift_select(expression.subquery))
        if isinstance(expression, ast.CaseWhen):
            return ast.CaseWhen(
                tuple((self.lift(c), self.lift(r))
                      for c, r in expression.whens),
                None if expression.default is None
                else self.lift(expression.default),
            )
        # Leaves (ColumnRef, Star, Parameter, QRef after resolution, ...)
        return expression

    # ------------------------------------------------------------------
    def lift_select(self, statement: ast.SelectStatement
                    ) -> ast.SelectStatement:
        # Grouped/aggregating blocks structurally match select items
        # (and HAVING) against the GROUP BY keys during QGM build, and
        # GROUP BY literals stay inline — so the head and HAVING must
        # stay inline too or the match breaks.
        grouped = bool(statement.group_by) \
            or statement.having is not None \
            or any(ast.contains_aggregate(item.expression)
                   for item in statement.select_items)
        if grouped:
            select_items = statement.select_items
            having = statement.having
        else:
            select_items = tuple(
                ast.SelectItem(self.lift(item.expression), item.alias)
                for item in statement.select_items
            )
            having = None
        from_items = tuple(self._lift_from(f) for f in statement.from_items)
        where = None if statement.where is None else self.lift(
            statement.where)
        set_operation = statement.set_operation
        if set_operation is not None:
            set_operation = ast.SetOperation(
                set_operation.operator, set_operation.all,
                self.lift_select(set_operation.right),
            )
        # ORDER BY and GROUP BY keep their literals: a bare integer
        # there is a positional ordinal, not a value.
        return ast.SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=statement.group_by,
            having=having,
            order_by=statement.order_by,
            distinct=statement.distinct,
            limit=statement.limit,
            offset=statement.offset,
            set_operation=set_operation,
        )

    def _lift_from(self, item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.Join):
            return ast.Join(
                self._lift_from(item.left), self._lift_from(item.right),
                item.kind,
                None if item.condition is None else self.lift(item.condition),
            )
        if isinstance(item, ast.SubqueryRef):
            return ast.SubqueryRef(self.lift_select(item.query), item.alias)
        return item


def max_positional_index(statement: ast.SelectStatement) -> int:
    """Highest explicit ``?`` index in the statement, or -1."""
    highest = -1

    def scan_expr(expression: Optional[ast.Expression]) -> None:
        nonlocal highest
        if expression is None:
            return
        for node in ast.walk_expression(expression):
            if isinstance(node, ast.Parameter) and node.index is not None:
                highest = max(highest, node.index)
            elif isinstance(node, (ast.Exists, ast.InSubquery)):
                scan_select(node.subquery)
            elif isinstance(node, ast.ScalarSubquery):
                scan_select(node.subquery)

    def scan_from(item: ast.FromItem) -> None:
        if isinstance(item, ast.Join):
            scan_from(item.left)
            scan_from(item.right)
            scan_expr(item.condition)
        elif isinstance(item, ast.SubqueryRef):
            scan_select(item.query)

    def scan_select(statement: ast.SelectStatement) -> None:
        for item in statement.select_items:
            scan_expr(item.expression)
        for item in statement.from_items:
            scan_from(item)
        scan_expr(statement.where)
        for expression in statement.group_by:
            scan_expr(expression)
        scan_expr(statement.having)
        for order in statement.order_by:
            scan_expr(order.expression)
        if statement.set_operation is not None:
            scan_select(statement.set_operation.right)

    scan_select(statement)
    return highest


def max_positional_in_expressions(
        expressions: list[Optional[ast.Expression]]) -> int:
    """Highest explicit ``?`` index across standalone expressions."""
    highest = -1
    for expression in expressions:
        if expression is None:
            continue
        for node in ast.walk_expression(expression):
            if isinstance(node, ast.Parameter) and node.index is not None:
                highest = max(highest, node.index)
            elif isinstance(node, (ast.Exists, ast.InSubquery,
                                   ast.ScalarSubquery)):
                highest = max(highest,
                              max_positional_index(node.subquery))
    return highest


def parameterize_select(statement: ast.SelectStatement
                        ) -> ParameterizedStatement:
    """Lift an ad-hoc SELECT's literals into synthetic parameters."""
    lifter = _Lifter(max_positional_index(statement) + 1)
    normalized = lifter.lift_select(statement)
    return ParameterizedStatement(normalized, tuple(lifter.values),
                                  tuple(lifter.slots),
                                  key=HashedKey(normalized))


def _max_positional_in_xnf(query: ast.XNFQuery) -> int:
    """Highest explicit ``?`` index anywhere in an XNF query, or -1."""
    highest = -1
    for definition in query.definitions:
        if isinstance(definition, ast.XNFComponentDef):
            highest = max(highest, max_positional_index(definition.query))
        else:
            highest = max(highest, max_positional_in_expressions(
                [definition.where]
                + [item.expression for item in definition.attributes]))
    return highest


def parameterize_xnf(query: ast.XNFQuery) -> ParameterizedStatement:
    """Lift an ad-hoc XNF query's literals into synthetic parameters.

    Every component query is lifted like a SELECT; so are each
    relationship's WHERE predicate and its ``WITH expr AS name``
    attribute expressions.  Synthetic indices start after the highest
    explicit ``?`` anywhere in the query.
    """
    lifter = _Lifter(_max_positional_in_xnf(query) + 1)
    definitions = []
    for definition in query.definitions:
        if isinstance(definition, ast.XNFComponentDef):
            definitions.append(ast.XNFComponentDef(
                definition.name, lifter.lift_select(definition.query)))
            continue
        definitions.append(replace(
            definition,
            where=None if definition.where is None
            else lifter.lift(definition.where),
            attributes=tuple(
                ast.SelectItem(lifter.lift(item.expression), item.alias)
                for item in definition.attributes),
        ))
    normalized = replace(query, definitions=tuple(definitions))
    return ParameterizedStatement(normalized, tuple(lifter.values),
                                  tuple(lifter.slots),
                                  key=HashedKey(normalized))


def parameterize_dml(statement: Union[ast.UpdateStatement,
                                      ast.DeleteStatement]
                     ) -> ParameterizedStatement:
    """Lift an UPDATE's SET values and WHERE literals (a DELETE's WHERE
    literals) into synthetic parameters, with the same rules as a
    SELECT's WHERE.  Synthetic indices start after the highest explicit
    ``?`` in the statement."""
    assignments = getattr(statement, "assignments", ())
    lifter = _Lifter(max_positional_in_expressions(
        [a.value for a in assignments] + [statement.where]) + 1)
    changes: dict = {}
    if assignments:
        changes["assignments"] = tuple(
            ast.Assignment(a.column, lifter.lift(a.value))
            for a in assignments)
    changes["where"] = None if statement.where is None \
        else lifter.lift(statement.where)
    normalized = replace(statement, **changes)
    return ParameterizedStatement(normalized, tuple(lifter.values),
                                  tuple(lifter.slots),
                                  key=HashedKey(normalized))


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
@dataclass
class CacheEntry:
    value: Any
    schema_version: int
    fingerprint: str
    #: Per-table validation snapshots for the tables the plan reads:
    #: ``(table, table_epoch_at_store, cardinality_at_store)``.  Drift
    #: on an *unrelated* table therefore never invalidates this entry.
    stats_keys: tuple[tuple[str, int, int], ...] = ()
    #: The validation clock's value at the last walk of ``stats_keys``
    #: that passed with no read view installed (None: never).
    validated_at: Optional[int] = None
    hits: int = 0
    #: Planner-estimated output rows snapshotted at store time (-1
    #: when the artifact has no single row estimate).
    estimated_rows: float = -1.0
    #: Further keys resolving to this artifact (see
    #: :meth:`PlanCache.alias`); they leave the cache with it.
    aliases: list = field(default_factory=list)


@dataclass
class CacheInfo:
    """What the last lookup did — surfaced by ``session.explain``."""

    status: str  # 'hit' | 'miss' | 'bypass'
    fingerprint: str = ""
    reason: str = ""
    schema_version: int = 0
    stats_epoch: int = 0
    #: The served plan's estimated output rows (-1 when unknown).
    estimated_rows: float = -1.0


@dataclass
class CompileClaim:
    """A miss's turn to compile ``key`` (see :meth:`PlanCache.claim`).

    The holder compiles, stores the artifact under ``schema_version``
    (read before the compile began, so DDL during it leaves the
    artifact stale for everyone who looks later) and then hands the
    claim to :meth:`PlanCache.release`, which wakes the waiters.
    """

    key: Any
    schema_version: int
    #: The miss this claim was counted as (EXPLAIN's ``last_info``).
    info: CacheInfo
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    stores: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits, "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions, "stores": self.stores,
        }


def fingerprint_of(key: Any) -> str:
    """A short stable digest of a cache key, for EXPLAIN output.

    Keys are (tuples of) frozen-dataclass ASTs whose ``repr`` is
    deterministic within a process, which is all EXPLAIN needs.
    """
    digest = hashlib.sha256(repr(key).encode()).hexdigest()
    return digest[:12]


class PlanCache:
    """A bounded LRU of compiled statements for one database.

    Keys are normalized statement ASTs (plus a kind tag); entries are
    validated at lookup — lazily, no sweeps — against the current
    catalog ``schema_version`` and, **per table the plan reads**, the
    statistics manager's table epoch and the table's live cardinality.
    DDL invalidates everything; ANALYZE / material statistics drift
    invalidate only the plans over the affected tables; direct-storage
    writes that bypass the DML layer are caught by the cardinality
    check.  ``capacity <= 0`` disables the cache entirely (every
    lookup is a bypass).

    With a ``clock`` (:data:`ValidationClock`), a hit whose entry
    passed its statistics walk at the clock's current value is served
    without walking again; any other hit walks, and a passing walk
    re-stamps the entry when the clock could vouch for it.

    ``capacity`` counts compiled *artifacts*.  Extra keys for one
    artifact (the pipeline's post-rewrite canonical key, say) are
    :meth:`alias` entries: free of capacity, resolved on lookup, and
    dropped together with the artifact they name.
    """

    def __init__(self, capacity: int = 256,
                 clock: Optional[ValidationClock] = None):
        self.capacity = capacity
        self._clock = clock
        #: Primary key -> artifact entry, in LRU order.
        self._entries: "OrderedDict[Any, CacheEntry]" = OrderedDict()
        #: Alias key -> primary key.
        self._aliases: dict[Any, Any] = {}
        self.stats = CacheStats()
        self.last_info = CacheInfo(status="bypass")
        # One cache is shared by every session of an engine; concurrent
        # readers compile through it from multiple threads.  The lock
        # guards the entry map, the in-flight map and the counters;
        # compilation itself runs outside it.  Compiles are
        # single-flight per key: the first miss claims the key, and a
        # session that misses it while that compile runs waits for it
        # and takes the stored artifact as a hit (see :meth:`claim`).
        self._lock = threading.RLock()
        #: Key -> the claim of the compile now running for it.
        self._flights: dict[Any, CompileClaim] = {}
        #: Per thread: how many registered claims it is compiling.  A
        #: thread that is compiling never waits on another compile, so
        #: waits cannot form a cycle (nor a thread wait on itself).
        self._leading = threading.local()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        """The number of cached artifacts (aliases not counted)."""
        return len(self._entries)

    # ------------------------------------------------------------------
    def _validate_stats(self, entry: CacheEntry,
                        stats_view: Optional[StatsView],
                        on_drift) -> Optional[str]:
        """None when the entry's statistics snapshots still hold,
        else the invalidation reason."""
        if stats_view is None:
            return None
        # Read before the walk: a change racing it moves the clock past
        # the stamp, so the next hit walks again.
        now = self._clock() if self._clock is not None else None
        if now is not None and entry.validated_at == now:
            return None
        for table, epoch, cardinality in entry.stats_keys:
            current_epoch, live = stats_view(table)
            if current_epoch != epoch:
                return ("statistics changed (ANALYZE or material "
                        f"drift on {table})")
            if live >= 0 and material_drift(abs(live - cardinality),
                                            cardinality):
                # Direct-storage drift (rows added/removed without DML
                # deltas): tell the owner so the table's epoch moves
                # and sibling entries fall too.
                if on_drift is not None:
                    on_drift(table)
                return f"statistics drifted ({table} changed size " \
                       f"materially)"
        if now is not None:
            entry.validated_at = now
        return None

    def _invalid_reason(self, entry: CacheEntry, schema_version: int,
                        stats_view: Optional[StatsView],
                        on_drift) -> Optional[str]:
        if entry.schema_version != schema_version:
            return "schema changed (DDL)"
        return self._validate_stats(entry, stats_view, on_drift)

    def _resolve(self, key: Any) -> tuple[Any, Optional[CacheEntry]]:
        """(primary key, entry) for ``key`` or one of its aliases."""
        primary = self._aliases.get(key, key)
        return primary, self._entries.get(primary)

    def _drop(self, primary: Any) -> None:
        """Remove an artifact together with every alias naming it."""
        entry = self._entries.pop(primary)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    def _unlink(self, key: Any) -> None:
        """Free ``key`` for reuse, whether it is a primary or an alias."""
        if key in self._entries:
            self._drop(key)
            return
        primary = self._aliases.pop(key, None)
        if primary is not None:
            self._entries[primary].aliases.remove(key)

    def probe(self, key: Any, schema_version: int,
              stats_view: Optional[StatsView] = None,
              on_drift=None) -> Optional[CacheEntry]:
        """Validated lookup with no statistics or last-info side
        effects — the pipeline's second-level (canonical-form) probe,
        so one compile still counts as exactly one hit or miss."""
        if not self.enabled:
            return None
        with self._lock:
            primary, entry = self._resolve(key)
            if entry is None:
                return None
            if self._invalid_reason(entry, schema_version, stats_view,
                                    on_drift) is not None:
                self._drop(primary)
                return None
            self._entries.move_to_end(primary)
            entry.hits += 1
            return entry

    def _find(self, key: Any, schema_version: int,
              stats_view: Optional[StatsView],
              on_drift) -> tuple[Optional[CacheEntry], str]:
        """Under the lock: the valid entry for ``key``, counted as a
        hit, or None and why not (a stale entry is dropped and counted
        as an invalidation; the miss is the caller's to count)."""
        primary, entry = self._resolve(key)
        if entry is None:
            return None, "not cached"
        reason = self._invalid_reason(entry, schema_version, stats_view,
                                      on_drift)
        if reason is not None:
            self._drop(primary)
            self.stats.invalidations += 1
            return None, reason
        self._entries.move_to_end(primary)
        entry.hits += 1
        self.stats.hits += 1
        self.last_info = CacheInfo(
            status="hit", fingerprint=entry.fingerprint,
            schema_version=schema_version,
            estimated_rows=entry.estimated_rows,
        )
        return entry, ""

    def _miss(self, key: Any, schema_version: int,
              reason: str) -> CacheInfo:
        """Under the lock: count one miss and report it."""
        self.stats.misses += 1
        self.last_info = CacheInfo(
            status="miss", fingerprint=fingerprint_of(key),
            reason=reason, schema_version=schema_version,
        )
        return self.last_info

    def lookup(self, key: Any, schema_version: int,
               stats_view: Optional[StatsView] = None,
               on_drift=None) -> Optional[CacheEntry]:
        """The cached entry for ``key`` if still valid, else None."""
        if not self.enabled:
            self.last_info = CacheInfo(status="bypass",
                                       reason="plan cache disabled")
            return None
        with self._lock:
            entry, reason = self._find(key, schema_version, stats_view,
                                       on_drift)
            if entry is None:
                self._miss(key, schema_version, reason)
            return entry

    def claim(self, key: Any, schema_version: Callable[[], int],
              stats_view: Optional[StatsView] = None,
              on_drift=None) -> tuple[Optional[CacheEntry],
                                      Optional[CompileClaim]]:
        """Single-flight lookup: ``(entry, None)`` on a hit, else
        ``(None, claim)`` — the caller compiles, stores under
        ``claim.schema_version`` and calls :meth:`release` (in a
        ``finally``: waiters block until it does).

        A miss while another thread compiles ``key`` waits for that
        compile and looks again, so it is counted once, as a hit, when
        the stored artifact is still valid.  ``schema_version`` is read
        afresh (under the lock) at every look: an artifact made stale
        by DDL during the compile is dropped, not served to a waiter.
        When the compile raised or its artifact is gone, the first
        waiter to look claims the key and compiles; the rest wait for
        it.  A thread that is itself compiling never waits: it claims
        without registering and compiles for itself.
        """
        if not self.enabled:
            self.last_info = CacheInfo(status="bypass",
                                       reason="plan cache disabled")
            return None, CompileClaim(key, schema_version(),
                                      self.last_info)
        while True:
            with self._lock:
                version = schema_version()
                entry, reason = self._find(key, version, stats_view,
                                           on_drift)
                if entry is not None:
                    return entry, None
                running = self._flights.get(key)
                leading = getattr(self._leading, "count", 0)
                if running is None or leading:
                    claim = CompileClaim(
                        key, version, self._miss(key, version, reason))
                    if running is None:
                        self._flights[key] = claim
                        self._leading.count = leading + 1
                    return None, claim
            running.done.wait()

    def release(self, claim: CompileClaim) -> None:
        """End ``claim``'s compile, stored or failed: wake its waiters."""
        with self._lock:
            if self._flights.get(claim.key) is not claim:
                return  # an unregistered (re-entrant or bypass) claim
            del self._flights[claim.key]
            self._leading.count -= 1
        claim.done.set()

    def count_canonical_hit(self, key: Any, canon_key: Any,
                            canon_entry: CacheEntry,
                            schema_version: int) -> None:
        """A first-level miss resolved by the post-rewrite canonical
        probe: alias ``key`` to the artifact and turn the miss already
        counted into a hit, under the lock, so that one compile is
        exactly one hit or one miss even under threads."""
        with self._lock:
            self.alias(key, canon_key)
            self.stats.misses -= 1
            self.stats.hits += 1
            self.last_info = CacheInfo(
                status="hit", fingerprint=canon_entry.fingerprint,
                reason="post-rewrite canonical form matched",
                schema_version=schema_version,
                estimated_rows=canon_entry.estimated_rows,
            )

    def store(self, key: Any, value: Any, schema_version: int,
              stats_keys: tuple = (),
              estimated_rows: float = -1.0) -> Optional[CacheEntry]:
        if not self.enabled:
            return None
        entry = CacheEntry(value=value, schema_version=schema_version,
                           fingerprint=fingerprint_of(key),
                           stats_keys=tuple(stats_keys),
                           estimated_rows=estimated_rows)
        with self._lock:
            self._unlink(key)
            self._entries[key] = entry
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._drop(next(iter(self._entries)))
                self.stats.evictions += 1
        return entry

    def alias(self, key: Any, target: Any) -> None:
        """Make ``key`` resolve to the artifact cached under ``target``
        (itself a primary key or an alias).  A no-op when ``target`` is
        not cached."""
        if not self.enabled:
            return
        with self._lock:
            primary, entry = self._resolve(target)
            if entry is None or key == primary:
                return
            self._unlink(key)
            self._aliases[key] = primary
            entry.aliases.append(key)

    def get_or_compile(self, key: Any,
                       schema_version: Callable[[], int],
                       stats_view: Optional[StatsView], compile_fn,
                       tables_of: Optional[
                           Callable[[Any], Iterable[str]]] = None,
                       on_drift=None) -> Any:
        """Single-flight read-through (see :meth:`claim`): return the
        cached value, or compile and store it.

        ``tables_of(value)`` names the base tables the compiled
        artifact reads; their epoch/cardinality snapshots become the
        entry's statistics validation keys.
        """
        entry, claim = self.claim(key, schema_version, stats_view,
                                  on_drift)
        if entry is not None:
            return entry.value
        try:
            value = compile_fn()
            stats_keys: tuple = ()
            if tables_of is not None and stats_view is not None:
                stats_keys = tuple(
                    (name.upper(),) + tuple(stats_view(name))
                    for name in tables_of(value)
                )
            self.store(key, value, claim.schema_version, stats_keys)
        finally:
            self.release(claim)
        return value

    def clear(self, reason: str = "explicit clear") -> None:
        with self._lock:
            if self._entries:
                self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._aliases.clear()
            self.last_info = CacheInfo(status="bypass", reason=reason)
