"""Table and column statistics for the cost-based optimizer.

Starburst's plan optimization chooses strategies "based on estimated
execution costs" (Sect. 3.1).  We keep the classic System R statistics
— table cardinality, per-column distinct-value counts, min/max — and
extend them with the distribution summaries a skew-aware cost model
needs:

* **equi-depth histograms** (:class:`Histogram`): bucket boundaries
  chosen so each bucket holds ~the same number of rows, giving range
  selectivities by bucket interpolation instead of a fixed 1/3;
* **most-common values** (``ColumnStats.mcv``): the heavy hitters of a
  skewed column with their exact frequencies, so ``col = 'HOT'`` is not
  estimated at 1/NDV;
* **NDV estimation**: exact distinct counts below
  :data:`NDV_EXACT_THRESHOLD`, a GEE-style sample estimate above it
  (``ndv_exact`` records which), and exact-by-construction counts for
  primary-key / unique-indexed columns.

Statistics are computed on demand (or eagerly via the ``ANALYZE``
statement) and cached until invalidated.

Invalidation has two triggers:

* the row-count staleness heuristic (``_is_stale``), which catches
  direct ``Table.insert`` traffic that bypasses the DML layer when a
  snapshot is next read, and
* committed deltas: the engine hands each one to
  :meth:`StatisticsManager.on_table_delta`, which drops the table's
  snapshot, so stats never lag a committed statement.

The manager also maintains **per-table statistics epochs** for the
plan cache.  A table's epoch only advances when its distribution has
*materially* changed — an explicit ``ANALYZE``/``invalidate``, or
accumulated DML drift past the staleness threshold — so cached plans
survive ordinary write traffic, and drift on one table never
invalidates plans over others.  (Direct-storage drift that no delta
ever reports is caught by the plan cache itself, which also snapshots
each table's cardinality per entry and revalidates at lookup.)
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Optional

from repro.storage.catalog import Catalog, TableDelta
from repro.storage.table import Table

#: Material-drift thresholds shared by the staleness heuristic and the
#: epoch logic: at least this many changed rows *and* this fraction of
#: the previous cardinality.
DRIFT_MIN_ROWS = 16
DRIFT_FRACTION = 0.2

#: Equi-depth histogram resolution (buckets per column).
HISTOGRAM_BUCKETS = 32
#: Up to this many distinct values ANALYZE counts NDV exactly; beyond
#: it the count comes from a fixed-size sample (GEE-style estimator).
NDV_EXACT_THRESHOLD = 2048
#: Sample size for the NDV estimator once the exact set overflows.
NDV_SAMPLE_SIZE = 1024
#: Deterministic seed for the NDV sample: ANALYZE over the same rows
#: must reproduce the same statistics, run to run.
_NDV_SAMPLE_SEED = 0x5EED
#: At most this many most-common values are kept per column.
MCV_KEEP = 8
#: Rows fetched per heap batch while ANALYZE reads a table.
_ANALYZE_BATCH = 4096


def material_drift(drift: int, baseline: int) -> bool:
    """The one definition of "materially changed" — shared by the
    staleness heuristic, the epoch logic, and the plan cache's
    per-entry cardinality validation."""
    return drift >= DRIFT_MIN_ROWS \
        and drift > DRIFT_FRACTION * max(baseline, 1)


#: Sentinel distinguishing "no constant available" from a NULL constant
#: in value-aware selectivity estimation.
UNKNOWN_VALUE = object()


@dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over a column's non-null values.

    ``lows[i]``/``highs[i]`` are the smallest and largest value landing
    in bucket ``i`` (buckets are built from the sorted values, so both
    sequences are non-decreasing) and ``counts[i]`` is the bucket's row
    count — roughly ``total / len(counts)`` each, by construction.
    """

    lows: tuple
    highs: tuple
    counts: tuple
    total: int
    #: Numeric columns interpolate linearly inside a bucket; other
    #: comparable types (strings, dates-as-strings) fall back to the
    #: bucket midpoint.
    numeric: bool

    @classmethod
    def build(cls, ordered: list,
              buckets: int = HISTOGRAM_BUCKETS) -> Optional["Histogram"]:
        """Build from an already-sorted list of non-null values."""
        total = len(ordered)
        if total == 0:
            return None
        buckets = max(1, min(buckets, total))
        lows, highs, counts = [], [], []
        for i in range(buckets):
            start = i * total // buckets
            end = (i + 1) * total // buckets
            if end <= start:
                continue
            lows.append(ordered[start])
            highs.append(ordered[end - 1])
            counts.append(end - start)
        numeric = _is_numeric(ordered[0]) and _is_numeric(ordered[-1])
        return cls(tuple(lows), tuple(highs), tuple(counts), total,
                   numeric)

    def fraction_below(self, value, inclusive: bool) -> float:
        """Estimated fraction of (non-null) rows with
        ``row <= value`` (inclusive) or ``row < value``.

        Piecewise linear in ``value`` for numeric columns, hence
        monotone non-decreasing under range widening.  Raises
        ``TypeError`` when ``value`` is not comparable to the column.
        """
        if value < self.lows[0]:
            return 0.0
        accumulated = 0.0
        for low, high, count in zip(self.lows, self.highs, self.counts):
            past = (not value < high) if inclusive else (high < value)
            if past:
                accumulated += count
                continue
            if value < low:
                break
            # value falls inside [low, high]
            if self.numeric and high != low:
                span = (value - low) / (high - low)
                accumulated += count * max(0.0, min(1.0, span))
            else:
                accumulated += 0.5 * count
            break
        return min(accumulated / self.total, 1.0)


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ColumnStats:
    """Distribution summary of one column."""

    distinct: int = 1
    null_fraction: float = 0.0
    minimum: object = None
    maximum: object = None
    #: Equi-depth histogram over the non-null values (None when the
    #: column is empty or its values are not mutually comparable).
    histogram: Optional[Histogram] = None
    #: Most-common values as ``(value, fraction_of_non_null_rows)``,
    #: most frequent first.  Only values appearing more often than the
    #: uniform expectation are kept, so a uniform column has no MCVs.
    mcv: tuple = ()
    #: False when ``distinct`` came from the sampling estimator rather
    #: than an exact count.
    ndv_exact: bool = True

    def selectivity_equals(self, cardinality: int,
                           value=UNKNOWN_VALUE) -> float:
        """Estimated selectivity of ``col = constant``.

        With a known constant the MCV list answers exactly for heavy
        hitters and the remaining mass spreads uniformly over the
        non-MCV distinct values; without one (an unpeeked parameter)
        this degrades to the classic uniform 1/NDV.
        """
        if cardinality == 0 or self.distinct == 0:
            return 0.0
        non_null = 1.0 - self.null_fraction
        if value is None:
            return 0.0  # col = NULL matches nothing
        if value is not UNKNOWN_VALUE:
            if self.minimum is not None and self.maximum is not None:
                try:
                    if value < self.minimum or value > self.maximum:
                        return 0.0
                except TypeError:
                    pass
            mcv_total = 0.0
            for mcv_value, fraction in self.mcv:
                if mcv_value == value:
                    return min(fraction * non_null, 1.0)
                mcv_total += fraction
            rest = max(self.distinct - len(self.mcv), 1)
            remainder = max(1.0 - mcv_total, 0.0)
            return min(remainder * non_null / rest, 1.0)
        return non_null / self.distinct

    def selectivity_range(self, op: str, value) -> Optional[float]:
        """Estimated selectivity of ``col <op> value`` over *all* rows
        (NULLs never match), or None when no histogram applies."""
        if value is None:
            return 0.0
        histogram = self.histogram
        if histogram is None:
            return None
        try:
            if op == "<":
                fraction = histogram.fraction_below(value, inclusive=False)
            elif op == "<=":
                fraction = histogram.fraction_below(value, inclusive=True)
            elif op == ">":
                fraction = 1.0 - histogram.fraction_below(value,
                                                          inclusive=True)
            elif op == ">=":
                fraction = 1.0 - histogram.fraction_below(value,
                                                          inclusive=False)
            else:
                return None
        except TypeError:
            return None
        fraction = max(0.0, min(1.0, fraction))
        return fraction * (1.0 - self.null_fraction)


@dataclass
class TableStats:
    """Statistics snapshot for one table."""

    cardinality: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns.get(name.upper(), ColumnStats())


def analyze_table(table: Table) -> TableStats:
    """Compute fresh statistics by a full scan of the table.

    Column-at-a-time: the rows are read a batch at a time (one read-view
    lookup per batch) and each column is cut out of them in one
    ``map``, so no per-row Python runs outside the value counts.
    """
    cardinality = len(table)
    stats = TableStats(cardinality=cardinality)
    if cardinality == 0:
        for column in table.columns:
            stats.columns[column.name.upper()] = ColumnStats(distinct=0)
        return stats
    rows = list(chain.from_iterable(table.batches(_ANALYZE_BATCH)))
    unique_columns = _unique_columns(table)
    for position, column in enumerate(table.columns):
        key = column.name.upper()
        non_null = list(map(itemgetter(position), rows))
        if None in non_null:
            non_null = [value for value in non_null if value is not None]
        nulls = cardinality - len(non_null)
        stats.columns[key] = _analyze_column(
            non_null, nulls, cardinality, is_unique=key in unique_columns)
    return stats


def _unique_columns(table: Table) -> set[str]:
    """Columns whose values are unique by constraint: NDV is exactly
    the non-null row count, no counting needed."""
    unique: set[str] = set()
    primary = table.primary_key
    if len(primary) == 1:
        unique.add(primary[0].upper())
    for index in getattr(table, "indexes", ()):
        if getattr(index, "unique", False) \
                and len(index.column_names) == 1:
            unique.add(index.column_names[0].upper())
    return unique


def _analyze_column(non_null: list, nulls: int, cardinality: int,
                    is_unique: bool) -> ColumnStats:
    if not non_null:
        return ColumnStats(distinct=1,
                           null_fraction=nulls / cardinality)
    distinct, exact = _estimate_ndv(non_null, is_unique)
    try:
        ordered = sorted(non_null)
    except TypeError:
        ordered = None  # mixed incomparable types: no min/max/histogram
    return ColumnStats(
        distinct=distinct,
        null_fraction=nulls / cardinality,
        minimum=ordered[0] if ordered else None,
        maximum=ordered[-1] if ordered else None,
        histogram=Histogram.build(ordered) if ordered else None,
        mcv=_most_common(non_null, distinct),
        ndv_exact=exact,
    )


def _estimate_ndv(non_null: list, is_unique: bool) -> tuple[int, bool]:
    """(distinct-count, exact?) — exact below the threshold, sampled
    GEE estimate above it."""
    count = len(non_null)
    if is_unique:
        return count, True
    seen = set(non_null)
    if len(seen) <= NDV_EXACT_THRESHOLD:
        return max(len(seen), 1), True
    # The exact set overflowed: estimate from a fixed-size sample with
    # the GEE estimator sqrt(n/r)*f1 + (d - f1), where f1 counts the
    # sample's singletons.  We already know distinct > threshold, so
    # clamp there from below and at the row count from above.
    sample_size = min(count, NDV_SAMPLE_SIZE)
    sample = random.Random(_NDV_SAMPLE_SEED).sample(non_null, sample_size)
    frequencies = Counter(sample)
    singletons = sum(1 for c in frequencies.values() if c == 1)
    estimate = math.sqrt(count / sample_size) * singletons \
        + (len(frequencies) - singletons)
    estimate = int(max(estimate, NDV_EXACT_THRESHOLD + 1,
                       len(frequencies)))
    return min(estimate, count), False


def _most_common(non_null: list, distinct: int) -> tuple:
    """Top heavy hitters as ``(value, fraction_of_non_null)`` pairs.

    Only values strictly more frequent than the uniform expectation
    qualify — a uniform column keeps none, so its estimates stay on
    the plain 1/NDV path.  Selection order is deterministic:
    by descending count, then by value repr.  A column with as many
    distinct values as rows has no heavy hitter, so it is not counted.
    (A sampled estimate reaches the row count only when every value is
    distinct: it stays below ``sqrt(rows * sample)`` or at the
    threshold floor.)
    """
    count = len(non_null)
    if count == 0 or distinct <= 1 or distinct >= count:
        return ()
    uniform = count / max(distinct, 1)
    frequencies = Counter(non_null)
    candidates = [(freq, value) for value, freq in frequencies.items()
                  if freq > uniform]
    candidates.sort(key=lambda item: (-item[0], repr(item[1])))
    return tuple((value, freq / count)
                 for freq, value in candidates[:MCV_KEEP])


class StatisticsManager:
    """Caches per-table statistics and tracks a material-change epoch.

    A snapshot is considered stale when the live row count differs from
    the snapshot's by more than 20% (and at least 16 rows), mimicking how
    real systems tolerate moderate drift between ANALYZE runs.

    Inside an engine every committed delta reaches
    :meth:`on_table_delta`, which invalidates the touched table's
    snapshot at once (instead of waiting for the drift heuristic).  The
    plan-cache epoch still only advances on *material* drift, explicit
    :meth:`invalidate`, or :meth:`analyze`.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._snapshots: dict[str, TableStats] = {}
        #: Rows changed by DML per table since the last epoch-relevant
        #: refresh, and the cardinality that drift is measured against.
        self._pending_changes: dict[str, int] = {}
        self._baseline_cardinality: dict[str, int] = {}
        #: Material-change counters for the plan cache, tracked **per
        #: table** so drift on one table only invalidates plans that
        #: read it.  ``_global_epoch`` covers whole-manager events
        #: (``invalidate()`` with no table).
        self._table_epochs: dict[str, int] = {}
        self._global_epoch: int = 0

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Total material-change counter (sum over all tables plus the
        global component) — monotonic, any material change bumps it."""
        return self._global_epoch + sum(self._table_epochs.values())

    def table_epoch(self, table_name: str) -> int:
        """The material-change counter one table's cached plans key on."""
        return self._global_epoch \
            + self._table_epochs.get(table_name.upper(), 0)

    def _bump_table_epoch(self, key: str) -> None:
        self._table_epochs[key] = self._table_epochs.get(key, 0) + 1
        self._catalog.changes.bump()

    def table_epochs(self) -> dict[str, int]:
        """Snapshot of the per-table epochs (checkpointing)."""
        return dict(self._table_epochs)

    @property
    def global_epoch(self) -> int:
        return self._global_epoch

    def restore_epochs(self, table_epochs: dict[str, int],
                       global_epoch: int) -> None:
        """Adopt epochs recovered from a snapshot, then advance.

        The recovered counters keep epoch history monotonic across a
        restart; the extra global bump guarantees that *nothing* keyed
        on pre-crash epochs (a plan cached before the crash, statistics
        drift baselines) can ever validate against post-recovery state.
        """
        self._table_epochs = {k.upper(): v
                              for k, v in table_epochs.items()}
        self._global_epoch = global_epoch + 1
        self._catalog.changes.bump()
        self._snapshots.clear()
        self._pending_changes.clear()
        self._baseline_cardinality.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def stats_for(self, table_name: str) -> TableStats:
        table = self._catalog.table(table_name)
        key = table.name
        snapshot = self._snapshots.get(key)
        if snapshot is None or self._is_stale(snapshot, table):
            snapshot = analyze_table(table)
            self._snapshots[key] = snapshot
            self._note_refresh(key, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Invalidation and refresh
    # ------------------------------------------------------------------
    def invalidate(self, table_name: str | None = None) -> None:
        """Drop cached snapshot(s) and advance the statistics epoch.

        Explicit invalidation (DDL, ANALYZE-adjacent maintenance) is
        always material: callers use it when the old distributions must
        not be trusted, so dependent plan caches go stale too.
        """
        if table_name is None:
            self._snapshots.clear()
            self._pending_changes.clear()
            self._baseline_cardinality.clear()
            self._global_epoch += 1
            self._catalog.changes.bump()
        else:
            key = table_name.upper()
            self._snapshots.pop(key, None)
            self._pending_changes.pop(key, None)
            self._baseline_cardinality.pop(key, None)
            self._bump_table_epoch(key)

    def analyze(self, table_name: str | None = None) -> int:
        """Recompute statistics eagerly (the ``ANALYZE`` statement).

        Returns the number of tables analyzed.  Always advances the
        epoch: an explicit ANALYZE is a declaration that plans should
        see fresh distributions.
        """
        if table_name is None:
            tables = self._catalog.tables()
        else:
            tables = [self._catalog.table(table_name)]
        for table in tables:
            snapshot = analyze_table(table)
            self._snapshots[table.name] = snapshot
            self._pending_changes.pop(table.name, None)
            self._baseline_cardinality[table.name] = snapshot.cardinality
            self._bump_table_epoch(table.name)
        return len(tables)

    # ------------------------------------------------------------------
    # Committed deltas
    # ------------------------------------------------------------------
    def on_table_delta(self, delta: TableDelta) -> None:
        key = delta.table.upper()
        # The snapshot is stale the moment DML lands; drop it so the
        # next compile re-analyzes.  (Cheap: stats are computed lazily.)
        self._snapshots.pop(key, None)
        # Drift counts rows that came or went, as ``_is_stale`` and
        # ``_note_refresh`` do: an UPDATE's two images share one RID and
        # leave the row count alone.
        changed = len({rid for rid, _row in delta.inserted}
                      ^ {rid for rid, _row in delta.deleted})
        if not changed:
            return
        pending = self._pending_changes.get(key, 0) + changed
        baseline = self._baseline_cardinality.get(key)
        if baseline is None:
            baseline = self._live_cardinality(key, default=changed)
            self._baseline_cardinality[key] = baseline
        if material_drift(pending, baseline):
            # Material drift: advance this table's epoch (invalidates
            # plans reading it) and restart drift accounting from the
            # new size.
            self._bump_table_epoch(key)
            self._pending_changes.pop(key, None)
            self._baseline_cardinality[key] = self._live_cardinality(
                key, default=baseline)
        else:
            self._pending_changes[key] = pending

    def _live_cardinality(self, key: str, default: int) -> int:
        if self._catalog.has_table(key):
            return len(self._catalog.table(key))
        return default

    def _note_refresh(self, key: str, snapshot: TableStats) -> None:
        """A lazy re-analysis ran; reset drift accounting for the table.

        If the refresh was triggered by the drift heuristic (direct
        storage writes bypassing DML), the distributions changed
        materially, so the epoch advances too.
        """
        baseline = self._baseline_cardinality.get(key)
        if baseline is not None and material_drift(
                abs(snapshot.cardinality - baseline), baseline):
            self._bump_table_epoch(key)
        self._pending_changes.pop(key, None)
        self._baseline_cardinality[key] = snapshot.cardinality

    @staticmethod
    def _is_stale(snapshot: TableStats, table: Table) -> bool:
        return material_drift(abs(len(table) - snapshot.cardinality),
                              snapshot.cardinality)
