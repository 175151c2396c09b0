"""Reference statistics and index builds: a frozen copy of the row-at-a-time code.

``repro.storage.stats.analyze_table`` reads a table column-at-a-time,
and the hash and primary-key indexes build their buckets one batch at
a time.  This file keeps the row-at-a-time versions they replaced as
the oracle of ``tests/test_stats_reference_differential.py``: over
every table both must give the same statistics (compared by ``repr``)
and the same buckets, RID order included, or raise an error of the
same class with the same message.  It shares the statistics data
classes, the histogram builder and the tuning constants with the real
module, and an index's ``key_of``, and nothing else.  Do not edit it to
follow the real code.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from repro.errors import TypeCheckError
from repro.storage.stats import (
    MCV_KEEP,
    NDV_EXACT_THRESHOLD,
    NDV_SAMPLE_SIZE,
    ColumnStats,
    Histogram,
    TableStats,
    _NDV_SAMPLE_SEED,
)

#: Rows fetched per heap batch while an index is (re)built.
_REBUILD_BATCH = 4096


def analyze_table(table) -> TableStats:
    """Compute fresh statistics by a full scan of the table."""
    cardinality = len(table)
    stats = TableStats(cardinality=cardinality)
    if cardinality == 0:
        for column in table.columns:
            stats.columns[column.name.upper()] = ColumnStats(distinct=0)
        return stats
    rows = list(table.rows())
    unique_columns = _unique_columns(table)
    for position, column in enumerate(table.columns):
        key = column.name.upper()
        non_null = [row[position] for row in rows
                    if row[position] is not None]
        nulls = cardinality - len(non_null)
        stats.columns[key] = _analyze_column(
            non_null, nulls, cardinality, is_unique=key in unique_columns)
    return stats


def _unique_columns(table) -> set[str]:
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
        ordered = None
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
    count = len(non_null)
    if is_unique:
        return count, True
    seen: set = set()
    for value in non_null:
        seen.add(value)
        if len(seen) > NDV_EXACT_THRESHOLD:
            break
    else:
        return max(len(seen), 1), True
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
    count = len(non_null)
    if count == 0 or distinct <= 1:
        return ()
    uniform = count / max(distinct, 1)
    frequencies = Counter(non_null)
    candidates = [(freq, value) for value, freq in frequencies.items()
                  if freq > uniform]
    candidates.sort(key=lambda item: (-item[0], repr(item[1])))
    return tuple((value, freq / count)
                 for freq, value in candidates[:MCV_KEEP])


def hash_buckets(index, table) -> dict:
    """The buckets ``HashIndex.rebuild`` built: key -> RID list."""
    buckets: dict = {}
    for chunk in table.scan_batches(_REBUILD_BATCH):
        for rid, row in chunk:
            key = index.key_of(row)
            if None in key:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [rid]
            else:
                if index.unique and bucket:
                    cols = ", ".join(index.column_names)
                    raise TypeCheckError(
                        f"unique index {index.name!r} violated: "
                        f"({cols}) = {key!r}")
                bucket.append(rid)
    return buckets


def primary_key_buckets(index, table) -> dict:
    """The buckets ``PrimaryKeyIndex.rebuild`` built: key -> RID."""
    buckets: dict = {}
    for chunk in table.scan_batches(_REBUILD_BATCH):
        for rid, row in chunk:
            key = index.key_of(row)
            if key in buckets:
                cols = ", ".join(index.column_names)
                raise TypeCheckError(
                    f"duplicate primary key ({cols}) = {key!r} in table "
                    f"{index.table_name!r}")
            buckets[key] = rid
    return buckets
