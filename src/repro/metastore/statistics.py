"""Table and column statistics for cost-based planning.

The paper's production Presto runs "a rule based optimizer, ignoring
statistics" (section XII.A) because statistics could not be kept fresh at
Uber's ingestion rates.  This module is the counter-experiment the
SQL-on-Hadoop comparative study (PAPERS.md) motivates: a small, explicit
statistics model — per-table row counts plus per-column NDV / min / max /
null-fraction — collected on demand by ``ANALYZE TABLE`` and stored in the
metastore, versioned like every other metastore mutation so staleness is
at least observable.

Statistics are *advisory*: every consumer (the cost estimator, the join
reorder rule, the broadcast chooser) must behave identically to the
stats-free engine when they are absent, and must never change query
results when they are present — only plan shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence


@dataclass(frozen=True)
class ColumnStatisticsEntry:
    """Summary of one column: distinct values, range, null fraction.

    ``min_value``/``max_value`` are None for non-orderable types (arrays,
    maps, structs) and for all-null columns.  ``ndv`` counts distinct
    non-null values.  NaN never appears in ``min_value``/``max_value``
    (consistent with the parquet writer's NaN-free chunk statistics).
    """

    ndv: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    null_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "ndv": self.ndv,
            "min": self.min_value,
            "max": self.max_value,
            "nullFraction": self.null_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStatisticsEntry":
        return cls(data["ndv"], data["min"], data["max"], data["nullFraction"])


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics, keyed by column name."""

    row_count: int
    columns: Mapping[str, ColumnStatisticsEntry]

    def column(self, name: str) -> Optional[ColumnStatisticsEntry]:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {
            "rowCount": self.row_count,
            "columns": {n: c.to_dict() for n, c in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableStatistics":
        return cls(
            data["rowCount"],
            {
                n: ColumnStatisticsEntry.from_dict(c)
                for n, c in data["columns"].items()
            },
        )


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def column_statistics_from_values(values: Sequence[Any]) -> ColumnStatisticsEntry:
    """Exact statistics over one column's Python values.

    NaN values are excluded from the range (they compare unreliably) and
    count as one distinct non-null value, however many NaN objects there
    are (a set would tell them apart by identity).
    """
    total = len(values)
    defined = [v for v in values if v is not None]
    nulls = total - len(defined)
    orderable = [v for v in defined if not _is_nan(v)]
    low = high = None
    if orderable:
        try:
            low, high = min(orderable), max(orderable)
        except TypeError:
            low = high = None  # non-orderable values (lists, dicts, ...)
    has_nan = len(orderable) < len(defined)
    try:
        ndv = len(set(orderable)) + has_nan
    except TypeError:
        ndv = len({repr(v) for v in defined})  # unhashable values
    return ColumnStatisticsEntry(
        ndv=ndv,
        min_value=low,
        max_value=high,
        null_fraction=(nulls / total) if total else 0.0,
    )


def statistics_from_rows(
    column_names: Sequence[str], rows: Sequence[Sequence[Any]]
) -> TableStatistics:
    """Exact table statistics computed from materialized rows.

    The oracle that the memory connector's column-wise collection and the
    hive footer-derived collection are tested against.
    """
    return statistics_from_columns(
        column_names,
        [[row[i] for row in rows] for i in range(len(column_names))],
        len(rows),
    )


def statistics_from_columns(
    column_names: Sequence[str], columns: Sequence[Sequence[Any]], row_count: int
) -> TableStatistics:
    """Exact table statistics from per-column value lists (the memory
    connector's layout at rest)."""
    return TableStatistics(
        row_count=row_count,
        columns={
            name: column_statistics_from_values(values)
            for name, values in zip(column_names, columns)
        },
    )
