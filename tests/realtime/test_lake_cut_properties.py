"""Differential property suite for the columnar lake cut.

``HybridTable.lake_rows_between`` masks each lake file's coordinate
columns as arrays and builds tuples only for the rows it keeps.  Against
a row-at-a-time oracle (``IcebergTable.read_file_rows`` plus a per-row
``low[p] <= offset < high[p]`` test) it must return the same list —
same rows, same full-width values, same ``(partition, offset)`` order —
for random watermark ranges: empty everywhere, empty in one partition,
inside one file, and spanning file boundaries.
"""

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.realtime import StreamingLakehouse, Watermark

FIELDS = [("k", BIGINT), ("tag", VARCHAR), ("amount", DOUBLE)]
PARTITIONS = 3
# Unequal waves per compaction so file boundaries differ by partition.
WAVES = [17, 40, 9, 33, 25]


@lru_cache(maxsize=None)
def lakehouse() -> StreamingLakehouse:
    """A lake of several compaction files; built once, only ever read."""
    lh = StreamingLakehouse(
        fields=FIELDS,
        partitions=PARTITIONS,
        poll_interval_ms=100,
        compaction_interval_ms=100_000,
    )
    # Small row groups: each file is several pages, so the mask is
    # exercised per page, not just per file.
    lh.lake.row_group_size = 8
    produced = 0
    for wave in WAVES:
        for _ in range(wave):
            tag = None if produced % 5 == 0 else f"t{produced % 3}"
            lh.produce(
                (produced, tag, produced / 3),
                partition=(produced * 7) % PARTITIONS,
                timestamp_ms=produced,
            )
            produced += 1
        lh.pipeline.poll()
        lh.compactor.compact()
    assert len(lh.lake.current_snapshot().files) == len(WAVES)
    return lh


def oracle_rows(table, low: Watermark, high: Watermark) -> list[tuple]:
    partition_index = len(table.fields)
    rows = []
    for data_file in table.lake.current_snapshot().files:
        for row in table.lake.read_file_rows(data_file):
            p, offset = row[partition_index], row[partition_index + 1]
            if low.offset(p) <= offset < high.offset(p):
                rows.append(row)
    rows.sort(key=lambda r: (r[partition_index], r[partition_index + 1]))
    return rows


@lru_cache(maxsize=None)
def file_ranges() -> dict[int, list[tuple[int, int]]]:
    """Per partition, the ``[first, last + 1)`` offset range of each file."""
    table = lakehouse().table
    partition_index = len(table.fields)
    ranges: dict[int, list[tuple[int, int]]] = {p: [] for p in range(PARTITIONS)}
    for data_file in table.lake.current_snapshot().files:
        offsets: dict[int, list[int]] = {}
        for row in table.lake.read_file_rows(data_file):
            offsets.setdefault(row[partition_index], []).append(
                row[partition_index + 1]
            )
        for p, values in offsets.items():
            ranges[p].append((min(values), max(values) + 1))
    return ranges


@st.composite
def partition_range(draw, partition: int) -> tuple[int, int]:
    sealed = lakehouse().table.sealed_watermark().offset(partition)
    kind = draw(st.sampled_from(["empty", "inside_file", "spanning", "any"]))
    if kind == "empty":
        at = draw(st.integers(0, sealed + 3))
        return at, at
    if kind == "inside_file":
        first, stop = draw(st.sampled_from(file_ranges()[partition]))
        low = draw(st.integers(first, stop - 1))
        return low, draw(st.integers(low + 1, stop))
    if kind == "spanning":
        boundaries = [first for first, _ in file_ranges()[partition]][1:]
        boundary = draw(st.sampled_from(boundaries))
        return draw(st.integers(0, boundary - 1)), draw(
            st.integers(boundary + 1, sealed + 3)
        )
    a, b = draw(st.integers(0, sealed + 3)), draw(st.integers(0, sealed + 3))
    return min(a, b), max(a, b)


watermark_ranges = st.tuples(
    *(partition_range(p) for p in range(PARTITIONS))
).map(
    lambda ranges: (
        Watermark(tuple(low for low, _ in ranges)),
        Watermark(tuple(high for _, high in ranges)),
    )
)


@settings(max_examples=60, deadline=None)
@given(bounds=watermark_ranges)
@example(bounds=(Watermark.of(5, 9, 2), Watermark.of(5, 9, 2)))  # all empty
@example(bounds=(Watermark.of(0, 4, 3), Watermark.of(20, 4, 30)))  # one empty
@example(bounds=(Watermark.zero(PARTITIONS), Watermark.of(999, 999, 999)))
def test_lake_rows_between_matches_row_oracle(bounds):
    low, high = bounds
    table = lakehouse().table
    namenode = lakehouse().filesystem.namenode
    opens = namenode.stats.open_calls
    rows = table.lake_rows_between(low, high)
    if all(l >= h for l, h in zip(low.offsets, high.offsets)):
        assert rows == [] and namenode.stats.open_calls == opens
    assert rows == oracle_rows(table, low, high)


@settings(max_examples=30, deadline=None)
@given(bounds=watermark_ranges, file_index=st.integers(0, len(WAVES) - 1))
def test_file_cut_keeps_file_order(bounds, file_index):
    low, high = bounds
    table = lakehouse().table
    partition_index = len(table.fields)
    data_file = table.lake.current_snapshot().files[file_index]
    expected = [
        row
        for row in table.lake.read_file_rows(data_file)
        if low.offset(row[partition_index])
        <= row[partition_index + 1]
        < high.offset(row[partition_index])
    ]
    assert table.lake_file_rows_between(data_file.path, low, high) == expected
