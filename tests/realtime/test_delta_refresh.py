"""Materialized-view refresh reads only its delta.

A view refreshed every tick sits at or above the sealed watermark, so its
delta lives wholly in the tail: such a refresh must open no lake file and
charge nothing to the shared simulated clock.  A delta that straddles a
compaction must still fold the sealed rows plus the tail rows, each
exactly once.
"""

from collections import Counter

from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.realtime import (
    StreamingLakehouse,
    ViewAggregate,
    visible_log_keys,
    watermark_table_name,
)

FIELDS = [("order_id", BIGINT), ("city", VARCHAR), ("amount", DOUBLE)]


def build():
    lh = StreamingLakehouse(
        fields=FIELDS, poll_interval_ms=150, compaction_interval_ms=100_000
    )
    view = lh.create_materialized_view(
        "city_stats",
        ["city"],
        [ViewAggregate("count", None, "n"), ViewAggregate("sum", "amount", "total")],
    )
    produce(lh, 0, 90)
    lh.pipeline.poll()
    lh.compactor.compact()
    assert lh.table.sealed_watermark().total() == 90, "nothing sealed"
    assert lh.lake.current_snapshot().files, "lake has no file"
    return lh, view


def produce(lh, start, stop):
    for i in range(start, stop):
        lh.produce((i, f"c{i % 4}", i / 7), timestamp_ms=i * 4)


class TestRefreshAboveSealed:
    def test_refresh_above_sealed_touches_no_lake_file(self):
        lh, view = build()
        view.refresh()
        assert view.watermark.dominates(lh.table.sealed_watermark())

        produce(lh, 90, 130)
        before = lh.table.committed
        lh.pipeline.poll()
        new_tail_rows = lh.table.committed.total() - before.total()
        assert new_tail_rows == 40

        opens = lh.filesystem.namenode.stats.open_calls
        now = lh.clock.now_ms()
        folded = view.refresh()
        assert lh.filesystem.namenode.stats.open_calls == opens
        assert lh.clock.now_ms() == now
        assert folded == new_tail_rows

    def test_refresh_straddling_a_compaction_folds_each_row_once(self):
        lh, view = build()
        view.refresh()
        start = view.watermark

        # Rows that will be sealed before the next refresh ...
        produce(lh, 90, 150)
        lh.pipeline.poll()
        lh.compactor.compact()
        sealed = lh.table.sealed_watermark()
        assert sealed.total() > start.total()
        # ... and rows that stay in the tail.
        produce(lh, 150, 175)
        lh.pipeline.poll()
        target = lh.table.committed
        assert target.total() > sealed.total()

        rows = lh.table.read_rows_between(start, target)
        partition_index = len(lh.table.fields)
        keys = Counter((row[partition_index], row[partition_index + 1]) for row in rows)
        expected = visible_log_keys(
            lh.connector, watermark_table_name(lh.topic, target)
        ) - visible_log_keys(lh.connector, watermark_table_name(lh.topic, start))
        assert keys == expected
        assert all(n == 1 for n in expected.values())
        assert view.refresh() == target.total() - start.total() == len(rows)
        assert view.watermark == target
