"""Scan layout of the memory connector's columnar storage.

Tables are stored as column chunks on the scan's page grid and built by
``create_table`` plus many small ``insert``s (each rebuilding only the
trailing partial chunk).  The oracle is the row-list provider the
columnar one replaced: slice the split's rows, then ``Page.from_rows``
every ``PAGE_SIZE`` of them.  Every split must yield the same page sizes,
the same block kinds and the same rows, for any projection, for an empty
table and under the object varchar lane; scan counters and ANALYZE
statistics must not move either.
"""

import math

import pytest

from repro.connectors import memory
from repro.connectors.memory import MemoryConnector
from repro.connectors.spi import ConnectorTableHandle
from repro.core.blocks import object_varchar_lane
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR, ArrayType, RowField, RowType
from repro.execution.engine import PrestoEngine
from repro.metastore.statistics import statistics_from_rows
from repro.planner.analyzer import Session

POINT = RowType([RowField("x", BIGINT), RowField("label", VARCHAR)])
COLUMNS = [
    ("id", BIGINT),
    ("price", DOUBLE),
    ("name", VARCHAR),
    ("tags", ArrayType(VARCHAR)),
    ("point", POINT),
]
NAMES = [name for name, _ in COLUMNS]
WORDS = ["AIR", "é", "日本", "", "naïve", None]


def make_row(i):
    price = [math.nan, -0.0, None, 2.5, float(i)][i % 5]
    tags = None if i % 7 == 3 else [WORDS[(i + k) % 5] for k in range(i % 3)]
    point = None if i % 11 == 5 else {"x": i if i % 4 else None, "label": WORDS[i % 6]}
    return (i if i % 9 else None, price, WORDS[i % 6], tags, point)


def build(split_size, total, first_batch, batch):
    """A table made by create_table(first rows) and then small inserts."""
    rows = [make_row(i) for i in range(total)]
    connector = MemoryConnector(split_size=split_size)
    connector.create_table("s", "t", COLUMNS, rows[:first_batch])
    for start in range(first_batch, total, batch):
        connector.insert("s", "t", rows[start : start + batch])
    return connector, rows


def oracle_pages(rows, split, columns, page_size):
    """The row-list provider: transpose the split's rows page by page."""
    info = split.info_dict()
    indexes = [NAMES.index(c) for c in columns]
    types = [COLUMNS[i][1] for i in indexes]
    chunk_rows = rows[info["start"] : info["end"]]
    pages = [
        Page.from_rows(
            types,
            [tuple(row[i] for i in indexes) for row in chunk_rows[s : s + page_size]],
        )
        for s in range(0, len(chunk_rows), page_size)
    ]
    return pages or [Page.from_rows(types, [])]


def canonical(page):
    """Page contents comparable across NaN objects, plus the block kinds."""
    rows = [
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row)
        for row in page.to_rows()
    ]
    return page.position_count, [type(b).__name__ for b in page.blocks], rows


def assert_scan_matches_oracle(connector, rows, columns, page_size):
    handle = ConnectorTableHandle("s", "t")
    provider = connector.record_set_provider()
    splits = connector.split_manager().get_splits(handle)
    for split in splits:
        actual = [canonical(p) for p in provider.pages(handle, split, columns)]
        expected = [canonical(p) for p in oracle_pages(rows, split, columns, page_size)]
        assert actual == expected, split.split_id


PROJECTIONS = [NAMES, ["name", "id"], ["point", "price", "tags"], ["price"]]
# (page size, split size, rows, first batch, insert batch)
LAYOUTS = [
    (4, 3, 40, 5, 3),
    (4, 10, 53, 0, 7),
    (5, 5, 31, 31, 1),
    (4, 9, 1, 0, 1),
    (memory.PAGE_SIZE, 10_000, 9_500, 3_000, 650),
    (memory.PAGE_SIZE, 5_000, 6_000, 10, 997),
]


@pytest.fixture(params=LAYOUTS, ids=lambda p: f"page{p[0]}-split{p[1]}-rows{p[2]}")
def layout(request, monkeypatch):
    page_size, split_size, total, first_batch, batch = request.param
    monkeypatch.setattr(memory, "PAGE_SIZE", page_size)
    connector, rows = build(split_size, total, first_batch, batch)
    return connector, rows, page_size


class TestScanLayout:
    @pytest.mark.parametrize("columns", PROJECTIONS, ids=lambda c: "+".join(c))
    def test_pages_match_row_list_oracle(self, layout, columns):
        connector, rows, page_size = layout
        assert_scan_matches_oracle(connector, rows, columns, page_size)

    def test_object_varchar_lane(self, layout):
        connector, rows, page_size = layout
        with object_varchar_lane():
            assert_scan_matches_oracle(connector, rows, NAMES, page_size)

    def test_empty_table(self, monkeypatch):
        monkeypatch.setattr(memory, "PAGE_SIZE", 4)
        connector = MemoryConnector(split_size=3)
        connector.create_table("s", "t", COLUMNS)
        assert_scan_matches_oracle(connector, [], NAMES, 4)
        connector.insert("s", "t", [])
        assert_scan_matches_oracle(connector, [], ["name"], 4)

    def test_split_enumerated_before_insert_keeps_its_rows(self, monkeypatch):
        monkeypatch.setattr(memory, "PAGE_SIZE", 4)
        connector, rows = build(split_size=10, total=6, first_batch=6, batch=1)
        handle = ConnectorTableHandle("s", "t")
        splits = connector.split_manager().get_splits(handle)
        connector.insert("s", "t", [make_row(i) for i in range(6, 9)])
        provider = connector.record_set_provider()
        for split in splits:
            actual = [canonical(p) for p in provider.pages(handle, split, NAMES)]
            expected = [canonical(p) for p in oracle_pages(rows, split, NAMES, 4)]
            assert actual == expected

    def test_views_cannot_write_through_to_storage(self):
        connector, rows = build(split_size=10, total=5, first_batch=5, batch=1)
        handle = ConnectorTableHandle("s", "t")
        split = connector.split_manager().get_splits(handle)[0]
        page = next(connector.record_set_provider().pages(handle, split, ["id", "name"]))
        with pytest.raises(ValueError):
            page.block(0).values[1] = 99
        with pytest.raises(ValueError):
            page.block(1).data[:] = 0
        assert_scan_matches_oracle(connector, rows, NAMES, memory.PAGE_SIZE)

    def test_scan_counters(self, layout):
        connector, rows, page_size = layout
        engine = PrestoEngine(session=Session(catalog="memory", schema="s"))
        engine.register_connector("memory", connector)
        result = engine.execute("SELECT count(*), count(name) FROM t")
        splits = connector.split_manager().get_splits(ConnectorTableHandle("s", "t"))
        expected_pages = sum(
            len(oracle_pages(rows, split, ["name"], page_size)) for split in splits
        )
        assert result.rows == [(len(rows), sum(r[2] is not None for r in rows))]
        assert result.stats.rows_scanned == len(rows)
        assert result.stats.pages_produced == expected_pages


class TestAnalyze:
    def test_statistics_match_row_oracle(self, layout):
        connector, rows, _ = layout
        metadata = connector.metadata()
        handle = ConnectorTableHandle("s", "t")
        collected = metadata.collect_table_statistics(handle)
        assert collected == statistics_from_rows(NAMES, rows)
        assert metadata.get_table_statistics(handle) == collected

    def test_insert_makes_statistics_stale(self):
        connector, _ = build(split_size=10, total=12, first_batch=12, batch=1)
        metadata = connector.metadata()
        handle = ConnectorTableHandle("s", "t")
        metadata.collect_table_statistics(handle)
        connector.insert("s", "t", [])  # nothing changed: still fresh
        assert metadata.get_table_statistics(handle) is not None
        connector.insert("s", "t", [make_row(12)])
        assert metadata.get_table_statistics(handle) is None
