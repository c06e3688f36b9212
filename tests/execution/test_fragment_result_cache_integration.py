"""Fragment result cache wired into the engine's scan path (section VII)."""

import pytest

from repro.cache.fragment_result_cache import FragmentResultCache
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.connectors.memory import MemoryConnector
from repro.core.page import Page
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem


def memory_engine():
    connector = MemoryConnector(split_size=5)
    connector.create_table(
        "db", "t", [("k", BIGINT), ("v", DOUBLE)], [(i % 3, float(i)) for i in range(20)]
    )
    engine = PrestoEngine(
        session=Session(catalog="memory", schema="db"),
        fragment_result_cache=FragmentResultCache(),
    )
    engine.register_connector("memory", connector)
    return engine, connector


class TestDashboardQueries:
    def test_repeat_query_served_from_cache(self):
        engine, _ = memory_engine()
        first = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert first.stats.fragment_cache_hits == 0
        second = engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        assert second.stats.fragment_cache_hits == 4  # all splits cached
        assert sorted(first.rows) == sorted(second.rows)

    def test_different_query_shares_scan_fragments(self):
        engine, _ = memory_engine()
        engine.execute("SELECT k, sum(v) FROM t GROUP BY k")
        # A different aggregation over the same scan fragment (same pruned
        # columns k, v) still hits: the cache key is the scan fragment,
        # not the whole query.
        result = engine.execute("SELECT k, max(v) FROM t GROUP BY k")
        assert result.stats.fragment_cache_hits == 4

    def test_insert_invalidates_via_data_version(self):
        engine, connector = memory_engine()
        engine.execute("SELECT count(*) FROM t")
        connector.insert("db", "t", [(9, 99.0)])
        result = engine.execute("SELECT count(*) FROM t")
        assert result.rows == [(21,)]  # fresh data, no stale cache hit
        assert result.stats.fragment_cache_hits == 0

    def test_replaced_table_with_same_row_count_not_served_stale(self):
        connector = MemoryConnector()
        connector.create_table("s", "t", [("x", BIGINT)], [(1,), (2,)])
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="s"),
            fragment_result_cache=FragmentResultCache(),
        )
        engine.register_connector("memory", connector)
        assert engine.execute("SELECT sum(x) FROM t").rows == [(3,)]
        connector.create_table("s", "t", [("x", BIGINT)], [(10,), (20,)])
        result = engine.execute("SELECT sum(x) FROM t")
        assert result.rows == [(30,)]
        assert result.stats.fragment_cache_hits == 0

    def test_projection_changes_miss(self):
        engine, _ = memory_engine()
        engine.execute("SELECT sum(v) FROM t")
        result = engine.execute("SELECT count(DISTINCT k) FROM t")
        # Different required columns → different fragment → miss.
        assert result.rows == [(3,)]


class TestHiveDataVersion:
    def test_rewritten_partition_not_served_stale(self):
        metastore = HiveMetastore()
        fs = HdfsFileSystem()
        metastore.create_table(
            "db", "t", [("v", DOUBLE)], partition_keys=[("ds", VARCHAR)]
        )
        write_hive_partition(
            metastore, fs, "db", "t", ["d1"],
            [Page.from_rows([DOUBLE], [(1.0,), (2.0,)])],
        )
        engine = PrestoEngine(
            session=Session(catalog="hive", schema="db"),
            fragment_result_cache=FragmentResultCache(),
        )
        engine.register_connector("hive", HiveConnector(metastore, fs))
        assert engine.execute("SELECT sum(v) FROM t").rows == [(3.0,)]

        # Rewrite the partition file with new contents and a newer mtime.
        partition = metastore.get_partition("db", "t", ["d1"])
        from repro.formats.parquet.schema import ParquetSchema
        from repro.formats.parquet.writer_native import NativeParquetWriter

        fs.clock.advance(1_000)
        blob = NativeParquetWriter(ParquetSchema([("v", DOUBLE)])).write_pages(
            [Page.from_rows([DOUBLE], [(10.0,)])]
        )
        fs.create(f"{partition.location}/part-00000.parquet", blob)
        result = engine.execute("SELECT sum(v) FROM t")
        assert result.rows == [(10.0,)]
        assert result.stats.fragment_cache_hits == 0
