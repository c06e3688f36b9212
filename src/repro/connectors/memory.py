"""In-memory connector.

The simplest connector: tables live in memory as columnar blocks, built
once when rows are created or inserted and laid out on the scan's own
page grid — a chunk starts at every multiple of the split size and every
``PAGE_SIZE`` rows inside a split — so a scan hands out each stored chunk
as one page of zero-copy view blocks instead of transposing rows on every
split.  It supports projection pushdown (trivially — it only hands out the
requested columns) and declines filter/limit/aggregation pushdown, making
it the baseline against which the pushdown-capable connectors (Druid,
Pinot, MySQL) are compared.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import ConnectorError
from repro.core.blocks import (
    Block,
    VarcharBlock,
    block_from_values,
    set_varchar_blocks_enabled,
    varchar_blocks_enabled,
)
from repro.core.page import Page
from repro.core.types import PrestoType
from repro.connectors.spi import (
    ColumnMetadata,
    Connector,
    ConnectorMetadata,
    ConnectorRecordSetProvider,
    ConnectorSplit,
    ConnectorSplitManager,
    ConnectorTableHandle,
    TableMetadata,
)

# Most positions in one page of a scan (and so in one stored chunk).
PAGE_SIZE = 4096


def _stored_block(presto_type: PrestoType, values: list) -> Block:
    """One chunk of one column, always in the native varchar lane.

    Storage must not depend on which lane was active at insert time; scans
    convert to the object lane on demand (:func:`_object_lane`).
    """
    previous = set_varchar_blocks_enabled(True)
    try:
        return _read_only(block_from_values(presto_type, values))
    finally:
        set_varchar_blocks_enabled(previous)


def _read_only(block: Block) -> Block:
    """Freeze a stored chunk's arrays: every scan's views share them, so a
    write through a view must fail loudly instead of changing the table."""
    for value in vars(block).values():
        children = value.values() if isinstance(value, dict) else (value,)
        for child in children:
            if isinstance(child, np.ndarray):
                child.flags.writeable = False
            elif isinstance(child, Block):
                _read_only(child)
    return block


def _object_lane(block: Block) -> Block:
    """``block`` as the legacy object-array lane would have built it."""
    if isinstance(block, VarcharBlock):
        return block.to_primitive()
    if block.type.is_nested():
        return block_from_values(block.type, block.to_list())
    return block


class _MemoryTable:
    """One table at rest: per-column chunk blocks on the scan's page grid.

    Chunk ``k`` of every column covers rows ``starts[k]`` up to the next
    chunk's start (or ``row_count``).  ``version`` is unique per content
    within the connector: split ``data_version``s and statistics staleness
    key on it.
    """

    def __init__(self, metadata: TableMetadata, split_size: int) -> None:
        self.metadata = metadata
        self.split_size = split_size
        self.columns: list[list[Block]] = [[] for _ in metadata.columns]
        self.starts: list[int] = []
        self.row_count = 0
        self.version = 0  # set by every append
        # ANALYZE results plus the version they were computed at, so stale
        # statistics are dropped after inserts rather than served.
        self.statistics = None
        self.statistics_version = -1

    def chunk_end(self, index: int) -> int:
        if index + 1 < len(self.starts):
            return self.starts[index + 1]
        return self.row_count

    def _cell_end(self, start: int) -> int:
        """Where the grid cell starting at row ``start`` ends."""
        split_end = start - start % self.split_size + self.split_size
        return min(start + PAGE_SIZE, split_end)

    def append(self, rows: Sequence[Sequence[Any]], version: int) -> None:
        """Add ``rows`` one column and one grid cell at a time.

        Full chunks are never touched again; only a trailing partial chunk
        is rebuilt, from its own values followed by the new rows.
        """
        first = self.row_count
        tail: list[list] = [[] for _ in self.columns]
        if self.starts and self._cell_end(self.starts[-1]) > self.row_count:
            first = self.starts.pop()
            tail = [column.pop().to_list() for column in self.columns]
        types = [c.type for c in self.metadata.columns]
        total = self.row_count + len(rows)
        start = first
        while start < total:
            end = min(self._cell_end(start), total)
            # Offsets into ``rows``; the carried tail precedes it.
            low, high = max(start - self.row_count, 0), end - self.row_count
            for channel, column in enumerate(self.columns):
                values = [row[channel] for row in rows[low:high]]
                if start == first:
                    values = tail[channel] + values
                column.append(_stored_block(types[channel], values))
            self.starts.append(start)
            start = end
        self.row_count = total
        self.version = version

    def column_values(self, channel: int) -> list:
        # Read through fresh views so decode caches never stick to storage.
        return [
            value
            for chunk in self.columns[channel]
            for value in chunk.region(0, chunk.position_count).to_list()
        ]


class MemoryConnector(Connector):
    """Connector over in-memory column blocks, sharded into splits."""

    name = "memory"

    def __init__(self, split_size: int = 10_000) -> None:
        self._tables: dict[tuple[str, str], _MemoryTable] = {}
        self._split_size = split_size
        # Bumped by every create_table and insert: a table's version is
        # never reused, even when a replacement has the same row count.
        self._version = 0
        self._metadata = _MemoryMetadata(self)
        self._split_manager = _MemorySplitManager(self)
        self._provider = _MemoryRecordSetProvider(self)

    # -- population API ----------------------------------------------------

    def create_table(
        self,
        schema_name: str,
        table_name: str,
        columns: Sequence[tuple[str, PrestoType]],
        rows: Sequence[Sequence[Any]] = (),
    ) -> None:
        """Create (or replace) a table with the given columns and rows."""
        metadata = TableMetadata(
            schema_name,
            table_name,
            tuple(ColumnMetadata(n, t) for n, t in columns),
        )
        table = _MemoryTable(metadata, self._split_size)
        table.append(list(rows), self._next_version())
        self._tables[(schema_name, table_name)] = table

    def insert(self, schema_name: str, table_name: str, rows: Sequence[Sequence[Any]]) -> None:
        table = self._table(schema_name, table_name)
        rows = list(rows)
        if rows:
            table.append(rows, self._next_version())

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _table(self, schema_name: str, table_name: str) -> _MemoryTable:
        table = self._tables.get((schema_name, table_name))
        if table is None:
            raise ConnectorError(f"memory table {schema_name}.{table_name} does not exist")
        return table

    # -- SPI ---------------------------------------------------------------

    def metadata(self) -> ConnectorMetadata:
        return self._metadata

    def split_manager(self) -> ConnectorSplitManager:
        return self._split_manager

    def record_set_provider(self) -> ConnectorRecordSetProvider:
        return self._provider


class _MemoryMetadata(ConnectorMetadata):
    def __init__(self, connector: MemoryConnector) -> None:
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return sorted({s for s, _ in self._connector._tables})

    def list_tables(self, schema_name: str) -> list[str]:
        return sorted(t for s, t in self._connector._tables if s == schema_name)

    def get_table_handle(
        self, schema_name: str, table_name: str
    ) -> Optional[ConnectorTableHandle]:
        if (schema_name, table_name) in self._connector._tables:
            return ConnectorTableHandle(schema_name, table_name)
        return None

    def get_table_metadata(self, handle: ConnectorTableHandle) -> TableMetadata:
        return self._connector._table(handle.schema_name, handle.table_name).metadata

    def apply_projection(
        self, handle: ConnectorTableHandle, columns: Sequence[str]
    ) -> Optional[ConnectorTableHandle]:
        return handle.with_(projected_columns=tuple(columns))

    def collect_table_statistics(self, handle: ConnectorTableHandle):
        """ANALYZE: exact statistics, trivially — the columns are in memory."""
        from repro.metastore.statistics import statistics_from_columns

        table = self._connector._table(handle.schema_name, handle.table_name)
        table.statistics = statistics_from_columns(
            table.metadata.column_names(),
            [table.column_values(c) for c in range(len(table.columns))],
            table.row_count,
        )
        table.statistics_version = table.version
        return table.statistics

    def get_table_statistics(self, handle: ConnectorTableHandle):
        table = self._connector._table(handle.schema_name, handle.table_name)
        if table.statistics_version != table.version:
            return None  # inserts since ANALYZE: stats are stale
        return table.statistics


class _MemorySplitManager(ConnectorSplitManager):
    def __init__(self, connector: MemoryConnector) -> None:
        self._connector = connector

    def get_splits(self, handle: ConnectorTableHandle) -> list[ConnectorSplit]:
        table = self._connector._table(handle.schema_name, handle.table_name)
        size = self._connector._split_size
        splits = []
        total = table.row_count
        for start in range(0, max(total, 1), size):
            end = min(start + size, total)
            splits.append(
                ConnectorSplit(
                    split_id=f"memory:{handle.schema_name}.{handle.table_name}:{start}-{end}",
                    info=(("start", start), ("end", end), ("data_version", table.version)),
                )
            )
        return splits


class _MemoryRecordSetProvider(ConnectorRecordSetProvider):
    def __init__(self, connector: MemoryConnector) -> None:
        self._connector = connector

    def pages(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        columns: Sequence[str],
    ) -> Iterator[Page]:
        table = self._connector._table(handle.schema_name, handle.table_name)
        info = split.info_dict()
        end = min(info["end"], table.row_count)
        all_names = table.metadata.column_names()
        indexes = [all_names.index(c) for c in columns]
        native = varchar_blocks_enabled()
        index = bisect.bisect_left(table.starts, info["start"])
        if index == len(table.starts) or table.starts[index] >= end:
            types = [table.metadata.column(c).type for c in columns]
            yield Page.from_columns(types, [[] for _ in types])
            return
        while index < len(table.starts) and table.starts[index] < end:
            # A chunk reaches past ``end`` only when rows were inserted
            # after this split was enumerated; the split still sees its own.
            length = min(table.chunk_end(index), end) - table.starts[index]
            blocks = [table.columns[i][index].region(0, length) for i in indexes]
            if not native:
                blocks = [_object_lane(block) for block in blocks]
            yield Page(blocks, length)
            index += 1
