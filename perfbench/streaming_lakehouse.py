"""``streaming_lakehouse``: writes beside reads through ``StreamingLakehouse``.

Each tick produces a batch of Kafka events, runs the ingestion pipeline
for 200 simulated ms (polls into the realtime tail; every compaction
interval, a Parquet snapshot commit to the Iceberg lake on HDFS),
refreshes one materialized view and runs one hybrid query over
tail ∪ lake at one watermark. This is the only workload that writes:
it exercises ``realtime``, ``connectors.kafka``, the Parquet writer,
Iceberg commits and flat-file Parquet reads whose cost grows with the
number of lake files.

A round is one fresh lakehouse streamed for a fixed number of ticks.
Each read is checked against ``repro.realtime.oracle`` (a batch engine
over the replayed Kafka log) at the committed watermark, and each round
ends with the exactly-once check over every visible row.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import Meter, RoundResult, count_engine_query, rows_match

# The query the view answers comes first, so MV substitution is on the
# path every third tick; the other two read the hybrid table.
QUERIES = [
    ("city_totals", "SELECT city, count(*), sum(amount) FROM events GROUP BY city ORDER BY city"),
    ("big_orders", "SELECT count(*), sum(amount) FROM events WHERE amount > 100.0"),
    ("sf_latest", "SELECT max(order_id), count(*) FROM events WHERE city = 'sf'"),
]
TICK_MS = 200.0
POLL_INTERVAL_MS = 150.0
COMPACTION_INTERVAL_MS = 2000.0
EVENTS_PER_SECOND = 250.0  # mean; each tick's batch size is Poisson
CALIBRATE_TICKS = 10  # ticks between two readings of the host's speed


class StreamingLakehouseWorkload:
    name = "streaming_lakehouse"
    predicted_dominant = ("connector.hybrid.pages",)

    def __init__(self, seed: int, ticks: int = 60) -> None:
        self.seed = seed
        self.ticks = ticks
        rng = np.random.Generator(np.random.PCG64(seed))
        self.batch_sizes = [
            int(n) for n in rng.poisson(EVENTS_PER_SECOND * TICK_MS / 1000.0, ticks)
        ]
        # Ingest is measured per round, not at set-up.
        self.ingest_rows = 0
        self.ingest_wall_s = 0.0

    def _fresh(self):
        from repro.realtime import StreamingLakehouse
        from repro.realtime.mv import ViewAggregate
        from repro.workloads.streaming_events import EVENT_FIELDS

        lakehouse = StreamingLakehouse(
            fields=EVENT_FIELDS,
            poll_interval_ms=POLL_INTERVAL_MS,
            compaction_interval_ms=COMPACTION_INTERVAL_MS,
        )
        view = lakehouse.create_materialized_view(
            "city_totals",
            ["city"],
            [ViewAggregate("count", None, "n"), ViewAggregate("sum", "amount", "total")],
        )
        return lakehouse, view, lakehouse.make_engine()

    def _produce(self, lakehouse, tick: int, start_id: int) -> int:
        from repro.workloads.streaming_events import produce_events

        return produce_events(
            lakehouse,
            self.batch_sizes[tick],
            seed=self.seed,
            events_per_second=EVENTS_PER_SECOND,
            start_ms=int(lakehouse.clock.now_ms()),
            start_id=start_id,
        )

    def setup(self) -> None:
        """Stream one unchecked round's worth of ticks to warm every cache."""
        lakehouse, view, engine = self._fresh()
        produced = 0
        for tick in range(self.ticks):
            produced += self._produce(lakehouse, tick, produced)
            lakehouse.pipeline.run_for(TICK_MS)
            view.refresh()
            engine.execute(QUERIES[tick % len(QUERIES)][1])

    def prepare_oracle(self) -> None:
        """Reads are checked against the replayed log as they happen."""

    def run_round(self, meter: Meter) -> RoundResult:
        from repro.common.errors import PrestoError
        from repro.realtime.oracle import assert_exactly_once, oracle_engine

        lakehouse, view, engine = self._fresh()
        table = lakehouse.table
        result = RoundResult()
        counts: dict = defaultdict(int)
        samples: dict = defaultdict(list)
        produced = 0
        for tick in range(self.ticks):
            if tick and tick % CALIBRATE_TICKS == 0:
                meter.calibrate()
            before = meter.wall_s
            with meter:
                produced += self._produce(lakehouse, tick, produced)
                lakehouse.pipeline.run_for(TICK_MS)
            result.ingest_wall_s += meter.wall_s - before
            with meter:
                view.refresh()
            name, sql = QUERIES[tick % len(QUERIES)]
            result.attempted += 1
            before = meter.wall_s
            try:
                with meter:
                    answer = engine.execute(sql)
            except PrestoError as error:
                result.failed += 1
                result.latencies_ms.append(float("inf"))
                result.sim_latencies_ms.append(float("inf"))
                result.note_error(f"tick {tick} {name}: {error}")
                continue
            result.latencies_ms.append((meter.wall_s - before) * 1000.0)
            result.sim_latencies_ms.append(answer.stats.simulated_ms)
            result.sim_span_s += answer.stats.simulated_ms / 1000.0
            count_engine_query(counts, answer.stats)
            samples["lake_files"].append(len(lakehouse.lake.current_snapshot().files))
            samples["tail_rows"].append(table.tail_row_count())
            samples["freshness_lag_ms"].append(
                table.max_committed_timestamp_ms - table.sealed_max_timestamp_ms()
            )
            oracle = oracle_engine(lakehouse.broker, lakehouse.topic, table.committed)
            expected = oracle.execute_direct(sql).rows
            if rows_match(answer.rows, expected):
                result.completed += 1
            else:
                result.wrong += 1
                result.note_error(f"tick {tick} {name}: {answer.rows[:3]} != {expected[:3]}")

        committed = table.committed.total()
        if committed != produced:
            result.wrong += 1
            result.note_error(f"committed {committed} of {produced} produced events")
        try:
            assert_exactly_once(lakehouse.connector, lakehouse.broker, lakehouse.topic)
        except AssertionError as error:
            result.wrong += 1
            result.note_error(f"exactly-once check: {error}")
        namenode = lakehouse.filesystem.namenode
        lake_bytes = sum(
            len(namenode.file_data(data_file.path))
            for data_file in lakehouse.lake.current_snapshot().files
        )
        samples["stored_bytes_per_row"].append(lake_bytes / committed if committed else 0.0)
        counts["namenode_calls"] = (
            namenode.stats.list_files_calls
            + namenode.stats.get_file_info_calls
            + namenode.stats.open_calls
        )
        counts["snapshots"] = lakehouse.compactor.snapshots_committed
        result.ingest_rows = committed
        result.wall_s = meter.wall_s
        result.raw_wall_s = meter.raw_wall_s
        result.counts = dict(counts)
        result.samples = dict(samples)
        return result
