"""``dashboard_storm``: a zipfian multi-user storm of small dashboard queries.

Users (zipf-skewed) send dashboard queries over the nested trips
warehouse on simulated HDFS (hive/parquet, one partition per date,
newer dates hotter) plus a MySQL city dimension. Each query goes
through ``PrestoGateway.submit_sql_async`` into one ``PrestoClusterSim``
whose resource groups cap concurrency. Arrivals are Poisson on the
simulated clock, so the load is an open loop in simulated time; the
process drains each storm as fast as it can, so wall throughput is this
process's serving rate.

The hive connector has its file-list, footer and data caches attached
and the whole warehouse fits in them. The front end, task steps, the
cluster event loop, gateway routing and the metadata caches do the
work; the memory connector is not used.

A round replays the same few storms, each on a fresh cluster and
gateway; the engine and its caches are shared and were warmed at set-up. Answers
are checked against plain-Python evaluations over the generated rows.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from common import Meter, RoundResult, count_engine_query, rows_match

DATES = [f"2017-03-{day:02d}" for day in range(1, 9)]
CITIES = 40
REGIONS = 5
STORMS_PER_ROUND = 3
CALIBRATE_ARRIVALS = 25  # arrivals between two readings of the host's speed
USERS = 12
# One arrival per 14 simulated ms keeps the cluster about half busy:
# queueing shows in the tail without making p95 swing from seed to seed.
MEAN_INTERARRIVAL_MS = 14.0
WORKERS = 4
SLOTS_PER_WORKER = 4
MAX_RUNNING = 8

TEMPLATES = {
    "status_summary": (
        "SELECT base.status, count(*), sum(fare_usd) FROM trips "
        "WHERE datestr = '{date}' GROUP BY base.status ORDER BY base.status"
    ),
    "region_revenue": (
        "SELECT c.region, count(*), sum(t.fare_usd) FROM trips t "
        "JOIN mysql.dim.cities c ON t.base.city_id = c.city_id "
        "WHERE t.datestr = '{date}' GROUP BY c.region ORDER BY c.region"
    ),
    "product_distance": (
        "SELECT base.product, count(*), avg(base.distance_km) FROM trips "
        "WHERE datestr = '{date}' AND completed "
        "GROUP BY base.product ORDER BY base.product"
    ),
    "surge_count": (
        "SELECT count(*), max(fare_usd) FROM trips "
        "WHERE datestr = '{date}' AND base.surge_multiplier > 1.0"
    ),
    "top_fares": (
        "SELECT base.request_uuid, fare_usd FROM trips WHERE datestr = '{date}' "
        "ORDER BY fare_usd DESC, base.request_uuid LIMIT 5"
    ),
}


def _region(city_id: int) -> str:
    return f"region{city_id % REGIONS}"


def _oracle(rows: list[tuple]) -> dict[str, list[tuple]]:
    """Every template's answer over one date's rows, without the engine."""
    answers = {}
    by_status: dict = defaultdict(lambda: [0, 0.0])
    by_region: dict = defaultdict(lambda: [0, 0.0])
    by_product: dict = defaultdict(lambda: [0, 0.0])
    surge = []
    for base, fare, completed in rows:
        by_status[base["status"]][0] += 1
        by_status[base["status"]][1] += fare
        by_region[_region(base["city_id"])][0] += 1
        by_region[_region(base["city_id"])][1] += fare
        if completed:
            by_product[base["product"]][0] += 1
            by_product[base["product"]][1] += base["distance_km"]
        if base["surge_multiplier"] > 1.0:
            surge.append(fare)
    answers["status_summary"] = [(k, n, s) for k, (n, s) in sorted(by_status.items())]
    answers["region_revenue"] = [(k, n, s) for k, (n, s) in sorted(by_region.items())]
    answers["product_distance"] = [
        (k, n, s / n) for k, (n, s) in sorted(by_product.items())
    ]
    answers["surge_count"] = [(len(surge), max(surge) if surge else None)]
    answers["top_fares"] = sorted(
        ((base["request_uuid"], fare) for base, fare, _ in rows),
        key=lambda r: (-r[1], r[0]),
    )[:5]
    return answers


def build_storm(seed, queries: int, users: int, mean_interarrival_ms: float):
    """(arrival_ms, user, template, date) tuples: Poisson, zipf users and dates.

    Arrivals are a Poisson process conditioned on ``queries`` arrivals in
    ``queries * mean_interarrival_ms``: sorted uniform times. The storm's
    length is then fixed, so goodput does not swing with its total gap.
    Each template is sent equally often (within one), in seeded order, so
    the seed does not change how much work a storm holds.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def zipf(count: int, s: float) -> np.ndarray:
        weights = np.arange(1, count + 1, dtype=np.float64) ** -s
        return weights / weights.sum()

    arrivals = np.sort(rng.uniform(0.0, queries * mean_interarrival_ms, queries))
    user_weights = zipf(users, 1.2)
    date_weights = zipf(len(DATES), 1.0)  # rank 1 is the newest date
    names = sorted(TEMPLATES)
    templates = rng.permutation(np.resize(np.arange(len(names)), queries))
    storm = []
    for arrival, template_index in zip(arrivals, templates):
        user = f"user{int(rng.choice(users, p=user_weights)):02d}"
        template = names[int(template_index)]
        date = DATES[len(DATES) - 1 - int(rng.choice(len(DATES), p=date_weights))]
        storm.append((round(float(arrival), 3), user, template, date))
    return storm


class DashboardStorm:
    name = "dashboard_storm"
    # Front end plus task steps should dominate the traced wall time.
    predicted_dominant = (
        "execution.step",
        "sql.parse",
        "planner.analyze",
        "planner.optimize",
        "planner.fragment",
    )

    def __init__(self, seed: int, rows_per_date: int | None = None, queries: int = 150) -> None:
        self.seed = seed
        # Partition size follows the seed a little, so service times (and
        # with them the simulated latencies) differ between seeds while the
        # work per query stays within 2% of the same.
        self.rows_per_date = rows_per_date or 500 + seed % 11
        # A round replays several independent storms, each on a fresh
        # cluster: the pooled simulated percentiles cover all their queries.
        self.storms = [
            build_storm([seed, part], queries, USERS, MEAN_INTERARRIVAL_MS)
            for part in range(STORMS_PER_ROUND)
        ]
        self.data_seed = 1000 + seed
        self.ingest_rows = 0
        self.ingest_wall_s = 0.0

    def setup(self) -> None:
        """Write the warehouse, attach caches, build engine, warm every query."""
        from repro.cache.data_cache import DataCacheConfig, TieredDataCache
        from repro.cache.file_list_cache import FileListCache
        from repro.cache.footer_cache import FileHandleAndFooterCache
        from repro.connectors.hive import HiveConnector
        from repro.connectors.mysql import MySqlConnector, MySqlServer
        from repro.core.types import BIGINT, VARCHAR
        from repro.execution.engine import PrestoEngine
        from repro.federation.routing import RoutingTable
        from repro.metastore.metastore import HiveMetastore
        from repro.planner.analyzer import Session
        from repro.storage.hdfs import HdfsFileSystem
        from repro.workloads.trips import load_trips_table

        started = time.perf_counter()
        metastore = HiveMetastore()
        self.filesystem = HdfsFileSystem()
        load_trips_table(
            metastore,
            self.filesystem,
            DATES,
            rows_per_date=self.rows_per_date,
            files_per_partition=2,
            row_group_size=250,
            num_cities=CITIES,
            table="trips",
            seed=self.data_seed,
        )
        self.ingest_rows = self.rows_per_date * len(DATES)
        self.ingest_wall_s = time.perf_counter() - started
        mysql = MySqlServer()
        mysql.create_table(
            "dim",
            "cities",
            [("city_id", BIGINT), ("region", VARCHAR)],
            [(city, _region(city)) for city in range(1, CITIES + 1)],
        )
        self.file_list_cache = FileListCache(self.filesystem)
        self.footer_cache = FileHandleAndFooterCache(self.filesystem)
        self.data_cache = TieredDataCache(DataCacheConfig())
        hive = HiveConnector(
            metastore,
            self.filesystem,
            file_list_cache=self.file_list_cache,
            footer_cache=self.footer_cache,
            data_cache=self.data_cache,
        )
        self.engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
        self.engine.register_connector("hive", hive)
        self.engine.register_connector("mysql", MySqlConnector(mysql))
        self.routing = RoutingTable()
        self.routing.set_default("interactive")
        for template in TEMPLATES.values():
            for date in DATES:
                self.engine.execute(template.format(date=date))

    def prepare_oracle(self) -> None:
        from repro.workloads.trips import generate_trips_rows

        self.expected = {}
        for index, date in enumerate(DATES):
            rows = generate_trips_rows(
                self.rows_per_date, num_cities=CITIES, seed=self.data_seed + index
            )
            for template, answer in _oracle(rows).items():
                self.expected[(template, date)] = answer

    def _cache_counts(self) -> dict:
        namenode = self.filesystem.namenode.stats
        files, footers = self.file_list_cache.stats, self.footer_cache.footer_stats
        data = self.data_cache.stats
        return {
            "file_list_hits": files.hits,
            "file_list_misses": files.misses,
            "footer_hits": footers.hits,
            "footer_misses": footers.misses,
            "data_hits": data.hits,
            "data_misses": data.misses,
            "namenode_calls": namenode.list_files_calls
            + namenode.get_file_info_calls
            + namenode.open_calls,
        }

    def run_round(self, meter: Meter) -> RoundResult:
        result = RoundResult()
        counts: dict = defaultdict(int)
        queued: list = []
        for storm in self.storms:
            self._replay(storm, meter, result, counts, queued)
        result.wall_s = meter.wall_s
        result.raw_wall_s = meter.raw_wall_s
        result.counts = dict(counts)
        result.samples = {"queued_sim_ms": queued}
        return result

    def _replay(self, storm, meter: Meter, result: RoundResult, counts, queued) -> None:
        """Serve one storm on a fresh cluster and gateway; check every answer."""
        from repro.common.errors import AdmissionRejectedError, PrestoError
        from repro.execution.cluster import PrestoClusterSim
        from repro.federation.gateway import PrestoGateway

        cluster = PrestoClusterSim(
            workers=WORKERS, slots_per_worker=SLOTS_PER_WORKER, name="interactive"
        )
        cluster.resource_group("dashboards", max_running=MAX_RUNNING)
        gateway = PrestoGateway(routing=self.routing)
        gateway.register_cluster(cluster)
        submitted = []  # (template, date, submission)

        def arrive(user: str, template: str, date: str) -> None:
            if result.attempted % CALIBRATE_ARRIVALS == 0:
                meter.calibrate()
            result.attempted += 1
            started = time.perf_counter()
            try:
                submission = gateway.submit_sql_async(
                    user,
                    self.engine,
                    TEMPLATES[template].format(date=date),
                    resource_group=f"dashboards.{user}",
                )
            except AdmissionRejectedError as error:
                result.shed += 1
                result.latencies_ms.append(float("inf"))
                result.note_error(f"shed: {error}")
                return
            except PrestoError as error:
                result.failed += 1
                result.latencies_ms.append(float("inf"))
                result.note_error(f"submit failed: {error}")
                return
            result.latencies_ms.append((time.perf_counter() - started) * meter.scale * 1000.0)
            submitted.append((template, date, submission))

        # The simulated clock delivers arrivals as cluster events, the way
        # the repo's storm benchmarks drive an open loop.
        for arrival_ms, user, template, date in storm:
            cluster._at(arrival_ms, lambda u=user, t=template, d=date: arrive(u, t, d))
        before = self._cache_counts()
        with meter:
            cluster.run_until_idle(max_events=10_000_000)
        for key, value in self._cache_counts().items():
            counts[key] += value - before[key]

        for template, date, submission in submitted:
            handle, execution = submission.handle, submission.execution
            if handle.state != "finished":
                result.failed += 1
                result.sim_latencies_ms.append(float("inf"))
                result.note_error(f"{template} {date}: {handle.error}")
                continue
            answer = handle.result()
            result.sim_latencies_ms.append(execution.latency_ms)
            queued.append(execution.queued_ms)
            count_engine_query(counts, answer.stats)
            if rows_match(answer.rows, self.expected[(template, date)]):
                result.completed += 1
            else:
                result.wrong += 1
                result.note_error(f"{template} {date}: wrong answer {answer.rows[:2]}")
        result.sim_latencies_ms.extend([float("inf")] * (len(storm) - len(submitted)))
        result.sim_span_s += cluster.clock.now_ms() / 1000.0
