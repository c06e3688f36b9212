"""``tpch_scan``: one closed-loop client over an in-memory LINEITEM table.

The client calls ``PrestoEngine.execute`` and waits for each answer
before sending the next query: a fixed rotation of TPC-H Q1, Q6, a
self-join whose small build side yields a runtime dynamic filter, a
point lookup and a top-N. Connector page production and the operator
kernels do nearly all the work; no cache, cluster or gateway is on the
path, so this is the workload whose data is larger than every cache.

Answers are checked against plain-Python evaluations of the same
queries over the generated rows.
"""

from __future__ import annotations

import time
from collections import defaultdict
from datetime import date, timedelta

import numpy as np

from common import Meter, RoundResult, count_engine_query, rows_match


SHIP_MODES = ["TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"]
PARAMETER_SETS = 10  # per round; each runs the five-query rotation once


def substitution_parameters(seed: int, index: int, rows: int) -> dict:
    """One set of TPC-H-style substitution parameters, drawn from the seed."""
    rng = np.random.Generator(np.random.PCG64([seed, index]))
    discount = int(rng.integers(2, 10)) / 100.0
    return {
        "q1_cutoff": str(date(1998, 12, 1) - timedelta(days=int(rng.integers(60, 121)))),
        "q6_year": int(rng.integers(1993, 1998)),
        "q6_discount_low": round(discount - 0.01, 2),
        "q6_discount_high": round(discount + 0.01, 2),
        "q6_quantity": int(rng.integers(24, 26)),
        "join_mode": SHIP_MODES[int(rng.integers(len(SHIP_MODES)))],
        "join_quantity": int(rng.integers(46, 50)),
        "point_key": int(rng.integers(1, rows // 4 + 1)),
        "top_mode": SHIP_MODES[int(rng.integers(len(SHIP_MODES)))],
    }


def _queries(p: dict) -> list[tuple[str, str]]:
    return [
        (
            "q1",
            "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), "
            "sum(extendedprice * (1 - discount)), "
            "sum(extendedprice * (1 - discount) * (1 + tax)), "
            "avg(quantity), avg(extendedprice), avg(discount), count(*) "
            f"FROM lineitem WHERE shipdate <= '{p['q1_cutoff']}' "
            "GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus",
        ),
        (
            "q6",
            "SELECT sum(extendedprice * discount) FROM lineitem "
            f"WHERE shipdate >= '{p['q6_year']}-01-01' "
            f"AND shipdate < '{p['q6_year'] + 1}-01-01' "
            f"AND discount BETWEEN {p['q6_discount_low']:.2f} "
            f"AND {p['q6_discount_high']:.2f} AND quantity < {p['q6_quantity']}",
        ),
        (
            "self_join",
            "SELECT count(*), sum(a.extendedprice) FROM lineitem a "
            "JOIN lineitem b ON a.orderkey = b.orderkey "
            f"WHERE b.shipmode = '{p['join_mode']}' AND b.quantity > {p['join_quantity']}",
        ),
        (
            "point",
            "SELECT orderkey, linenumber, extendedprice FROM lineitem "
            f"WHERE orderkey = {p['point_key']} ORDER BY linenumber",
        ),
        (
            "top_n",
            "SELECT orderkey, linenumber, extendedprice FROM lineitem "
            f"WHERE shipmode = '{p['top_mode']}' "
            "ORDER BY extendedprice DESC, orderkey, linenumber LIMIT 10",
        ),
    ]


def _oracle(rows: list[tuple], p: dict) -> dict[str, list[tuple]]:
    """The rotation's answers for one parameter set, computed without the engine."""
    (orderkey, _, _, linenumber, quantity, price, discount, tax,
     returnflag, linestatus, shipdate, _, _, _, shipmode) = range(15)
    answers = {}

    groups: dict = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0, 0.0, 0])
    for row in rows:
        if row[shipdate] <= p["q1_cutoff"]:
            acc = groups[(row[returnflag], row[linestatus])]
            disc_price = row[price] * (1 - row[discount])
            acc[0] += row[quantity]
            acc[1] += row[price]
            acc[2] += disc_price
            acc[3] += disc_price * (1 + row[tax])
            acc[4] += row[discount]
            acc[5] += 1
    answers["q1"] = [
        (flag, status, q, s, d, c, q / n, s / n, disc / n, n)
        for (flag, status), (q, s, d, c, disc, n) in sorted(groups.items())
    ]

    year = p["q6_year"]
    selected = [
        row[price] * row[discount]
        for row in rows
        if f"{year}-01-01" <= row[shipdate] < f"{year + 1}-01-01"
        and p["q6_discount_low"] <= row[discount] <= p["q6_discount_high"]
        and row[quantity] < p["q6_quantity"]
    ]
    answers["q6"] = [(sum(selected) if selected else None,)]

    build: dict = defaultdict(int)
    for row in rows:
        if row[shipmode] == p["join_mode"] and row[quantity] > p["join_quantity"]:
            build[row[orderkey]] += 1
    matches = [(build[row[orderkey]], row[price]) for row in rows if row[orderkey] in build]
    answers["self_join"] = [
        (sum(n for n, _ in matches), sum(n * s for n, s in matches) if matches else None)
    ]

    answers["point"] = sorted(
        (row[orderkey], row[linenumber], row[price])
        for row in rows
        if row[orderkey] == p["point_key"]
    )
    answers["top_n"] = sorted(
        (
            (row[orderkey], row[linenumber], row[price])
            for row in rows
            if row[shipmode] == p["top_mode"]
        ),
        key=lambda r: (-r[2], r[0], r[1]),
    )[:10]
    return answers


class TpchScan:
    name = "tpch_scan"
    predicted_dominant = ("connector.memory.pages",)

    def __init__(self, seed: int, rows: int = 20_000) -> None:
        self.seed = seed
        self.rows = rows
        self.parameters = [
            substitution_parameters(seed, index, rows) for index in range(PARAMETER_SETS)
        ]
        self.queries = [
            ((index, name), sql)
            for index, p in enumerate(self.parameters)
            for name, sql in _queries(p)
        ]
        self.ingest_rows = 0
        self.ingest_wall_s = 0.0

    def setup(self) -> None:
        """Generate and load the table, build the engine, warm it up."""
        from repro.connectors.memory import MemoryConnector
        from repro.execution.engine import PrestoEngine
        from repro.planner.analyzer import Session
        from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

        started = time.perf_counter()
        self.data = generate_lineitem(self.rows, seed=self.seed)
        connector = MemoryConnector()
        connector.create_table("tpch", "lineitem", LINEITEM_COLUMNS, self.data)
        self.ingest_rows = len(self.data)
        self.ingest_wall_s = time.perf_counter() - started
        self.engine = PrestoEngine(session=Session(catalog="memory", schema="tpch"))
        self.engine.register_connector("memory", connector)
        for _, sql in _queries(self.parameters[0]):
            self.engine.execute(sql)

    def prepare_oracle(self) -> None:
        self.expected = {
            (index, name): answer
            for index, p in enumerate(self.parameters)
            for name, answer in _oracle(self.data, p).items()
        }

    def run_round(self, meter: Meter) -> RoundResult:
        from repro.common.errors import PrestoError

        result = RoundResult()
        counts: dict = defaultdict(int)
        for (index, name), sql in self.queries:
            result.attempted += 1
            before = meter.wall_s
            try:
                with meter:
                    answer = self.engine.execute(sql)
            except PrestoError as error:
                result.failed += 1
                result.latencies_ms.append(float("inf"))
                result.sim_latencies_ms.append(float("inf"))
                result.note_error(f"{name}: {error}")
                continue
            result.latencies_ms.append((meter.wall_s - before) * 1000.0)
            stats = answer.stats
            result.sim_latencies_ms.append(stats.simulated_ms)
            result.sim_span_s += stats.simulated_ms / 1000.0
            count_engine_query(counts, stats)
            expected = self.expected[(index, name)]
            if rows_match(answer.rows, expected):
                result.completed += 1
            else:
                result.wrong += 1
                result.note_error(f"{name}: {answer.rows[:3]} != {expected[:3]}")
            if name == "top_n":  # the last query of one parameter set's rotation
                meter.calibrate()
        result.wall_s = meter.wall_s
        result.raw_wall_s = meter.raw_wall_s
        result.counts = dict(counts)
        return result
