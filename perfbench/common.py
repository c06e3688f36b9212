"""Shared pieces of the benchmark: timing, percentiles, result checks.

Every workload runs its work in *rounds*. A round is one deterministic
unit of work (a query rotation, a storm, a stream of ticks) that the
runner repeats until the run's time is up. Rounds of one seed repeat the
same work, so their simulated figures and program counts must agree
exactly; the runner asserts this (see :meth:`RoundResult.signature`).
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Nominal wall time of one run of ``_reference_work``: wall figures are
# reported in the time they would take on a host that runs the
# reference in exactly this long (see ``host_scale``).
REFERENCE_S = 0.0025
REFERENCE_RUNS = 4


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` counts as slowest.

    A shed or failed query enters latency lists as ``inf``, so it counts
    as missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cell_equal(a, b, rel: float = 1e-9, abs_tol: float = 1e-6) -> bool:
    """Cell equality with a float tolerance for reordered summation."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    return a == b


def rows_match(got, expected) -> bool:
    """Row lists equal cell by cell, in order, with float tolerance."""
    if len(got) != len(expected):
        return False
    for left, right in zip(got, expected):
        if len(left) != len(right):
            return False
        if not all(_cell_equal(a, b) for a, b in zip(left, right)):
            return False
    return True


def count_engine_query(counts: dict, stats) -> None:
    """Fold one query's deterministic engine counters into ``counts``."""
    counts["queries"] += 1
    counts["tasks"] += stats.tasks_total
    counts["rows_exchanged"] += stats.rows_exchanged
    counts["rows_scanned"] += stats.rows_scanned
    counts["rows_vectorized"] += stats.rows_processed_vectorized
    counts["rows_fallback"] += stats.rows_processed_fallback
    counts["dynamic_filters_built"] += stats.dynamic_filters_built
    counts["dynamic_filter_rows_pruned"] += stats.dynamic_filter_rows_pruned
    counts["row_groups_total"] += stats.row_groups_total
    counts["row_groups_skipped"] += (
        stats.row_groups_skipped_by_stats
        + stats.row_groups_skipped_by_dictionary
        + stats.row_groups_skipped_by_dynamic_filter
    )


def _reference_work() -> None:
    """A fixed mix of interpreter and small-array numpy work, like the program's."""
    table: dict = {}
    for i in range(12_000):
        key = i % 61
        table[key] = table.get(key, 0) + i
    values = np.arange(4096, dtype=np.float64)
    for _ in range(40):
        values = np.sort((values * 1.000001 + 1.0)[::-1])


def host_scale() -> float:
    """``REFERENCE_S`` over the wall time the reference work takes now.

    The hosts this benchmark runs on share their cores with other
    tenants, whose load slows this process by up to 1.7x, flipping
    between a fast and a slow speed within tenths of a second or holding
    one for minutes. Multiplying a wall time by the scale taken next to
    it takes out much of that swing while keeping any change in the
    program's own cost, which the reference does not share. The
    reference runs four times and their mean counts, so it follows the
    share of time spent at each speed.
    """
    started = time.perf_counter()
    for _ in range(REFERENCE_RUNS):
        _reference_work()
    return REFERENCE_S * REFERENCE_RUNS / (time.perf_counter() - started)


class Meter:
    """Scaled wall time spent inside timed blocks, and the tracer's on-switch.

    Each timed block's wall time is multiplied by ``scale``, the host's
    speed last taken by :meth:`calibrate` (see :func:`host_scale`).
    Workloads calibrate every fixed chunk of work, a few tenths of a
    second apart. Correctness checks and calibration never count toward
    a wall metric; when a tracer is attached it records spans only
    inside timed blocks.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.tracer = None
        self._start: Optional[float] = None
        self.calibrate()

    def calibrate(self) -> None:
        """Take the host's speed now; inside a timed block, untimed.

        Inside a traced block spans are open, so the reading is skipped:
        traced rounds give per-layer figures, which are not scaled.
        """
        timing = self._start is not None
        if timing and self.tracer is not None:
            return
        if timing:
            self.__exit__()
        self.scale = host_scale()
        if timing:
            self.__enter__()

    def __enter__(self) -> "Meter":
        if self._start is not None:
            raise RuntimeError("timed blocks do not nest")
        if self.tracer is not None:
            self.tracer.start_region()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        self._start = None
        self.raw_wall_s += elapsed
        self.wall_s += elapsed * self.scale
        if self.tracer is not None:
            self.tracer.stop_region()


@dataclass
class RoundResult:
    """What one round did, measured and counted."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0  # errors raised by the program
    shed: int = 0  # refused at admission
    wrong: int = 0  # answers that disagree with the oracle
    wall_s: float = 0.0  # timed wall of the round, scaled
    raw_wall_s: float = 0.0  # the same, as the clock read it
    latencies_ms: list = field(default_factory=list)  # scaled wall, per query
    sim_latencies_ms: list = field(default_factory=list)  # per attempted query
    sim_span_s: float = 0.0  # simulated seconds the round's queries took
    ingest_rows: int = 0  # rows committed by the round's writes
    ingest_wall_s: float = 0.0  # scaled wall spent producing and ingesting them
    # Deterministic program counts (tasks, rows, cache requests, ...).
    counts: dict = field(default_factory=dict)
    # Deterministic per-read samples (lake files, tail rows, lags, ...).
    samples: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # first few failure messages

    def note_error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def signature(self) -> tuple:
        """Everything that must repeat exactly across rounds of one seed."""
        return (
            self.attempted,
            self.completed,
            tuple(self.sim_latencies_ms),
            round(self.sim_span_s, 9),
            self.ingest_rows,
            tuple(sorted(self.counts.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.samples.items())),
        )
