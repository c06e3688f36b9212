"""Metric names, units and how each is computed from a run's rounds.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names;
``BENCHMARK.json`` lists the same names and the self-test checks that
the two agree. All ``_ms`` per-layer figures are self wall milliseconds
per completed query (per tick on ``streaming_lakehouse``, where a tick
runs exactly one query), taken from the traced rounds only.
"""

from __future__ import annotations

import statistics

from common import percentile, peak_rss_mb
from tracing import LAYERS, layer_self_ms, reconcile

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "ingest_rows_per_s": "rows/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p95_ms": "ms",
    "sim_goodput_qps": "1/s",
    "peak_rss_mb": "MiB",
}

# Span name whose self time is each per-query ``_ms`` figure.
_SPAN_MS = {
    "sql.parse_ms": ("sql.parse",),
    "planner.analyze_ms": ("planner.analyze",),
    "planner.optimize_ms": ("planner.optimize",),
    "planner.fragment_ms": ("planner.fragment",),
    "execution.task_self_ms": ("execution.step",),
    "exchange.ms": ("exchange",),
    "dynamic_filters.apply_ms": ("dynamic_filters",),
    "connector.memory.pages_ms": ("connector.memory.pages",),
    "connector.memory.splits_ms": ("connector.memory.splits",),
    "connector.hive.pages_ms": ("connector.hive.pages",),
    "connector.hive.splits_ms": ("connector.hive.splits",),
    "connector.mysql.pages_ms": ("connector.mysql.pages",),
    "connector.mysql.splits_ms": ("connector.mysql.splits",),
    "connector.hybrid.pages_ms": ("connector.hybrid.pages",),
    "connector.hybrid.splits_ms": ("connector.hybrid.splits",),
    "cluster.loop_self_ms": ("cluster.loop",),
    "cluster.admission_ms": ("cluster.admission",),
    "gateway.route_ms": ("gateway.submit",),
    "kafka.produce_ms": ("kafka.produce",),
    "realtime.poll_ms": ("realtime.poll",),
    "realtime.compact_ms": ("realtime.compact",),
    "realtime.mv_refresh_ms": ("realtime.mv_refresh",),
}

PER_LAYER = {
    **{name: "ms" for name in _SPAN_MS},
    "execution.tasks_per_query": "count",
    "execution.fallback_row_ratio": "ratio",
    "execution.rows_processed_per_query": "count",
    "exchange.rows_per_query": "count",
    "dynamic_filters.rows_pruned_ratio": "ratio",
    "dynamic_filters.rows_scanned_per_query": "count",
    "cache.file_list.hit_ratio": "ratio",
    "cache.file_list.requests_per_query": "count",
    "cache.footer.hit_ratio": "ratio",
    "cache.footer.requests_per_query": "count",
    "cache.data.hit_ratio": "ratio",
    "cache.data.requests_per_query": "count",
    "storage.namenode_calls_per_query": "count",
    "storage.bytes_read_per_query": "bytes",
    "parquet.row_groups_skipped_ratio": "ratio",
    "parquet.row_groups_per_query": "count",
    "cluster.queued_sim_ms_p50": "ms",
    "realtime.lake_files": "count",
    "realtime.tail_rows": "count",
    "freshness_lag_sim_ms": "ms",
    "stored_bytes_per_row": "bytes",
    "error_rate": "ratio",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "unattributed_ms": "ms",
    "obs.traced_wall_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "obs.reconcile_gap_ms": "ms",
    "obs.dominant_as_predicted": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def failures(rounds) -> tuple[int, int]:
    """(attempted, failed + shed + wrong) over all rounds."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed + r.shed + r.wrong for r in rounds)
    return attempted, failed


def end_to_end(rounds, setup_times, setup_ingest) -> dict:
    """The user-visible figures, from untraced rounds.

    Wall figures are scaled by the host's speed (see ``common.Meter``).
    Simulated figures come from the first round: every round of a seed
    repeats them exactly (the runner asserts it), so they do not depend
    on how many rounds fit in the run.
    """
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    first = rounds[0]
    if first.ingest_rows:
        ingest = _ratio(sum(r.ingest_rows for r in rounds), sum(r.ingest_wall_s for r in rounds))
    else:  # batch workloads: their load path at set-up
        ingest = statistics.median(rows / wall for rows, wall in setup_ingest)
    values = {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "throughput_qps": _ratio(sum(r.completed for r in rounds), sum(r.wall_s for r in rounds)),
        "setup_s": statistics.median(setup_times),
        "ingest_rows_per_s": ingest,
        "sim_latency_p50_ms": percentile(first.sim_latencies_ms, 50),
        "sim_latency_p95_ms": percentile(first.sim_latencies_ms, 95),
        "sim_goodput_qps": _ratio(first.completed, first.sim_span_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def per_layer(workload, untraced, traced, summary) -> tuple[dict, list[str]]:
    """Per-layer figures from the traced rounds; returns (metrics, notes)."""
    queries = sum(r.completed for r in traced)
    counts: dict = {}
    for r in traced:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
    per_query = counts.get("queries", 0)
    spans = summary["spans"]

    def span_ms(names) -> float:
        return _ratio(sum(spans.get(n, {}).get("self_ms", 0.0) for n in names), queries)

    def count(key) -> float:
        return _ratio(counts.get(key, 0), per_query)

    def cache(prefix):
        hits = counts.get(f"{prefix}_hits", 0)
        misses = counts.get(f"{prefix}_misses", 0)
        return _ratio(hits, hits + misses), _ratio(hits + misses, per_query)

    first = traced[0]
    values = {name: span_ms(names) for name, names in _SPAN_MS.items()}
    processed = counts.get("rows_vectorized", 0) + counts.get("rows_fallback", 0)
    values["execution.tasks_per_query"] = count("tasks")
    values["execution.fallback_row_ratio"] = _ratio(counts.get("rows_fallback", 0), processed)
    values["execution.rows_processed_per_query"] = _ratio(processed, per_query)
    values["exchange.rows_per_query"] = count("rows_exchanged")
    values["dynamic_filters.rows_pruned_ratio"] = _ratio(
        counts.get("dynamic_filter_rows_pruned", 0), counts.get("rows_scanned", 0)
    )
    values["dynamic_filters.rows_scanned_per_query"] = count("rows_scanned")
    for name in ("file_list", "footer", "data"):
        ratio, requests = cache(name)
        values[f"cache.{name}.hit_ratio"] = ratio
        values[f"cache.{name}.requests_per_query"] = requests
    values["storage.namenode_calls_per_query"] = count("namenode_calls")
    values["storage.bytes_read_per_query"] = _ratio(
        summary["counters"].get("bytes_read", 0), queries
    )
    values["parquet.row_groups_skipped_ratio"] = _ratio(
        counts.get("row_groups_skipped", 0), counts.get("row_groups_total", 0)
    )
    values["parquet.row_groups_per_query"] = count("row_groups_total")
    queued = first.samples.get("queued_sim_ms", [])
    values["cluster.queued_sim_ms_p50"] = percentile(queued, 50) if queued else 0.0
    values["realtime.lake_files"] = _mean(first.samples.get("lake_files", []))
    values["realtime.tail_rows"] = _mean(first.samples.get("tail_rows", []))
    values["freshness_lag_sim_ms"] = _mean(first.samples.get("freshness_lag_ms", []))
    values["stored_bytes_per_row"] = _mean(first.samples.get("stored_bytes_per_row", []))
    attempted, failed = failures(untraced + traced)
    values["error_rate"] = _ratio(failed, attempted)

    layers = layer_self_ms(summary)
    for layer, ms in layers.items():
        values[f"layer.{layer}.self_ms"] = _ratio(ms, queries)
    values["unattributed_ms"] = _ratio(summary["unattributed_ms"], queries)
    values["obs.traced_wall_ms"] = _ratio(summary["wall_ms"], queries)
    untraced_wall = _mean([r.wall_s for r in untraced])
    values["obs.trace_overhead_ratio"] = _ratio(_mean([r.wall_s for r in traced]), untraced_wall)
    ok, gap = reconcile(summary)
    values["obs.reconcile_gap_ms"] = _ratio(abs(gap), queries)

    notes = []
    if not ok:
        notes.append(f"reconciliation FAILED: layer self + unattributed - wall = {gap:.6f} ms")
    top_span = max(spans, key=lambda n: spans[n]["self_ms"]) if spans else None
    as_predicted = top_span in workload.predicted_dominant
    values["obs.dominant_as_predicted"] = 1 if as_predicted else 0
    wall = summary["wall_ms"] or 1.0
    shares = ", ".join(
        f"{n} {spans[n]['self_ms'] / wall:.1%}"
        for n in sorted(spans, key=lambda n: -spans[n]["self_ms"])[:6]
    )
    notes.append(
        f"dominant span {top_span} (predicted {' or '.join(workload.predicted_dominant)}): "
        + ("as predicted" if as_predicted else "MISMATCH")
        + f"; top self-time shares of traced wall: {shares}; "
        f"unattributed {summary['unattributed_ms'] / wall:.1%}"
    )
    metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    return metrics, notes
