"""The traced run's span recorder, wrapped around each layer's entry points.

The program is not edited: :func:`instrument` swaps the public entry
points of each ``repro`` layer for timing wrappers while a traced round
runs, then puts the originals back. Spans are kept in memory as flat
arrays (name, parent, start, end) and summarised when the run ends.

A span's *self* time is its duration minus the durations of the spans
it directly contains. Summed over all spans, self time telescopes to the
top-level spans' durations; whatever traced wall time no top-level span
covers is ``unattributed`` (the benchmark's own loop, the interpreter's
glue between calls). Self times plus unattributed time therefore add up
to the traced wall time, which :func:`reconcile` checks.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# Span name -> layer (the repro module the wrapped call belongs to).
# Connector spans are named ``connector.<catalog>.pages|splits``.
_LAYER_BY_PREFIX = (
    ("sql.", "sql"),
    ("planner.", "planner"),
    ("engine.", "execution"),
    ("execution.", "execution"),
    ("exchange", "execution.exchange"),
    ("dynamic_filters", "execution.dynamic_filters"),
    ("connector.", "connectors"),
    ("storage", "storage"),
    ("cluster.", "execution.cluster"),
    ("gateway.", "federation"),
    ("kafka.", "connectors.kafka"),
    ("realtime.", "realtime"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_BY_PREFIX))


def layer_of(span_name: str) -> str:
    for prefix, layer in _LAYER_BY_PREFIX:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


class SpanTracer:
    """In-memory span recorder; records only inside timed regions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.recording = False
        self.wall_ns = 0
        self._region_start = 0
        # Counts taken at span boundaries (bytes of files opened).
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- regions ----------------------------------------------------------------

    def start_region(self) -> None:
        if self._stack:
            raise RuntimeError("a span is still open at region start")
        self.recording = True
        self._region_start = time.perf_counter_ns()

    def stop_region(self) -> None:
        self.wall_ns += time.perf_counter_ns() - self._region_start
        self.recording = False
        if self._stack:
            open_names = [self.names[self._name[i]] for i in self._stack]
            raise RuntimeError(f"spans left open at region end: {open_names}")

    # -- spans ------------------------------------------------------------------

    def open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    # -- summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self ms; plus wall and top level."""
        names = np.frombuffer(self._name, dtype=np.int64)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(
            self._start, dtype=np.int64
        )
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        self_ns = duration - child
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        total = np.bincount(names, weights=duration, minlength=count)
        own = np.bincount(names, weights=self_ns, minlength=count)
        spans = {
            name: {
                "calls": int(calls[i]),
                "total_ms": float(total[i]) / 1e6,
                "self_ms": float(own[i]) / 1e6,
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }
        top_level_ms = float(duration[~nested].sum()) / 1e6
        wall_ms = self.wall_ns / 1e6
        return {
            "spans": spans,
            "wall_ms": wall_ms,
            "top_level_ms": top_level_ms,
            "unattributed_ms": wall_ms - top_level_ms,
            "counters": dict(self.counters),
        }


def layer_self_ms(summary: dict) -> dict[str, float]:
    """Self ms per layer (every layer present, 0.0 when never entered)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, span in summary["spans"].items():
        totals[layer_of(name)] += span["self_ms"]
    return totals


def reconcile(summary: dict) -> tuple[bool, float]:
    """Layer self times + unattributed == traced wall; returns (ok, gap ms)."""
    accounted = sum(layer_self_ms(summary).values()) + summary["unattributed_ms"]
    gap = accounted - summary["wall_ms"]
    return abs(gap) <= max(1e-6 * summary["wall_ms"], 1e-3), gap


# -- wrappers ----------------------------------------------------------------


def _timed_call(tracer: SpanTracer, name: str, function):
    name_id = tracer.name_id(name)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return function(*args, **kwargs)
        index = tracer.open(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


class _TimedPages:
    """Times each ``next()`` of a connector's page iterator.

    Attribute reads fall through to the wrapped iterator, so duck-typed
    extras the scan operator looks for (``reader_stats``) still work.
    """

    def __init__(self, tracer: SpanTracer, name_id: int, pages) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._pages = iter(pages)
        self._source = pages

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.recording:
            return next(self._pages)
        index = tracer.open(self._name_id)
        try:
            return next(self._pages)
        finally:
            tracer.close(index)

    def __getattr__(self, attribute):
        return getattr(self._source, attribute)


def _timed_pages(tracer: SpanTracer, name: str, function):
    name_id = tracer.name_id(name)
    opener = _timed_call(tracer, name, function)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        pages = opener(*args, **kwargs)
        if not tracer.recording:
            return pages
        return _TimedPages(tracer, name_id, pages)

    return traced


def _timed_open(tracer: SpanTracer, name: str, function):
    """A storage open that also counts the bytes of the file it opened."""
    timed = _timed_call(tracer, name, function)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        stream = timed(*args, **kwargs)
        if tracer.recording:
            counters = tracer.counters
            counters["bytes_read"] = counters.get("bytes_read", 0) + stream.size()
        return stream

    return traced


def _entry_points():
    """(owner, attribute, span name, wrapper kind) for every layer."""
    from repro.connectors.hive import HiveConnector
    from repro.connectors.memory import MemoryConnector
    from repro.connectors.mysql import MySqlConnector, MySqlServer
    from repro.execution import engine as engine_module
    from repro.execution.cluster import PrestoClusterSim
    from repro.execution.dynamic_filters import DynamicFilter
    from repro.execution.engine import PrestoEngine, QueryHandle
    from repro.execution.exchange import ExchangeBuffer
    from repro.federation.gateway import PrestoGateway
    from repro.metastore.metastore import HiveMetastore
    from repro.planner.analyzer import Analyzer
    from repro.planner.fragmenter import Fragmenter
    from repro.planner.optimizer import Optimizer
    from repro.realtime.connector import HybridTableConnector
    from repro.realtime.lakehouse import StreamingLakehouse
    from repro.realtime.mv import MaterializedView
    from repro.realtime.pipeline import Compactor, IngestionPipeline
    from repro.storage.hdfs import HdfsFileSystem, NameNode

    points = [
        (engine_module, "parse_sql", "sql.parse", _timed_call),
        (Analyzer, "analyze", "planner.analyze", _timed_call),
        (Optimizer, "optimize", "planner.optimize", _timed_call),
        (Fragmenter, "fragment", "planner.fragment", _timed_call),
        (PrestoEngine, "execute", "engine.execute", _timed_call),
        (PrestoEngine, "submit", "engine.submit", _timed_call),
        (QueryHandle, "step", "execution.step", _timed_call),
        (ExchangeBuffer, "add", "exchange", _timed_call),
        (ExchangeBuffer, "pages_for_partition", "exchange", _timed_call),
        (ExchangeBuffer, "all_pages", "exchange", _timed_call),
        # ``matches`` is only called from ``mask``, so timing ``mask``
        # covers it without a per-row span.
        (DynamicFilter, "mask", "dynamic_filters", _timed_call),
        (NameNode, "list_files", "storage", _timed_call),
        (NameNode, "get_file_info", "storage", _timed_call),
        (HdfsFileSystem, "open", "storage", _timed_open),
        (PrestoClusterSim, "run_until_idle", "cluster.loop", _timed_call),
        (PrestoClusterSim, "submit_handle", "cluster.admission", _timed_call),
        (PrestoGateway, "submit_sql_async", "gateway.submit", _timed_call),
        (StreamingLakehouse, "produce", "kafka.produce", _timed_call),
        (IngestionPipeline, "poll", "realtime.poll", _timed_call),
        (Compactor, "compact", "realtime.compact", _timed_call),
        (MaterializedView, "refresh", "realtime.mv_refresh", _timed_call),
    ]
    # Connector SPI objects are private classes; reach them through the
    # public accessors of a throwaway instance of each connector.
    samples = {
        "memory": MemoryConnector(),
        "hive": HiveConnector(HiveMetastore(), HdfsFileSystem()),
        "mysql": MySqlConnector(MySqlServer()),
        "hybrid": HybridTableConnector(),
    }
    for catalog, connector in samples.items():
        points.append(
            (
                type(connector.record_set_provider()),
                "pages",
                f"connector.{catalog}.pages",
                _timed_pages,
            )
        )
        points.append(
            (
                type(connector.split_manager()),
                "get_splits",
                f"connector.{catalog}.splits",
                _timed_call,
            )
        )
    return points


@contextlib.contextmanager
def instrument(tracer: SpanTracer):
    """Wrap every layer entry point for the duration of the block."""
    restore = []
    try:
        for owner, attribute, name, kind in _entry_points():
            original = owner.__dict__[attribute]
            restore.append((owner, attribute, original))
            setattr(owner, attribute, kind(tracer, name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
