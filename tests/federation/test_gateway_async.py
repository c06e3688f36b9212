"""Non-blocking gateway submission, admission spill, and drain/failover
with multiple queries in flight.

The drain contract under concurrency: queries already *running* on the
drained cluster finish in place, queries still sitting in its admission
queue are evicted and re-routed to the fallback, and no handle is ever
driven by two clusters (no double-publish — result rows stay equal to
the single-query oracle).
"""

import gc
import weakref

import pytest

from repro.common.errors import AdmissionRejectedError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution.cluster import PrestoClusterSim, QueryState
from repro.execution.engine import PrestoEngine
from repro.federation.gateway import PrestoGateway
from repro.obs.metrics import MetricsRegistry
from repro.planner.analyzer import Session

SQL = "SELECT v, count(*) FROM t GROUP BY v ORDER BY v"


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=10)
    connector.create_table("db", "t", [("v", BIGINT)], [(i % 6,) for i in range(30)])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


def make_gateway(metrics=None, workers=2):
    gateway = PrestoGateway(metrics=metrics)
    for name in ("dedicated-a", "dedicated-b", "shared"):
        gateway.register_cluster(
            PrestoClusterSim(workers=workers, name=name, metrics=metrics)
        )
    gateway.routing.assign_user("alice", "dedicated-a")
    gateway.routing.assign_group("analytics", "dedicated-b")
    gateway.routing.set_default("shared")
    return gateway


def drive(gateway):
    for cluster in gateway.clusters.values():
        cluster.run_until_idle()


class TestSubmitAsync:
    def test_routes_admits_and_completes(self):
        gateway = make_gateway()
        engine = make_engine()
        submission = gateway.submit_sql_async("alice", engine, SQL)
        assert submission.cluster_name == "dedicated-a"
        assert submission.attempts == 1
        assert submission.handle.state == "running"
        drive(gateway)
        result = submission.handle.result()
        assert result.rows == make_engine().execute(SQL).rows
        # The trace shows the whole serving path, all spans closed.
        trace = submission.handle.trace
        assert [s.name for s in trace.spans[:3]] == [
            "gateway.submit",
            "gateway.route",
            "cluster.admission",
        ]
        assert trace.find("gateway.route")[0].attributes["cluster"] == "dedicated-a"
        assert all(s.end_ms is not None for s in trace.spans)

    def test_spills_to_shallowest_queue_on_shed(self):
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        # alice's dedicated cluster sheds anything that would queue.
        gateway.clusters["dedicated-a"].resource_group(
            "alice", max_running=1, max_queued=0
        )
        first = gateway.submit_sql_async("alice", engine, SQL)
        second = gateway.submit_sql_async("alice", engine, SQL)
        assert first.cluster_name == "dedicated-a"
        assert second.cluster_name != "dedicated-a"
        assert second.attempts == 2
        assert gateway.load_sheds == 1
        assert gateway.failovers == 1
        assert metrics.total("gateway_load_shed_total", cluster="dedicated-a") == 1
        drive(gateway)
        oracle = make_engine().execute(SQL).rows
        assert first.handle.result().rows == oracle
        assert second.handle.result().rows == oracle

    def test_all_clusters_shed_propagates_rejection(self):
        gateway = make_gateway()
        engine = make_engine()
        for cluster in gateway.clusters.values():
            # One slot per cluster at the root, no queueing anywhere.
            cluster.root_group.max_running = 1
            cluster.root_group.max_queued = 0
            # Occupy the only slot everywhere.
            cluster.submit_engine_handle(engine, SQL, user="anonymous")
        with pytest.raises(AdmissionRejectedError) as rejection:
            gateway.submit_sql_async("bob", engine, SQL)
        assert rejection.value.retry_after_ms > 0
        assert gateway.all_sheds == 1
        drive(gateway)  # the occupying queries still complete

    def test_all_shed_raises_minimum_retry_after(self, monkeypatch):
        # Regression: the gateway used to propagate the *last* attempted
        # cluster's retry-after hint; the client should back off only as
        # long as the soonest-available cluster needs.
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        hints = {"dedicated-a": 500.0, "dedicated-b": 120.0, "shared": 900.0}
        for name, cluster in gateway.clusters.items():
            def shed(*args, _name=name, **kwargs):
                raise AdmissionRejectedError(
                    f"{_name} full", retry_after_ms=hints[_name]
                )
            monkeypatch.setattr(cluster, "submit_handle", shed)
        with pytest.raises(AdmissionRejectedError) as rejection:
            # alice routes to dedicated-a first; the spill order ends on
            # "shared" (900ms) — the old code would raise that.
            gateway.submit_sql_async("alice", engine, SQL)
        assert rejection.value.retry_after_ms == 120.0
        assert gateway.all_sheds == 1
        assert gateway.load_sheds == 3
        assert metrics.total("gateway_all_shed_total") == 1
        assert metrics.total("gateway_load_shed_total") == 3

    def test_queue_depths_surface_to_gauges(self):
        metrics = MetricsRegistry()
        gateway = make_gateway(metrics=metrics)
        engine = make_engine()
        gateway.clusters["shared"].resource_group("bob", max_running=1)
        gateway.submit_sql_async("bob", engine, SQL)
        gateway.submit_sql_async("bob", engine, SQL)
        depths = gateway.queue_depths()
        assert depths == {"dedicated-a": 0, "dedicated-b": 0, "shared": 1}
        assert (
            metrics.gauge("gateway_cluster_queue_depth", cluster="shared").value == 1
        )
        drive(gateway)
        assert gateway.queue_depths()["shared"] == 0


class TestDrainWithInflightQueries:
    def setup_drain(self):
        """dedicated-a serving one running and two queued alice queries."""
        gateway = make_gateway()
        engine = make_engine()
        gateway.clusters["dedicated-a"].resource_group("alice", max_running=1)
        running = gateway.submit_sql_async("alice", engine, SQL)
        queued = [gateway.submit_sql_async("alice", engine, SQL) for _ in range(2)]
        assert gateway.clusters["dedicated-a"].queued_query_count() == 2
        return gateway, engine, running, queued

    def test_running_finishes_in_place_queued_reroute(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        # Queued handles moved to the fallback; the running one stayed.
        assert running.cluster_name == "dedicated-a"
        for submission in queued:
            assert submission.cluster_name == "shared"
            assert submission.attempts == 2
        assert gateway.failovers == 2
        assert gateway.clusters["dedicated-a"].queued_query_count() == 0
        drive(gateway)
        oracle = make_engine().execute(SQL).rows
        assert running.handle.result().rows == oracle
        for submission in queued:
            assert submission.handle.result().rows == oracle

    def test_no_double_publish_across_clusters(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        drive(gateway)
        # The drained cluster's executions for the evicted queries never
        # dispatched a split; the fallback ran every task exactly once.
        drained = gateway.clusters["dedicated-a"]
        fallback = gateway.clusters["shared"]
        for submission in queued:
            stats = submission.handle.result().stats
            evicted = [
                q
                for q in drained.queries.values()
                if q.query_id.endswith(submission.handle.query_id)
            ]
            assert evicted and all(q.splits_total == 0 for q in evicted)
            assert submission.execution.splits_done == len(stats.task_records)
            assert submission.execution.splits_total == len(stats.task_records)
        # Each handle's row count matches the oracle exactly — a handle
        # pumped by two clusters would have duplicated result pages.
        oracle = make_engine().execute(SQL).rows
        for submission in (running, *queued):
            assert submission.handle.result().rows == oracle

    def test_eviction_marks_runs_and_new_traffic_reroutes(self):
        gateway, engine, _, _ = self.setup_drain()
        drained = gateway.clusters["dedicated-a"]
        evicted_before = [
            run for run in drained._queued_runs  # captured pre-drain
        ]
        gateway.drain_cluster("dedicated-a", "shared")
        for run in evicted_before:
            assert run.state is QueryState.EVICTED
        # New alice traffic routes straight to the fallback.
        late = gateway.submit_sql_async("alice", engine, SQL)
        assert late.cluster_name == "shared"
        drive(gateway)
        assert late.handle.state == "finished"

    def test_drain_keeps_gateway_span_tree_well_formed(self):
        gateway, _, running, queued = self.setup_drain()
        gateway.drain_cluster("dedicated-a", "shared")
        drive(gateway)
        for submission in (running, *queued):
            trace = submission.handle.trace
            roots = [s for s in trace.spans if s.parent_id is None]
            assert [s.name for s in roots] == ["gateway.submit"]
            assert all(s.end_ms is not None for s in trace.spans)
            # Exactly one admission span: the evicted runs never opened
            # one on the drained cluster.
            admissions = trace.find("cluster.admission")
            assert len(admissions) == 1
            expected = submission.cluster_name
            assert admissions[0].attributes["cluster"] == expected


class TestSubmissionLifetime:
    def test_finished_submission_is_not_retained(self):
        # Neither the gateway nor the cluster pins a finished handle (and
        # with it the rows, trace and stats) once the caller lets go.
        gateway = make_gateway()
        submission = gateway.submit_sql_async("alice", make_engine(), SQL)
        drive(gateway)
        assert submission.handle.result().rows == make_engine().execute(SQL).rows
        handle = weakref.ref(submission.handle)
        del submission
        gc.collect()
        assert handle() is None

    def test_queued_submission_still_reroutes_after_others_finish(self):
        gateway, engine = make_gateway(), make_engine()
        gateway.clusters["dedicated-a"].resource_group("alice", max_running=1)
        first = gateway.submit_sql_async("alice", engine, SQL)
        gateway.clusters["dedicated-a"].run_until_idle()
        running = gateway.submit_sql_async("alice", engine, SQL)
        queued = gateway.submit_sql_async("alice", engine, SQL)
        gateway.drain_cluster("dedicated-a", "shared")
        assert first.handle.state == "finished"
        assert running.cluster_name == "dedicated-a"
        assert (queued.cluster_name, queued.attempts) == ("shared", 2)
        drive(gateway)
        assert queued.handle.result().rows == make_engine().execute(SQL).rows
