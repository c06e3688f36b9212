"""Tests for the federation gateway and routing table (section VIII)."""

import pytest

from repro.common.errors import (
    ExecutionError,
    GatewayError,
    InsufficientResourcesError,
    SemanticError,
)
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.federation.gateway import PrestoGateway
from repro.federation.routing import RoutingTable
from repro.planner.analyzer import Session


def make_gateway():
    gateway = PrestoGateway()
    for name in ("dedicated-a", "dedicated-b", "shared"):
        gateway.register_cluster(PrestoClusterSim(workers=2, name=name))
    gateway.routing.assign_user("alice", "dedicated-a")
    gateway.routing.assign_group("analytics", "dedicated-b")
    gateway.routing.set_default("shared")
    return gateway


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=10)
    connector.create_table("db", "t", [("v", BIGINT)], [(i,) for i in range(30)])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


class FlakyEngine:
    """Engine stub: raises a configured error for the first N submissions,
    then delegates to a real engine."""

    def __init__(self, failures, error_factory):
        self.calls = 0
        self.failures = failures
        self.error_factory = error_factory
        self.real = make_engine()

    def submit(self, sql):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error_factory()
        return self.real.submit(sql)


class TestRoutingTable:
    def test_user_mapping_wins(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        routing.assign_group("team", "b")
        routing.set_default("c")
        assert routing.resolve("alice", ("team",)) == "a"

    def test_group_mapping(self):
        routing = RoutingTable()
        routing.assign_group("team", "b")
        routing.set_default("c")
        assert routing.resolve("bob", ("team",)) == "b"

    def test_default(self):
        routing = RoutingTable()
        routing.set_default("c")
        assert routing.resolve("carol") == "c"

    def test_no_route(self):
        with pytest.raises(GatewayError):
            RoutingTable().resolve("nobody")

    def test_reassignment_is_dynamic(self):
        # "Presto administrators could play with MySQL to dynamically
        # redirect any traffic to any cluster."
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        assert routing.resolve("alice") == "a"
        routing.assign_user("alice", "b")
        assert routing.resolve("alice") == "b"

    def test_mapping_stored_in_mysql(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        rows = routing.mysql.execute(
            "presto_gateway", "routing", ["principal", "cluster"]
        )
        assert ("alice", "a") in rows

    def test_remove(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        routing.set_default("shared")
        routing.remove("alice")
        assert routing.resolve("alice") == "shared"


class TestGateway:
    def test_redirect_not_proxy(self):
        gateway = make_gateway()
        redirect = gateway.redirect("alice")
        assert redirect.cluster_name == "dedicated-a"
        assert redirect.status_code == 307

    def test_submit_follows_redirect(self):
        gateway = make_gateway()
        execution = gateway.submit("alice", [10.0])
        gateway.clusters["dedicated-a"].run_until_idle()
        assert execution.finished_at is not None
        assert execution.query_id.startswith("dedicated-a")

    def test_group_routing(self):
        gateway = make_gateway()
        assert gateway.redirect("bob", ("analytics",)).cluster_name == "dedicated-b"

    def test_default_routing(self):
        gateway = make_gateway()
        assert gateway.redirect("random-user").cluster_name == "shared"

    def test_drain_for_maintenance(self):
        # "When we are doing cluster maintenance or software upgrade, we
        # will redirect traffic ... to guarantee no downtime."
        gateway = make_gateway()
        gateway.drain_cluster("dedicated-a", fallback="shared")
        assert gateway.redirect("alice").cluster_name == "shared"
        gateway.undrain_cluster("dedicated-a")
        assert gateway.redirect("alice").cluster_name == "dedicated-a"

    def test_unknown_cluster_route_rejected(self):
        gateway = make_gateway()
        gateway.routing.assign_user("dave", "no-such-cluster")
        with pytest.raises(GatewayError):
            gateway.redirect("dave")

    def test_gateway_is_stateless_per_query(self):
        gateway = make_gateway()
        for _ in range(10):
            gateway.submit("random", [5.0])
        assert gateway.redirects_served == 10


class TestGatewayFailover:
    def test_retryable_failure_fails_over_to_next_cluster(self):
        gateway = make_gateway()
        engine = FlakyEngine(1, lambda: ExecutionError("worker pool collapsed"))
        result, execution = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        assert engine.calls == 2
        assert gateway.failovers == 1
        # Routed to dedicated-a first; the rerun landed on the next
        # registered, undrained cluster.
        assert execution.query_id.startswith("dedicated-b")
        assert result.rows == [(sum(range(30)),)]

    def test_user_error_fails_fast_without_failover(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: SemanticError("no such column"))
        with pytest.raises(SemanticError):
            gateway.submit_sql("alice", engine, "SELECT nope FROM t")
        assert engine.calls == 1
        assert gateway.failovers == 0

    def test_insufficient_resources_fails_fast(self):
        # Re-routing does not shrink an over-large join (section XII.C).
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: InsufficientResourcesError("query too big"))
        with pytest.raises(InsufficientResourcesError):
            gateway.submit_sql("alice", engine, "SELECT v FROM t")
        assert engine.calls == 1
        assert gateway.failovers == 0

    def test_exhausting_all_clusters_surfaces_the_error(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: ExecutionError("still down"))
        with pytest.raises(ExecutionError):
            gateway.submit_sql("alice", engine, "SELECT v FROM t")
        assert engine.calls == 3  # every registered cluster tried once
        assert gateway.failovers == 2

    def test_max_failovers_zero_disables_rerouting(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: ExecutionError("down"))
        with pytest.raises(ExecutionError):
            gateway.submit_sql("alice", engine, "SELECT v FROM t", max_failovers=0)
        assert engine.calls == 1

    def test_drained_cluster_excluded_from_failover(self):
        gateway = make_gateway()
        gateway.drain_cluster("dedicated-b", fallback="shared")
        engine = FlakyEngine(1, lambda: ExecutionError("down"))
        _, execution = gateway.submit_sql("alice", engine, "SELECT v FROM t")
        assert execution.query_id.startswith("shared")
        assert gateway.failovers == 1

    def test_blocking_call_goes_through_admission(self):
        gateway = make_gateway()
        result, execution = gateway.submit_sql("alice", make_engine(), "SELECT sum(v) FROM t")
        assert result.rows == [(sum(range(30)),)]
        assert (execution.user, execution.resource_group) == ("alice", "root.alice")

    def test_blocking_call_drives_routed_cluster_until_idle(self):
        gateway = make_gateway()
        engine = make_engine()
        earlier = gateway.submit_sql_async("alice", engine, "SELECT v FROM t")
        gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        assert earlier.handle.state == "finished"

    def test_injected_faults_drive_real_failover(self):
        # End-to-end: retries disabled, so the injected INTERNAL_ERROR on
        # the first engine run escapes to the gateway, which reruns the
        # query on another cluster — where it deterministically succeeds
        # (seed 18 fails query-0, passes query-1).
        gateway = make_gateway()
        engine = make_engine(
            fault_injector=FaultInjector(seed=18, task_failure_rate=0.05),
            max_task_retries=0,
        )
        result, execution = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        assert gateway.failovers == 1
        assert execution.query_id.startswith("dedicated-b")
        assert result.rows == [(sum(range(30)),)]
