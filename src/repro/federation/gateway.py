"""The Presto gateway: HTTP-redirect cluster federation (section VIII).

"Using HTTP Redirect, we developed a presto gateway.  The gateway will
redirect incoming queries to specific presto clusters, based on user name
and group information."

The design deliberately embodies the section XII.B lesson — a *general*
gateway that proxied traffic, estimated cost, and did admission control
"could not scale" and "is a failure".  This gateway therefore only
resolves a route and answers with a redirect; the client then talks to
the chosen cluster's coordinator directly, so the gateway is never on the
query's data path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import AdmissionRejectedError, GatewayError, PrestoError
from repro.execution.cluster import PrestoClusterSim, QueryExecution
from repro.federation.routing import RoutingTable
from repro.obs.trace import QueryTrace, activate


@dataclass(frozen=True)
class Redirect:
    """An HTTP 307-style answer: resubmit to this cluster."""

    cluster_name: str
    status_code: int = 307


@dataclass
class GatewaySubmission:
    """One non-blocking gateway submission and where it currently lives.

    ``cluster_name``/``execution`` are updated if the gateway later
    re-routes the query (admission spill, drain eviction); ``handle``
    is the engine-side query and owns the result.
    """

    user: str
    handle: object  # repro.execution.engine.QueryHandle
    cluster_name: str
    execution: QueryExecution
    attempts: int = 1


class PrestoGateway:
    """Routing-only federation gateway over multiple cluster simulations."""

    def __init__(self, routing: Optional[RoutingTable] = None, metrics=None) -> None:
        self.routing = routing or RoutingTable()
        self.clusters: dict[str, PrestoClusterSim] = {}
        self._drained: set[str] = set()
        self._fallback: Optional[str] = None
        self.redirects_served = 0
        self.failovers = 0
        self.load_sheds = 0
        self.all_sheds = 0
        # Unfinished non-blocking submissions (submit_sql_async) by
        # handle, so a drain can re-route the still-queued ones.
        self._submissions: dict[object, GatewaySubmission] = {}
        # Optional observability: ``gateway_redirects_total``,
        # ``gateway_queries_routed_total{cluster}`` and
        # ``gateway_failovers_total{cluster}``.
        self.metrics = metrics

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # -- cluster management -----------------------------------------------------

    def register_cluster(self, cluster: PrestoClusterSim) -> None:
        self.clusters[cluster.name] = cluster

    def drain_cluster(self, name: str, fallback: str) -> None:
        """Maintenance: stop routing to ``name``, sending traffic to
        ``fallback`` — "we will redirect traffic either to shared cluster,
        or newly launched new cluster, to guarantee no downtime".

        Queries already *running* on the drained cluster finish in place
        (their splits keep draining through its workers); queries still
        sitting in its admission queue never executed a task, so the
        gateway evicts them and resubmits their handles to ``fallback``
        with no double-publish risk.
        """
        if fallback not in self.clusters:
            raise GatewayError(f"fallback cluster {fallback!r} not registered")
        self._drained.add(name)
        self._fallback = fallback
        drained = self.clusters.get(name)
        if drained is None:
            return
        target = self.clusters[fallback]
        for run in drained.evict_queued():
            self.failovers += 1
            self._count("gateway_failovers_total", cluster=name)
            # A group path is cluster-local; rebuild it (minus the "root."
            # prefix) on the fallback cluster's tree.
            relative = run.group.path.partition(".")[2] or None
            execution = target.submit_handle(
                run.handle,
                user=run.user,
                resource_group=relative,
                memory_mb=run.memory_mb,
                priority=run.priority,
                on_finish=run.on_finish,
            )
            submission = self._submissions.get(run.handle)
            if submission is not None:
                submission.cluster_name = fallback
                submission.execution = execution
                submission.attempts += 1

    def undrain_cluster(self, name: str) -> None:
        self._drained.discard(name)

    # -- request handling ----------------------------------------------------------

    def redirect(self, user: str, groups: tuple[str, ...] = ()) -> Redirect:
        """Resolve the target cluster and answer with a redirect."""
        self.redirects_served += 1
        self._count("gateway_redirects_total")
        cluster_name = self.routing.resolve(user, groups)
        if cluster_name in self._drained:
            cluster_name = self._fallback
        if cluster_name not in self.clusters:
            raise GatewayError(f"route points to unknown cluster {cluster_name!r}")
        return Redirect(cluster_name)

    def submit(
        self,
        user: str,
        split_durations_ms: list[float],
        groups: tuple[str, ...] = (),
    ) -> QueryExecution:
        """Client convenience: follow the redirect and submit directly.

        Note the two hops mirror production: the gateway answers instantly
        with a redirect and the query itself runs on the target coordinator.
        """
        redirect = self.redirect(user, groups)
        return self.clusters[redirect.cluster_name].submit_query(split_durations_ms)

    def submit_sql(
        self,
        user: str,
        engine,
        sql: str,
        groups: tuple[str, ...] = (),
        max_failovers: Optional[int] = None,
    ) -> tuple:
        """Follow the redirect and run a real query on the target cluster.

        A blocking loop over the non-blocking path: the query is planned
        on ``engine`` and admitted exactly as :meth:`submit_sql_async`
        does, then the gateway drives the cluster it landed on with
        :meth:`~repro.execution.cluster.PrestoClusterSim.run_until_idle`.
        Returns ``(QueryResult, QueryExecution)``.  Two consequences of
        sharing that path: a blocking call goes through the cluster's
        resource-group admission (it can queue, spill to another cluster,
        or be shed with :class:`AdmissionRejectedError`), and it drives
        the routed cluster until it is *idle* — other queries already
        admitted there run to completion too.

        Failover (the Twitter hybrid-cloud gateway pattern): when the run
        fails with a *retryable* error (INTERNAL_ERROR / EXTERNAL — the
        cluster or its infrastructure, not the query), the gateway
        resubmits to another registered, undrained cluster, up to
        ``max_failovers`` re-routes (default: every other cluster once).
        USER_ERRORs and INSUFFICIENT_RESOURCES fail fast — no amount of
        re-routing fixes a bad query or an over-large join.
        """
        cluster_name = self.redirect(user, groups).cluster_name
        if max_failovers is None:
            max_failovers = len(self.clusters) - 1
        # One trace per gateway submission, rooted at the routing hop:
        # every attempt plans under it, so a failed-over query's tree
        # shows every cluster it touched.
        tracer = QueryTrace() if getattr(engine, "tracing", False) else None
        span = tracer.open_span("gateway.submit", user=user) if tracer is not None else None
        tried: list[str] = []
        try:
            while True:
                tried.append(cluster_name)
                try:
                    with activate(tracer) if tracer is not None else nullcontext():
                        handle = engine.submit(sql)
                    submission = self._admit(user, handle, cluster_name)
                    tried[-1] = submission.cluster_name
                    self.clusters[submission.cluster_name].run_until_idle()
                    return handle.result(), submission.execution
                except PrestoError as error:
                    if not error.retryable:
                        raise
                    candidates = [
                        name
                        for name in self.clusters
                        if name not in tried and name not in self._drained
                    ]
                    if not candidates or len(tried) > max_failovers:
                        raise
                    self.failovers += 1
                    self._count("gateway_failovers_total", cluster=tried[-1])
                    cluster_name = candidates[0]
        finally:
            if span is not None:
                tracer.close_span(span)

    # -- non-blocking submission ------------------------------------------------

    def queue_depths(self) -> dict[str, int]:
        """Per-cluster admission-queue depth, surfaced to routing.

        Also refreshes the ``gateway_cluster_queue_depth`` gauges, so
        dashboards see what the router saw.
        """
        depths = {
            name: cluster.queued_query_count()
            for name, cluster in self.clusters.items()
        }
        if self.metrics is not None:
            for name, depth in depths.items():
                self.metrics.gauge("gateway_cluster_queue_depth", cluster=name).set(
                    depth
                )
        return depths

    def submit_sql_async(
        self,
        user: str,
        engine,
        sql: str,
        groups: tuple[str, ...] = (),
        resource_group: Optional[str] = None,
        memory_mb: float = 100.0,
        priority: int = 0,
    ) -> GatewaySubmission:
        """Route and admit ``sql`` without blocking on its execution.

        The gateway resolves the route, plans the query on ``engine``
        (coordinator work — synchronous, as in production), and admits
        the resulting handle to the target cluster's resource groups.
        Execution proceeds as the cluster's event loop is driven; the
        caller collects rows from ``submission.handle.result()``.

        If the routed cluster sheds the query at admission
        (:class:`AdmissionRejectedError`), the gateway *spills*: it
        retries the remaining undrained clusters from the shallowest
        admission queue up — the per-cluster queue depth surfaced by
        :meth:`queue_depths` is exactly what this decision reads.  If
        every cluster sheds, the rejection with the *minimum*
        ``retry_after_ms`` propagates to the client: the soonest any
        cluster expects capacity is when the client should retry, not
        whenever the last-tried (deepest-queued) cluster frees up.
        """
        redirect = self.redirect(user, groups)
        handle = engine.submit(sql)
        tracer = handle.trace
        span = tracer.open_span("gateway.submit", user=user) if tracer is not None else None

        def finished(run) -> None:
            # Only queued submissions are ever re-routed (drain); a
            # finished one must not pin its handle, rows and trace.
            self._submissions.pop(run.handle, None)
            if span is not None:
                tracer.close_span(span)

        try:
            submission = self._admit(
                user,
                handle,
                redirect.cluster_name,
                resource_group=resource_group,
                memory_mb=memory_mb,
                priority=priority,
                on_finish=finished,
            )
        except AdmissionRejectedError:
            if span is not None:
                tracer.close_span(span)
            raise
        self._submissions[handle] = submission
        return submission

    def _admit(self, user: str, handle, routed: str, **admission) -> GatewaySubmission:
        """Admit ``handle`` to the ``routed`` cluster, spilling on shed.

        ``admission`` keywords pass through to ``submit_handle``.  A shed
        (:class:`AdmissionRejectedError`) moves on to the remaining
        undrained clusters, shallowest admission queue first; if every
        cluster sheds, the rejection with the minimum ``retry_after_ms``
        propagates.
        """
        tracer = handle.trace
        depths = self.queue_depths()
        spill_order = [routed] + sorted(
            (name for name in self.clusters if name != routed and name not in self._drained),
            key=lambda name: (depths[name], name),
        )
        rejections: list[AdmissionRejectedError] = []
        for attempt, cluster_name in enumerate(spill_order, start=1):
            cluster = self.clusters[cluster_name]
            self._count("gateway_queries_routed_total", cluster=cluster_name)
            if tracer is not None:
                tracer.instant(
                    "gateway.route",
                    cluster=cluster_name,
                    attempt=attempt,
                    queue_depth=cluster.queued_query_count(),
                )
            try:
                execution = cluster.submit_handle(handle, user=user, **admission)
            except AdmissionRejectedError as error:
                rejections.append(error)
                self.load_sheds += 1
                self._count("gateway_load_shed_total", cluster=cluster_name)
                continue
            if attempt > 1:
                self.failovers += 1
                self._count("gateway_failovers_total", cluster=routed)
            return GatewaySubmission(
                user=user,
                handle=handle,
                cluster_name=cluster_name,
                execution=execution,
                attempts=attempt,
            )
        self.all_sheds += 1
        self._count("gateway_all_shed_total")
        raise min(rejections, key=lambda error: error.retry_after_ms)
