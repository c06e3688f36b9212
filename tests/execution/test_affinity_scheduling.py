"""Affinity scheduling and the worker data cache (section VII, RaptorX)."""

from repro.common.clock import SimulatedClock
from repro.execution.cluster import PrestoClusterSim


def run_repeated_workload(affinity: bool, rounds: int = 6, noisy: bool = False):
    cluster = PrestoClusterSim(
        workers=4,
        slots_per_worker=2,
        clock=SimulatedClock(),
        affinity_scheduling=affinity,
    )
    keys = [f"/warehouse/t/part-{i}.parquet" for i in range(8)]
    latencies = []
    for round_index in range(rounds):
        if noisy:
            # Background load shifts least-loaded placement between
            # rounds; affinity placement stays pinned to the key hash.
            cluster.submit_query([30.0 + 17.0 * (round_index % 3)] * (round_index % 5 + 1))
        execution = cluster.submit_query([100.0] * len(keys), split_keys=keys)
        cluster.run_until_idle()
        latencies.append(execution.latency_ms)
    hits = sum(w.cache_hits for w in cluster.workers.values())
    return cluster, latencies, hits


class TestAffinityScheduling:
    def test_affinity_routes_same_key_to_same_worker(self):
        cluster, _, hits = run_repeated_workload(affinity=True)
        # After the first round every split is a cache hit.
        assert hits >= 8 * 5

    def test_no_affinity_scatters_keys_under_noise(self):
        _, _, affinity_hits = run_repeated_workload(affinity=True, noisy=True)
        _, _, random_hits = run_repeated_workload(affinity=False, noisy=True)
        # Least-loaded placement still gets incidental hits, but fewer.
        assert affinity_hits > random_hits

    def test_cache_hits_cut_latency(self):
        _, latencies, _ = run_repeated_workload(affinity=True)
        assert latencies[-1] < latencies[0]

    def test_split_keys_length_validated(self):
        import pytest

        from repro.common.errors import ExecutionError

        cluster = PrestoClusterSim(workers=1)
        with pytest.raises(ExecutionError):
            cluster.submit_query([1.0, 2.0], split_keys=["only-one"])

    def test_split_sizes_charge_the_worker_cache(self):
        # A split with no size is charged the cache's default entry
        # estimate, not zero bytes; a sized split is charged its size.
        cluster = PrestoClusterSim(workers=1, clock=SimulatedClock())
        cluster.submit_query([5.0], split_keys=["unsized"])
        cluster.submit_query([5.0], split_keys=["sized"], split_sizes=[4096])
        cluster.run_until_idle()
        cache = next(iter(cluster.workers.values())).data_cache
        default = cluster.data_cache_config.default_entry_bytes
        assert cache.hot.used_bytes == default + 4096

    def test_affinity_falls_back_when_preferred_busy(self):
        cluster = PrestoClusterSim(
            workers=2, slots_per_worker=1, clock=SimulatedClock(), affinity_scheduling=True
        )
        # All splits share one key: the preferred worker has one slot, so
        # the scheduler must still use the other worker to make progress.
        execution = cluster.submit_query([50.0] * 6, split_keys=["k"] * 6)
        cluster.run_until_idle()
        assert execution.finished_at is not None
        busy_counts = [w.completed_splits for w in cluster.workers.values()]
        assert all(c > 0 for c in busy_counts)
