"""Tests for the shared contention-scheduler machinery: cache binding,
phi flags, URC utility export."""

import numpy as np
import pytest

from repro.cache.urc import URCPolicy
from repro.cluster.partition import MortonRangePartitioner
from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig, SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.prefetch import PrefetchingJAWSScheduler
from repro.core.qos import QoSJAWSScheduler
from repro.errors import InvariantViolation
from repro.engine.simulator import Simulator
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.storage.buffer import BufferCache
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.query import Query, preprocess_query

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=4)
MAPPER = AtomMapper(SPEC)
COST = CostModel(t_b=0.04, t_m=2e-5)


def arrival(scheduler, qid, center, n=20, timestep=0, t=0.0):
    q = Query(qid, qid, 0, 0, "velocity", timestep, np.array([center] * n, dtype=float))
    subs = preprocess_query(q, MAPPER, INTERP)
    scheduler.on_query_arrival(q, subs, t)
    return q, subs


class TestPhiFlags:
    def test_cached_atom_scheduled_first(self):
        """phi = 0 makes a cached atom's U_t jump to 1/T_m, so the
        scheduler consumes cheap in-memory work before disk work."""
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        cache = BufferCache(8, URCPolicy())
        s.bind_cache(cache)
        # Atom A gets a big queue (uncached); atom B small but cached.
        arrival(s, 0, [32.0, 32.0, 32.0], n=500)
        _, subs_b = arrival(s, 1, [100.0, 32.0, 32.0], n=5)
        cache.access(subs_b[0].atom_id, 0.0)  # B becomes resident
        batch = s.next_batch(1.0)
        assert batch.atoms[0][0] == subs_b[0].atom_id

    def test_eviction_flips_phi_back(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        cache = BufferCache(1, URCPolicy())
        s.bind_cache(cache)
        _, subs_a = arrival(s, 0, [32.0, 32.0, 32.0], n=5)
        _, subs_b = arrival(s, 1, [100.0, 32.0, 32.0], n=500)
        cache.access(subs_a[0].atom_id, 0.0)
        cache.access(subs_b[0].atom_id, 0.0)  # evicts A (capacity 1)
        batch = s.next_batch(1.0)
        assert batch.atoms[0][0] == subs_b[0].atom_id  # B cached now


class TestURCUtilityExport:
    def test_utility_ranks_pending_atoms_higher(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        cache = BufferCache(8, URCPolicy())
        s.bind_cache(cache)
        _, subs = arrival(s, 0, [32.0, 32.0, 32.0], n=100)
        hot = subs[0].atom_id
        idle = SPEC.atom_id(3, 63)
        fn = s.cache_utility_fn()
        assert fn(hot) > fn(idle)
        assert fn(idle) == (0.0, 0.0)

    def test_utility_uses_uncached_cost(self):
        """URC ranks by what re-reading would cost (phi=1), so bigger
        queues rank higher even among cached atoms."""
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        cache = BufferCache(8, URCPolicy())
        s.bind_cache(cache)
        _, subs_small = arrival(s, 0, [32.0, 32.0, 32.0], n=5, timestep=1)
        _, subs_big = arrival(s, 1, [100.0, 32.0, 32.0], n=500, timestep=2)
        fn = s.cache_utility_fn()
        assert fn(subs_big[0].atom_id) > fn(subs_small[0].atom_id)

    def test_urc_evicts_idle_atom_first(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        cache = BufferCache(2, URCPolicy())
        s.bind_cache(cache)
        _, subs = arrival(s, 0, [32.0, 32.0, 32.0], n=100)
        hot = subs[0].atom_id
        idle = SPEC.atom_id(3, 63)
        cache.access(hot, 0.0)
        cache.access(idle, 1.0)
        cache.access(SPEC.atom_id(3, 62), 2.0)  # full: must evict
        assert hot in cache
        assert idle not in cache

    def test_invalidation_on_queue_change(self):
        """New arrivals invalidate URC's memoized ranks."""
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        policy = URCPolicy()
        cache = BufferCache(2, policy)
        s.bind_cache(cache)
        _, subs_a = arrival(s, 0, [32.0, 32.0, 32.0], n=10)
        a = subs_a[0].atom_id
        cache.access(a, 0.0)
        b = SPEC.atom_id(2, 5)
        cache.access(b, 1.0)
        # Now b gains a much bigger queue than a -> must survive the
        # next eviction even though a was more recently ranked.
        from repro.morton.codec import morton_decode_scalar

        bx, by, bz = morton_decode_scalar(5)
        qb = Query(
            10, 10, 0, 0, "velocity", 2,
            np.array([[bx * 64 + 32.0, by * 64 + 32.0, bz * 64 + 32.0]] * 900),
        )
        s.on_query_arrival(qb, preprocess_query(qb, MAPPER, INTERP), 2.0)
        cache.access(SPEC.atom_id(3, 7), 3.0)  # forces eviction
        assert b in cache  # survived thanks to its new big queue


class TestConfigPlumbing:
    def test_alpha_property(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.7)
        assert s.current_alpha == 0.7

    def test_liferaft_overrides_config(self):
        cfg = SchedulerConfig(batch_size=20, two_level=True, adaptive_alpha=True)
        s = LifeRaftScheduler(SPEC, COST, cfg, alpha=0.3)
        assert s.config.batch_size == 1
        assert s.config.two_level is False
        assert s.config.adaptive_alpha is False
        assert s.config.alpha == 0.3


def _index_schedulers():
    cfg = SchedulerConfig(alpha=0.0, adaptive_alpha=False, batch_size=8, job_aware=True)
    return {
        "jaws2": lambda: JAWSScheduler(SPEC, COST, cfg),
        "liferaft": lambda: LifeRaftScheduler(SPEC, COST, alpha=0.0),
        "qos-jaws": lambda: QoSJAWSScheduler(SPEC, COST, cfg),
        "prefetch": lambda: PrefetchingJAWSScheduler(SPEC, COST, cfg),
    }


class TestQueryIndexLifetime:
    """A query's inverted-index entry lasts until it completes or is
    cancelled, under every queue-driven scheduler."""

    @pytest.mark.parametrize("name", sorted(_index_schedulers()))
    def test_completed_and_cancelled_queries_leave_no_entry(self, name):
        s = _index_schedulers()[name]()
        done, _ = arrival(s, 0, [32.0, 32.0, 32.0], n=30)
        arrival(s, 1, [100.0, 32.0, 32.0], n=30)
        assert set(s.queues._by_query) == {0, 1}
        s.cancel_query(1, 0.5)
        assert set(s.queues._by_query) == {0}
        while (batch := s.next_batch(1.0)) is not None and batch.atoms:
            pass
        assert set(s.queues._by_query) == {0}  # drained, not yet complete
        s.on_query_complete(done, 2.0)
        assert s.queues._by_query == {}

    @pytest.mark.parametrize("name", sorted(_index_schedulers()))
    def test_no_entry_outlives_a_faulty_cluster_run(self, name):
        """Four nodes, transient faults and lost atoms, a node crash with
        failover and query deadlines: completions and cancellations
        empty every node's index."""
        trace = generate_trace(SPEC, WorkloadParams(n_jobs=12, span=120.0, seed=4))
        faults = FaultConfig(
            seed=5, transient_fault_rate=0.05, permanent_loss_rate=0.01, replication=2,
            node_crashes=((1, 50.0, 90.0),), query_deadline=1.0,
        )
        engine = EngineConfig(
            cost=COST, cache=CacheConfig(capacity_atoms=16), run_length=10, faults=faults,
            sanitize=True,
        )
        partitioner = MortonRangePartitioner(SPEC, 4, replication=2)
        schedulers = [_index_schedulers()[name]() for _ in range(4)]
        sim = Simulator(
            trace, schedulers, engine,
            node_of=partitioner.node_of, replicas_of=partitioner.replicas_of,
        )
        result = sim.run()
        assert result.n_queries > 0 and result.cancelled_queries > 0
        assert result.failovers > 0
        assert all(s.queues._by_query == {} for s in schedulers)

    def test_sanitizer_catches_a_leaked_entry(self):
        """An ``on_query_complete`` override that skips ``super()`` keeps
        the entry; the sanitizer reports it at the completing event."""

        class Leaky(LifeRaftScheduler):
            def on_query_complete(self, query, now):
                pass

        trace = generate_trace(SPEC, WorkloadParams(n_jobs=3, span=30.0, seed=4))
        engine = EngineConfig(cost=COST, cache=CacheConfig(capacity_atoms=16), sanitize=True)
        sim = Simulator(trace, [Leaky(SPEC, COST, alpha=0.0)], engine)
        with pytest.raises(InvariantViolation, match="ended query"):
            sim.run()
