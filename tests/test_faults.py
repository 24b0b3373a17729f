"""Fault injection, retry/backoff, node failover and query deadlines.

The load-bearing properties:

* **zero-fault equivalence** — a disabled ``FaultConfig`` leaves every
  result bit-identical to a run with no fault config at all;
* **determinism** — same trace + seed + ``FaultConfig`` ⇒ identical
  results, for any fault mix;
* **conservation** — under any fault schedule every query is accounted
  for exactly once: ``trace.n_queries == completed + cancelled(arrived)
  + aborted(unarrived)``, and all workload queues drain.
"""

import numpy as np
import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.cluster.cluster import run_cluster
from repro.core.base import Scheduler
from repro.engine.runner import make_scheduler, run_trace
from repro.engine.simulator import Simulator
from repro.errors import LivelockError, SimTimeExceededError, SimulationError
from repro.grid.dataset import DatasetSpec
from repro.storage.disk import DiskModel
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(**kwargs):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        **kwargs,
    )


def assert_conserved(trace, result):
    """Every query ends in exactly one bucket; nothing is queued."""
    unarrived = result.faults.get("aborted_unarrived_queries", 0)
    assert trace.n_queries == result.n_queries + result.cancelled_queries + unarrived


class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_fault_rate": 0.1},
            {"permanent_loss_rate": 0.01},
            {"slow_read_rate": 0.2},
            {"node_crashes": ((0, 1.0, 2.0),)},
            {"query_deadline": 30.0},
        ],
    )
    def test_any_fault_source_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    def test_replication_alone_does_not_enable(self):
        assert not FaultConfig(replication=3).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_fault_rate": 1.5},
            {"permanent_loss_rate": -0.1},
            {"slow_read_factor": 0.5},
            {"max_retries": -1},
            {"backoff_factor": 0.9},
            {"backoff_jitter": 2.0},
            {"circuit_breaker_threshold": 0},
            {"query_deadline": 0.0},
            {"replication": 0},
            {"node_crashes": ((0, 5.0, 2.0),)},
            {"node_crashes": ((0, 1.0),)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_crash_schedule_normalized_to_tuples(self):
        cfg = FaultConfig(node_crashes=[[1, 2.0, 3.0]])
        assert cfg.node_crashes == ((1, 2.0, 3.0),)


class TestZeroFaultEquivalence:
    @pytest.mark.parametrize("name", ("noshare", "liferaft2", "jaws2"))
    def test_disabled_config_changes_nothing(self, name):
        trace = small_trace(seed=5)
        base = run_trace(trace, name, engine())
        explicit = run_trace(trace, name, engine(), faults=FaultConfig())
        assert base.makespan == explicit.makespan
        np.testing.assert_array_equal(base.response_times, explicit.response_times)
        assert base.disk == explicit.disk
        assert base.cache == explicit.cache
        assert explicit.retries == 0 and explicit.failovers == 0
        assert explicit.faults.get("transient_faults", 0) == 0

    def test_zero_fault_invariants_still_hold(self):
        eng = engine()
        result = run_trace(small_trace(seed=7), "noshare", eng, faults=FaultConfig())
        assert result.cache["misses"] == result.disk["reads"]
        assert result.disk["seconds"] == pytest.approx(result.disk["reads"] * eng.cost.t_b)


class TestTransientFaults:
    def test_retries_happen_and_everything_completes(self):
        trace = small_trace(seed=1)
        result = run_trace(
            trace, "jaws2", engine(), faults=FaultConfig(seed=3, transient_fault_rate=0.05)
        )
        assert result.n_queries == trace.n_queries
        assert result.retries > 0
        assert result.faults["transient_faults"] > 0
        assert result.availability == 1.0
        assert_conserved(trace, result)

    def test_faults_cost_virtual_time(self):
        trace = small_trace(seed=1)
        clean = run_trace(trace, "liferaft2", engine())
        faulty = run_trace(
            trace, "liferaft2", engine(), faults=FaultConfig(seed=3, transient_fault_rate=0.1)
        )
        # Failed attempts charge disk time and backoff, so total disk
        # seconds strictly exceed the clean run's.
        assert faulty.disk["seconds"] > clean.disk["seconds"]
        assert faulty.disk["failed_reads"] > 0

    def test_slow_reads_counted_and_charged(self):
        trace = small_trace(seed=2)
        clean = run_trace(trace, "liferaft2", engine())
        slow = run_trace(
            trace,
            "liferaft2",
            engine(),
            faults=FaultConfig(seed=3, slow_read_rate=0.3, slow_read_factor=5.0),
        )
        assert slow.faults["slow_reads"] > 0
        assert slow.disk["seconds"] > clean.disk["seconds"]
        assert slow.n_queries == trace.n_queries

    def test_circuit_breaker_degrades_disk(self):
        trace = small_trace(seed=2)
        result = run_trace(
            trace,
            "liferaft2",
            engine(),
            faults=FaultConfig(
                seed=3,
                transient_fault_rate=0.6,
                max_retries=8,
                circuit_breaker_threshold=2,
                backoff_base=1e-4,
            ),
        )
        assert result.faults["degraded_nodes"] == 1
        assert result.n_queries == trace.n_queries

    def test_exhausted_retries_requeue_not_livelock(self):
        trace = small_trace(seed=4, n_jobs=8)
        result = run_trace(
            trace,
            "liferaft2",
            engine(),
            faults=FaultConfig(seed=9, transient_fault_rate=0.3, max_retries=0),
        )
        # Every transient failure abandons the read immediately and the
        # sub-query re-enters the queue for a fresh attempt.
        assert result.faults["retries_exhausted"] > 0
        assert result.faults["requeued_subqueries"] > 0
        assert result.n_queries == trace.n_queries


class TestDeterminism:
    @pytest.mark.parametrize("name", ("noshare", "liferaft2", "jaws2"))
    def test_same_seed_same_result(self, name):
        trace = small_trace(seed=5)
        faults = FaultConfig(
            seed=11,
            transient_fault_rate=0.08,
            slow_read_rate=0.05,
            permanent_loss_rate=0.002,
            replication=2,
            node_crashes=((1, 3.0, 20.0),),
        )
        runs = [
            run_cluster(trace, name, 4, engine=engine(), faults=faults).result
            for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        np.testing.assert_array_equal(runs[0].response_times, runs[1].response_times)
        assert runs[0].faults == runs[1].faults
        assert runs[0].retries == runs[1].retries
        assert runs[0].failovers == runs[1].failovers

    def test_different_seed_different_faults(self):
        trace = small_trace(seed=5)
        a = run_trace(
            trace, "liferaft2", engine(), faults=FaultConfig(seed=1, transient_fault_rate=0.05)
        )
        b = run_trace(
            trace, "liferaft2", engine(), faults=FaultConfig(seed=2, transient_fault_rate=0.05)
        )
        assert a.faults["transient_faults"] != b.faults["transient_faults"]


class TestConservation:
    @pytest.mark.parametrize("name", ("noshare", "liferaft2", "jaws2"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_conserved_under_mixed_faults(self, name, seed):
        trace = small_trace(seed=seed, n_jobs=12)
        faults = FaultConfig(
            seed=seed + 40,
            transient_fault_rate=0.05,
            permanent_loss_rate=0.005,
            replication=2,
            query_deadline=25.0,
            node_crashes=((0, 2.0, 10.0),),
        )
        eng = engine()
        schedulers = [make_scheduler(name, trace, eng) for _ in range(3)]
        from repro.cluster.partition import MortonRangePartitioner

        part = MortonRangePartitioner(trace.spec, 3, replication=2)
        sim = Simulator(
            trace,
            schedulers,
            eng.with_(faults=faults),
            node_of=part.node_of,
            replicas_of=part.replicas_of,
        )
        result = sim.run()
        assert_conserved(trace, result)
        assert all(n.scheduler.queue_depth() == 0 for n in sim.nodes)
        assert all(not n.busy for n in sim.nodes)

    def test_data_loss_without_replicas_cancels(self):
        trace = small_trace(seed=3)
        result = run_trace(
            trace,
            "liferaft2",
            engine(),
            faults=FaultConfig(seed=21, permanent_loss_rate=0.05),
        )
        assert result.faults["data_loss_cancels"] > 0
        assert result.cancelled_queries > 0
        assert result.availability < 1.0
        assert_conserved(trace, result)


class TestFailover:
    def test_crash_fails_over_to_replicas(self):
        trace = small_trace(seed=5, n_jobs=20)
        faults = FaultConfig(seed=7, replication=2, node_crashes=((1, 1.0, 40.0),))
        out = run_cluster(trace, "jaws2", 4, engine=engine(), faults=faults)
        result = out.result
        assert result.failovers > 0
        assert result.faults["node_downs"] == 1
        assert result.availability >= 0.9
        assert_conserved(trace, result)

    def test_crash_without_replicas_defers_until_recovery(self):
        trace = small_trace(seed=5, n_jobs=20)
        faults = FaultConfig(seed=7, node_crashes=((1, 1.0, 40.0),))
        out = run_cluster(trace, "jaws2", 4, engine=engine(), faults=faults)
        result = out.result
        # replication=1: the downed node's work has nowhere to go and
        # parks until the node recovers.
        assert result.faults["deferred_subqueries"] > 0
        assert result.n_queries == trace.n_queries

    def test_permanent_outage_ends_with_the_last_completion(self):
        # up_time = inf: the node never returns.  Its work fails over to
        # the replica and the run ends once nothing is pending; the
        # recovery event at t = inf is never dispatched, so it cannot
        # trip the max_sim_time bound.
        trace = small_trace(seed=5, n_jobs=20)
        faults = FaultConfig(seed=7, replication=2, node_crashes=((1, 1.0, float("inf")),))
        result = run_cluster(trace, "jaws2", 4, engine=engine(), faults=faults).result
        assert result.failovers > 0
        assert result.n_queries == trace.n_queries
        assert_conserved(trace, result)

    def test_outage_past_sim_bound_raises(self):
        # A node down until far past max_sim_time: its deferred work
        # waits for the recovery, and the clock bound trips first.
        trace = small_trace(seed=5, n_jobs=5)
        faults = FaultConfig(seed=7, node_crashes=((0, 0.5, 1e8),))
        eng = engine(max_sim_time=1e6).with_(faults=faults)
        schedulers = [make_scheduler("liferaft2", trace, eng) for _ in range(2)]
        from repro.cluster.partition import MortonRangePartitioner

        part = MortonRangePartitioner(trace.spec, 2)
        sim = Simulator(trace, schedulers, eng, node_of=part.node_of)
        with pytest.raises(SimTimeExceededError, match="max_sim_time") as exc:
            sim.run()
        assert exc.value.pending_queries  # the deferred work is visible

    def test_crash_schedule_bounds_checked(self):
        trace = small_trace(seed=5, n_jobs=5)
        eng = engine().with_(faults=FaultConfig(node_crashes=((7, 1.0, 2.0),)))
        with pytest.raises(ValueError, match="names node 7"):
            Simulator(trace, [make_scheduler("noshare", trace, eng)], eng)


class TestDeadlines:
    def test_overdue_queries_cancel_and_jobs_abort(self):
        trace = small_trace(seed=6, n_jobs=20)
        faults = FaultConfig(seed=13, query_deadline=0.4)
        result = run_trace(trace, "jaws2", engine(), faults=faults)
        assert result.timeouts > 0
        assert result.cancelled_queries >= result.timeouts
        assert_conserved(trace, result)

    def test_generous_deadline_changes_nothing(self):
        trace = small_trace(seed=6)
        clean = run_trace(trace, "jaws2", engine())
        bounded = run_trace(
            trace, "jaws2", engine(), faults=FaultConfig(query_deadline=1e6)
        )
        assert bounded.timeouts == 0
        assert bounded.n_queries == trace.n_queries
        np.testing.assert_array_equal(clean.response_times, bounded.response_times)

    def test_ordered_job_tail_aborts(self):
        trace = small_trace(seed=6, n_jobs=20)
        result = run_trace(
            trace, "liferaft2", engine(), faults=FaultConfig(query_deadline=0.4)
        )
        if result.aborted_jobs:
            assert result.faults["aborted_unarrived_queries"] > 0
        assert_conserved(trace, result)


class TestAcceptanceScenario:
    def test_four_node_cluster_with_faults_and_crash(self):
        """The issue's bar: 4 nodes, <=5% transient faults, one
        mid-trace crash/recovery — jaws2 completes, retries and
        failovers are visible, availability >= 0.9."""
        trace = small_trace(seed=5, n_jobs=25)
        faults = FaultConfig(
            seed=17,
            transient_fault_rate=0.05,
            replication=2,
            node_crashes=((2, 2.0, 30.0),),
        )
        out = run_cluster(trace, "jaws2", 4, engine=engine(), faults=faults)
        result = out.result
        assert result.retries > 0
        assert result.failovers > 0
        assert result.availability >= 0.9
        assert_conserved(trace, result)


class TestDiskResetLocality:
    def test_reset_breaks_sequential_discount(self):
        cost = CostModel(t_b=0.02, seq_discount=0.5)
        disk = DiskModel(cost, n_atoms=16)
        disk.read_atom(3)
        assert disk.read_atom(4) == pytest.approx(cost.t_b * cost.seq_discount)
        disk.reset_locality()
        assert disk.read_atom(5) == pytest.approx(cost.t_b)

    def test_failed_read_resets_locality_and_counts(self):
        cost = CostModel(t_b=0.02, seq_discount=0.5)
        disk = DiskModel(cost, n_atoms=16)
        disk.read_atom(3)
        penalty = disk.failed_read(4)
        assert penalty == pytest.approx(cost.t_b)
        assert disk.stats.failed_reads == 1
        assert disk.read_atom(4) == pytest.approx(cost.t_b)  # discount gone

    def test_degrade_is_sticky_and_monotone(self):
        cost = CostModel(t_b=0.02)
        disk = DiskModel(cost, n_atoms=16)
        disk.degrade(2.0)
        disk.degrade(1.5)  # weaker request never un-degrades
        assert disk.read_atom(0) == pytest.approx(cost.t_b * 2.0)


class _StuckScheduler(Scheduler):
    """Claims pending work but never yields a batch (livelock probe)."""

    name = "stuck"

    def on_query_arrival(self, query, subqueries, now):
        self._stash = subqueries

    def next_batch(self, now):
        return None

    def has_pending(self):
        return True

    def queue_depth(self):
        return 99


class TestTypedErrors:
    def test_sim_time_exceeded_carries_state(self):
        eng = engine(max_sim_time=1.0)
        with pytest.raises(SimTimeExceededError, match="max_sim_time") as exc:
            run_trace(small_trace(seed=1), "noshare", eng)
        err = exc.value
        assert isinstance(err, SimulationError)
        assert isinstance(err, RuntimeError)  # legacy catch sites still work
        assert err.clock > 1.0
        assert isinstance(err.pending_queries, list)
        assert err.queue_depths == [0] or err.queue_depths[0] >= 0
        assert len(err.busy_flags) == 1

    def test_livelock_carries_state(self):
        trace = small_trace(seed=1, n_jobs=3)
        sim = Simulator(trace, [_StuckScheduler()], engine())
        with pytest.raises(LivelockError, match="livelock") as exc:
            sim.run()
        assert exc.value.queue_depths == [99]
        assert exc.value.pending_queries

    def test_message_mentions_pending_ids(self):
        trace = small_trace(seed=1, n_jobs=3)
        sim = Simulator(trace, [_StuckScheduler()], engine())
        with pytest.raises(LivelockError, match=r"pending"):
            sim.run()


class TestAlphaHistories:
    def test_per_node_histories_collected(self):
        trace = small_trace(seed=9, n_jobs=20)
        out = run_cluster(trace, "jaws2", 2, engine=engine())
        result = out.result
        assert len(result.alpha_histories) == 2
        assert result.alpha_history == result.alpha_histories[0]
        # Nodes adapt independently: each history matches the runs.
        for history in result.alpha_histories:
            assert len(history) == len(result.runs)

    def test_single_node_shape_unchanged(self):
        result = run_trace(small_trace(seed=9, n_jobs=20), "jaws2", engine())
        assert result.alpha_histories == [result.alpha_history]
