"""Tests for the §VII future-work extensions: QoS deadlines,
trajectory prefetching, and job encapsulation."""

import numpy as np
import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, SchedulerConfig
from repro.core.prefetch import PrefetchingJAWSScheduler, TrajectoryPredictor
from repro.core.qos import QoSJAWSScheduler
from repro.engine.runner import run_trace
from repro.experiments.common import (
    ExperimentScale,
    standard_engine,
    standard_scheduler_config,
    standard_trace,
)
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.workload.encapsulated import encapsulate_trace
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.query import Query
from repro.workload.trace import Trace

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=8, atoms_per_axis=4)
COST = CostModel(t_b=0.02, t_m=1e-5)


def engine():
    return EngineConfig(cost=COST, cache=CacheConfig(capacity_atoms=32), run_length=20)


def tracking_heavy_trace(seed=0, n_jobs=25):
    return generate_trace(
        SPEC,
        WorkloadParams(
            n_jobs=n_jobs,
            span=200.0,
            frac_tracking=0.5,
            frac_batched=0.2,
            think_time_mean=3.0,
            seed=seed,
        ),
    )


def cfg(**kw):
    base = dict(alpha=0.0, adaptive_alpha=False, batch_size=8, job_aware=True)
    base.update(kw)
    return SchedulerConfig(**base)


class TestQoSScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            QoSJAWSScheduler(SPEC, COST, cfg(), slack_factor=0)
        with pytest.raises(ValueError):
            QoSJAWSScheduler(SPEC, COST, cfg(), lookahead=-1)

    def test_all_queries_complete(self):
        trace = tracking_heavy_trace(seed=1)
        s = QoSJAWSScheduler(SPEC, COST, cfg())
        result = run_trace(trace, s, engine())
        assert result.n_queries == trace.n_queries
        assert s.completed == trace.n_queries
        # Pinned results: deadlines and urgent atoms are read from the
        # sub-query records' columns without changing any of them.
        assert (s.completed, s.deadline_misses) == (171, 18)
        assert s.total_tardiness.hex() == "0x1.f4fb3bb25fa36p+9"
        assert float(sum(result.response_times)).hex() == "0x1.0488339fb8a51p+11"

    def test_deadlines_proportional_to_size(self):
        s = QoSJAWSScheduler(SPEC, COST, cfg(), slack_factor=10.0)
        small = Query(0, 0, 0, 0, "velocity", 0, np.full((5, 3), 32.0))
        big = Query(1, 1, 0, 0, "velocity", 0, np.full((500, 3), 100.0))
        from repro.grid.atoms import AtomMapper
        from repro.workload.query import preprocess_query

        mapper = AtomMapper(SPEC)
        s.on_query_arrival(small, preprocess_query(small, mapper, INTERP), 0.0)
        s.on_query_arrival(big, preprocess_query(big, mapper, INTERP), 0.0)
        assert s._deadline[0] < s._deadline[1]

    def test_tight_slack_reduces_tardiness(self):
        """QoS scheduling reduces miss rate / tardiness vs plain JAWS
        (same deadline bookkeeping, urgency disabled via huge lookahead
        exclusion)."""
        trace = tracking_heavy_trace(seed=2, n_jobs=35).rescale(6.0)
        slack = 40.0
        qos = QoSJAWSScheduler(SPEC, COST, cfg(), slack_factor=slack, lookahead=10.0)
        run_trace(trace, qos, engine())
        # Plain JAWS with the same deadlines but no urgency override:
        baseline = QoSJAWSScheduler(SPEC, COST, cfg(), slack_factor=slack, lookahead=0.0)
        baseline.next_batch = lambda now, _s=baseline: super(
            QoSJAWSScheduler, _s
        ).next_batch(now)
        run_trace(trace, baseline, engine())
        assert qos.mean_tardiness <= baseline.mean_tardiness * 1.05

    def test_urgent_atom_scheduled_first(self):
        s = QoSJAWSScheduler(SPEC, COST, cfg(), slack_factor=0.001, lookahead=100.0)
        from repro.grid.atoms import AtomMapper
        from repro.workload.query import preprocess_query

        mapper = AtomMapper(SPEC)
        urgent = Query(0, 0, 0, 0, "velocity", 0, np.full((3, 3), 32.0))
        hot = Query(1, 1, 0, 0, "velocity", 1, np.full((900, 3), 100.0))
        s.on_query_arrival(hot, preprocess_query(hot, mapper, INTERP), 0.0)
        s.on_query_arrival(urgent, preprocess_query(urgent, mapper, INTERP), 0.0)
        batch = s.next_batch(50.0)
        owners = {sq.query.query_id for _, subs in batch.atoms for sq in subs}
        assert 0 in owners  # the near-deadline query won over the hot atom


class TestTrajectoryPredictor:
    def test_needs_two_observations(self):
        p = TrajectoryPredictor(SPEC)
        q = Query(0, 7, 0, 0, "interp", 0, np.full((4, 3), 32.0))
        p.observe(q)
        assert p.predict_atoms(7) == []

    def test_predicts_translated_box(self):
        p = TrajectoryPredictor(SPEC)
        q0 = Query(0, 7, 0, 0, "interp", 0, np.full((4, 3), 10.0))
        q1 = Query(1, 7, 1, 0, "interp", 1, np.full((4, 3), 74.0))  # +64/step
        p.observe(q0)
        p.observe(q1)
        atoms = p.predict_atoms(7)
        # Next box around 138 -> atom coord 2 on each axis, timestep 2.
        expected_morton = int(
            SPEC.morton_index().encode(np.array([2]), np.array([2]), np.array([2]))[0]
        )
        assert SPEC.atom_id(2, expected_morton) in atoms

    def test_no_prediction_past_last_timestep(self):
        p = TrajectoryPredictor(SPEC)
        q0 = Query(0, 7, 0, 0, "interp", SPEC.n_timesteps - 2, np.full((4, 3), 10.0))
        q1 = Query(1, 7, 1, 0, "interp", SPEC.n_timesteps - 1, np.full((4, 3), 12.0))
        p.observe(q0)
        p.observe(q1)
        assert p.predict_atoms(7) == []

    def test_forget(self):
        p = TrajectoryPredictor(SPEC)
        q = Query(0, 7, 0, 0, "interp", 0, np.full((4, 3), 32.0))
        p.observe(q)
        p.forget(7)
        assert p.predict_atoms(7) == []


class TestPrefetchingScheduler:
    def test_all_queries_complete_and_prediction_tracked(self):
        trace = tracking_heavy_trace(seed=3)
        s = PrefetchingJAWSScheduler(SPEC, COST, cfg())
        result = run_trace(trace, s, engine())
        assert result.n_queries == trace.n_queries
        assert s.prefetched_atoms > 0
        assert 0.0 <= s.prediction_accuracy <= 1.0

    def test_prediction_accuracy_reasonable(self):
        """Tracking clouds drift slowly, so box extrapolation should
        recover most touched atoms."""
        trace = tracking_heavy_trace(seed=4, n_jobs=30)
        s = PrefetchingJAWSScheduler(SPEC, COST, cfg())
        run_trace(trace, s, engine())
        assert s.prediction_accuracy > 0.5

    def test_prefetch_improves_hit_ratio_with_think_time(self):
        trace = tracking_heavy_trace(seed=5, n_jobs=30)
        eng = engine()
        plain = run_trace(trace, "jaws2", eng)
        s = PrefetchingJAWSScheduler(SPEC, COST, cfg())
        fetched = run_trace(trace, s, eng)
        # Prefetch converts think-time idleness into warm cache: the
        # queries themselves see fewer cold misses.
        assert fetched.mean_response_time <= plain.mean_response_time * 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefetchingJAWSScheduler(SPEC, COST, cfg(), max_prefetch_atoms=0)

    def test_prediction_score_pinned_on_small_slice(self):
        """The accuracy score counts the atoms each completed query
        touched and how many the previous prediction held; pinned on the
        first 30 jobs of the SMALL calibrated trace."""
        full = standard_trace(ExperimentScale.SMALL)
        trace = Trace(full.spec, full.jobs[:30])
        eng = standard_engine()
        s = PrefetchingJAWSScheduler(trace.spec, eng.cost, standard_scheduler_config())
        result = run_trace(trace, s, eng)
        assert result.n_queries == trace.n_queries
        assert (s.predicted_hits, s.predicted_total) == (15256, 15777)


class TestEncapsulation:
    def test_think_time_zeroed_for_ordered_only(self):
        trace = tracking_heavy_trace(seed=6)
        enc = encapsulate_trace(trace)
        for before, after in zip(trace.jobs, enc.jobs):
            if before.is_ordered:
                assert after.think_time == 0.0
            else:
                assert after.think_time == before.think_time
            assert after.n_queries == before.n_queries

    def test_encapsulation_speeds_up_jobs(self):
        """Removing client round-trips shrinks ordered jobs' wall time
        (the workload here is not server-bound, so makespan is set by
        the arrival span — job durations are the right measure)."""
        trace = tracking_heavy_trace(seed=7, n_jobs=20)
        eng = engine()
        loop = run_trace(trace, "jaws2", eng)
        enc = run_trace(encapsulate_trace(trace), "jaws2", eng)
        ordered = [j.job_id for j in trace.jobs if j.is_ordered and j.n_queries > 1]
        loop_total = sum(loop.job_durations[j] for j in ordered)
        enc_total = sum(enc.job_durations[j] for j in ordered)
        assert enc_total < loop_total
        # Note: encapsulation can *increase* I/O — zero think time
        # shrinks the window in which other queries join an atom's
        # queue, trading sharing for latency (the §VII "expense of
        # generality" in another guise); the encapsulation bench
        # quantifies this, so no read-count assertion here.
