"""Unit tests for the Batch container and Scheduler defaults."""

import numpy as np

from repro.core.base import Batch, RunObservation, Scheduler
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.workload.query import Query, preprocess_query

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=2, atoms_per_axis=4)


def make_batch():
    q = Query(0, 0, 0, 0, "velocity", 0, np.random.default_rng(0).uniform(0, 256, (50, 3)))
    subs = preprocess_query(q, AtomMapper(SPEC), INTERP)
    return Batch(atoms=[(sq.atom_id, [sq]) for sq in subs]), subs


class TestBatch:
    def test_counts(self):
        batch, subs = make_batch()
        assert batch.n_atoms == len(subs)
        assert batch.n_positions == 50
        assert batch.atom_ids() == [sq.atom_id for sq in subs]

    def test_empty_batch(self):
        batch = Batch()
        assert batch.n_atoms == 0
        assert batch.n_positions == 0
        assert batch.atom_ids() == []


class TestSchedulerDefaults:
    class Minimal(Scheduler):
        def on_query_arrival(self, query, subqueries, now):
            pass

        def next_batch(self, now):
            return None

        def has_pending(self):
            return False

    def test_default_hooks_are_noops(self):
        s = self.Minimal()
        s.on_query_complete(None, 0.0)
        s.on_run_boundary(RunObservation(0, 1.0, 1.0))
        s.on_job_submitted(None, 0.0, None)
        assert s.force_release(0.0) is False
        assert s.cache_utility_fn() is None
        assert s.current_alpha is None

    def test_run_observation_fields(self):
        obs = RunObservation(run_index=3, mean_response_time=1.5, throughput=2.0)
        assert obs.run_index == 3
        assert obs.mean_response_time == 1.5
        assert obs.throughput == 2.0
