"""Unit tests for NoShare / LifeRaft / JAWS scheduler behaviour
(driven directly through the Scheduler interface, no engine)."""

import numpy as np
import pytest

from repro.config import CostModel, SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.noshare import NoShareScheduler
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.workload.job import Job, JobAtomSets, JobKind
from repro.workload.query import Query, preprocess_query

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=4)
MAPPER = AtomMapper(SPEC)
COST = CostModel()


def make_query(qid, positions, timestep=0, job_id=None, seq=0, op="velocity"):
    q = Query(
        query_id=qid,
        job_id=job_id if job_id is not None else qid,
        seq=seq,
        user_id=0,
        op=op,
        timestep=timestep,
        positions=np.asarray(positions, dtype=float),
    )
    return q, preprocess_query(q, MAPPER, INTERP)


def atom_center(ax, ay, az):
    return [64 * ax + 32.0, 64 * ay + 32.0, 64 * az + 32.0]


class TestNoShare:
    def test_arrival_order_single_query(self):
        s = NoShareScheduler()
        q, subs = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        s.on_query_arrival(q, subs, 0.0)
        b1 = s.next_batch(0.0)
        b2 = s.next_batch(0.0)
        assert b1.n_atoms == 1 and b2.n_atoms == 1
        assert s.next_batch(0.0) is None
        assert not s.has_pending()

    def test_round_robin_interleaving(self):
        s = NoShareScheduler()
        qa, subs_a = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(2, 0, 0), atom_center(3, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        owners = [s.next_batch(0.0).atoms[0][1][0].query.query_id for _ in range(4)]
        assert owners == [0, 1, 0, 1]

    def test_no_co_scheduling_across_queries(self):
        """Both queries hit the same atom; NoShare still issues two
        separate single-sub-query batches."""
        s = NoShareScheduler()
        qa, subs_a = make_query(0, [atom_center(0, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(0, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        b1, b2 = s.next_batch(0.0), s.next_batch(0.0)
        assert len(b1.atoms[0][1]) == 1
        assert len(b2.atoms[0][1]) == 1
        assert b1.atoms[0][0] == b2.atoms[0][0]

    def test_max_concurrent_admission(self):
        s = NoShareScheduler(max_concurrent=1)
        qa, subs_a = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(2, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        owners = [s.next_batch(0.0).atoms[0][1][0].query.query_id for _ in range(3)]
        assert owners == [0, 0, 1]  # qb admitted only after qa drains

    def test_validation(self):
        with pytest.raises(ValueError):
            NoShareScheduler(max_concurrent=0)


class TestLifeRaft:
    def test_forced_single_atom_config(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        assert s.config.batch_size == 1
        assert not s.config.adaptive_alpha
        assert s.config.two_level is False

    def test_co_schedules_same_atom(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        qa, subs_a = make_query(0, [atom_center(0, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(0, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        batch = s.next_batch(1.0)
        assert batch.n_atoms == 1
        assert len(batch.atoms[0][1]) == 2  # both sub-queries in one pass

    def test_contention_order(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        q_small, subs_small = make_query(0, [atom_center(0, 0, 0)] * 2)
        q_big, subs_big = make_query(1, [atom_center(1, 0, 0)] * 50)
        s.on_query_arrival(q_small, subs_small, 0.0)
        s.on_query_arrival(q_big, subs_big, 0.0)
        batch = s.next_batch(1.0)
        assert batch.atoms[0][1][0].query.query_id == 1  # larger queue first

    def test_arrival_order_alpha_one(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=1.0)
        q_old, subs_old = make_query(0, [atom_center(0, 0, 0)] * 2)
        q_new, subs_new = make_query(1, [atom_center(1, 0, 0)] * 50)
        s.on_query_arrival(q_old, subs_old, 0.0)
        s.on_query_arrival(q_new, subs_new, 5.0)
        batch = s.next_batch(10.0)
        assert batch.atoms[0][1][0].query.query_id == 0  # oldest first

    def test_name_encodes_alpha(self):
        assert "alpha=0" in LifeRaftScheduler(SPEC, COST, alpha=0.0).name

    def test_empty_queue_returns_none(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        assert s.next_batch(0.0) is None
        assert not s.has_pending()


def same_queries(qid, centers, timestep=0, n=4):
    """One query with ``n`` positions at each center (equal counts, so
    every touched atom ties on U_t)."""
    return make_query(qid, [c for c in centers for _ in range(n)], timestep=timestep)


class TestLifeRaftTieCache:
    """The reduced-metric decision and its tie-set cache against the
    generic Eq. 2 path, which recomputes every decision from scratch."""

    def pair(self, alpha, max_sim_time=1e9):
        cached = LifeRaftScheduler(SPEC, COST, alpha=alpha, max_sim_time=max_sim_time)
        oracle = LifeRaftScheduler(SPEC, COST, alpha=alpha, max_sim_time=max_sim_time)
        oracle._reduced = False
        return cached, oracle

    @staticmethod
    def decide(schedulers, now):
        batches = [s.next_batch(now) for s in schedulers]
        picks = [None if b is None else b.atoms[0][0] for b in batches]
        assert picks[0] == picks[1]
        return picks[0]

    def test_alpha0_matches_recompute_across_interleaved_mutations(self):
        pair = self.pair(0.0)
        row = [atom_center(x, 0, 0) for x in range(4)]
        q0, subs0 = same_queries(0, row + [atom_center(x, 1, 0) for x in range(4)])
        for s in pair:
            s.on_query_arrival(q0, list(subs0), 0.0)
        assert self.decide(pair, 1.0) is not None
        assert pair[0]._tie_ver == pair[0].queues.version  # cache built
        self.decide(pair, 1.1)  # pure drain: replayed from the cache
        ids = [a for a in pair[0].queues.active_view()[0].tolist()]
        # Cache insert, evict, arrival and cancellation between decisions.
        for s in pair:
            s.queues.on_cache_insert(ids[-1])
        self.decide(pair, 1.2)
        for s in pair:
            s.queues.on_cache_evict(ids[-1])
        self.decide(pair, 1.3)
        q1, subs1 = same_queries(1, [atom_center(2, 2, 0), atom_center(3, 2, 0)], n=9)
        for s in pair:
            s.on_query_arrival(q1, list(subs1), 1.4)
        self.decide(pair, 1.4)
        for s in pair:
            s.cancel_query(1, 1.5)
        while self.decide(pair, 2.0) is not None:
            pass
        assert not pair[0].has_pending()

    def test_alpha1_margin_failure_recomputes(self):
        """Two atoms tie on the oldest arrival and a third arrived 1 µs
        later.  With a 1e9 s clock bound the 2**-40 margin (~9e-4 s) is
        not met, so nothing is cached; with a 100 s bound it is."""
        for bound, cacheable in ((1e9, False), (100.0, True)):
            pair = self.pair(1.0, max_sim_time=bound)
            q0, subs0 = same_queries(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
            q1, subs1 = same_queries(1, [atom_center(2, 0, 0)])
            q2, subs2 = same_queries(2, [atom_center(3, 0, 0)])
            for s in pair:
                s.on_query_arrival(q0, list(subs0), 0.0)
                s.on_query_arrival(q1, list(subs1), 1e-6)
                s.on_query_arrival(q2, list(subs2), 5.0)
            self.decide(pair, 10.0)
            assert (pair[0]._tie_ver != -1) is cacheable
            while self.decide(pair, 20.0) is not None:
                pass

    def test_alpha1_unbounded_clock_never_caches(self):
        pair = self.pair(1.0, max_sim_time=float("inf"))
        q0, subs0 = same_queries(0, [atom_center(x, 0, 0) for x in range(3)])
        q1, subs1 = same_queries(1, [atom_center(3, 0, 0)])
        for s in pair:
            s.on_query_arrival(q0, list(subs0), 0.0)
            s.on_query_arrival(q1, list(subs1), 50.0)
        while self.decide(pair, 100.0) is not None:
            assert pair[0]._tie_ver == -1


class TestJAWSTwoLevel:
    def cfg(self, **kw):
        base = dict(
            alpha=0.0, adaptive_alpha=False, two_level=True, batch_size=3, job_aware=False
        )
        base.update(kw)
        return SchedulerConfig(**base)

    def test_batches_from_single_timestep(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        # Two atoms on step 0, one on step 1.
        q0, subs0 = make_query(0, [atom_center(0, 0, 0)] * 5, timestep=0)
        q1, subs1 = make_query(1, [atom_center(1, 0, 0)] * 5, timestep=0)
        q2, subs2 = make_query(2, [atom_center(0, 0, 0)] * 5, timestep=1)
        for q, subs in ((q0, subs0), (q1, subs1), (q2, subs2)):
            s.on_query_arrival(q, subs, 0.0)
        batch = s.next_batch(1.0)
        steps = {a // SPEC.atoms_per_timestep for a, _ in batch.atoms}
        assert len(steps) == 1
        assert batch.n_atoms == 2  # the denser step-0 pair

    def test_batch_in_morton_order(self):
        s = JAWSScheduler(SPEC, COST, self.cfg(batch_size=8))
        positions = [atom_center(x, y, 0) for x in range(3) for y in range(2)]
        q, subs = make_query(0, positions * 4)
        s.on_query_arrival(q, subs, 0.0)
        batch = s.next_batch(1.0)
        ids = [a for a, _ in batch.atoms]
        assert ids == sorted(ids)

    def test_variant_names(self):
        assert JAWSScheduler(SPEC, COST, self.cfg(job_aware=False)).name == "JAWS_1"
        assert (
            JAWSScheduler(SPEC, COST, self.cfg(job_aware=True)).name == "JAWS_2"
        )


class TestJAWSGating:
    def cfg(self):
        return SchedulerConfig(
            alpha=0.0, adaptive_alpha=False, two_level=True, batch_size=4, job_aware=True
        )

    def ordered_job(self, job_id, base_qid, centers, timesteps, user=0):
        queries = []
        for i, (c, ts) in enumerate(zip(centers, timesteps)):
            queries.append(
                Query(
                    query_id=base_qid + i,
                    job_id=job_id,
                    seq=i,
                    user_id=user,
                    op="interp",
                    timestep=ts,
                    positions=np.array([c] * 3, dtype=float),
                )
            )
        return Job(job_id, JobKind.ORDERED, user, 0.0, 1.0, queries)

    def test_identical_jobs_gate_and_release_together(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0, JobAtomSets(j1, SPEC))
        s.on_job_submitted(j2, 0.0, JobAtomSets(j2, SPEC))
        # First query of job 1 arrives: held awaiting partner.
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER, INTERP), 0.0)
        assert s.next_batch(0.0) is None
        assert s.has_pending()
        assert s.held_count == 1
        # Partner arrives: both release; one batch carries both.
        p = j2.queries[0]
        s.on_query_arrival(p, preprocess_query(p, MAPPER, INTERP), 0.0)
        batch = s.next_batch(0.0)
        assert batch is not None
        owners = {sq.query.query_id for _, subs in batch.atoms for sq in subs}
        assert owners == {0, 10}

    def test_force_release_valve(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0, JobAtomSets(j1, SPEC))
        s.on_job_submitted(j2, 0.0, JobAtomSets(j2, SPEC))
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER, INTERP), 0.0)
        assert s.next_batch(0.0) is None
        assert s.force_release(0.0)
        assert s.forced_releases >= 1
        assert s.next_batch(0.0) is not None

    def test_gating_max_lag_releases_stragglers(self):
        cfg = self.cfg().with_(gating_max_lag=1)
        s = JAWSScheduler(SPEC, COST, cfg)
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0, JobAtomSets(j1, SPEC))
        s.on_job_submitted(j2, 0.0, JobAtomSets(j2, SPEC))
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER, INTERP), 0.0)
        assert s.next_batch(0.0) is None
        # An unrelated query completes; the held query exceeds max lag.
        other, other_subs = make_query(99, [atom_center(3, 3, 3)])
        s.on_query_arrival(other, other_subs, 0.0)
        s.next_batch(0.0)
        s.on_query_complete(other, 1.0)
        assert s.held_count == 0
        assert s.forced_releases == 1

    def test_one_off_queries_bypass_gating(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        q, subs = make_query(0, [atom_center(0, 0, 0)])
        s.on_query_arrival(q, subs, 0.0)
        assert s.next_batch(0.0) is not None
