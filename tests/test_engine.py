"""Integration tests for the discrete-event engine."""

import dataclasses
import heapq
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.engine.events import EventKind
from repro.engine.runner import make_scheduler, run_trace
from repro.engine.simulator import Simulator
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.job import Job, JobKind
from repro.workload.query import Query
from repro.workload.trace import Trace

from tests.test_determinism import assert_identical

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine():
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
    )


ALL_SCHEDULERS = ("noshare", "liferaft1", "liferaft2", "jaws1", "jaws2")


class TestCompleteness:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_every_query_completes_exactly_once(self, name):
        trace = small_trace()
        result = run_trace(trace, name, engine())
        assert result.n_queries == trace.n_queries
        assert len(result.response_times) == trace.n_queries
        assert result.n_jobs == trace.n_jobs

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_no_forced_releases(self, name):
        """A correct gating graph never needs the liveness valve."""
        result = run_trace(small_trace(seed=3), name, engine())
        assert result.forced_releases == 0

    def test_response_times_nonnegative(self):
        result = run_trace(small_trace(seed=1), "jaws2", engine())
        assert (result.response_times >= 0).all()

    def test_job_durations_positive(self):
        result = run_trace(small_trace(seed=2), "liferaft2", engine())
        assert all(d >= 0 for d in result.job_durations.values())
        assert len(result.job_durations) == result.n_jobs


class TestDeterminism:
    @pytest.mark.parametrize("name", ("noshare", "liferaft2", "jaws2"))
    def test_same_trace_same_result(self, name):
        r1 = run_trace(small_trace(seed=5), name, engine())
        r2 = run_trace(small_trace(seed=5), name, engine())
        assert r1.makespan == r2.makespan
        np.testing.assert_array_equal(r1.response_times, r2.response_times)
        assert r1.disk["reads"] == r2.disk["reads"]


class TestOrderingSemantics:
    def ordered_trace(self):
        """One 3-query ordered job with 5s think time."""
        queries = [
            Query(
                query_id=i,
                job_id=0,
                seq=i,
                user_id=0,
                op="velocity",
                timestep=i,
                positions=np.full((4, 3), 32.0 + i),
            )
            for i in range(3)
        ]
        job = Job(0, JobKind.ORDERED, 0, 0.0, 5.0, queries)
        return Trace(SPEC, [job])

    def test_think_time_separates_ordered_queries(self):
        result = run_trace(self.ordered_trace(), "liferaft2", engine())
        # Each query's completion precedes the next arrival by >= 5s,
        # so the job spans at least 2 think times plus service.
        assert result.job_durations[0] >= 10.0

    def test_batched_job_queries_arrive_together(self):
        queries = [
            Query(
                query_id=i,
                job_id=0,
                seq=i,
                user_id=0,
                op="stats",
                timestep=0,
                positions=np.full((4, 3), 40.0 + i * 64),
            )
            for i in range(3)
        ]
        job = Job(0, JobKind.BATCHED, 0, 0.0, 9.0, queries)
        result = run_trace(Trace(SPEC, [job]), "liferaft2", engine())
        # No think-time serialization: total well under 3 x 9s.
        assert result.job_durations[0] < 9.0


class TestCostAccounting:
    def test_disk_seconds_match_reads(self):
        eng = engine()
        result = run_trace(small_trace(seed=7), "noshare", eng)
        assert result.disk["seconds"] == pytest.approx(
            result.disk["reads"] * eng.cost.t_b
        )

    def test_busy_time_at_least_compute(self):
        eng = engine()
        result = run_trace(small_trace(seed=7), "liferaft2", eng)
        lower = result.exec["positions"] * eng.cost.t_m
        assert result.exec["busy_seconds"] >= lower

    def test_makespan_at_least_busy_time_single_node(self):
        result = run_trace(small_trace(seed=7), "liferaft2", engine())
        assert result.makespan >= result.exec["busy_seconds"] - 1e-9

    def test_cache_capacity_never_exceeded(self):
        eng = engine()
        trace = small_trace(seed=8)
        sched = make_scheduler("jaws2", trace, eng)
        sim = Simulator(trace, [sched], eng)
        sim.run()
        assert len(sim.nodes[0].cache) <= eng.cache.capacity_atoms


class TestRunBoundaries:
    def test_runs_emitted_every_r_completions(self):
        eng = engine()
        trace = small_trace(seed=9, n_jobs=20)
        result = run_trace(trace, "jaws2", eng)
        assert len(result.runs) == trace.n_queries // eng.run_length

    def test_adaptive_alpha_history_matches_runs(self):
        eng = engine()
        result = run_trace(small_trace(seed=9, n_jobs=20), "jaws2", eng)
        assert len(result.alpha_history) == len(result.runs)


class TestGuards:
    def test_max_sim_time_enforced(self):
        eng = EngineConfig(
            cost=CostModel(t_b=0.02, t_m=1e-5),
            cache=CacheConfig(capacity_atoms=32),
            max_sim_time=1.0,
        )
        with pytest.raises(RuntimeError, match="max_sim_time"):
            run_trace(small_trace(seed=1), "noshare", eng)

    def test_unknown_scheduler_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_trace(small_trace(), "belady", engine())

    def test_needs_at_least_one_scheduler(self):
        with pytest.raises(ValueError):
            Simulator(small_trace(), [], engine())


class TestSharingActuallyHappens:
    def test_liferaft_reads_fewer_atoms_than_noshare(self):
        trace = small_trace(seed=11, n_jobs=25)
        eng = engine()
        no = run_trace(trace, "noshare", eng)
        lr = run_trace(trace, "liferaft2", eng)
        assert lr.disk["reads"] < no.disk["reads"]

    def test_jaws2_fewer_reads_than_liferaft(self):
        trace = generate_trace(
            SPEC,
            WorkloadParams(
                n_jobs=25, span=120.0, campaign_prob=0.6, think_time_mean=1.0, seed=12
            ),
        )
        eng = engine()
        lr = run_trace(trace, "liferaft2", eng)
        jw = run_trace(trace, "jaws2", eng)
        assert jw.disk["reads"] <= lr.disk["reads"]


class _Recording(Simulator):
    """Logs every dispatched event as ``(time, kind, seq)``."""

    def _dispatch(self, ev):
        self.dispatched.append((ev.time, ev.kind, ev.seq))
        super()._dispatch(ev)


class _AlwaysPush(_Recording):
    """Reference loop: every batch completion goes through the heap."""

    def _launch_batches(self):
        done = super()._launch_batches()
        if done is not None:
            heapq.heappush(self._heap, done)
        return None


class TestHeapBypass:
    """A completion handed straight to ``_dispatch`` must be exactly the
    event the heap would have popped next, numbered the same way."""

    @pytest.mark.parametrize(
        "name, n_nodes, faults",
        [
            ("noshare", 1, None),
            ("jaws2", 1, None),
            ("jaws2", 2, None),
            ("liferaft2", 3, FaultConfig(seed=5, transient_fault_rate=0.05,
                                         node_crashes=((1, 30.0, 60.0),))),
        ],
    )
    def test_same_events_in_the_same_order(self, name, n_nodes, faults):
        trace = small_trace(seed=4)
        cfg = engine()
        if faults is not None:
            cfg = dataclasses.replace(cfg, faults=faults)
        runs = {}
        for cls in (_Recording, _AlwaysPush):
            scheds = [make_scheduler(name, trace, cfg) for _ in range(n_nodes)]
            sim = cls(trace, scheds, cfg, node_of=lambda a, n=n_nodes: a % n)
            sim.dispatched = []
            result = sim.run()
            # Every numbered event was dispatched or is still pending.
            assert sim.event_index + len(sim._heap) == sim._seq
            runs[cls] = (sim.dispatched, result.response_times.tolist())
        assert runs[_Recording] == runs[_AlwaysPush]


class _Parking(Simulator):
    """Logs every ``_reroute`` call and every dispatched event, a
    REROUTE bucket expanded to one entry per pair.  An entry is numbered
    as the event would have been had every parked pair been numbered as
    its own event."""

    def __init__(self, *args, **kwargs):
        self.number, self.joined, self.dispatched, self.reroutes = {}, 0, [], []
        self.buckets = []
        super().__init__(*args, **kwargs)

    def _event(self, time_, kind, payload):
        ev = super()._event(time_, kind, payload)
        self.number[ev.seq] = ev.seq + self.joined
        return ev

    def _defer(self, sq, arrival, now):
        seq = self._seq
        super()._defer(sq, arrival, now)
        if self._seq == seq:
            self.joined += 1  # the pair joined the open bucket

    def _dispatch(self, ev):
        width = 1
        if ev.kind is EventKind.REROUTE:
            width = len(ev.payload)
            self.buckets.append(ev.time)
        first = self.number[ev.seq]
        self.dispatched.extend((ev.time, ev.kind, first + k) for k in range(width))
        super()._dispatch(ev)

    def _reroute(self, sq, arrival, now, from_node):
        self.reroutes.append((sq.query.query_id, sq.atom_id, arrival, now))
        super()._reroute(sq, arrival, now, from_node)


class _PerPairParking(_Parking):
    """Reference engine: one single-pair bucket per parked sub-query."""

    def _defer(self, sq, arrival, now):
        self._parked = None
        super()._defer(sq, arrival, now)


def _outage_trace():
    """Two batched jobs submitted at t=40 while node 0 is down (30-60 s).
    Their queries' 20 s deadlines fall on the recovery instant, so the
    first query's deadline event is numbered between the two queries'
    deferrals and the first bucket must close."""
    corners = np.array([[8.0, 8.0, 8.0], [72.0, 8.0, 8.0], [8.0, 136.0, 200.0]])
    jobs = [
        Job(j, JobKind.BATCHED, j, 40.0, 1.0, [
            Query(query_id=j, job_id=j, seq=0, user_id=j, op="velocity",
                  timestep=j, positions=corners + 16.0 * j),
        ])
        for j in range(2)
    ]
    return Trace(SPEC, jobs)


class TestParkedBuckets:
    """Parked sub-queries that share a REROUTE event are dispatched
    exactly as one event per sub-query would be: same ``_reroute``
    calls, same counters, same result, and every pair holds the number
    its own event would have had."""

    @pytest.mark.parametrize(
        "name, n_nodes, crashes, deadline, source",
        [
            ("jaws2", 1, ((0, 30.0, 60.0),), None, "generated"),
            ("liferaft2", 1, ((0, 30.0, 60.0),), None, "generated"),
            ("noshare", 1, ((0, 30.0, 60.0),), None, "generated"),
            ("jaws2", 3, ((0, 20.0, 60.0), (1, 40.0, 80.0), (2, 50.0, 70.0)), None, "generated"),
            ("jaws2", 1, ((0, 30.0, 60.0),), 20.0, "outage"),
        ],
        ids=["jaws2", "liferaft2", "noshare", "three-nodes", "bucket-closes"],
    )
    def test_coalesced_equals_per_subquery(self, name, n_nodes, crashes, deadline, source):
        trace = _outage_trace() if source == "outage" else small_trace(seed=4)
        faults = FaultConfig(seed=5, transient_fault_rate=0.05, node_crashes=crashes,
                             query_deadline=deadline)
        cfg = dataclasses.replace(engine(), faults=faults, sanitize=True)
        sims = {}
        for cls in (_Parking, _PerPairParking):
            scheds = [make_scheduler(name, trace, cfg) for _ in range(n_nodes)]
            sim = cls(trace, scheds, cfg, node_of=lambda a, n=n_nodes: a % n)
            sims[cls] = (sim, sim.run())
        (sim, result), (ref, ref_result) = sims[_Parking], sims[_PerPairParking]
        assert sim.reroutes == ref.reroutes
        assert sim.dispatched == ref.dispatched
        assert sim._deferred == ref._deferred > 0
        assert_identical(result, ref_result)
        assert sim.joined > 0 and sim.event_index == ref.event_index - sim.joined
        assert sim._parked is None  # a fired bucket is let go
        if n_nodes > 1 or deadline is not None:
            # Some recovery releases more than one bucket: one closed.
            assert len(sim.buckets) > len(set(sim.buckets))


_NO_MASKED_ARRAYS_SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    from repro.config import CheckpointConfig, FaultConfig
    from repro.engine.runner import make_scheduler
    from repro.engine.simulator import Simulator
    from repro.errors import CoordinatorCrash
    from repro.experiments.common import standard_engine, standard_spec
    from repro.workload.generator import WorkloadParams, generate_trace

    trace = generate_trace(standard_spec(), WorkloadParams(n_jobs=15, span=120.0, seed=0))
    for name in ("noshare", "liferaft2", "jaws2"):
        config = standard_engine()
        Simulator(trace, [make_scheduler(name, trace, config)], config).run()
    with tempfile.TemporaryDirectory() as directory:
        config = standard_engine().with_(
            faults=FaultConfig(seed=7, transient_fault_rate=0.02, coordinator_crash_at=150),
            checkpoint=CheckpointConfig(directory=directory, every_events=40),
        )
        try:
            Simulator(trace, [make_scheduler("jaws2", trace, config)], config).run()
        except CoordinatorCrash:
            pass
        else:
            raise SystemExit("the coordinator crash never fired")
        Simulator.restore(directory).run()
    print("numpy.ma" in sys.modules)
    """
)


def test_runs_and_restore_never_import_numpy_ma():
    """``numpy.ma`` costs about 1.2 MiB of RSS once imported (``np.unique``
    imports it on first use); NoShare, LifeRaft2 and JAWS2 runs and a
    JAWS2 crash, restore and resume must not import it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
