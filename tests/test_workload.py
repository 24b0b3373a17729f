"""Tests for queries, jobs, the generator and trace serialization."""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.noshare import NoShareScheduler
from repro.engine.runner import run_trace
from repro.experiments import common
from repro.experiments.common import (
    ExperimentScale,
    standard_engine,
    standard_params,
    standard_spec,
    standard_trace,
)
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec, stencil_overshoot_keys
from repro.workload import generator
from repro.workload.generator import WorkloadParams, _timestep_popularity, generate_trace
from repro.workload.job import Job, JobKind
from repro.workload.query import AtomSet, Query, preprocess_query
from repro.workload.stats import (
    estimate_job_durations,
    job_duration_histogram,
    queries_per_timestep,
    workload_summary,
)
from repro.workload.trace import Trace

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=16, atoms_per_axis=4)


class TestQueryValidation:
    def test_bad_op(self):
        with pytest.raises(ValueError):
            Query(0, 0, 0, 0, "join", 0, np.zeros((1, 3)))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Query(0, 0, 0, 0, "velocity", 0, np.zeros((3,)))

    def test_empty_positions(self):
        with pytest.raises(ValueError):
            Query(0, 0, 0, 0, "velocity", 0, np.zeros((0, 3)))

    def test_atoms_leave_the_query_unchanged(self):
        q = Query(0, 0, 0, 0, "velocity", 2, np.full((5, 3), 33.0))
        before = vars(q).copy()
        atoms = q.atoms(SPEC)
        assert atoms.n_atoms == 1
        assert q.atoms(SPEC) == atoms and q.atoms(SPEC) is not atoms
        assert vars(q).keys() == before.keys()
        assert all(vars(q)[k] is v for k, v in before.items())


class TestPreprocess:
    def test_subqueries_partition_positions(self):
        rng = np.random.default_rng(0)
        q = Query(0, 0, 0, 0, "velocity", 1, rng.uniform(0, SPEC.grid_side, (200, 3)))
        subs = preprocess_query(q, AtomMapper(SPEC), INTERP)
        assert sum(sq.n_positions for sq in subs) == 200
        assert all(isinstance(sq.n_positions, int) and sq.n_positions > 0 for sq in subs)
        assert q.atoms(SPEC) == AtomSet.of(sq.atom_id for sq in subs)
        ids = [sq.atom_id for sq in subs]
        assert ids == sorted(ids)  # Morton order


def reference_subqueries(query, mapper, interp):
    """``(atom id, position count, overshoot keys)`` of each touched
    atom in ascending order, built one atom at a time from the
    definitions the way pre-processing once built its list."""
    ids = mapper.atom_ids(query.positions, query.timestep)
    keys = None
    if query.op == "interp" and interp.half_width > mapper.spec.halo:
        keys = stencil_overshoot_keys(mapper.spec, query.positions, interp)
    out = []
    for atom in sorted(set(ids.tolist())):
        mask = ids == atom
        overshoot = () if keys is None else tuple(sorted(set(keys[mask].tolist()) - {13}))
        out.append((atom, int(mask.sum()), overshoot))
    return out


def fields(sq):
    return sq.atom_id, sq.n_positions, sq.neighbor_keys


class TestSubQueryColumns:
    """``preprocess_query`` returns one ``SubQueries`` record of columns;
    its items are the sub-queries a list used to hold."""

    SPEC = standard_spec()
    MAPPER = AtomMapper(SPEC)
    INTERP = InterpolationSpec(order=12)  # half width 6 > halo 4: neighbor keys

    def query(self, op, seed):
        rng = np.random.default_rng(seed)
        side = self.SPEC.grid_side
        pos = rng.uniform(0, side, (400, 3))
        # Half the coordinates near an atom face, some exactly at
        # grid_side (they wrap to the first atom of the axis).
        faces = rng.integers(0, self.SPEC.atoms_per_axis + 1, (400, 3)) * self.SPEC.atom_side
        near = rng.random((400, 3)) < 0.5
        pos[near] = np.clip(faces + rng.uniform(-3, 3, (400, 3)), 0, side)[near]
        pos[rng.random((400, 3)) < 0.05] = float(side)
        pos[0] = (side, side, side)
        return Query(7, 3, 0, 0, op, 5, pos)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("op", ["interp", "stats", "velocity"])
    def test_items_equal_the_per_atom_reference(self, op, seed):
        q = self.query(op, seed)
        record = preprocess_query(q, self.MAPPER, self.INTERP)
        subs = list(record)
        assert [fields(sq) for sq in subs] == reference_subqueries(q, self.MAPPER, self.INTERP)
        assert all(sq.query is q for sq in subs)
        assert all(type(sq.atom_id) is int and type(sq.n_positions) is int for sq in subs)
        if op == "interp":
            assert any(sq.neighbor_keys for sq in subs)
        assert len(record) == len(subs)
        assert [fields(record[i]) for i in range(len(record))] == [fields(sq) for sq in subs]
        assert fields(record[-1]) == fields(subs[-1])
        assert [fields(sq) for sq in record[1:4]] == [fields(sq) for sq in subs[1:4]]
        assert [fields(sq) for sq in record.take([0, 2])] == [fields(subs[0]), fields(subs[2])]
        with pytest.raises(IndexError):
            record[len(record)]

    def test_noshare_holds_few_bytes_per_pending_subquery(self):
        """A backlog of FULL-trace queries costs NoShare at most 48 B of
        Python heap per pending sub-query: the record's columns, not a
        ``SubQuery`` object with a boxed atom id in a ``deque`` (about
        120 B) per sub-query."""
        trace = generate_trace(self.SPEC, standard_params(ExperimentScale.FULL, 7))
        queries = [q for job in trace.jobs for q in job.queries][:300]
        interp = InterpolationSpec(order=standard_engine().interpolation_order)
        scheduler = NoShareScheduler()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q in queries:
                scheduler.on_query_arrival(q, preprocess_query(q, self.MAPPER, interp), 0.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert scheduler.queue_depth() > 10_000
        assert held / scheduler.queue_depth() <= 48


class TestJobValidation:
    def make_queries(self, n, job_id=0):
        return [
            Query(i, job_id, i, 0, "velocity", 0, np.full((2, 3), 10.0)) for i in range(n)
        ]

    def test_seq_must_be_contiguous(self):
        queries = self.make_queries(2)
        queries[1].seq = 5
        with pytest.raises(ValueError):
            Job(0, JobKind.ORDERED, 0, 0.0, 1.0, queries)

    def test_job_id_consistency(self):
        queries = self.make_queries(2, job_id=9)
        with pytest.raises(ValueError):
            Job(0, JobKind.ORDERED, 0, 0.0, 1.0, queries)

    def test_negative_times(self):
        with pytest.raises(ValueError):
            Job(0, JobKind.ORDERED, 0, -1.0, 1.0, self.make_queries(1))

    def test_timesteps_property(self):
        queries = self.make_queries(3)
        for i, q in enumerate(queries):
            q.timestep = i % 2
        job = Job(0, JobKind.ORDERED, 0, 0.0, 1.0, queries)
        assert job.timesteps == {0, 1}


class TestGeneratorCalibration:
    """The synthetic trace must match the paper's §VI-A characterization."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(SPEC, WorkloadParams(n_jobs=300, span=6000.0, seed=11))

    def test_deterministic(self):
        t1 = generate_trace(SPEC, WorkloadParams(n_jobs=40, span=500.0, seed=4))
        t2 = generate_trace(SPEC, WorkloadParams(n_jobs=40, span=500.0, seed=4))
        assert t1.n_queries == t2.n_queries
        for ja, jb in zip(t1.jobs, t2.jobs):
            assert ja.submit_time == jb.submit_time
            for qa, qb in zip(ja.queries, jb.queries):
                np.testing.assert_array_equal(qa.positions, qb.positions)

    def test_most_queries_belong_to_jobs(self, trace):
        """Paper: over 95% of queries belong to (multi-query) jobs."""
        s = workload_summary(trace)
        assert s["frac_queries_in_jobs"] > 0.9

    def test_most_jobs_single_timestep(self, trace):
        """Paper: 88% of jobs access only a single time step."""
        s = workload_summary(trace)
        assert 0.7 <= s["frac_jobs_single_timestep"] <= 0.97

    def test_timestep_popularity_clustered_at_ends(self, trace):
        """Paper Fig. 9: popularity clusters at start/end of sim time."""
        counts = queries_per_timestep(trace)
        n = SPEC.n_timesteps
        edge = counts[: n // 4].sum() + counts[-n // 4 :].sum()
        assert edge > counts.sum() * 0.4

    def test_downward_trend(self, trace):
        counts = queries_per_timestep(trace)
        half = SPEC.n_timesteps // 2
        assert counts[1:half].sum() > counts[half:-1].sum()

    def test_ordered_jobs_advance_monotonically(self, trace):
        for job in trace.jobs:
            job.validate_ordered_chain()

    def test_submit_times_sorted_within_span(self, trace):
        times = [j.submit_time for j in trace.jobs]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_popularity_shape_helper(self):
        w = _timestep_popularity(31)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[15]  # start cluster
        assert w[30] > w[15]  # end cluster

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams(frac_tracking=0.8, frac_batched=0.4)
        with pytest.raises(ValueError):
            WorkloadParams(n_jobs=0)
        with pytest.raises(ValueError):
            WorkloadParams(burstiness=2.0)


def assert_traces_identical(a, b):
    """Structural bit-identity: floats compared exactly, arrays by bytes."""
    assert a.spec == b.spec
    assert a.n_jobs == b.n_jobs
    assert a.n_queries == b.n_queries
    for ja, jb in zip(a.jobs, b.jobs):
        assert (ja.job_id, ja.kind, ja.user_id, ja.client_class) == (
            jb.job_id, jb.kind, jb.user_id, jb.client_class,
        )
        assert ja.submit_time == jb.submit_time
        assert ja.think_time == jb.think_time
        assert len(ja.queries) == len(jb.queries)
        for qa, qb in zip(ja.queries, jb.queries):
            assert (qa.query_id, qa.job_id, qa.seq, qa.user_id, qa.op, qa.timestep) == (
                qb.query_id, qb.job_id, qb.seq, qb.user_id, qb.op, qb.timestep,
            )
            assert qa.positions.dtype == qb.positions.dtype
            assert qa.positions.tobytes() == qb.positions.tobytes()


class TestTrace:
    def make(self, seed=0):
        return generate_trace(SPEC, WorkloadParams(n_jobs=25, span=300.0, seed=seed))

    def test_rescale_compresses_gaps(self):
        trace = self.make()
        fast = trace.rescale(2.0)
        assert fast.span == pytest.approx(trace.span / 2.0)
        assert fast.n_queries == trace.n_queries
        # Think times untouched.
        for a, b in zip(trace.jobs, fast.jobs):
            assert a.think_time == b.think_time

    def test_rescale_validation(self):
        with pytest.raises(ValueError):
            self.make().rescale(0.0)

    def test_rescale_preserves_order(self):
        fast = self.make().rescale(4.0)
        times = [j.submit_time for j in fast.jobs]
        assert times == sorted(times)

    def test_save_load_roundtrip(self, tmp_path):
        """A ``--trace`` file reloads bit-identically: floats, ids, bytes."""
        trace = self.make(seed=3).rescale(3.0)
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert_traces_identical(trace, Trace.load(path))

    def test_loaded_trace_is_bit_identical_to_regeneration(self, tmp_path):
        """Loading a saved trace and regenerating it from its parameters agree."""
        spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
        params = WorkloadParams(n_jobs=8, span=60.0, seed=5)
        path = tmp_path / "trace.npz"
        generate_trace(spec, params).save(path)
        assert_traces_identical(Trace.load(path), generate_trace(spec, params))

    def test_saved_trace_produces_identical_run(self, tmp_path):
        trace = generate_trace(
            DatasetSpec.small(n_timesteps=6, atoms_per_axis=4),
            WorkloadParams(n_jobs=8, span=60.0, seed=5),
        )
        path = tmp_path / "trace.npz"
        trace.save(path)
        a = run_trace(trace, "jaws2").to_dict()
        b = run_trace(Trace.load(path), "jaws2").to_dict()
        assert a == b

    def test_duplicate_job_ids_rejected(self):
        trace = self.make()
        with pytest.raises(ValueError):
            Trace(trace.spec, trace.jobs + [trace.jobs[0]])


class TestStats:
    def test_duration_histogram_buckets(self):
        durations = {0: 30.0, 1: 120.0, 2: 2000.0, 3: 10000.0}
        h = job_duration_histogram(durations)
        assert h["<1min"] == pytest.approx(0.25)
        assert h["1-30min"] == pytest.approx(0.25)
        assert h["30min-2h"] == pytest.approx(0.25)
        assert h[">2h"] == pytest.approx(0.25)

    def test_empty_histogram(self):
        h = job_duration_histogram({})
        assert all(v == 0.0 for v in h.values())

    def test_estimates_scale_with_job_length(self):
        trace = generate_trace(SPEC, WorkloadParams(n_jobs=30, span=300.0, seed=1))
        est = estimate_job_durations(trace, exec_time_estimate=1.0)
        for job in trace.jobs:
            assert est[job.job_id] >= job.n_queries * 1.0


def _trace_sha(trace: Trace) -> str:
    """SHA-256 over every generated field of ``trace``, positions as bytes."""
    h = hashlib.sha256()
    for job in trace.jobs:
        h.update(
            f"{job.job_id}|{job.kind.value}|{job.user_id}|"
            f"{float(job.submit_time).hex()}|{float(job.think_time).hex()}\n".encode()
        )
        for q in job.queries:
            h.update(f"{q.query_id}|{q.op}|{q.timestep}|{q.positions.shape}\n".encode())
            h.update(np.ascontiguousarray(q.positions, dtype=np.float64).tobytes())
    return h.hexdigest()


#: SHA-256 of the calibrated SMALL and FULL traces (``standard_spec()``,
#: ``standard_params(scale, 7)``).  Any change to the generator's RNG
#: order, the field or the advection shows here.
CALIBRATED_TRACE_SHA = {
    ExperimentScale.SMALL: "1f221f5a194c6e927e3f00f19578c947712ae03e9077c0611d01b2e5595135eb",
    ExperimentScale.FULL: "fa04502de5d9818a007f50aaa1d75155b65ba8fa2d70ab83f1547f06b162ff20",
}


def test_speedup_one_keeps_calibrated_submit_times():
    """``rescale(1.0)`` is a copy with exactly the same submit times."""
    trace = generate_trace(standard_spec(), standard_params(ExperimentScale.SMALL, 7))
    times = [j.submit_time for j in trace.jobs]
    same = trace.rescale(1.0)
    assert same is not trace and same.jobs is not trace.jobs
    for t in (same, standard_trace(ExperimentScale.SMALL, speedup=1.0)):
        assert [j.submit_time for j in t.jobs] == times


def test_standard_trace_generates_once_per_scale_and_seed(monkeypatch):
    calls = []

    def counting(spec, params):
        calls.append(params.seed)
        return generate_trace(spec, params)

    monkeypatch.setattr(common, "generate_trace", counting)
    common._calibrated_trace.cache_clear()
    try:
        speedups = (1.0, 2.0, 8.0, 16.0, 2.0)
        traces = [standard_trace(ExperimentScale.SMALL, speedup=s, seed=4) for s in speedups]
        assert calls == [4]
        base = generate_trace(standard_spec(), standard_params(ExperimentScale.SMALL, 4))
        for s, trace in zip(speedups, traces):
            expect = [j.submit_time for j in base.rescale(s).jobs]
            assert [j.submit_time for j in trace.jobs] == expect
        standard_trace(ExperimentScale.SMALL, speedup=1.0, seed=5)
        assert calls == [4, 5]
    finally:
        common._calibrated_trace.cache_clear()


def test_calibrated_trace_golden():
    got = {
        scale: _trace_sha(generate_trace(standard_spec(), standard_params(scale, 7)))
        for scale in CALIBRATED_TRACE_SHA
    }
    assert got == CALIBRATED_TRACE_SHA


class TestAdvectPass:
    """The advect pass gives the same trace whatever the worker count."""

    #: name -> (params, tracking chains to advect).
    CASES = {
        "no-tracking": (WorkloadParams(n_jobs=20, span=300.0, frac_tracking=0.0, seed=2), 0),
        "one-tracking": (
            WorkloadParams(
                n_jobs=1, span=10.0, frac_tracking=1.0, frac_batched=0.0,
                campaign_prob=0.0, long_job_frac=1.0, seed=5,
            ),
            1,
        ),
        "campaign": (
            WorkloadParams(
                n_jobs=1, span=60.0, frac_tracking=1.0, frac_batched=0.0,
                campaign_prob=1.0, long_job_frac=1.0, seed=2,
            ),
            4,
        ),
    }

    @pytest.fixture
    def started(self, monkeypatch):
        """Every thread the generator starts, in start order."""
        started: list[threading.Thread] = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(generator.threading, "Thread", Spy)
        return started

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_worker_count_identity(self, case, started, monkeypatch):
        params, n_chains = self.CASES[case]
        monkeypatch.setattr(generator, "_MAX_WORKERS", 4)  # lift the cap
        shas = set()
        for workers in (1, 2, 4):
            monkeypatch.setattr(generator, "_cpu_count", lambda w=workers: w)
            before = len(started)
            trace = generate_trace(SPEC, params)
            chains = [j for j in trace.jobs if j.client_class == "tracking"]
            assert len(chains) == n_chains
            # The caller takes one chain; each extra worker with a chain
            # left is a helper thread, joined before generate_trace returns.
            assert len(started) - before == max(0, min(workers, n_chains) - 1)
            assert not any(t.is_alive() for t in started)
            shas.add(_trace_sha(trace))
        assert len(shas) == 1

    def test_advect_error_propagates(self, started, monkeypatch):
        def fail(field, dt, queries):
            raise RuntimeError("advect failed")

        monkeypatch.setattr(generator, "_MAX_WORKERS", 4)
        monkeypatch.setattr(generator, "_cpu_count", lambda: 4)
        monkeypatch.setattr(generator, "_advect_chain", fail)
        with pytest.raises(RuntimeError, match="advect failed"):
            generate_trace(SPEC, self.CASES["campaign"][0])
        assert len(started) == 3
        assert not any(t.is_alive() for t in started)

    def test_helpers_capped(self, started, monkeypatch):
        monkeypatch.setattr(generator, "_cpu_count", lambda: 16)
        generate_trace(SPEC, self.CASES["campaign"][0])
        assert len(started) == generator._MAX_WORKERS - 1 == 1
        assert not any(t.is_alive() for t in started)

    def test_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity.
        monkeypatch.delattr(generator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(generator.os, "cpu_count", lambda: 2)
        assert generator._cpu_count() == 2
        monkeypatch.setattr(generator.os, "cpu_count", lambda: None)
        assert generator._cpu_count() == 1
        trace = generate_trace(standard_spec(), standard_params(ExperimentScale.SMALL, 7))
        assert _trace_sha(trace) == CALIBRATED_TRACE_SHA[ExperimentScale.SMALL]
