"""The input trace is immutable during a run, and ``A(q)`` is computed
once per job submission.

Nothing a run derives from a query is stored on the query: its pickle
is the same before and after single-node, cluster and crash/resume
runs.  The atom sets JAWS's gating graphs need are computed by one
:class:`~repro.workload.job.JobAtomSets` per submission, shared by
every node (and sent to peer shards with the job notice).
"""

import pickle

import pytest

from repro.cluster.cluster import run_cluster
from repro.config import ShardConfig
from repro.core.gating import PrecedenceGraph
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.shard import run_sharded
from repro.workload.query import Query

from tests.test_determinism import engine, small_trace
from tests.test_recovery import build_sim, crash_and_leave_artifacts

SCHEDULERS = ["noshare", "liferaft1", "liferaft2", "jaws1", "jaws2"]


@pytest.mark.parametrize("name", SCHEDULERS)
def test_single_node_run_leaves_trace_unchanged(name):
    trace = small_trace()
    before = pickle.dumps(trace)
    cfg = engine()
    Simulator(trace, [make_scheduler(name, trace, cfg)], cfg).run()
    assert pickle.dumps(trace) == before


def test_cluster_run_leaves_trace_unchanged():
    trace = small_trace()
    before = pickle.dumps(trace)
    run_cluster(trace, "jaws2", 4, engine=engine())
    assert pickle.dumps(trace) == before


def test_crash_resume_leaves_trace_unchanged(tmp_path):
    trace = small_trace()
    before = pickle.dumps(trace)
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=120)
    assert pickle.dumps(trace) == before
    resumed = Simulator.restore(ckpt_dir)
    assert pickle.dumps(resumed.trace) == before
    resumed.run()
    assert pickle.dumps(resumed.trace) == before
    assert pickle.dumps(build_sim(trace, "jaws2").trace) == before


def _record_atom_set_work(monkeypatch):
    """Count ``Query.atoms`` calls and log every gating graph's
    ``add_job`` as ``job_id -> [(graph id, atom sets), ...]``."""
    computed: list[int] = []
    received: dict[int, list] = {}
    atoms, add_job = Query.atoms, PrecedenceGraph.add_job

    def counting_atoms(self, spec):
        computed.append(self.query_id)
        return atoms(self, spec)

    def recording_add_job(self, job_id, query_ids, atom_sets):
        received.setdefault(job_id, []).append((id(self), list(atom_sets)))
        return add_job(self, job_id, query_ids, atom_sets)

    monkeypatch.setattr(Query, "atoms", counting_atoms)
    monkeypatch.setattr(PrecedenceGraph, "add_job", recording_add_job)
    return computed, received


def _assert_once_per_submission(trace, computed, received, n_nodes):
    gated = [job for job in trace.jobs if job.is_ordered and job.n_queries >= 2]
    assert gated
    expected = sorted(q.query_id for job in gated for q in job.queries)
    assert sorted(computed) == expected
    assert sorted(received) == sorted(job.job_id for job in gated)
    for copies in received.values():
        assert len({graph for graph, _ in copies}) == n_nodes
        first = copies[0][1]
        for _, sets in copies[1:]:
            assert len(sets) == len(first)
            assert all(a is b for a, b in zip(sets, first))


def test_cluster_computes_each_atom_set_once(monkeypatch):
    computed, received = _record_atom_set_work(monkeypatch)
    trace = small_trace()
    run_cluster(trace, "jaws2", 4, engine=engine())
    _assert_once_per_submission(trace, computed, received, n_nodes=4)


def test_sharded_run_computes_each_atom_set_once(monkeypatch):
    computed, received = _record_atom_set_work(monkeypatch)
    trace = small_trace()
    run_sharded(trace, "jaws2", 4, shards=ShardConfig(n_shards=2), engine=engine())
    _assert_once_per_submission(trace, computed, received, n_nodes=4)
