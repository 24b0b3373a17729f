"""Tests for the precedence/gating graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gating import PrecedenceGraph
from repro.core.states import QueryState
from repro.workload.query import AtomSet


def fs(*atoms):
    return AtomSet.of(atoms)


def two_sharing_jobs():
    """Job 0: q0..q2 on atoms 1,2,3; job 1: q10..q12 on atoms 1,9,3."""
    g = PrecedenceGraph()
    g.add_job(0, [0, 1, 2], [fs(1), fs(2), fs(3)])
    g.add_job(1, [10, 11, 12], [fs(1), fs(9), fs(3)])
    return g


class TestConstruction:
    def test_duplicate_job_rejected(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        with pytest.raises(ValueError):
            g.add_job(0, [1], [fs(1)])

    def test_duplicate_query_rejected(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        with pytest.raises(ValueError):
            g.add_job(1, [0], [fs(2)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PrecedenceGraph().add_job(0, [0, 1], [fs(1)])

    def test_vertices_keep_atom_spans(self):
        g = PrecedenceGraph()
        g.add_job(1, [10, 11, 12], [fs(9, 4), fs(), fs(7)])
        assert g.job_spans(1) == [(4, 9), (0, -1), (7, 7)]
        g.mark_done(10)
        assert g.job_spans(1) == [(0, -1), (7, 7)]

    def test_initial_state_wait(self):
        g = two_sharing_jobs()
        assert g.state(0) is QueryState.WAIT
        assert g.partners(0) == frozenset()


class TestAdmission:
    def test_simple_edge(self):
        g = two_sharing_jobs()
        assert g.admit_edge(0, 10)
        assert 10 in g.partners(0) and 0 in g.partners(10)
        assert g.edges_admitted == 1

    def test_idempotent(self):
        g = two_sharing_jobs()
        assert g.admit_edge(0, 10)
        assert g.admit_edge(0, 10)
        assert g.edges_admitted == 1

    def test_same_job_rejected(self):
        g = two_sharing_jobs()
        assert not g.admit_edge(0, 1)
        assert g.edges_rejected == 1

    def test_missing_vertex_rejected(self):
        g = two_sharing_jobs()
        assert not g.admit_edge(0, 999)

    def test_done_vertex_rejected(self):
        g = two_sharing_jobs()
        g.set_state(10, QueryState.DONE)
        assert not g.admit_edge(0, 10)

    def test_crossing_edges_rejected(self):
        """Edges (q0,q12) and (q2,q10) would deadlock: job0 needs q0
        before q2, job1 needs q10 before q12, but co-scheduling links
        them in opposite order -> cycle."""
        g = two_sharing_jobs()
        assert g.admit_edge(0, 12)
        assert not g.admit_edge(2, 10)

    def test_parallel_edges_accepted(self):
        g = two_sharing_jobs()
        assert g.admit_edge(0, 10)
        assert g.admit_edge(2, 12)

    def test_group_with_two_queries_of_one_job_rejected(self):
        g = PrecedenceGraph()
        g.add_job(0, [0, 1], [fs(1), fs(2)])
        g.add_job(1, [10], [fs(1)])
        g.add_job(2, [20], [fs(2)])
        assert g.admit_edge(0, 10)
        assert g.admit_edge(1, 20)
        # Linking the two groups would co-schedule q0 and q1 (same job).
        assert not g.admit_edge(10, 20)

    def test_transitive_clique(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        g.add_job(1, [10], [fs(1)])
        g.add_job(2, [20], [fs(1)])
        assert g.admit_edge(0, 10)
        assert g.admit_edge(20, 0)
        # 20 inherits the edge to 10 (cliques).
        assert g.partners(20) == frozenset({0, 10})

    def test_three_job_cycle_rejected(self):
        """Pairwise-feasible edges that form a cycle through three jobs
        must be rejected at the third admission."""
        g = PrecedenceGraph()
        g.add_job(0, [0, 1], [fs(1), fs(2)])
        g.add_job(1, [10, 11], [fs(2), fs(3)])
        g.add_job(2, [20, 21], [fs(3), fs(1)])
        assert g.admit_edge(1, 10)  # j0.q1 with j1.q0
        assert g.admit_edge(11, 20)  # j1.q1 with j2.q0
        # j2.q1 with j0.q0 closes the loop.
        assert not g.admit_edge(21, 0)


class TestRelease:
    def test_ungated_query_releases_alone(self):
        g = two_sharing_jobs()
        g.set_state(1, QueryState.READY)
        assert g.releasable_group(1) == [1]

    def test_gated_waits_for_partner(self):
        g = two_sharing_jobs()
        g.admit_edge(0, 10)
        g.set_state(0, QueryState.READY)
        assert g.releasable_group(0) is None
        g.set_state(10, QueryState.READY)
        assert sorted(g.releasable_group(0)) == [0, 10]

    def test_partner_in_queue_does_not_block(self):
        g = two_sharing_jobs()
        g.admit_edge(0, 10)
        g.set_state(10, QueryState.QUEUE)
        g.set_state(0, QueryState.READY)
        assert g.releasable_group(0) == [0]

    def test_done_partner_does_not_block(self):
        g = two_sharing_jobs()
        g.admit_edge(0, 10)
        g.mark_done(10)
        g.set_state(0, QueryState.READY)
        assert g.releasable_group(0) == [0]


class TestPruning:
    def test_mark_done_removes_vertex(self):
        g = two_sharing_jobs()
        g.admit_edge(0, 10)
        g.mark_done(0)
        assert 0 not in g
        assert g.partners(10) == frozenset()

    def test_mark_done_idempotent(self):
        g = two_sharing_jobs()
        g.mark_done(0)
        g.mark_done(0)

    def test_job_removed_when_empty(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        g.mark_done(0)
        assert g.jobs() == []

    def test_pruning_splices_the_successor_link(self):
        """Each live query links to the job's next live query; pruning
        a middle query links its predecessor past it, and ``validate``
        reports a link that disagrees with the chain."""
        g = PrecedenceGraph()
        g.add_job(0, [0, 1, 2], [fs(), fs(), fs()])
        g.mark_done(1)
        assert g.validate() == []
        g._v[0].succ = 1
        assert any("successor link" in p for p in g.validate())


class TestGatingNumbers:
    def test_no_edges_all_zero(self):
        g = two_sharing_jobs()
        assert set(g.gating_numbers().values()) == {0}

    def test_increase_along_job(self):
        g = two_sharing_jobs()
        g.admit_edge(0, 10)
        g.admit_edge(2, 12)
        numbers = g.gating_numbers()
        # Later queries must wait for earlier gating edges.
        assert numbers[0] == 0
        assert numbers[2] >= 1
        assert numbers[12] >= 1


@st.composite
def job_set(draw):
    n_jobs = draw(st.integers(2, 4))
    jobs = []
    for j in range(n_jobs):
        length = draw(st.integers(1, 4))
        atoms = [
            AtomSet.of(draw(st.frozensets(st.integers(0, 4), min_size=0, max_size=2)))
            for _ in range(length)
        ]
        jobs.append(atoms)
    return jobs


class TestDeadlockFreedomProperty:
    @settings(max_examples=60, deadline=None)
    @given(job_set(), st.integers(0, 2**31 - 1))
    def test_any_admitted_edge_set_is_schedulable(self, jobs, seed):
        """After arbitrary admissions, simulating release in precedence
        order always completes every query (no deadlock)."""
        import random

        rng = random.Random(seed)
        g = PrecedenceGraph()
        qid = 0
        chains = []
        for j, atoms in enumerate(jobs):
            ids = list(range(qid, qid + len(atoms)))
            qid += len(atoms)
            g.add_job(j, ids, atoms)
            chains.append(ids)
        # Try admitting random cross-job edges.
        all_ids = [q for chain in chains for q in chain]
        for _ in range(10):
            a, b = rng.sample(all_ids, 2)
            g.admit_edge(a, b)

        # Simulate: a query arrives when its predecessor is DONE; a
        # READY group releases when fully arrived; QUEUE -> DONE freely.
        next_idx = {j: 0 for j in range(len(chains))}
        done: set[int] = set()
        total = len(all_ids)
        for _ in range(4 * total + 8):
            progressed = False
            for j, chain in enumerate(chains):
                i = next_idx[j]
                if i >= len(chain):
                    continue
                q = chain[i]
                if g.state(q) is QueryState.WAIT:
                    g.set_state(q, QueryState.READY)
                ready = g.releasable_group(q)
                if ready is not None:
                    for r in ready:
                        g.set_state(r, QueryState.QUEUE)
                if g.state(q) is QueryState.QUEUE:
                    g.mark_done(q)
                    done.add(q)
                    next_idx[j] += 1
                    progressed = True
            if len(done) == total:
                break
            if not progressed:
                # No QUEUE work: every frontier query must be READY and
                # blocked on a WAIT partner whose own chain advances
                # next round — assert at least one chain's frontier is
                # blocked on a *different* job's frontier, not a cycle.
                pass
        assert len(done) == total, f"deadlock: completed {len(done)}/{total}"


def reference_admission(g, qa, qb):
    """Brute-force ``admit_edge`` decision: merge the two groups, then
    rebuild the whole contracted graph and look for a cycle."""
    if qa not in g or qb not in g or qa == qb:
        return False
    group_a, group_b = g.group_of(qa), g.group_of(qb)
    if group_a == group_b:
        return True
    jobs = {}
    for job in g.jobs():
        for q in g.queries_of(job):
            jobs[q] = job
    if {jobs[q] for q in group_a} & {jobs[q] for q in group_b}:
        return False

    def label(q):
        members = g.group_of(q)
        return min(group_a) if members == group_b else min(members)

    succ = {}
    for job in g.jobs():
        chain = [label(q) for q in g.queries_of(job)]
        for u, v in zip(chain, chain[1:]):
            if u == v:
                return False
            succ.setdefault(u, set()).add(v)
    # Kahn: acyclic iff every node gets a topological position.
    nodes = set(succ) | {v for vs in succ.values() for v in vs}
    indegree = {v: 0 for v in nodes}
    for vs in succ.values():
        for v in vs:
            indegree[v] += 1
    frontier = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while frontier:
        u = frontier.pop()
        seen += 1
        for v in succ.get(u, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                frontier.append(v)
    return seen == len(nodes)


@st.composite
def admission_script(draw):
    n_jobs = draw(st.integers(2, 5))
    lengths = [draw(st.integers(1, 6)) for _ in range(n_jobs)]
    n_queries = sum(lengths)
    op = st.one_of(
        st.tuples(st.just("admit"), st.integers(0, n_queries - 1), st.integers(0, n_queries - 1)),
        st.tuples(st.just("done"), st.integers(0, n_queries - 1), st.just(0)),
    )
    return lengths, draw(st.lists(op, min_size=1, max_size=40))


class TestReachabilityCycleCheck:
    @settings(max_examples=150, deadline=None)
    @given(admission_script())
    def test_matches_merge_and_rebuild_reference(self, script):
        lengths, ops = script
        g = PrecedenceGraph()
        qid = 0
        for job, length in enumerate(lengths):
            g.add_job(job, list(range(qid, qid + length)), [fs()] * length)
            qid += length
        for kind, a, b in ops:
            if kind == "done":
                g.mark_done(a)
                continue
            expected = reference_admission(g, a, b)
            assert g.admit_edge(a, b) == expected, (a, b)
            assert g.is_acyclic()
            assert g.validate() == []

    def test_indirect_cycle_through_a_third_job(self):
        g = PrecedenceGraph()
        g.add_job(0, [0, 1], [fs(), fs()])
        g.add_job(1, [10, 11], [fs(), fs()])
        g.add_job(2, [20, 21], [fs(), fs()])
        assert g.admit_edge(1, 10)  # job 0 tail with job 1 head
        assert g.admit_edge(11, 20)  # job 1 tail with job 2 head
        # 21 is reachable from 0 (0 -> {1,10} -> {11,20} -> 21).
        assert not g.admit_edge(0, 21)

    def test_pruned_middle_query_keeps_the_path(self):
        g = PrecedenceGraph()
        g.add_job(0, [0, 1, 2], [fs(), fs(), fs()])
        g.add_job(1, [10, 11], [fs(), fs()])
        g.mark_done(1)  # 0 -> 2 directly now
        assert g.admit_edge(2, 10)
        assert not g.admit_edge(0, 11)  # 0 -> {2,10} -> 11
