"""Tests for the greedy merge phase and the incremental GatingManager."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.merge as merge
from repro.core.alignment import align_jobs
from repro.core.gating import PrecedenceGraph
from repro.core.merge import GatingManager, admit_alignment, build_gating_offline
from repro.core.states import QueryState
from repro.workload.query import AtomSet


def fs(*atoms):
    return AtomSet.of(atoms)


class TestOfflineMerge:
    def test_paper_figure2_scenario(self):
        """Three jobs sharing R3/R4 get aligned so the shared regions
        are co-scheduled (Fig. 2's 33% win scenario)."""
        g = PrecedenceGraph()
        g.add_job(1, [10, 11, 12, 13], [fs(1), fs(2), fs(3), fs(4)])
        g.add_job(2, [20, 21, 22], [fs(5), fs(3), fs(4)])
        g.add_job(3, [30, 31], [fs(3), fs(4)])
        admitted = build_gating_offline(g)
        assert admitted >= 2
        # The R3 queries of all three jobs end up in one clique.
        assert g.partners(12) >= {21} or g.partners(12) >= {30}

    def test_no_sharing_no_edges(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        g.add_job(1, [10], [fs(2)])
        assert build_gating_offline(g) == 0

    def test_deterministic(self):
        def build():
            g = PrecedenceGraph()
            g.add_job(0, [0, 1], [fs(1), fs(2)])
            g.add_job(1, [10, 11], [fs(1), fs(2)])
            g.add_job(2, [20, 21], [fs(2), fs(3)])
            build_gating_offline(g)
            return {q: tuple(sorted(g.partners(q))) for q in (0, 1, 10, 11, 20, 21)}

        assert build() == build()


class TestAdmitAlignment:
    def test_admits_in_order(self):
        g = PrecedenceGraph()
        g.add_job(0, [0, 1], [fs(1), fs(2)])
        g.add_job(1, [10, 11], [fs(1), fs(2)])
        n = admit_alignment(g, 0, 1, [(0, 0), (1, 1)])
        assert n == 2

    def test_stale_indices_skipped(self):
        g = PrecedenceGraph()
        g.add_job(0, [0], [fs(1)])
        g.add_job(1, [10], [fs(1)])
        assert admit_alignment(g, 0, 1, [(0, 5)]) == 0


class TestGatingManager:
    def test_short_jobs_untracked(self):
        mgr = GatingManager(min_job_len=2)
        mgr.add_job(0, [0], [fs(1)])
        assert not mgr.is_tracked(0)

    def test_tracked_job_arrival_flow(self):
        mgr = GatingManager()
        mgr.add_job(0, [0, 1], [fs(1), fs(2)])
        mgr.add_job(1, [10, 11], [fs(1), fs(2)])
        # q0 arrives; its partner q10 has not -> held.
        assert mgr.on_arrival(0) is None
        assert mgr.held_queries() == [0]
        # q10 arrives; the group releases together.
        released = mgr.on_arrival(10)
        assert sorted(released) == [0, 10]

    def test_untracked_partnerless_query_releases_immediately(self):
        mgr = GatingManager()
        mgr.add_job(0, [0, 1], [fs(1), fs(2)])
        # No other jobs: no gating edges; queries release alone.
        assert mgr.on_arrival(0) == [0]

    def test_completion_prunes(self):
        mgr = GatingManager()
        mgr.add_job(0, [0, 1], [fs(1), fs(2)])
        mgr.add_job(1, [10, 11], [fs(1), fs(2)])
        mgr.on_arrival(0)
        mgr.on_arrival(10)
        mgr.on_complete(0)
        assert not mgr.is_tracked(0)
        assert 0 not in mgr.graph

    def test_late_job_aligns_with_remaining_queries_only(self):
        mgr = GatingManager()
        mgr.add_job(0, [0, 1, 2], [fs(1), fs(2), fs(3)])
        # Job 0 finished q0 already.
        mgr.on_arrival(0)
        mgr.on_complete(0)
        mgr.add_job(1, [10, 11], [fs(2), fs(3)])
        # Alignment must pair (1,10) and (2,11), not touch pruned q0.
        assert mgr.graph.partners(1) == frozenset({10})
        assert mgr.graph.partners(2) == frozenset({11})

    def test_release_all_ready_valve(self):
        mgr = GatingManager()
        mgr.add_job(0, [0, 1], [fs(1), fs(2)])
        mgr.add_job(1, [10, 11], [fs(1), fs(2)])
        mgr.on_arrival(0)
        assert mgr.release_all_ready() == [0]
        assert mgr.graph.state(0) is QueryState.QUEUE

    def test_campaign_star_topology(self):
        """Several identical jobs submitted together form cliques per
        step and release together step by step."""
        mgr = GatingManager()
        atoms = [fs(1), fs(2), fs(3)]
        for j in range(3):
            mgr.add_job(j, [10 * j, 10 * j + 1, 10 * j + 2], atoms)
        # First queries of all jobs arrive.
        assert mgr.on_arrival(0) is None
        assert mgr.on_arrival(10) is None
        released = mgr.on_arrival(20)
        assert sorted(released) == [0, 10, 20]


@st.composite
def random_jobs(draw):
    n_jobs = draw(st.integers(2, 5))
    out = []
    for _ in range(n_jobs):
        length = draw(st.integers(2, 5))
        atoms = [
            AtomSet.of(draw(st.frozensets(st.integers(0, 6), min_size=1, max_size=2)))
            for _ in range(length)
        ]
        out.append(atoms)
    return out


class TestManagerLiveness:
    @settings(max_examples=50, deadline=None)
    @given(random_jobs())
    def test_round_robin_arrivals_always_complete(self, jobs):
        """Drive all jobs through the manager with round-robin arrivals;
        everything must complete without force-release."""
        mgr = GatingManager()
        chains = []
        qid = 0
        for j, atoms in enumerate(jobs):
            ids = list(range(qid, qid + len(atoms)))
            qid += len(atoms)
            mgr.add_job(j, ids, atoms)
            chains.append(list(ids))

        frontier = {j: 0 for j in range(len(chains))}
        arrived: set[int] = set()
        queued: set[int] = set()
        done: set[int] = set()
        total = sum(len(c) for c in chains)
        for _ in range(6 * total + 10):
            if len(done) == total:
                break
            # Arrivals: frontier query of each job whose predecessor done.
            for j, chain in enumerate(chains):
                i = frontier[j]
                if i < len(chain) and chain[i] not in arrived:
                    q = chain[i]
                    arrived.add(q)
                    released = mgr.on_arrival(q)
                    if released is not None:
                        queued.update(released)
            # Complete everything queued.
            for q in sorted(queued):
                queued.discard(q)
                mgr.on_complete(q)
                done.add(q)
                for j, chain in enumerate(chains):
                    if frontier[j] < len(chain) and chain[frontier[j]] == q:
                        frontier[j] += 1
        assert len(done) == total, f"stuck at {len(done)}/{total}"


@st.composite
def pruned_partners(draw):
    """A new job plus partner jobs of 1-31 queries, each partner with a
    random set of queries (middle of the chain included) completed."""
    atoms = st.frozensets(st.integers(0, 30), max_size=4)
    new = draw(st.lists(atoms, min_size=1, max_size=31))
    partners = []
    for _ in range(draw(st.integers(1, 4))):
        chain = draw(st.lists(atoms, min_size=1, max_size=31))
        done = draw(st.sets(st.integers(0, len(chain) - 1), max_size=len(chain) - 1))
        partners.append((chain, done))
    return new, partners


class TestSharingAlignments:
    @settings(max_examples=60, deadline=None)
    @given(pruned_partners())
    def test_matches_pairwise_reference_on_live_queries(self, case):
        new, partners = case
        g = PrecedenceGraph()
        live = {}
        for j, (chain, done) in enumerate(partners, start=1):
            ids = [100 * j + i for i in range(len(chain))]
            g.add_job(j, ids, [AtomSet.of(a) for a in chain])
            for i in sorted(done):
                g.mark_done(ids[i])
            live[j] = [a for i, a in enumerate(chain) if i not in done]
        g.add_job(0, list(range(len(new))), [AtomSet.of(a) for a in new])

        got = dict(merge._sharing_alignments(g, 0, list(live)))
        for j, atoms in live.items():
            s = np.array(
                [[bool(x) and not x.isdisjoint(y) for y in atoms] for x in new], dtype=bool
            ).reshape(len(new), len(atoms))
            if s.any():
                assert got[j] == align_jobs(
                    [AtomSet.of(a) for a in new], [AtomSet.of(a) for a in atoms], s
                )
            else:
                assert j not in got

    def test_manager_aligns_only_sharing_partners(self, monkeypatch):
        """The DP runs through the module global once per partner job
        that shares an atom, never for a partner that shares none."""
        calls = []

        def counting(*args):
            calls.append(args)
            return align_jobs(*args)

        monkeypatch.setattr(merge, "align_jobs", counting)
        mgr = GatingManager()
        mgr.add_job(0, [0, 1], [fs(1), fs(2)])
        mgr.add_job(1, [10, 11], [fs(8), fs(9)])
        mgr.add_job(2, [20, 21], [fs(2), fs(3)])
        assert len(calls) == 1
        assert mgr.graph.partners(1) == frozenset({20})

    def test_offline_uses_the_same_path(self):
        g = PrecedenceGraph()
        g.add_job(0, [0, 1], [fs(1), fs(2)])
        g.add_job(1, [10, 11], [fs(8), fs(9)])
        g.add_job(2, [20, 21], [fs(1), fs(2)])
        assert merge._pairwise_alignments(g, g.jobs()) == {(0, 2): [(0, 0), (1, 1)]}
