"""Greedy merge of pairwise alignment solutions (paper §IV-B).

The dynamic-programming phase yields gating-edge candidates for every
*pair* of jobs; this module merges them into one precedence graph.  The
paper's greedy order: start from the pair with the most edges, then
repeatedly attach the job whose pairwise solution with an
already-merged job has the most edges, admitting each edge through
``AdmitGatingEdge`` (implemented by
:meth:`repro.core.gating.PrecedenceGraph.admit_edge`).

Both entry points find a job's partners the same way
(:func:`_sharing_alignments`): one transient sharing index of the job
(:class:`repro.core.alignment.SharingIndex`), which every live query of
every other job bisects by its atom span; only partners that share an
atom are aligned.  With ``n`` live jobs of ``m`` queries, adding one
job costs ``O(n m log m)`` range lookups plus an ``O(m^2)`` DP per
sharing partner, and each admitted edge a reachability search bounded
by the contracted graph (``O(n m)``), so the merge stays
:math:`O(n^3 m^2)` worst case over all jobs.  It is cheap in practice:
most partner jobs share nothing, the search stops at the first path
found, and completed queries are pruned.

Two entry points:

* :func:`build_gating_offline` — merge a complete set of jobs at once
  (used by tests and the scheduling-overhead bench);
* :class:`GatingManager` — the engine-facing incremental form: "when a
  new job arrives, it can be added to the existing graph incrementally
  by computing new pairwise dynamic programs and then merging their
  solutions".
"""

from __future__ import annotations

from typing import Sequence

from repro.core.alignment import SharingIndex, align_jobs
from repro.core.gating import PrecedenceGraph
from repro.core.states import QueryState
from repro.workload.query import AtomSet

__all__ = ["admit_alignment", "build_gating_offline", "GatingManager"]


def admit_alignment(
    graph: PrecedenceGraph,
    job_a: int,
    job_b: int,
    pairs: Sequence[tuple[int, int]],
) -> int:
    """Admit a pairwise alignment's edges in precedence order.

    ``pairs`` holds (index into job_a's live queries, index into
    job_b's live queries).  Returns the number of edges admitted.
    """
    qa_ids = graph.queries_of(job_a)
    qb_ids = graph.queries_of(job_b)
    admitted = 0
    for ia, ib in pairs:
        if ia >= len(qa_ids) or ib >= len(qb_ids):
            continue
        if graph.admit_edge(qa_ids[ia], qb_ids[ib]):
            admitted += 1
    return admitted


def _sharing_alignments(
    graph: PrecedenceGraph, job_id: int, partners: Sequence[int]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Align ``job_id``'s live queries against every partner job that
    shares at least one atom with it, in ``partners`` order.

    Returns ``(partner, pairs)`` with pairs indexing (job_id's live
    queries, the partner's live queries).  Partners sharing nothing
    never reach :func:`align_jobs`; a shared atom always yields a
    matched pair.
    """
    atoms = graph.job_atoms(job_id)
    index = SharingIndex(atoms, graph.job_spans(job_id))
    out: list[tuple[int, list[tuple[int, int]]]] = []
    for other in partners:
        other_atoms = graph.job_atoms(other)
        s = index.overlap(other_atoms, graph.job_spans(other))
        if s is not None:
            out.append((other, align_jobs(atoms, other_atoms, s)))
    return out


def _pairwise_alignments(
    graph: PrecedenceGraph, job_ids: Sequence[int]
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    ids = list(job_ids)
    return {
        (ja, jb): pairs
        for i, ja in enumerate(ids)
        for jb, pairs in _sharing_alignments(graph, ja, ids[i + 1 :])
    }


def build_gating_offline(graph: PrecedenceGraph) -> int:
    """Run the full DP + greedy merge over every job in ``graph``.

    Returns the total number of admitted gating edges.
    """
    job_ids = graph.jobs()
    solutions = _pairwise_alignments(graph, job_ids)
    if not solutions:
        return 0
    remaining = dict(solutions)
    merged: set[int] = set()
    total = 0
    while remaining:
        # Prefer pairs touching the merged set; fall back to the global
        # best pair (starts a new merged component).
        touching = {p: e for p, e in remaining.items() if merged & set(p)}
        pool = touching or remaining
        (ja, jb), pairs = max(pool.items(), key=lambda kv: (len(kv[1]), -kv[0][0], -kv[0][1]))
        del remaining[(ja, jb)]
        total += admit_alignment(graph, ja, jb, pairs)
        merged.update((ja, jb))
    return total


class GatingManager:
    """Incremental job-aware gating for the live scheduler.

    Owns a :class:`PrecedenceGraph`; the JAWS scheduler funnels job
    submissions, query arrivals and completions through it and receives
    back the query ids whose gating constraints are now satisfied.
    """

    def __init__(self, min_job_len: int = 2) -> None:
        self.graph = PrecedenceGraph()
        self._min_job_len = min_job_len
        self._tracked: set[int] = set()  # query ids under gating control

    # ------------------------------------------------------------------
    def is_tracked(self, query_id: int) -> bool:
        return query_id in self._tracked

    def add_job(
        self, job_id: int, query_ids: list[int], atom_sets: list[AtomSet]
    ) -> int:
        """Register an ordered job and align it against every active job.

        Jobs shorter than ``min_job_len`` are not worth aligning and are
        left untracked (their queries bypass gating).  Returns the
        number of gating edges admitted for this job.
        """
        if len(query_ids) < self._min_job_len:
            return 0
        existing = [j for j in self.graph.jobs() if j != job_id]
        self.graph.add_job(job_id, query_ids, atom_sets)
        self._tracked.update(query_ids)

        scored = [
            (len(pairs), other, pairs)
            for other, pairs in _sharing_alignments(self.graph, job_id, existing)
        ]
        # Greedy: most-sharing partner job first (merge-phase order).
        scored.sort(key=lambda t: (-t[0], t[1]))
        admitted = 0
        for _, other, pairs in scored:
            admitted += admit_alignment(self.graph, job_id, other, pairs)
        return admitted

    # ------------------------------------------------------------------
    def on_arrival(self, query_id: int) -> list[int] | None:
        """A tracked query arrived (precedence satisfied).

        Returns the list of query ids to release to QUEUE now (always
        including ``query_id`` when release happens), or ``None`` if
        the query must be held in READY awaiting gating partners.
        """
        self.graph.set_state(query_id, QueryState.READY)
        ready = self.graph.releasable_group(query_id)
        if ready is None:
            return None
        for qid in ready:
            self.graph.set_state(qid, QueryState.QUEUE)
        return ready

    def on_complete(self, query_id: int) -> None:
        """Prune a completed tracked query."""
        if query_id in self._tracked:
            self._tracked.discard(query_id)
            self.graph.mark_done(query_id)

    def cancel(self, query_id: int) -> list[int]:
        """De-gate a cancelled query (timeout or aborted job).

        Prunes it from the graph exactly like completion, then checks
        whether its former co-scheduling group became releasable — the
        cancelled query may have been the WAIT member partners were
        gated on.  Returns the query ids to release to QUEUE now.
        """
        if query_id not in self._tracked:
            return []
        self._tracked.discard(query_id)
        if query_id not in self.graph:
            return []
        partners = self.graph.partners(query_id)
        self.graph.mark_done(query_id)
        for member in partners:
            if member not in self.graph:
                continue
            # All partners share one group: one check covers them all.
            ready = self.graph.releasable_group(member)
            if ready is None:
                return []
            for qid in ready:
                self.graph.set_state(qid, QueryState.QUEUE)
            return ready
        return []

    def held_queries(self) -> list[int]:
        """Queries currently held in READY (awaiting partners)."""
        return self.graph.ready_queries()

    def release_all_ready(self) -> list[int]:
        """Liveness valve: force every READY query to QUEUE."""
        ready = self.graph.ready_queries()
        for qid in ready:
            self.graph.set_state(qid, QueryState.QUEUE)
        return ready
