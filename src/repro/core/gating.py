"""Precedence graph with gating edges (paper §IV-B, Figs. 3–5).

The graph holds every active query as a vertex.  Directed *precedence*
edges chain each ordered job's queries; undirected *gating* edges link
queries of different jobs that the scheduler must co-schedule to
realize data sharing.  A query can be scheduled only when its
predecessor is DONE and every gating partner has at least arrived
(READY) — partners already queued or completed no longer block.

Because ``AdmitGatingEdge`` (Fig. 4 line 2) makes a new query inherit
every edge incident to its partner, co-scheduling components are
*cliques*; we therefore represent them directly as **groups** (one id
per clique) instead of edge sets, which keeps admission incremental —
no union-find rebuild per candidate edge.

Admission enforces the paper's feasibility conditions:

* a group may contain at most one query per job (two queries of one
  job can never be co-scheduled — one precedes the other);
* contracting groups to single nodes must leave the precedence
  relation acyclic.  This single check subsumes the pseudo-code's
  non-crossing/per-pair rules: two crossing edges between jobs A and B
  induce precedence paths g1 → g2 (through A) and g2 → g1 (through B),
  i.e. a cycle.  The paper pre-filters with *gating numbers*; since
  its published comparison line is garbled we keep gating numbers as a
  diagnostic (:meth:`gating_numbers`) and rely on the explicit cycle
  check for soundness (see DESIGN.md); property tests verify gated
  schedules never deadlock.

The contracted graph is acyclic before every admission (adding a job
adds a fresh chain, admission keeps it acyclic, and pruning a query
only shortcuts a path through it), so merging groups ``ga`` and ``gb``
closes a cycle exactly when one already reaches the other.  Admission
therefore runs two reachability searches from the endpoints
(:meth:`PrecedenceGraph._reaches`) instead of rebuilding the whole
graph; :meth:`PrecedenceGraph.is_acyclic` keeps the full rebuild for
the sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import QueryState
from repro.workload.query import AtomSet

__all__ = ["PrecedenceGraph"]


@dataclass
class _Vertex:
    job_id: int
    seq: int
    atoms: AtomSet
    span: tuple[int, int]  # atoms.span, for the sharing index
    group: int
    state: QueryState = QueryState.WAIT
    succ: int | None = None  # the next live query of the job


class PrecedenceGraph:
    """Mutable precedence + gating-group graph over active queries."""

    def __init__(self) -> None:
        self._v: dict[int, _Vertex] = {}
        self._job_queries: dict[int, list[int]] = {}  # live query ids, seq order
        self._groups: dict[int, set[int]] = {}  # group id -> member query ids
        self._next_group = 0
        self.edges_admitted = 0
        self.edges_rejected = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_job(
        self, job_id: int, query_ids: list[int], atom_sets: list[AtomSet]
    ) -> None:
        """Register a job's query chain (all vertices start WAIT, each
        in its own singleton group)."""
        if job_id in self._job_queries:
            raise ValueError(f"job {job_id} already in graph")
        if len(query_ids) != len(atom_sets):
            raise ValueError("query_ids and atom_sets length mismatch")
        for seq, (qid, atoms) in enumerate(zip(query_ids, atom_sets)):
            if qid in self._v:
                raise ValueError(f"query {qid} already in graph")
            gid = self._next_group
            self._next_group += 1
            self._v[qid] = _Vertex(
                job_id=job_id, seq=seq, atoms=atoms, span=atoms.span, group=gid
            )
            self._groups[gid] = {qid}
        for qid, succ in zip(query_ids, query_ids[1:]):
            self._v[qid].succ = succ
        self._job_queries[job_id] = list(query_ids)

    def __contains__(self, qid: int) -> bool:
        return qid in self._v

    def jobs(self) -> list[int]:
        return list(self._job_queries)

    def queries_of(self, job_id: int) -> list[int]:
        return list(self._job_queries.get(job_id, []))

    def job_atoms(self, job_id: int) -> list[AtomSet]:
        """Atom sets of the job's live queries, in sequence order."""
        v = self._v
        return [v[qid].atoms for qid in self._job_queries.get(job_id, ())]

    def job_spans(self, job_id: int) -> list[tuple[int, int]]:
        """``(min, max)`` atom spans of the job's live queries, in
        sequence order (see :attr:`AtomSet.span`)."""
        v = self._v
        return [v[qid].span for qid in self._job_queries.get(job_id, ())]

    def state(self, qid: int) -> QueryState:
        return self._v[qid].state

    def set_state(self, qid: int, state: QueryState) -> None:
        self._v[qid].state = state

    def partners(self, qid: int) -> frozenset[int]:
        """Gating partners (the rest of the query's clique)."""
        v = self._v[qid]
        return frozenset(self._groups[v.group] - {qid})

    # ------------------------------------------------------------------
    # Deadlock check: contracted group graph must stay acyclic
    # ------------------------------------------------------------------
    def _reaches(self, src: int, dst: int) -> bool:
        """Is group ``dst`` reachable from group ``src`` along contracted
        successors (each member's next live query in its job)?

        Visits only groups downstream of ``src`` and stops at the first
        path found.
        """
        v = self._v
        groups = self._groups
        seen = {src}
        stack = [src]
        while stack:
            for qid in groups[stack.pop()]:
                succ = v[qid].succ
                if succ is None:
                    continue
                g = v[succ].group
                if g == dst:
                    return True
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return False

    # ------------------------------------------------------------------
    # Admission (Fig. 4)
    # ------------------------------------------------------------------
    def admit_edge(self, qa: int, qb: int) -> bool:
        """Try to admit gating edge (qa, qb), merging their cliques.

        Returns True if admitted (or already present).  Either endpoint
        missing/DONE, a duplicate job inside the merged group, or a
        cycle in the contracted graph rejects the merge.
        """
        va = self._v.get(qa)
        vb = self._v.get(qb)
        if va is None or vb is None or va is vb:
            self.edges_rejected += 1
            return False
        if va.state is QueryState.DONE or vb.state is QueryState.DONE:
            self.edges_rejected += 1
            return False
        ga, gb = va.group, vb.group
        if ga == gb:
            return True  # already co-scheduled
        members_a = self._groups[ga]
        members_b = self._groups[gb]
        jobs_a = {self._v[q].job_id for q in members_a}
        jobs_b = {self._v[q].job_id for q in members_b}
        if jobs_a & jobs_b:
            self.edges_rejected += 1
            return False
        # The groups share no job, so no chain links them directly; a
        # cycle after merging needs a path between them already.
        if self._reaches(ga, gb) or self._reaches(gb, ga):
            self.edges_rejected += 1
            return False
        # Merge smaller into larger.
        if len(members_a) < len(members_b):
            ga, gb = gb, ga
            members_a, members_b = members_b, members_a
        for qid in members_b:
            self._v[qid].group = ga
        members_a.update(members_b)
        del self._groups[gb]
        self.edges_admitted += 1
        return True

    # ------------------------------------------------------------------
    # Gating numbers (diagnostic; Fig. 3 annotation)
    # ------------------------------------------------------------------
    def gating_numbers(self) -> dict[int, int]:
        """Minimum gating edges evaluated before each query can run.

        Fixed point of ``G(q) = gated predecessors in q's own job +
        max over partners p of those predecessors of (G(p) + 1)``,
        iterated over jobs in execution order until stable.
        """
        g = {qid: 0 for qid in self._v}
        changed = True
        guard = 0
        while changed and guard < len(self._v) + 2:
            changed = False
            guard += 1
            for qids in self._job_queries.values():
                prior_edges = 0
                best_partner = 0
                for qid in qids:
                    new = prior_edges + best_partner
                    if new > g[qid]:
                        g[qid] = new
                        changed = True
                    partners = self.partners(qid)
                    if partners:
                        prior_edges += len(partners)
                        for p in partners:
                            if g[p] + 1 > best_partner:
                                best_partner = g[p] + 1
        return g

    # ------------------------------------------------------------------
    # Release logic
    # ------------------------------------------------------------------
    def group_of(self, qid: int) -> set[int]:
        """The query's live co-scheduling clique (including itself)."""
        return set(self._groups[self._v[qid].group])

    def releasable_group(self, qid: int) -> list[int] | None:
        """If ``qid``'s whole gating group has arrived, return its READY
        members (the ones to move to QUEUE now); else ``None``.

        Partners still WAIT (not yet arrived) block the group; partners
        already QUEUE never do.
        """
        ready: list[int] = []
        for member in self._groups[self._v[qid].group]:
            st = self._v[member].state
            if st is QueryState.WAIT:
                return None
            if st is QueryState.READY:
                ready.append(member)
        # Sorted so release (and hence enqueue) order never depends on
        # set-iteration order — part of the determinism contract (§7).
        return sorted(ready)

    def mark_done(self, qid: int) -> None:
        """Complete a query and prune it from the graph (the paper
        continually prunes completed queries to keep the merge cheap)."""
        v = self._v.pop(qid, None)
        if v is None:
            return
        members = self._groups[v.group]
        members.discard(qid)
        if not members:
            del self._groups[v.group]
        qids = self._job_queries.get(v.job_id)
        if qids is not None:
            if qid in qids:
                i = qids.index(qid)
                del qids[i]
                if i:
                    self._v[qids[i - 1]].succ = v.succ
            if not qids:
                del self._job_queries[v.job_id]

    def ready_queries(self) -> list[int]:
        """All queries currently held in READY (diagnostics/valve)."""
        return [qid for qid, v in self._v.items() if v.state is QueryState.READY]

    def n_gating_edges(self) -> int:
        """Number of implied (clique) gating edges."""
        return sum(len(m) * (len(m) - 1) // 2 for m in self._groups.values())

    # ------------------------------------------------------------------
    # Sanitizer checkpoints
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """Is the contracted group graph acyclic right now?

        The deadlock-freedom condition admission maintains; re-checked
        wholesale (full rebuild plus DFS) by the simulation sanitizer.
        """
        succ: dict[int, set[int]] = {}
        for qids in self._job_queries.values():
            prev = -1
            for qid in qids:
                g = self._v[qid].group
                if prev >= 0:
                    if prev == g:
                        return False  # group contains its own successor
                    succ.setdefault(prev, set()).add(g)
                prev = g
        # Iterative three-color DFS.
        color: dict[int, int] = {}
        for start in succ:
            if color.get(start):
                continue
            stack = [(start, iter(succ.get(start, ())))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, 0)
                    if c == 1:
                        return False
                    if c == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return True

    def validate(self) -> list[str]:
        """Audit graph internals: group partition coherence, the
        one-query-per-job clique rule, and gating-number stability.

        Returns human-readable problem descriptions (empty = valid).
        Read-only; called by the simulation sanitizer per event.
        """
        problems: list[str] = []
        for qid, v in self._v.items():
            members = self._groups.get(v.group)
            if members is None:
                problems.append(f"query {qid}: group {v.group} missing")
            elif qid not in members:
                problems.append(f"query {qid}: not a member of its group {v.group}")
        for gid, members in self._groups.items():
            jobs: set[int] = set()
            for qid in members:
                v = self._v.get(qid)
                if v is None:
                    problems.append(f"group {gid}: member {qid} not in graph")
                    continue
                if v.group != gid:
                    problems.append(f"group {gid}: member {qid} claims group {v.group}")
                if v.job_id in jobs:
                    problems.append(f"group {gid}: two queries of job {v.job_id}")
                jobs.add(v.job_id)
        for job_id, qids in self._job_queries.items():
            seqs = []
            for qid in qids:
                v = self._v.get(qid)
                if v is None:
                    problems.append(f"job {job_id}: pruned query {qid} still listed")
                    continue
                if v.job_id != job_id:
                    problems.append(f"job {job_id}: lists query {qid} of job {v.job_id}")
                seqs.append(v.seq)
            for qid, succ in zip(qids, [*qids[1:], None]):
                v = self._v.get(qid)
                if v is not None and v.succ != succ:
                    problems.append(f"job {job_id}: query {qid}'s successor link is {v.succ}")
            if seqs != sorted(seqs):
                problems.append(f"job {job_id}: query chain out of sequence order")
        # Gating numbers must be a stable fixed point: one further
        # relaxation pass over the converged values changes nothing.
        # (The iteration in ``gating_numbers`` is guard-bounded, so a
        # cyclic graph could exit before converging — this catches it.)
        if not problems:
            g = self.gating_numbers()
            if any(value < 0 for value in g.values()):
                problems.append("negative gating number")
            for qids in self._job_queries.values():
                prior_edges = 0
                best_partner = 0
                for qid in qids:
                    if prior_edges + best_partner > g[qid]:
                        problems.append(
                            f"gating number of query {qid} is not a fixed point"
                        )
                        break
                    partners = self.partners(qid)
                    if partners:
                        prior_edges += len(partners)
                        for p in partners:
                            if g[p] + 1 > best_partner:
                                best_partner = g[p] + 1
                else:
                    continue
                break
        return problems
