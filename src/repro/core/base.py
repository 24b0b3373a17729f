"""Scheduler interface shared by NoShare, LifeRaft and JAWS.

The discrete-event engine (:mod:`repro.engine.simulator`) drives a
scheduler through this interface:

1. ``on_job_submitted`` when a job's first query (ordered) or all of
   its queries (batched) are about to arrive — JAWS uses this to align
   the new job against active jobs;
2. ``on_query_arrival`` with the pre-processed sub-queries (the
   node's part of the query's :class:`~repro.workload.query.SubQueries`
   record) — the scheduler decides when they enter the workload queues
   (JAWS may hold a query in READY until its gating group is complete);
3. ``next_batch`` whenever the executor goes idle — returns the next
   set of atoms (with their drained sub-queries) to evaluate in one
   pass, or ``None`` when nothing is queued;
4. ``on_query_complete`` / ``on_run_boundary`` for bookkeeping and
   adaptive control.

Degraded-mode hooks (used only under fault injection): ``evacuate``
pulls every pending sub-query off a crashing node, ``readmit`` hands
re-routed sub-queries to a replica node with their original arrival
times (so workload-queue ages stay honest), and ``cancel_query`` prunes
a timed-out query's sub-queries and releases its gating partners.  The
defaults are safe no-ops for schedulers that never run under faults.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.workload.job import Job, JobAtomSets
from repro.workload.query import Query, SubQuery

__all__ = ["Batch", "RunObservation", "Scheduler"]


@dataclass
class Batch:
    """One scheduling decision: atoms evaluated in a single pass.

    ``atoms`` preserves the order the executor must read them in
    (Morton order within a time step, per §III-B/§V).  Each atom
    carries every sub-query drained from its workload queue.
    """

    atoms: list[tuple[int, list[SubQuery]]] = field(default_factory=list)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_positions(self) -> int:
        return sum(sq.n_positions for _, subs in self.atoms for sq in subs)

    def atom_ids(self) -> list[int]:
        return [a for a, _ in self.atoms]


@dataclass(frozen=True)
class RunObservation:
    """Performance of one run of ``r`` consecutive completed queries,
    handed to the scheduler at each run boundary (§V-A)."""

    run_index: int
    mean_response_time: float
    throughput: float


class Scheduler(ABC):
    """Abstract scheduler; see the module docstring for the protocol."""

    #: human-readable name used in experiment tables
    name: str = "scheduler"

    def on_job_submitted(self, job: Job, now: float, atom_sets: JobAtomSets) -> None:
        """A job is entering the system (before its queries arrive).
        ``atom_sets()`` gives ``A(q)`` of each of its queries as an
        :class:`~repro.workload.query.AtomSet`, computed once for every
        node that asks."""

    @abstractmethod
    def on_query_arrival(self, query: Query, subqueries: Sequence[SubQuery], now: float) -> None:
        """A query's precedence constraints are satisfied; its
        pre-processed sub-queries are handed over (a record of columns
        from pre-processing, or a list of re-admitted ones)."""

    @abstractmethod
    def next_batch(self, now: float) -> Optional[Batch]:
        """Return the next batch to execute, or ``None`` if no
        sub-queries are currently queued."""

    @abstractmethod
    def has_pending(self) -> bool:
        """True while any admitted query has undrained sub-queries or
        is held back by gating."""

    def on_query_complete(self, query: Query, now: float) -> None:
        """All of a query's sub-queries finished executing."""

    def on_run_boundary(self, obs: RunObservation) -> None:
        """A run of ``r`` queries completed (adaptive-α hook)."""

    def queue_depth(self) -> int:
        """Pending sub-queries on this node (queued + internally held);
        diagnostics for error reports and fault bookkeeping."""
        return 0

    def evacuate(self, now: float) -> list[tuple[float, "SubQuery"]]:
        """Remove and return all pending work as ``(arrival_time,
        sub-query)`` pairs (node failover).  Default: nothing to move."""
        return []

    def readmit(self, entries: list[tuple[float, "SubQuery"]], now: float) -> None:
        """Accept sub-queries evacuated or failed over from another
        node.  ``entries`` are ``(original_arrival, sub-query)`` pairs;
        implementations must preserve those ages where they track age.

        The default funnels them through ``on_query_arrival`` grouped
        by query, using each group's oldest arrival as its time.
        """
        by_query: dict[int, tuple[Query, float, list[SubQuery]]] = {}
        for arrival, sq in entries:
            qid = sq.query.query_id
            if qid in by_query:
                query, oldest, subs = by_query[qid]
                by_query[qid] = (query, min(oldest, arrival), subs + [sq])
            else:
                by_query[qid] = (sq.query, arrival, [sq])
        for query, oldest, subs in by_query.values():
            self.on_query_arrival(query, subs, oldest)

    def cancel_query(self, query_id: int, now: float) -> int:
        """Drop every pending sub-query of a cancelled (timed-out or
        data-lost) query and release any gating state referencing it.
        Returns the number of sub-queries removed."""
        return 0

    def pending_by_query(self) -> dict[int, int]:
        """Every sub-query this scheduler currently holds (queued *and*
        internally held, e.g. by gating), counted per query id; a query
        with none is absent.  The simulation sanitizer's conservation
        sweep and queue-bound shedding read it; implementations must not
        mutate state."""
        return {}

    def force_release(self, now: float) -> bool:
        """Liveness valve: release any internally held queries.

        Returns True if anything was released.  The engine calls this
        only if the executor is idle, no batch is available, no future
        event is pending, and incomplete queries remain — which a
        correct gating graph never triggers (asserted in tests).
        """
        return False

    def cache_utility_fn(self) -> Optional[Callable[[int], tuple]]:
        """Utility ranking exported to URC (lower = evict sooner);
        ``None`` if this scheduler does not coordinate caching."""
        return None

    @property
    def current_alpha(self) -> Optional[float]:
        """Current age bias, if the scheduler uses one (diagnostics)."""
        return None
