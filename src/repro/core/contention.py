"""Shared machinery of the contention-based schedulers.

LifeRaft and JAWS both schedule *atoms* out of per-atom workload queues
ranked by the (aged) workload-throughput metric, and both can
coordinate the buffer cache's URC policy by exporting a utility
ranking.  :class:`ContentionSchedulerBase` implements that common core:
queue ownership, cache binding (``phi`` residency flags + URC utility
export + invalidation), vectorized metric evaluation, and batch
draining.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.config import CostModel, SchedulerConfig
from repro.core.base import Batch, Scheduler
from repro.core.metrics import aged_metric, workload_throughput
from repro.core.queues import WorkloadQueues
from repro.grid.dataset import DatasetSpec
from repro.storage.buffer import BufferCache
from repro.workload.query import Query, SubQuery

__all__ = ["ContentionSchedulerBase"]


class ContentionSchedulerBase(Scheduler):
    """Common base for queue-driven, contention-ordered schedulers."""

    def __init__(self, spec: DatasetSpec, cost: CostModel, config: SchedulerConfig) -> None:
        self.spec = spec
        self.cost = cost
        self.config = config
        # Preallocate one time step's worth of slots: the dataset is
        # known at construction and a step's atom count bounds the
        # typical working set, so early runs avoid regrowth entirely.
        self.queues = WorkloadQueues(
            spec.atoms_per_timestep, capacity_hint=spec.atoms_per_timestep, cost=cost
        )
        self._alpha = config.alpha
        self._cache: Optional[BufferCache] = None
        # URC utility memo: recomputed lazily after queue changes.
        self._utility_stale = True
        self._utility_atom: dict[int, float] = {}
        self._utility_ts_mean: dict[int, float] = {}
        # U_e memo keyed on the queue mutation version, now and alpha:
        # consecutive next_batch calls with no intervening queue change
        # (idle node sweeps, gated holds) skip recomputing Eq. 2.
        self._ue_memo: Optional[tuple[int, float, float, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Cache coordination
    # ------------------------------------------------------------------
    def bind_cache(self, cache: BufferCache) -> None:
        """Wire residency flags (Eq. 1's phi) and the URC utility feed."""
        self._cache = cache
        cache.add_listener(
            on_insert=self.queues.on_cache_insert,
            on_evict=self.queues.on_cache_evict,
        )
        cache.policy.set_utility_fn(self._utility)

    def cache_utility_fn(self) -> Optional[Callable[[int], tuple]]:
        return self._utility

    def _invalidate_utilities(self) -> None:
        self._utility_stale = True
        if self._cache is not None:
            self._cache.policy.invalidate_utilities()

    def _utility(self, atom_id: int) -> tuple:
        """URC rank of a resident atom: (mean step throughput, atom
        throughput), lower evicted sooner (§V-B).

        Uses phi = 1 (the cost *re-reading* the atom would incur if
        evicted); an idle atom ranks (0, 0) and goes first.
        """
        if self._utility_stale:
            view = self.queues.active_view()
            ids, ts = view.atom_ids, view.timesteps
            # What the workload loses if the atom must be re-read.
            u = workload_throughput(view.counts, np.zeros(len(ids), dtype=bool), self.cost)
            self._utility_atom = {int(a): float(v) for a, v in zip(ids, u)}
            self._utility_ts_mean = {}
            for step in np.unique(ts):
                self._utility_ts_mean[int(step)] = float(u[ts == step].mean())
            self._utility_stale = False
        step = atom_id // self.spec.atoms_per_timestep
        return (
            self._utility_ts_mean.get(step, 0.0),
            self._utility_atom.get(atom_id, 0.0),
        )

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def _enqueue(self, subqueries: Sequence[SubQuery], now: float) -> None:
        self.queues.add_query(subqueries, now)
        if subqueries:
            self._invalidate_utilities()

    def on_query_arrival(self, query: Query, subqueries: Sequence[SubQuery], now: float) -> None:
        self._enqueue(subqueries, now)

    def on_query_complete(self, query: Query, now: float) -> None:
        self.queues.forget_query(query.query_id)

    def _metric_view(
        self, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(atom_ids, timesteps, U_t, U_e)`` over atoms with work,
        grouped by time step (the queues' active view).

        ``U_t`` is the queues' maintained Eq. 1 column.  ``U_e`` is
        memoized on the queue version, ``now`` and alpha: when nothing
        arrived or drained between consecutive calls, the previous
        arrays are returned without recomputing Eq. 2.  The returned
        arrays are shared — callers must treat them as read-only.
        """
        view = self.queues.active_view()
        version = self.queues.version
        # Exact == on `now` is deliberate: it is a memo key, not a
        # clock comparison — any difference (even one ulp) must miss
        # the cache and recompute, which is always correct.
        memo = self._ue_memo
        if (
            memo is not None
            and memo[0] == version
            and memo[1] == now  # jawslint: disable=D005
            and memo[2] == self._alpha
        ):
            u_e = memo[3]
        else:
            u_e = aged_metric(view.u_t, view.oldest, now, self._alpha, self.config.metric)
            self._ue_memo = (version, now, self._alpha, u_e)
        return view.atom_ids, view.timesteps, view.u_t, u_e

    def _drain(self, atom_ids: list[int]) -> Batch:
        batch = Batch(atoms=[(a, self.queues.pop_atom(a)) for a in atom_ids])
        self._invalidate_utilities()
        return batch

    def has_pending(self) -> bool:
        return len(self.queues) > 0

    def queue_depth(self) -> int:
        return sum(len(subs) for subs in self.queues.iter_subquery_lists())

    def pending_by_query(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for subs in self.queues.iter_subquery_lists():
            for sq in subs:
                qid = sq.query.query_id
                counts[qid] = counts.get(qid, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Degraded-mode hooks (node failover, query cancellation)
    # ------------------------------------------------------------------
    def evacuate(self, now: float) -> list[tuple[float, SubQuery]]:
        """Pull every queued sub-query, tagged with its own true
        arrival time (the queues store per-sub-query arrivals)."""
        entries = self.queues.pop_all_entries()
        if entries:
            self._invalidate_utilities()
        return entries

    def readmit(self, entries: list[tuple[float, SubQuery]], now: float) -> None:
        """Re-admit failed-over sub-queries, oldest first so a fresh
        slot's age is set by its oldest member."""
        for arrival, sq in sorted(entries, key=lambda e: e[0]):
            self.queues.add(sq, arrival)
        if entries:
            self._invalidate_utilities()

    def cancel_query(self, query_id: int, now: float) -> int:
        removed = self.queues.remove_query(query_id)
        if removed:
            self._invalidate_utilities()
        return removed

    @property
    def current_alpha(self) -> float:
        return self._alpha
