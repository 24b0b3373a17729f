"""The JAWS scheduler (paper §IV–V).

Extends LifeRaft's contention-ordered batching with:

* **two-level scheduling** — pick the best time step by mean aged
  workload throughput, then co-schedule up to ``k`` above-mean atoms
  from it in Morton order (§V, Fig. 6);
* **job-aware gated execution** — ordered jobs are aligned
  (Needleman–Wunsch) and merged into a precedence graph with gating
  edges; gated queries are held in READY and released together so
  shared atoms are read once (§IV);
* **adaptive starvation resistance** — the age bias α is tuned per run
  of ``r`` completed queries from observed throughput/response-time
  trade-offs (§V-A);
* **cache coordination** — exports the URC utility ranking (inherited
  from :class:`~repro.core.contention.ContentionSchedulerBase`).

The paper's two evaluation variants map to configuration:
``JAWS_1`` = ``SchedulerConfig(job_aware=False)``, ``JAWS_2`` = full.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.config import CostModel, SchedulerConfig
from repro.core.adaptive import AdaptiveAlphaController
from repro.core.base import Batch, RunObservation
from repro.core.contention import ContentionSchedulerBase
from repro.core.merge import GatingManager
from repro.core.two_level import select_two_level
from repro.grid.dataset import DatasetSpec
from repro.workload.job import Job, JobAtomSets
from repro.workload.query import Query, SubQuery

__all__ = ["JAWSScheduler"]


class JAWSScheduler(ContentionSchedulerBase):
    """Job-aware, two-level, adaptively-aged batch scheduler."""

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        config: Optional[SchedulerConfig] = None,
    ) -> None:
        config = config or SchedulerConfig(adaptive_alpha=True)
        super().__init__(spec, cost, config)
        variant = "2" if config.job_aware else "1"
        self.name = f"JAWS_{variant}"
        self._controller = (
            AdaptiveAlphaController(alpha=config.alpha) if config.adaptive_alpha else None
        )
        self._gating = GatingManager() if config.job_aware else None
        # READY queries held back by gating:
        # query_id -> (query, subqueries, arrival_time).
        self._held: dict[int, tuple[Query, list[SubQuery], float]] = {}
        # Completed-query counts since each held query went READY (lag valve).
        self._held_lag: dict[int, int] = {}
        self.forced_releases = 0

    # ------------------------------------------------------------------
    # Job awareness
    # ------------------------------------------------------------------
    def on_job_submitted(self, job: Job, now: float, atom_sets: JobAtomSets) -> None:
        if self._gating is None or not job.is_ordered or job.n_queries < 2:
            return
        self._gating.add_job(job.job_id, [q.query_id for q in job.queries], atom_sets())

    def on_query_arrival(self, query: Query, subqueries: list[SubQuery], now: float) -> None:
        if self._gating is None or not self._gating.is_tracked(query.query_id):
            self._enqueue(subqueries, now)
            return
        self._held[query.query_id] = (query, subqueries, now)
        released = self._gating.on_arrival(query.query_id)
        if released is None:
            self._held_lag[query.query_id] = 0
            return
        self._release(released, now)

    def _release(self, query_ids: list[int], now: float) -> None:
        for qid in query_ids:
            entry = self._held.pop(qid, None)
            self._held_lag.pop(qid, None)
            if entry is not None:
                self._enqueue(entry[1], now)

    def on_query_complete(self, query: Query, now: float) -> None:
        if self._gating is None:
            return
        self._gating.on_complete(query.query_id)
        # Liveness valve: a query held past gating_max_lag completions
        # abandons its gates (bounded starvation from gating itself).
        max_lag = self.config.gating_max_lag
        if max_lag is not None and self._held:
            expired = []
            for qid in self._held:
                self._held_lag[qid] = self._held_lag.get(qid, 0) + 1
                if self._held_lag[qid] >= max_lag:
                    expired.append(qid)
            if expired:
                self.forced_releases += len(expired)
                self._release(expired, now)

    # ------------------------------------------------------------------
    # Batch selection
    # ------------------------------------------------------------------
    def next_batch(self, now: float) -> Optional[Batch]:
        ids, timesteps, u_t, u_e = self._metric_view(now)
        if len(ids) == 0:
            return None
        if self.config.two_level:
            chosen = select_two_level(ids, timesteps, u_t, u_e, self.config.batch_size)
        else:
            ties = np.flatnonzero(u_e == u_e.max())
            chosen = [int(ids[ties].min())]
        return self._drain(chosen)

    def has_pending(self) -> bool:
        return super().has_pending() or bool(self._held)

    def queue_depth(self) -> int:
        held = sum(len(entry[1]) for entry in self._held.values())
        return super().queue_depth() + held

    def iter_pending(self) -> Iterator[SubQuery]:
        yield from super().iter_pending()
        for _, subs, _ in self._held.values():
            yield from subs

    # ------------------------------------------------------------------
    # Degraded-mode hooks (node failover, query cancellation)
    # ------------------------------------------------------------------
    def evacuate(self, now: float) -> list[tuple[float, SubQuery]]:
        """Queued work plus the sub-queries of gating-held queries.

        Held entries stay in place (emptied) so the gating graph keeps
        advancing symmetrically across nodes; only their local work
        moves to a replica.
        """
        entries = super().evacuate(now)
        for qid, (query, subs, arrival) in list(self._held.items()):
            if subs:
                entries.extend((arrival, sq) for sq in subs)
                self._held[qid] = (query, [], arrival)
        return entries

    def readmit(self, entries: list[tuple[float, SubQuery]], now: float) -> None:
        """Failed-over sub-queries of a query this node still holds in
        READY join its held entry (released with its gating group);
        everything else enters the workload queues directly."""
        passthrough: list[tuple[float, SubQuery]] = []
        for arrival, sq in entries:
            held = self._held.get(sq.query.query_id)
            if held is not None:
                held[1].append(sq)
            else:
                passthrough.append((arrival, sq))
        super().readmit(passthrough, now)

    def cancel_query(self, query_id: int, now: float) -> int:
        removed = super().cancel_query(query_id, now)
        entry = self._held.pop(query_id, None)
        self._held_lag.pop(query_id, None)
        if entry is not None:
            removed += len(entry[1])
        if self._gating is not None:
            released = self._gating.cancel(query_id)
            if released:
                self._release(released, now)
        return removed

    def force_release(self, now: float) -> bool:
        """Release every gated hold (engine liveness valve)."""
        if self._gating is None or not self._held:
            return False
        released = self._gating.release_all_ready()
        # Also flush holds whose graph entries were already released or
        # pruned (defensive; should coincide with `released`).
        to_release = set(released) | set(self._held)
        self.forced_releases += len(to_release)
        self._release(sorted(to_release), now)
        return True

    # ------------------------------------------------------------------
    # Adaptive alpha
    # ------------------------------------------------------------------
    def on_run_boundary(self, obs: RunObservation) -> None:
        if self._controller is not None:
            self._alpha = self._controller.update(obs.mean_response_time, obs.throughput)

    @property
    def alpha_history(self) -> list[float]:
        """α after each run (empty when adaptation is off)."""
        return list(self._controller.history) if self._controller else []

    @property
    def held_count(self) -> int:
        """Queries currently held in READY by gating (diagnostics)."""
        return len(self._held)
