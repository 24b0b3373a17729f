"""LifeRaft scheduler adapted to Turbulence (paper §III).

Data-driven batch processing: atoms are evaluated greedily in
decreasing (aged) workload-throughput order, one atom per pass, with
all pending sub-queries against the atom co-scheduled.  The age bias
``alpha`` is fixed at initialization — LifeRaft's starvation knob is
manual, not adaptive, and there is no two-level framework or
job-awareness:

* ``alpha = 0`` → the paper's ``LifeRaft_2`` (pure contention order,
  throughput-maximizing);
* ``alpha = 1`` → ``LifeRaft_1`` (arrival order, but queries
  referencing the same atom as the oldest request are still
  co-scheduled — which is what distinguishes it from NoShare).

Reduced metric
--------------

With ``config.metric.normalize`` and ``alpha`` exactly 0 or 1 (the
only values :func:`~repro.engine.runner.make_scheduler` uses), Eq. 2
reduces **bit-exactly** to one min–max over one packed column, so the
decision skips the order-restoring active view and the full
:func:`~repro.core.metrics.aged_metric` evaluation:

* ``alpha = 0``: ``a_term * 0.0`` is ``+0.0`` for every element
  (min–max terms are nonnegative) and ``u_term * 1.0 + 0.0`` is
  ``u_term`` bitwise, so ``U_e == minmax(U_t)``.
* ``alpha = 1``: symmetrically ``U_e == minmax(now - oldest)``.
* With ``span > 0``, monotonicity of correctly rounded subtraction and
  division gives ``minmax(x) <= 1.0`` elementwise with equality at the
  maximum, so ``U_e.max()`` is exactly ``1.0`` and the tie set is
  ``(x - lo) / span == 1.0`` — computed on the *divided* values, never
  on raw ``x`` (distinct raw values can round to the same quotient).
* With ``span <= 0`` the exact metric is all zeros: every atom ties.

Min, max and tie reductions do not depend on order, so this path reads
the packed (swap-remove-permuted) columns directly.  Any other
``alpha`` or ``normalize=False`` takes the generic
:meth:`~repro.core.contention.ContentionSchedulerBase._metric_view`.

Tie-set cache
-------------

LifeRaft drains one atom per decision, and most decisions are *pure
drains*: no arrival, cancellation, or cache insert/evict touches a
queued atom in between (each such mutation bumps ``queues.version``).
Across a pure-drain stretch the cached tie set is replayed in
ascending-id order without re-reducing the columns, because the next
exact evaluation is *forced* to reproduce it:

* ``alpha = 0``: the cache is only kept when the tie set equals the
  exact-max set ``{u == u.max()}`` bitwise (checked at build time; a
  rounding-collapsed tie, where ``u < max`` normalizes to exactly
  ``1.0``, disables caching).  Draining one max row leaves the max
  attained, the min attained (``span > 0`` means no max row is the
  min), and every other ``u`` unchanged — so the formula's inputs are
  unchanged and the next tie set is exactly the cache minus the
  drained atom.
* ``alpha = 1``: ages move with ``now``, so input stability does not
  apply.  The cache is kept only when (a) the tie set equals the exact
  ``oldest``-argmin set and (b) a no-collapse margin holds:
  ``o_second - o_min > 2**-40 * (o_span + T)`` with ``T`` a finite
  bound on the clock (``max_sim_time``).  Argmin members always
  normalize to exactly ``1.0`` (their age is bitwise the max, so the
  numerator is bitwise the span); the margin guarantees no non-member
  quotient can round up to ``1.0`` at *any* later clock: each of the
  ~4 roundings contributes relative error ``2**-53`` plus absolute
  error ``2**-53 * now`` from the age subtraction, totalling under
  ``2**-48 * (o_span + T) / o_span`` of quotient error against a
  reserved headroom of ``2**-40 * (1 + T / o_span)`` — 256× slack.
  The margin also keeps the normalized span strictly positive, so the
  all-tie ``span <= 0`` branch cannot activate mid-stretch.  Without a
  finite clock bound (``max_sim_time`` of ``None`` or infinity) the
  margin cannot be established and ``alpha = 1`` never caches.

When the build-time conditions fail (they require distinct metric
values within ~2⁻⁴⁰ relative distance) the scheduler recomputes every
decision; correctness never depends on the cache being usable.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.config import CostModel, SchedulerConfig
from repro.core.base import Batch
from repro.core.contention import ContentionSchedulerBase
from repro.grid.dataset import DatasetSpec

__all__ = ["LifeRaftScheduler"]

#: Relative no-collapse margin of the alpha = 1 tie-set cache.
_TIE_MARGIN = 2.0**-40


class LifeRaftScheduler(ContentionSchedulerBase):
    """Single-atom contention/age-ordered batch scheduler.

    ``max_sim_time`` bounds the virtual clock; a finite bound enables
    the ``alpha = 1`` tie-set cache (see the module docstring).
    """

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        config: Optional[SchedulerConfig] = None,
        alpha: Optional[float] = None,
        max_sim_time: Optional[float] = None,
    ) -> None:
        config = config or SchedulerConfig()
        if alpha is not None:
            config = config.with_(alpha=alpha)
        # LifeRaft never adapts alpha nor batches beyond one atom.
        config = config.with_(
            adaptive_alpha=False, two_level=False, batch_size=1, job_aware=False
        )
        super().__init__(spec, cost, config)
        self.name = f"LifeRaft(alpha={config.alpha:g})"
        self._reduced = config.metric.normalize and config.alpha in (0.0, 1.0)
        self._time_bound = (
            max_sim_time if max_sim_time is not None and math.isfinite(max_sim_time) else None
        )
        # Cached tie set: ascending atom ids, next index to drain, and
        # the queue version the cache is valid for.
        self._tie_ids: list[int] = []
        self._tie_pos = 0
        self._tie_ver = -1

    def next_batch(self, now: float) -> Optional[Batch]:
        if not self._reduced:
            ids, _, _, u_e = self._metric_view(now)
            if len(ids) == 0:
                return None
            # Tie-break equal metrics by packed atom id: cached atoms all
            # share U_t = 1/T_m, and draining ties in (timestep, Morton)
            # order preserves disk sequentiality and stencil locality.
            ties = np.flatnonzero(u_e == u_e.max())
            return self._drain([int(ids[ties].min())])
        queues = self.queues
        if queues.version == self._tie_ver and self._tie_pos < len(self._tie_ids):
            # Pure-drain stretch: replay the cached tie set.
            best = self._tie_ids[self._tie_pos]
            self._tie_pos += 1
            batch = self._drain([best])
            self._tie_ver = queues.version
            return batch
        ids, ut, oldest = queues.packed()
        if len(ids) == 0:
            return None
        alpha_zero = self.config.alpha == 0.0
        v = ut if alpha_zero else now - oldest
        lo = v.min()
        hi = v.max()
        span = hi - lo
        if span <= 0:
            tie_ids = ids
            # alpha = 0: all u bitwise equal, and draining preserves
            # that.  alpha = 1: equal *computed* ages can hide distinct
            # oldest values that diverge at a later clock, so cache only
            # the bitwise all-equal case.
            cacheable = alpha_zero or int(np.count_nonzero(oldest == oldest.min())) == len(ids)
        else:
            tie_ids = ids[(v - lo) / span == 1.0]
            if alpha_zero:
                cacheable = tie_ids.size == np.count_nonzero(v == hi)
            else:
                cacheable = self._age_ties_stable(oldest, tie_ids.size)
        if cacheable and tie_ids.size > 1:
            self._tie_ids = np.sort(tie_ids).tolist()
            self._tie_pos = 1
            batch = self._drain([self._tie_ids[0]])
            self._tie_ver = queues.version
            return batch
        self._tie_ver = -1
        return self._drain([int(tie_ids.min())])

    def _age_ties_stable(self, oldest: np.ndarray, n_ties: int) -> bool:
        """The alpha = 1 caching conditions: the tie set is exactly the
        ``oldest``-argmin set and the no-collapse margin holds."""
        if self._time_bound is None:
            return False
        o_min = oldest.min()
        if int(np.count_nonzero(oldest == o_min)) != n_ties:
            return False
        o_span = float(oldest.max() - o_min)
        margin = _TIE_MARGIN * (o_span + self._time_bound)
        return float(oldest[oldest != o_min].min() - o_min) > margin
