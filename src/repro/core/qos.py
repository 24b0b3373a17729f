"""Quality-of-service scheduling (paper §VII, future work).

The Discussion proposes "predictable and fair completion time
guarantees that are proportional to query size (e.g. short queries are
delayed less than long queries)", observing that "even with real-time
constraints that bound the completion time of queries, there is still
elasticity in the workload that permits the reordering of queries to
exploit data sharing."

:class:`QoSJAWSScheduler` implements that proposal on top of JAWS:

* every query receives a *proportional deadline*
  ``arrival + slack_factor × estimated_service`` where the service
  estimate is the query's own I/O + compute cost (so short queries get
  tight deadlines and long scans loose ones);
* while no deadline is at risk inside ``lookahead`` seconds, scheduling
  is plain JAWS (full elasticity, maximal sharing);
* once queries become *urgent*, their atoms are batched
  earliest-deadline-first (still draining each atom's whole queue, so
  sharing survives even in the EDF regime).

The scheduler tracks misses and tardiness for the QoS bench.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import CostModel, SchedulerConfig
from repro.core.base import Batch
from repro.core.jaws import JAWSScheduler
from repro.errors import ConfigurationError
from repro.grid.dataset import DatasetSpec
from repro.overload.shedding import estimate_service
from repro.workload.query import Query, SubQuery

__all__ = ["QoSJAWSScheduler"]


class QoSJAWSScheduler(JAWSScheduler):
    """JAWS with proportional-deadline urgency override.

    Parameters
    ----------
    slack_factor:
        Deadline = arrival + slack_factor × estimated service time.
        Smaller = tighter guarantees, less elasticity.
    lookahead:
        Queries whose deadline falls within ``lookahead`` seconds of
        now are treated as urgent.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        config: Optional[SchedulerConfig] = None,
        slack_factor: float = 20.0,
        lookahead: float = 5.0,
    ) -> None:
        super().__init__(spec, cost, config)
        if not isinstance(slack_factor, (int, float)) or isinstance(slack_factor, bool):
            raise ConfigurationError(
                f"slack_factor must be a number, got {type(slack_factor).__name__}"
            )
        if slack_factor <= 0:
            raise ConfigurationError("slack_factor must be positive")
        if not isinstance(lookahead, (int, float)) or isinstance(lookahead, bool):
            raise ConfigurationError(
                f"lookahead must be a number, got {type(lookahead).__name__}"
            )
        if lookahead < 0:
            raise ConfigurationError("lookahead must be non-negative")
        self.name = f"QoS-JAWS(slack={slack_factor:g})"
        self.slack_factor = float(slack_factor)
        self.lookahead = float(lookahead)
        self._deadline: dict[int, float] = {}  # query_id -> deadline
        self._atom_deadline: dict[int, float] = {}  # atom -> earliest deadline
        self.deadline_misses = 0
        self.completed = 0
        self.cancelled = 0
        self.total_tardiness = 0.0

    # ------------------------------------------------------------------
    def on_query_arrival(self, query: Query, subqueries: Sequence[SubQuery], now: float) -> None:
        if subqueries:  # queries without local work carry no local deadline
            service = estimate_service(subqueries, self.cost)
            self._deadline[query.query_id] = now + self.slack_factor * service
        super().on_query_arrival(query, subqueries, now)

    def _enqueue(self, subqueries: Sequence[SubQuery], now: float) -> None:
        super()._enqueue(subqueries, now)
        for sq in subqueries:
            deadline = self._deadline.get(sq.query.query_id)
            if deadline is None:
                continue
            cur = self._atom_deadline.get(sq.atom_id)
            if cur is None or deadline < cur:
                self._atom_deadline[sq.atom_id] = deadline

    # ------------------------------------------------------------------
    def next_batch(self, now: float) -> Optional[Batch]:
        urgent = [
            (deadline, atom)
            for atom, deadline in self._atom_deadline.items()
            if deadline <= now + self.lookahead and atom in self.queues
        ]
        if urgent:
            urgent.sort()
            chosen = [atom for _, atom in urgent[: self.config.batch_size]]
            # Morton order within the batch preserves disk sequentiality.
            batch = self._drain(sorted(chosen))
        else:
            batch = super().next_batch(now)
        if batch is not None:
            for atom, _ in batch.atoms:
                self._atom_deadline.pop(atom, None)
        return batch

    # ------------------------------------------------------------------
    def on_query_complete(self, query: Query, now: float) -> None:
        super().on_query_complete(query, now)
        deadline = self._deadline.pop(query.query_id, None)
        if deadline is None:
            return
        self.completed += 1
        if now > deadline:
            self.deadline_misses += 1
            self.total_tardiness += now - deadline

    def cancel_query(self, query_id: int, now: float) -> None:
        """A cancelled/shed query is a QoS outcome too: it counts as a
        deadline miss (the guarantee was not delivered), with tardiness
        accrued for however far past its deadline it already was.
        Earlier versions silently dropped cancelled queries from the
        accounting, understating the miss rate under faults and
        overload."""
        super().cancel_query(query_id, now)
        deadline = self._deadline.pop(query_id, None)
        self._atom_deadline = {
            atom: dl for atom, dl in self._atom_deadline.items() if atom in self.queues
        }
        if deadline is None:
            return
        self.cancelled += 1
        self.deadline_misses += 1
        if now > deadline:
            self.total_tardiness += now - deadline

    @property
    def _accounted(self) -> int:
        """Queries with a QoS outcome: completed plus cancelled."""
        return self.completed + self.cancelled

    @property
    def miss_rate(self) -> float:
        """Fraction of accounted (completed + cancelled) queries that
        missed their deadline — cancellations count as misses."""
        return self.deadline_misses / self._accounted if self._accounted else 0.0

    @property
    def mean_tardiness(self) -> float:
        """Mean lateness over accounted (completed + cancelled)
        queries, seconds."""
        return self.total_tardiness / self._accounted if self._accounted else 0.0
