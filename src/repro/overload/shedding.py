"""Load-shedding policies: who to drop when the queues are full.

A policy ranks *pending* (admitted, incomplete) queries into shed
order.  All policies are class-aware: lighter-weighted client classes
(batch before tracking before interactive, under the default weights)
are shed first, so the brownout promise — batch degrades before
interactive — holds at every layer.  Within a class, the configured
policy decides:

``reject-newest``
    Drop the most recently arrived first.  The classic bounded-queue
    discipline: clients that just arrived lose the least invested
    service time, and the retry hint is honest.
``low-density``
    Drop the lowest *workload density* — positions per touched atom —
    first.  Density is the per-query analogue of the paper's workload
    throughput (Eq. 1): a low-density query buys the least sharing per
    unit of I/O, so shedding it costs the batch schedule the least.
``deadline``
    Drop queries whose proportional deadline (``arrival +
    slack_factor x estimated service``, reusing the QoS-JAWS service
    estimate) provably cannot be met: even if scheduled immediately at
    ``now``, the query would finish late.  Feasible queries are only
    shed after every infeasible one, least slack first.

Policies are pure functions of the candidate set and the virtual
clock — no randomness, no wall-clock — so shedding is deterministic
and bit-identical across same-seed runs and crash+resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.config import CostModel, SHED_POLICIES
from repro.errors import ConfigurationError
from repro.workload.query import SubQueries, SubQuery

__all__ = ["PendingWork", "ShedPolicy", "estimate_service", "make_shed_policy"]


def estimate_service(subqueries: Sequence[SubQuery], cost: CostModel) -> float:
    """Standalone service estimate of one query's sub-queries: one atom
    read per sub-query plus per-position compute (the QoS scheduler's
    deadlines use it too).  A :class:`SubQueries` record is read from
    its columns; a plain list (sub-queries routed from a peer shard)
    one sub-query at a time."""
    if isinstance(subqueries, SubQueries):
        n_positions = int(subqueries.n_positions.sum())
    else:
        n_positions = sum(sq.n_positions for sq in subqueries)
    return len(subqueries) * cost.t_b + n_positions * cost.t_m


@dataclass
class PendingWork:
    """Shedding's view of one admitted, incomplete query.

    Registered by the engine at arrival and dropped at
    completion/cancellation; plain picklable data, so it travels in
    checkpoint snapshots.

    Attributes
    ----------
    query_id / job_id / client_class:
        Identity and admission class.
    arrival:
        Virtual arrival time (reject-newest key, deadline base).
    n_subqueries:
        Sub-queries (atoms touched) at admission — the slots the query
        occupies in the fair-share accounting.
    density:
        Positions per touched atom (low-density key).
    service_estimate:
        Standalone service estimate, virtual seconds.
    deadline:
        Proportional deadline ``arrival + slack_factor x estimate``.
    class_weight:
        Fair-share weight of the client class (shed order: lighter
        classes first).
    """

    query_id: int
    job_id: int
    client_class: str
    arrival: float
    n_subqueries: int
    density: float
    service_estimate: float
    deadline: float
    class_weight: float

    def infeasible(self, now: float) -> bool:
        """True when the deadline cannot be met even if the query were
        scheduled immediately at ``now``."""
        return now + self.service_estimate > self.deadline

    def slack(self, now: float) -> float:
        """Seconds to spare if scheduled immediately (negative =
        provably late)."""
        return self.deadline - now - self.service_estimate


class ShedPolicy:
    """Victim ranking over pending queries.

    ``rank`` returns candidates in shed order (first = first victim).
    The class weight is always the primary key — overload protection
    never sheds an interactive point query while a batch scan's work
    could be shed instead.
    """

    name: str = "policy"

    def __init__(self, key: Callable[[PendingWork, float], Tuple[float, ...]]) -> None:
        self._key = key

    def rank(self, candidates: Sequence[PendingWork], now: float) -> List[PendingWork]:
        return sorted(
            candidates,
            key=lambda p: (p.class_weight,) + self._key(p, now) + (p.query_id,),
        )

    def infeasible(
        self, candidates: Sequence[PendingWork], now: float
    ) -> List[PendingWork]:
        """Candidates whose deadline provably cannot be met, in shed
        order (used by the ``deadline`` policy's tick sweep)."""
        return self.rank([p for p in candidates if p.infeasible(now)], now)


def _newest_key(p: PendingWork, now: float) -> Tuple[float, ...]:
    return (-p.arrival,)


def _density_key(p: PendingWork, now: float) -> Tuple[float, ...]:
    return (p.density,)


def _deadline_key(p: PendingWork, now: float) -> Tuple[float, ...]:
    # Infeasible first (0 sorts before 1), then least slack.
    return (0.0 if p.infeasible(now) else 1.0, p.slack(now))


def make_shed_policy(name: str) -> ShedPolicy:
    """Instantiate a shed policy by its configured name."""
    keys: dict[str, Callable[[PendingWork, float], Tuple[float, ...]]] = {
        "reject-newest": _newest_key,
        "low-density": _density_key,
        "deadline": _deadline_key,
    }
    if name not in keys:
        raise ConfigurationError(
            f"unknown shed policy {name!r}; choose from {SHED_POLICIES}"
        )
    policy = ShedPolicy(keys[name])
    policy.name = name
    return policy
