"""Jobs: ordered and batched query sequences (paper §IV).

A *job* is a collection of queries belonging to one experiment.
*Ordered* jobs (e.g. particle tracking) have data dependencies — query
``i+1``'s positions are computed from query ``i``'s results, so queries
must run one after the other, with user *think time* in between while
positions are integrated client-side.  *Batched* jobs (e.g. aggregate
statistics) have independent queries that may run in any order; JAWS
treats them like one-off queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.grid.dataset import DatasetSpec
from repro.workload.query import AtomSet, Query

__all__ = ["JobKind", "Job", "JobAtomSets"]


class JobKind(enum.Enum):
    """Execution-order semantics of a job's queries."""

    ORDERED = "ordered"
    BATCHED = "batched"


@dataclass
class Job:
    """A sequence of queries from one experiment.

    Attributes
    ----------
    job_id:
        Globally unique id.
    kind:
        Ordering semantics (see :class:`JobKind`).
    user_id:
        Submitting user.
    submit_time:
        Engine time at which the job (its first query, for ordered
        jobs; all queries, for batched jobs) arrives.
    think_time:
        Ordered jobs only: seconds of client-side computation between
        a query's completion and the arrival of the next query.
    queries:
        The job's query sequence, ``seq`` ascending.
    client_class:
        Traffic class used by overload protection (admission classes,
        weighted fair quotas, shed ordering — DESIGN.md §9).  Derived
        from the job shape when left empty: ``"batch"`` for batched
        statistics jobs, ``"tracking"`` for multi-query ordered jobs,
        ``"interactive"`` for one-off point queries.
    """

    job_id: int
    kind: JobKind
    user_id: int
    submit_time: float
    think_time: float = 0.0
    queries: list[Query] = field(default_factory=list)
    client_class: str = ""

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError("submit_time must be non-negative")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not self.client_class:
            if self.kind is JobKind.BATCHED:
                self.client_class = "batch"
            elif len(self.queries) > 1:
                self.client_class = "tracking"
            else:
                self.client_class = "interactive"
        for i, q in enumerate(self.queries):
            if q.seq != i:
                raise ValueError(f"query seq {q.seq} at index {i}: must be contiguous from 0")
            if q.job_id != self.job_id:
                raise ValueError("query.job_id does not match job")

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def n_positions(self) -> int:
        return sum(q.n_positions for q in self.queries)

    @property
    def is_ordered(self) -> bool:
        return self.kind is JobKind.ORDERED

    @property
    def timesteps(self) -> set[int]:
        """Distinct time steps the job's queries access."""
        return {q.timestep for q in self.queries}

    def validate_ordered_chain(self) -> None:
        """Sanity check for generated ordered jobs: each query advances
        the time step monotonically (particle tracking semantics)."""
        if not self.is_ordered:
            return
        steps = [q.timestep for q in self.queries]
        if any(b < a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"ordered job {self.job_id} has non-monotonic time steps: {steps}")


class JobAtomSets:
    """``A(q)`` of each of one submitted job's queries, computed on the
    first call and then served from the memo.

    The engine makes one per job submission and hands it to every
    node's scheduler (a sharded run sends it along with the job notice),
    so a cluster computes a job's sets at most once and every gating
    graph holds the same :class:`~repro.workload.query.AtomSet`
    objects.  It is dropped once the submission is handled; a gating
    graph keeps each set only while its vertex is live.
    """

    __slots__ = ("job", "spec", "_sets")

    def __init__(self, job: Job, spec: DatasetSpec) -> None:
        self.job = job
        self.spec = spec
        self._sets: Optional[list[AtomSet]] = None

    def __call__(self) -> list[AtomSet]:
        if self._sets is None:
            self._sets = [q.atoms(self.spec) for q in self.job.queries]
        return self._sets
