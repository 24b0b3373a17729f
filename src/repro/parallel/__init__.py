"""Deterministic parallel evaluation of independent simulation runs.

See :mod:`repro.parallel.pool` for :func:`run_spec` (the one router
from a :class:`RunSpec` to the engine), the fan-out primitives and the
determinism argument (DESIGN.md §10), and
:mod:`repro.parallel.supervisor` for the supervised execution layer —
watchdogs, salvage outcomes, resource guards — plus
:mod:`repro.parallel.journal` for crash-resumable campaigns
(DESIGN.md §13).
"""

from repro.parallel.journal import JOURNAL_FORMAT_VERSION, CampaignJournal
from repro.parallel.pool import RunSpec, map_many, run_many, run_many_outcomes, run_spec
from repro.parallel.supervisor import (
    Outcome,
    SupervisorConfig,
    TaskFailure,
    supervise,
    task_digest,
)

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "CampaignJournal",
    "Outcome",
    "RunSpec",
    "SupervisorConfig",
    "TaskFailure",
    "map_many",
    "run_many",
    "run_many_outcomes",
    "run_spec",
    "supervise",
    "task_digest",
]
