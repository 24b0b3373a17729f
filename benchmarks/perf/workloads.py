"""The benchmark's four workloads and its correctness oracle.

Every workload is built only from public entry points: the calibrated
experiment knobs (``standard_spec``/``standard_params``/
``standard_engine``), ``generate_trace``, ``make_scheduler`` and
``Simulator`` (plus ``Simulator.restore`` for the recovery workload).
The simulator sees nothing but the generated trace and the engine
configuration.

Seeds.  Every workload runs the calibrated trace (generator seed 7, the
one EXPERIMENTS.md reports).  ``--seed`` relabels it: job and query ids
move by seeded offsets (seed 7 keeps them).  The relabeling keeps the
order of all ids, so it must leave every scheduling decision, and with
it the result digest, unchanged; at any seed the digest is checked
against the calibrated one.  Genuinely different inputs would not give
a steady benchmark: traces from other generator seeds differ in size
by up to ±20 %, and even a translated copy of the calibrated trace
(same work, other atom ids) changes LifeRaft's tie-breaks enough to
move host time by up to 40 %.

A workload is split into :func:`prepare` (set-up: trace generation plus
simulator and scheduler construction) and :meth:`Prepared.run` (the
measured run), so the two are timed separately.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.config import CheckpointConfig, EngineConfig, FaultConfig
from repro.engine.results import RunResult
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import CoordinatorCrash
from repro.experiments.common import (
    STANDARD_SPEEDUP,
    ExperimentScale,
    standard_engine,
    standard_params,
    standard_spec,
)
from repro.fuzz.oracles import normalize_result
from repro.workload import generator
from repro.workload.query import Query
from repro.workload.trace import Trace

#: The seed the experiment knobs are calibrated at (DESIGN.md §5).
CALIBRATED_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scheduler on a calibrated trace."""

    scheduler: str
    scale: ExperimentScale
    recover: bool = False


WORKLOADS: dict[str, Workload] = {
    # The paper's headline scheduler; alignment, gating, executor and
    # preprocessing all carry a visible share of host time.
    "jaws2-full": Workload("jaws2", ExperimentScale.FULL),
    # ~56k single-atom decisions: dominated by the per-decision metric
    # scan (active_view / workload_throughput / aged_metric); no gating.
    "liferaft2-small": Workload("liferaft2", ExperimentScale.SMALL),
    # ~198k events, trivial scheduler: executor, cache, disk and the
    # event loop itself.  The control for scheduler optimisations.
    "noshare-full": Workload("noshare", ExperimentScale.FULL),
    # Faults + a checkpoint every 200 events + a coordinator crash, then
    # restore and resume: the only workload touching the recovery layer.
    "jaws2-recover": Workload("jaws2", ExperimentScale.SMALL, recover=True),
}

#: Where ``jaws2-recover``'s coordinator crash lands, as a share of the
#: uninterrupted run's events (event 4988 of 8314 at seed 7).
CRASH_FRACTION = 0.6
#: Snapshot cadence of ``jaws2-recover``, in dispatched events.
CHECKPOINT_EVERY = 200

#: ``normalize_result`` fields the result digest covers.  A fixed
#: projection, so a new ``RunResult`` field does not change the digest;
#: wall-clock counters (gating and cache overhead) are left out.
DIGEST_FIELDS = ("response_times", "makespan", "job_durations", "alpha_history")
DIGEST_COUNTERS = {
    "cache": ("hits", "misses", "evictions"),
    "disk": ("reads", "sequential_reads", "failed_reads", "seconds"),
    "exec": (
        "batches", "atoms_executed", "neighbor_reads", "positions",
        "busy_seconds", "failed_atoms",
    ),
}


def _hex(value: Any) -> str:
    return float(value).hex()


def result_digest(result: RunResult) -> str:
    """SHA-256 over ``float.hex`` of a fixed projection of the result.

    Job durations enter in job-id order without the ids themselves, so
    the digest is the same under :func:`relabel`.
    """
    norm = normalize_result(result)
    h = hashlib.sha256()
    for name in DIGEST_FIELDS:
        value = norm[name]
        if isinstance(value, dict):
            parts = [_hex(value[k]) for k in sorted(value, key=int)]
        elif isinstance(value, list):
            parts = [_hex(v) for v in value]
        else:
            parts = [_hex(value)]
        h.update(f"{name}:{','.join(parts)};".encode())
    for group, keys in DIGEST_COUNTERS.items():
        parts = [f"{k}={_hex(norm[group].get(k, 0))}" for k in keys]
        h.update(f"{group}:{','.join(parts)};".encode())
    return h.hexdigest()


def relabel(trace: Trace, seed: int) -> Trace:
    """``trace`` with job and query ids moved by seeded offsets (none at seed 7)."""
    if seed == CALIBRATED_SEED:
        return trace
    rng = random.Random(seed)
    job_offset, query_offset = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
    jobs = [
        dataclasses.replace(job, job_id=job.job_id + job_offset, queries=[
            Query(q.query_id + query_offset, q.job_id + job_offset, q.seq, q.user_id,
                  q.op, q.timestep, q.positions)
            for q in job.queries
        ])
        for job in trace.jobs
    ]
    return Trace(trace.spec, jobs)


def build_trace(workload: Workload, seed: int, n_jobs: Optional[int] = None) -> Trace:
    """The calibrated trace of ``workload``, relabeled for ``seed``.

    ``n_jobs`` shrinks it (span shrinks in proportion, so contention
    stays the same) for smoke tests; the benchmark never sets it.
    """
    params = standard_params(workload.scale, CALIBRATED_SEED)
    if n_jobs is not None:
        params = dataclasses.replace(
            params, n_jobs=n_jobs, span=params.span * n_jobs / params.n_jobs
        )
    # Looked up on the module at call time, so a traced run sees it.
    trace = generator.generate_trace(standard_spec(), params).rescale(STANDARD_SPEEDUP)
    return relabel(trace, seed)


def engine_config(
    workload: Workload, checkpoint_dir: Optional[Path] = None, crash_at: Optional[int] = None,
) -> EngineConfig:
    """Engine configuration of ``workload``.

    The recovery workload runs with faults; ``checkpoint_dir`` and
    ``crash_at`` add checkpointing and the coordinator crash.
    """
    engine = standard_engine()
    if not workload.recover:
        return engine
    faults = FaultConfig(
        seed=CALIBRATED_SEED,
        transient_fault_rate=0.02,
        slow_read_rate=0.01,
        node_crashes=((0, 400.0, 430.0),),
        coordinator_crash_at=crash_at,
    )
    checkpoint = (
        CheckpointConfig(directory=str(checkpoint_dir), every_events=CHECKPOINT_EVERY)
        if checkpoint_dir is not None
        else CheckpointConfig()
    )
    return engine.with_(faults=faults, checkpoint=checkpoint)


@dataclass
class Prepared:
    """A constructed, not yet run simulation of one workload."""

    sim: Simulator
    checkpoint_dir: Optional[Path]

    def run(self) -> tuple[RunResult, int]:
        """The measured run: ``(result, events dispatched)``.

        With a checkpoint directory this is crash + restore + resume; a
        coordinator crash that never fires raises ``RuntimeError``.
        """
        if self.checkpoint_dir is None:
            return self.sim.run(), self.sim.event_index
        try:
            self.sim.run()
        except CoordinatorCrash:
            pass
        else:
            raise RuntimeError("the injected coordinator crash never fired")
        resumed = Simulator.restore(self.checkpoint_dir)
        return resumed.run(), resumed.event_index


def crash_point(reference_events: int) -> int:
    """Crash event of the recovery workload, from its uninterrupted run's length."""
    return max(1, int(CRASH_FRACTION * reference_events))


def prepare(
    name: str, seed: int, workdir: Optional[Path] = None,
    n_jobs: Optional[int] = None, crash_at: Optional[int] = None,
) -> Prepared:
    """Set-up of workload ``name``: build its trace and simulator.

    For the recovery workload, ``crash_at`` arms the coordinator crash
    and checkpointing into ``workdir`` (a fresh directory); without it
    this is the uninterrupted reference run.
    """
    workload = WORKLOADS[name]
    if crash_at is not None and not workload.recover:
        raise ValueError(f"workload {name!r} takes no crash point")
    if crash_at is not None and workdir is None:
        raise ValueError("a crash point needs a working directory for checkpoints")
    trace = build_trace(workload, seed, n_jobs)
    checkpoint_dir = workdir / "ckpt" if workdir is not None and crash_at is not None else None
    engine = engine_config(workload, checkpoint_dir, crash_at)
    sim = Simulator(trace, [make_scheduler(workload.scheduler, trace, engine)], engine)
    return Prepared(sim, checkpoint_dir)
