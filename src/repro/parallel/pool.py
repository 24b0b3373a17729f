"""One description of a run, one router, and a deterministic process-pool
fan-out for independent simulation runs.

A :class:`RunSpec` describes one run of any shape — a single node, a
Morton-partitioned cluster, or sharded coordinators — and
:func:`run_spec` is the only code that picks the engine for it.  The
CLI, the experiment sweeps and :func:`run_many` all go through it.

The evaluation harness replays many independent ``(trace, scheduler,
engine, faults)`` combinations — five schedulers per figure, speedup
sweeps, cache-policy tables, fuzz campaigns.  Each run is a pure
function of its :class:`RunSpec` (the engine derives every random draw
from seeds carried in the spec's configs; see DESIGN.md §7), so the
runs can fan out across worker processes with **bit-identical**
results:

* *stable task ordering* — results come back in spec-list order, never
  completion order, so downstream tables are byte-for-byte identical
  to serial execution;
* *per-task seed isolation* — workers share no RNG or interpreter
  state; all randomness comes from seeds inside the pickled spec, and
  each worker rebuilds its scheduler/engine from scratch;
* *supervised execution* — the pool is driven by
  :mod:`repro.parallel.supervisor`: hung workers are killed by a
  watchdog and re-dispatched, crashed workers are retried with seeded
  deterministic backoff (only the dead process is respawned — healthy
  workers survive retry rounds), resource guards bound per-worker RSS
  and whole-campaign wall-clock, and in **salvage mode**
  (``salvage=True``) one poison task costs you one
  :class:`~repro.parallel.supervisor.Outcome` record instead of the
  whole campaign.

With ``salvage=False`` (the default) the historical contract holds: a
task whose worker keeps dying/hanging raises a typed
:class:`~repro.errors.WorkerCrashError` carrying the spec's label and
content digest; deterministic exceptions raised by the task function
propagate as themselves — retrying them cannot succeed.

Nothing in this module may read wall-clock time or process identity
into results (enforced by jawslint rule D006; the supervisor's
watchdog clock is confined to ``supervisor._wall_now`` and baselined).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import (
    Callable,
    List,
    Literal,
    Optional,
    Sequence,
    TypeVar,
    Union,
    cast,
    overload,
)

from repro.config import EngineConfig, FaultConfig, SchedulerConfig, ShardConfig
from repro.engine.results import RunResult
from repro.engine.runner import run_trace
from repro.errors import ConfigurationError, WorkerCrashError
from repro.parallel.supervisor import Outcome, SupervisorConfig, supervise
from repro.workload.trace import Trace

__all__ = ["RunSpec", "map_many", "run_many", "run_many_outcomes", "run_spec"]

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run: everything a worker needs.

    The one description of a run for every shape; :func:`run_spec`
    routes it to the engine.

    Attributes
    ----------
    trace:
        The workload to replay (pickled to the worker; queries carry
        their own positions, so no shared state crosses the boundary).
    scheduler:
        Factory name from :data:`repro.engine.runner.SCHEDULER_NAMES`.
    engine:
        Engine configuration; ``None`` uses :class:`EngineConfig`
        defaults.  Its ``checkpoint`` arms snapshots for every shape:
        per-run snapshots on one coordinator, cluster barriers (every
        ``every_events`` cumulative events) under sharding.
    scheduler_config:
        Optional scheduler-knob overrides (batch size k, α policy,
        metric config).
    faults:
        Optional fault-injection plan; overrides ``engine.faults``.
    label:
        Free-form bookkeeping tag echoed back by callers (never read
        by the runner).  Carried on failure records so a poison spec
        stays identifiable after sweeps reorder their spec lists.
    n_nodes:
        Cluster size; ``1`` replays on the single-node engine, larger
        values on the Morton-partitioned cluster.
    shards:
        Optional sharded-execution plan
        (:class:`~repro.config.ShardConfig`); more than one shard runs
        the sharded control plane, one shard the plain engine.  Part
        of the content digest: the shard count and range assignment
        change scheduling interleavings, so a sharded campaign can
        never collide with an unsharded one in the journal.
    """

    trace: Trace
    scheduler: str
    engine: Optional[EngineConfig] = None
    scheduler_config: Optional[SchedulerConfig] = None
    faults: Optional[FaultConfig] = None
    label: str = ""
    n_nodes: int = 1
    shards: Optional[ShardConfig] = None

    def digest(self) -> str:
        """Stable content digest of this spec (journal/failure key).

        Hashed over the spec's pickle at a pinned protocol: the same
        logical spec — same trace content, scheduler name, configs —
        digests identically across driver restarts, which is what lets
        a resumed campaign skip completed work by content rather than
        by position.

        Cluster/sharded specs additionally fold in the explicit shard
        topology digest (shard count + range assignment), so the same
        trace scheduled under a different coordinator layout never
        aliases in the journal.
        """
        payload = pickle.dumps(self, protocol=4)
        if self.n_nodes > 1 or self.shards is not None:
            from repro.shard.topology import ShardTopology  # avoid import cycle

            n_shards = self.shards.n_shards if self.shards is not None else 1
            payload += ShardTopology(self.n_nodes, n_shards).digest().encode("ascii")
        return hashlib.sha256(payload).hexdigest()[:12]


def run_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion in this process: the only code that
    picks the engine.

    More than one shard in ``spec.shards`` runs the sharded control
    plane (:func:`repro.shard.run_sharded`), ``n_nodes > 1`` the
    cluster (:func:`~repro.cluster.cluster.run_cluster`), anything else
    the single-node engine (:func:`~repro.engine.runner.run_trace`).
    Top-level, so :func:`run_many` can pickle it by reference.
    """
    if spec.shards is not None and spec.shards.sharded:
        from repro.shard import run_sharded  # avoid import cycle

        return run_sharded(
            spec.trace,
            spec.scheduler,
            spec.n_nodes,
            shards=spec.shards,
            engine=spec.engine,
            config=spec.scheduler_config,
            faults=spec.faults,
        ).result
    if spec.n_nodes > 1:
        from repro.cluster.cluster import run_cluster

        return run_cluster(
            spec.trace,
            spec.scheduler,
            spec.n_nodes,
            engine=spec.engine,
            config=spec.scheduler_config,
            faults=spec.faults,
        ).result
    return run_trace(
        spec.trace,
        spec.scheduler,
        engine=spec.engine,
        config=spec.scheduler_config,
        faults=spec.faults,
    )


def _raise_first_failure(outcomes: Sequence[Outcome]) -> None:
    """Raising-mode conversion: re-raise the lowest-index failure.

    Deterministic exceptions re-raise as themselves when they survived
    the pickle trip (a text-only fallback raises ``RuntimeError`` with
    the remote traceback).  Quarantined crash/hang/RSS failures raise
    :class:`~repro.errors.WorkerCrashError` with the spec's label and
    content digest.  Scanning in index order keeps the raised error
    independent of completion interleaving.
    """
    failed = next((o for o in outcomes if not o.ok), None)
    if failed is None:
        return
    failure = failed.failure
    assert failure is not None
    if failure.reason == "exception":
        if failure.exception is not None:
            raise failure.exception
        raise RuntimeError(
            f"task {failure.label!r} raised unpicklable "
            f"{failure.error_type}: {failure.message}\n{failure.traceback}"
        )
    raise WorkerCrashError(
        "parallel evaluation worker died abnormally and exhausted its "
        "retry budget"
        if failure.reason == "worker-crash"
        else (
            "parallel evaluation task exceeded its watchdog deadline and "
            "exhausted its retry budget"
            if failure.reason == "timeout"
            else "parallel evaluation worker breached the RSS ceiling and "
            "exhausted its retry budget"
        ),
        task_index=failure.index,
        attempts=failure.attempts,
        label=failure.label,
        digest=failure.digest,
        reason=failure.reason,
    )


@overload
def map_many(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: int = ...,
    max_retries: int = ...,
    *,
    salvage: Literal[False] = ...,
    supervisor: Optional[SupervisorConfig] = ...,
    on_outcome: Optional[Callable[[Outcome], None]] = ...,
) -> List[_R]: ...


@overload
def map_many(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: int = ...,
    max_retries: int = ...,
    *,
    salvage: Literal[True],
    supervisor: Optional[SupervisorConfig] = ...,
    on_outcome: Optional[Callable[[Outcome], None]] = ...,
) -> List[Outcome]: ...


def map_many(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: int = 1,
    max_retries: int = 2,
    *,
    salvage: bool = False,
    supervisor: Optional[SupervisorConfig] = None,
    on_outcome: Optional[Callable[[Outcome], None]] = None,
) -> Union[List[_R], List[Outcome]]:
    """Apply ``fn`` to every item; results come back in item order.

    The generic fan-out primitive behind :func:`run_many` (and the fuzz
    campaign driver, :mod:`repro.fuzz.campaign`): ``fn`` must be a
    top-level callable that is a *pure function* of its pickled item —
    every random draw seeded from inside the item — so the pool path is
    bit-identical to the inline path.

    ``jobs <= 1`` runs inline in this process (no pool, no pickling,
    no watchdog) — the reference execution path.  ``jobs > 1`` fans
    out over supervised worker processes
    (:func:`repro.parallel.supervisor.supervise`); pass ``supervisor``
    to arm the per-task watchdog, the RSS ceiling or the runaway
    deadline (its ``max_retries`` wins over the positional one).

    ``salvage=False`` (default) returns plain results and raises on
    the lowest-index failure; ``salvage=True`` returns ordered
    :class:`~repro.parallel.supervisor.Outcome` records — one per
    item, each a result or a typed ``TaskFailure`` — and never raises
    for task-level problems.  ``on_outcome`` fires once per settled
    task in completion order (the campaign journal hook).

    Raises
    ------
    WorkerCrashError
        Only with ``salvage=False``: a task's worker died abnormally,
        hung past the watchdog deadline, or breached the RSS ceiling
        more than its retry budget allows.  Deterministic exceptions
        raised by ``fn`` itself propagate as themselves — retrying
        them cannot succeed.
    """
    if jobs < 0:
        raise ConfigurationError("jobs must be >= 0")
    config = supervisor or SupervisorConfig(max_retries=max_retries)
    if not salvage and jobs <= 1 and on_outcome is None:
        # Fast inline reference path: identical to a plain list
        # comprehension, raising at the first failing item.
        return [fn(item) for item in items]
    outcomes = supervise(fn, items, jobs=jobs, config=config, on_outcome=on_outcome)
    if salvage:
        return outcomes
    _raise_first_failure(outcomes)
    return [cast(_R, o.value) for o in outcomes]


def run_many(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    max_retries: int = 2,
    *,
    supervisor: Optional[SupervisorConfig] = None,
) -> List[RunResult]:
    """Run every spec and return results in spec order (raising mode).

    A thin wrapper over :func:`map_many` with :func:`run_spec` as the
    worker function; see there for the determinism contract.  Each
    spec runs whole in one worker, sharded ones included.
    """
    return map_many(
        run_spec, specs, jobs=jobs, max_retries=max_retries, supervisor=supervisor
    )


def run_many_outcomes(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    max_retries: int = 2,
    *,
    supervisor: Optional[SupervisorConfig] = None,
    on_outcome: Optional[Callable[[Outcome], None]] = None,
) -> List[Outcome]:
    """Salvage-mode :func:`run_many`: ordered Outcome records, one per
    spec — each a :class:`~repro.engine.results.RunResult` or a typed
    ``TaskFailure`` — so one poison spec cannot sink a sweep."""
    return map_many(
        run_spec,
        specs,
        jobs=jobs,
        max_retries=max_retries,
        salvage=True,
        supervisor=supervisor,
        on_outcome=on_outcome,
    )
