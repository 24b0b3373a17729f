"""Execute one scenario through the engine and its chaos oracles.

:func:`execute_scenario` is the unit of work the campaign fans out via
:func:`repro.parallel.map_many` — a top-level pure function of its
:class:`~repro.fuzz.spec.ScenarioSpec`, so the pool path is
bit-identical to the inline path.  A scenario runs in up to three
stages:

``base``
    Materialize the spec and replay it with ``sanitize=True``; run the
    ``conservation`` and ``metric_sanity`` oracles on the result
    (``no_starvation`` passes by construction when the run returns).
``gaming``
    When the spec carries a ``retry_gaming`` entry: an adversarial
    client takes the typed rejections from the previous run and
    resubmits each rejected job at exactly ``clock + retry_after`` —
    probing the admission controller at the precise instant its token
    bucket refills — for up to ``max_resubmits`` rounds.  All oracles
    re-run against the augmented trace.
``crash_resume``
    When the spec carries a ``coordinator_crash`` entry: re-run the
    base scenario with the crash window armed and checkpointing into a
    temporary directory, require the crash to actually fire
    (``crash_effective``), restore from the latest snapshot, resume,
    and require the resumed result to be bit-identical to the
    uninterrupted base result (``crash_resume``).
``shard``
    When the spec carries a ``shard_crash_storm`` or
    ``ownership_churn`` entry: replay the trace through the sharded
    control plane (:func:`repro.shard.run_sharded`) with the armed
    shard-crash plan, overload admission and the single-coordinator
    sanitizer stripped (the sharded path models neither), then run the
    terminal-state ``conservation`` oracle on the merged result and
    the cross-shard ``shard_conservation`` oracle on the control
    plane's cluster-wide counters.  A
    :class:`~repro.errors.ShardProtocolError` raised mid-run becomes
    its own typed failure.

Any violated oracle or unexpected engine exception becomes a typed
failure ``(kind, name)`` — the signature the shrinker preserves while
minimizing the spec.

A planted test-only bug (for exercising the shrinker end-to-end) hides
behind the ``REPRO_FUZZ_PLANT_BUG`` environment variable: when set, any
scenario combining a ``flash_crowd`` with ``disk_faults`` fails the
synthetic ``planted_bug`` oracle.  Never set outside the test suite.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.config import CheckpointConfig, OverloadConfig
from repro.engine.results import RunResult
from repro.engine.runner import make_scheduler, run_trace
from repro.engine.simulator import Simulator
from repro.errors import (
    CoordinatorCrash,
    InvariantViolation,
    LivelockError,
    SimTimeExceededError,
)
from repro.fuzz.build import MaterializedScenario, materialize
from repro.fuzz.oracles import (
    check_conservation,
    check_metric_sanity,
    check_shard_conservation,
    results_equivalent,
)
from repro.fuzz.spec import ScenarioSpec
from repro.workload.job import Job
from repro.workload.trace import Trace

__all__ = ["FuzzFailure", "ScenarioOutcome", "execute_scenario"]

#: Environment switch for the synthetic shrinker-exercise bug.
PLANT_BUG_ENV = "REPRO_FUZZ_PLANT_BUG"

_CHECKPOINT_EVERY = 16


@dataclass(frozen=True)
class FuzzFailure:
    """One typed failure: the unit of shrinking and deduplication.

    ``kind`` is ``"oracle"`` (an end-of-run oracle reported a
    violation) or ``"error"`` (the engine raised).  ``name`` identifies
    the oracle or exception type; ``signature`` — the pair — is what a
    shrunk scenario must preserve to count as "the same bug".
    """

    kind: str
    name: str
    stage: str
    detail: str

    @property
    def signature(self) -> Tuple[str, str]:
        return (self.kind, self.name)

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "stage": self.stage,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FuzzFailure":
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            stage=str(data["stage"]),
            detail=str(data["detail"]),
        )


@dataclass
class ScenarioOutcome:
    """Everything the campaign records about one executed scenario."""

    spec: ScenarioSpec
    features: Tuple[str, ...]
    oracles_checked: Tuple[str, ...] = ()
    failure: Optional[FuzzFailure] = None
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_json(self) -> dict[str, Any]:
        return {
            "digest": self.spec.digest(),
            "seed": self.spec.seed,
            "scheduler": self.spec.scheduler,
            "features": list(self.features),
            "oracles_checked": list(self.oracles_checked),
            "failure": self.failure.to_json() if self.failure else None,
            "stats": dict(sorted(self.stats.items())),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any], spec: ScenarioSpec) -> "ScenarioOutcome":
        """Rebuild an outcome recorded in a campaign journal.

        ``to_json``/``from_json`` round-trip exactly — same features,
        oracles, failure and stats — which is what makes a resumed
        campaign's summary byte-identical to an uninterrupted run's.
        The spec is supplied by the caller (campaign specs regenerate
        deterministically from the master seed) and must match the
        recorded digest.
        """
        if str(data.get("digest")) != spec.digest():
            raise ValueError(
                f"journaled outcome digest {data.get('digest')!r} does not "
                f"match spec digest {spec.digest()!r}"
            )
        failure = data.get("failure")
        return cls(
            spec=spec,
            features=tuple(str(f) for f in data.get("features", ())),
            oracles_checked=tuple(str(o) for o in data.get("oracles_checked", ())),
            failure=FuzzFailure.from_json(failure) if failure else None,
            stats=dict(data.get("stats", {})),
        )


def _classify(exc: Exception, stage: str) -> FuzzFailure:
    """Map an engine exception to its typed failure."""
    if isinstance(exc, (LivelockError, SimTimeExceededError)):
        # Permanent starvation is an oracle outcome, not a crash: the
        # engine's watchdogs are the detection mechanism.
        return FuzzFailure("oracle", "no_starvation", stage, str(exc))
    if isinstance(exc, InvariantViolation):
        return FuzzFailure(
            "error", f"InvariantViolation:{exc.invariant}", stage, str(exc)
        )
    return FuzzFailure("error", type(exc).__name__, stage, str(exc))


def _run(trace: Trace, scenario: MaterializedScenario, spec: ScenarioSpec) -> RunResult:
    return run_trace(trace, spec.scheduler, engine=scenario.engine)


def _check_result(
    trace: Trace, result: RunResult, scenario: MaterializedScenario, stage: str
) -> Optional[FuzzFailure]:
    detail = check_conservation(trace, result)
    if detail is not None:
        return FuzzFailure("oracle", "conservation", stage, detail)
    detail = check_metric_sanity(result, scenario.engine)
    if detail is not None:
        return FuzzFailure("oracle", "metric_sanity", stage, detail)
    return None


# ---------------------------------------------------------------------------
# Retry-gaming adversary
# ---------------------------------------------------------------------------
def _resubmit_rejected(trace: Trace, result: RunResult) -> Optional[Trace]:
    """Clone each sampled rejected job back into the trace at exactly
    ``clock + retry_after`` — the admission controller's own hint, taken
    literally.  Returns ``None`` when there is nothing to resubmit."""
    samples = [
        s
        for s in result.overload.get("rejection_samples", ())
        if s.get("retry_after") is not None
    ]
    if not samples:
        return None
    by_id = {job.job_id: job for job in trace.jobs}
    next_job = max(by_id) + 1
    next_query = max(q.query_id for j in trace.jobs for q in j.queries) + 1
    clones: List[Job] = []
    for sample in samples:
        original = by_id.get(int(sample["job_id"]))
        if original is None:
            continue  # a clone from an earlier round; resubmit once only
        at = float(sample["clock"]) + float(sample["retry_after"])
        queries = [
            dataclasses.replace(q, query_id=next_query + i, job_id=next_job)
            for i, q in enumerate(original.queries)
        ]
        next_query += len(queries)
        clones.append(
            dataclasses.replace(
                original, job_id=next_job, submit_time=at, queries=queries
            )
        )
        next_job += 1
    if not clones:
        return None
    jobs = sorted(trace.jobs + clones, key=lambda j: (j.submit_time, j.job_id))
    return Trace(trace.spec, jobs)


def _gaming_stage(
    scenario: MaterializedScenario,
    spec: ScenarioSpec,
    base_result: RunResult,
) -> Tuple[Optional[FuzzFailure], dict[str, Any]]:
    assert scenario.retry_gaming is not None
    rounds = max(1, int(scenario.retry_gaming.get("max_resubmits", 1)))
    trace, result = scenario.trace, base_result
    resubmitted = 0
    for _ in range(min(rounds, 3)):  # cap the adversary's patience
        augmented = _resubmit_rejected(trace, result)
        if augmented is None:
            break
        resubmitted += len(augmented.jobs) - len(trace.jobs)
        trace = augmented
        try:
            result = _run(trace, scenario, spec)
        except Exception as exc:  # noqa: BLE001 - every failure is data
            return _classify(exc, "gaming"), {"resubmitted_jobs": resubmitted}
        failure = _check_result(trace, result, scenario, "gaming")
        if failure is not None:
            return failure, {"resubmitted_jobs": resubmitted}
    return None, {"resubmitted_jobs": resubmitted}


# ---------------------------------------------------------------------------
# Crash/resume stage
# ---------------------------------------------------------------------------
def _crash_stage(
    scenario: MaterializedScenario,
    spec: ScenarioSpec,
    base_result: RunResult,
) -> Optional[FuzzFailure]:
    assert scenario.crash_window is not None
    stage = "crash_resume"
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ck-") as ckdir:
        engine = scenario.engine.with_(
            faults=scenario.engine.faults.with_(
                coordinator_crash_window=scenario.crash_window
            ),
            checkpoint=CheckpointConfig(
                directory=ckdir, every_events=_CHECKPOINT_EVERY
            ),
        )
        scheduler = make_scheduler(spec.scheduler, scenario.trace, engine)
        sim = Simulator(scenario.trace, [scheduler], engine)
        try:
            sim.run()
        except CoordinatorCrash:
            pass
        except Exception as exc:  # noqa: BLE001 - every failure is data
            return _classify(exc, stage)
        else:
            return FuzzFailure(
                "oracle",
                "crash_effective",
                stage,
                f"crash window {scenario.crash_window} armed but the run "
                "completed without crashing (clamp regression?)",
            )
        try:
            resumed = Simulator.restore(ckdir).run()
        except Exception as exc:  # noqa: BLE001 - every failure is data
            return _classify(exc, stage)
    if not resumed.faults.get("crash_effective", False):
        return FuzzFailure(
            "oracle",
            "crash_effective",
            stage,
            "resumed run does not report crash_effective=True",
        )
    detail = results_equivalent(base_result, resumed)
    if detail is not None:
        return FuzzFailure(
            "oracle",
            "crash_resume",
            stage,
            f"resumed run diverges from uninterrupted baseline at {detail}",
        )
    return None


# ---------------------------------------------------------------------------
# Sharded-replay stage
# ---------------------------------------------------------------------------
def _shard_stage(
    scenario: MaterializedScenario, spec: ScenarioSpec
) -> Tuple[Optional[FuzzFailure], dict[str, Any]]:
    assert scenario.shards is not None
    stage = "shard"
    from repro.shard import run_sharded  # deferred: pulls in the cluster stack

    # run_sharded refuses overload admission and the single-coordinator
    # sanitizer by design — strip both; the cross-shard conservation
    # counters are the sharded run's audit mechanism.
    engine = scenario.engine.with_(overload=OverloadConfig(), sanitize=False)
    n_nodes = 2 * scenario.shards.n_shards
    try:
        out = run_sharded(
            scenario.trace,
            spec.scheduler,
            n_nodes,
            shards=scenario.shards,
            engine=engine,
        )
    except Exception as exc:  # noqa: BLE001 - every failure is data
        return _classify(exc, stage), {}
    stats = {
        "shard_crashes": int(out.shard_stats.get("shard_crashes", 0)),
        "shard_epoch_bumps": int(out.shard_stats.get("epoch_bumps", 0)),
        "shard_stale_retries": int(out.shard_stats.get("stale_retries", 0)),
        "shard_messages": int(out.shard_stats.get("messages_delivered", 0)),
    }
    detail = check_conservation(scenario.trace, out.result)
    if detail is not None:
        return FuzzFailure("oracle", "conservation", stage, detail), stats
    detail = check_shard_conservation(
        out.shard_stats, expected_crashes=scenario.planned_shard_crashes
    )
    if detail is not None:
        return FuzzFailure("oracle", "shard_conservation", stage, detail), stats
    return None, stats


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def execute_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run one scenario through every applicable stage and oracle.

    Top-level and pure (all randomness seeded from the spec) so
    :func:`repro.parallel.map_many` can fan scenarios out across worker
    processes bit-identically.
    """
    features = tuple(sorted({e.kind for e in spec.entries}))
    outcome = ScenarioOutcome(spec=spec, features=features)
    checked: List[str] = []

    try:
        scenario = materialize(spec)
    except Exception as exc:  # noqa: BLE001 - a spec the builder rejects
        outcome.failure = FuzzFailure("error", type(exc).__name__, "build", str(exc))
        return outcome
    outcome.stats["trace_queries"] = scenario.trace.n_queries
    outcome.stats["trace_jobs"] = len(scenario.trace.jobs)

    try:
        base_result = _run(scenario.trace, scenario, spec)
    except Exception as exc:  # noqa: BLE001 - every failure is data
        outcome.failure = _classify(exc, "base")
        outcome.oracles_checked = ("no_starvation",)
        return outcome
    checked += ["no_starvation", "conservation", "metric_sanity"]
    outcome.stats.update(
        completed=base_result.n_queries,
        cancelled=base_result.cancelled_queries,
        shed=base_result.shed_queries,
        rejected=base_result.rejected_queries,
    )
    outcome.failure = _check_result(scenario.trace, base_result, scenario, "base")

    if outcome.failure is None and os.environ.get(PLANT_BUG_ENV):
        if spec.has("flash_crowd") and spec.has("disk_faults"):
            outcome.failure = FuzzFailure(
                "oracle",
                "planted_bug",
                "base",
                "synthetic failure: flash_crowd combined with disk_faults "
                f"(enabled via {PLANT_BUG_ENV})",
            )

    if outcome.failure is None and scenario.retry_gaming is not None:
        outcome.failure, gaming_stats = _gaming_stage(scenario, spec, base_result)
        outcome.stats.update(gaming_stats)

    if outcome.failure is None and scenario.crash_window is not None:
        checked += ["crash_effective", "crash_resume"]
        outcome.failure = _crash_stage(scenario, spec, base_result)

    if outcome.failure is None and scenario.shards is not None:
        checked += ["shard_conservation"]
        outcome.failure, shard_stats = _shard_stage(scenario, spec)
        outcome.stats.update(shard_stats)

    outcome.oracles_checked = tuple(checked)
    return outcome
