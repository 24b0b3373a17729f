"""End-of-run chaos oracles: what "survived the scenario" means.

Each oracle inspects a finished :class:`~repro.engine.results.RunResult`
(the runtime invariants already ran every event via ``sanitize=True``)
and returns ``None`` on pass or a human-readable detail string on
violation.  The runner turns a violated oracle into a typed failure
``("oracle", <name>)`` — the unit of shrinking and deduplication.

Oracles
-------
``conservation``
    Every query in the trace reaches exactly one terminal state:
    ``trace.n_queries == completed + cancelled + shed + rejected +
    aborted_unarrived``.
``metric_sanity``
    Reported metrics are physically possible: response times finite,
    non-negative and bounded by the makespan; throughput bounded by the
    cost model's per-position floor (no node completes more than
    ``1/t_m`` queries per engine second); α, cache hit ratio,
    availability and admission rate all in [0, 1].
``no_starvation``
    The run terminated without tripping the engine's livelock or
    sim-time watchdogs.  (The watchdog errors themselves are the
    failure signal; a run that returns a result passed by
    construction, so the runner records this oracle from the exception
    path.)
``crash_resume``
    A run resumed from a mid-flight coordinator crash is bit-identical
    to the same scenario run uninterrupted (:func:`results_equivalent`).
``crash_effective``
    A scenario that armed a coordinator-crash window actually crashed:
    the clamp guarantees the drawn crash point lies inside the live
    event range, so "armed but never fired" is a regression.
``shard_conservation``
    A sharded replay (``shard_crash_storm`` / ``ownership_churn``)
    conserved every cross-shard sub-query across epoch changes: the
    control plane's cluster-wide counters satisfy ``created ==
    applied + residual_cancelled`` and ``executed == applied +
    exec_dropped + late_done_dropped`` (nothing lost, nothing
    double-counted), and every armed shard crash actually fired.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

import numpy as np

from repro.config import EngineConfig
from repro.engine.results import RunResult
from repro.workload.trace import Trace

__all__ = [
    "ORACLE_NAMES",
    "check_conservation",
    "check_metric_sanity",
    "check_shard_conservation",
    "normalize_result",
    "results_equivalent",
]

#: Every oracle the campaign's coverage ledger tracks.
ORACLE_NAMES = (
    "conservation",
    "metric_sanity",
    "no_starvation",
    "crash_resume",
    "crash_effective",
    "shard_conservation",
)

#: Fault-accounting keys the simulator always reports; the injector
#: adds the rest only when fault injection is enabled.
_INJECTOR_KEYS = (
    "transient_faults",
    "permanent_losses",
    "slow_reads",
    "retries",
    "retries_exhausted",
    "degraded_nodes",
    "lost_atom_copies",
)


def check_conservation(trace: Trace, result: RunResult) -> Optional[str]:
    """Every trace query lands in exactly one terminal bucket."""
    aborted = int(result.faults.get("aborted_unarrived_queries", 0))
    accounted = (
        result.n_queries
        + result.cancelled_queries
        + result.shed_queries
        + result.rejected_queries
        + aborted
    )
    if accounted != trace.n_queries:
        return (
            f"trace has {trace.n_queries} queries but terminal states "
            f"account for {accounted} (completed={result.n_queries}, "
            f"cancelled={result.cancelled_queries}, shed={result.shed_queries}, "
            f"rejected={result.rejected_queries}, aborted_unarrived={aborted})"
        )
    return None


def check_metric_sanity(result: RunResult, engine: EngineConfig) -> Optional[str]:
    """Reported metrics stay inside physically possible bounds."""
    if not math.isfinite(result.makespan) or result.makespan < 0:
        return f"makespan {result.makespan} is not finite and non-negative"
    rts = np.asarray(result.response_times, dtype=np.float64)
    if rts.size and not np.all(np.isfinite(rts)):
        return "non-finite response time reported"
    if rts.size and float(rts.min()) < 0:
        return f"negative response time {float(rts.min())}"
    # An individual response (arrival -> completion) can never exceed
    # the whole-trace makespan (first arrival -> last completion).
    if rts.size and float(rts.max()) > result.makespan * (1 + 1e-9) + 1e-9:
        return (
            f"response time {float(rts.max())} exceeds makespan {result.makespan}"
        )
    # Each completed query costs at least one position's t_m of serial
    # compute on some node, so sustained throughput is bounded by
    # n_nodes / t_m (single-node runs: 1/t_m).
    qps_bound = 1.0 / engine.cost.t_m * (1 + 1e-9)
    if result.throughput_qps > qps_bound:
        return f"throughput {result.throughput_qps} qps exceeds 1/t_m bound"
    for obs in result.runs:
        if not math.isfinite(obs.mean_response_time) or obs.mean_response_time < 0:
            return f"run {obs.run_index} mean response {obs.mean_response_time}"
        if not math.isfinite(obs.throughput) or obs.throughput < 0:
            return f"run {obs.run_index} throughput {obs.throughput}"
        if obs.throughput > qps_bound:
            return f"run {obs.run_index} throughput {obs.throughput} exceeds 1/t_m"
    for history in result.alpha_histories or [result.alpha_history]:
        for alpha in history:
            if not 0.0 <= alpha <= 1.0:
                return f"alpha {alpha} outside [0, 1]"
    for name, value in (
        ("availability", result.availability),
        ("admission_rate", result.admission_rate),
        ("cache_hit_ratio", result.cache_hit_ratio),
    ):
        if not 0.0 <= value <= 1.0:
            return f"{name} {value} outside [0, 1]"
    return None


def check_shard_conservation(
    shard_stats: Mapping[str, Any], expected_crashes: int = 0
) -> Optional[str]:
    """Cross-shard sub-query conservation across epoch changes.

    ``shard_stats`` is :attr:`~repro.shard.control.ShardRunResult.shard_stats`;
    the control plane already raises :class:`~repro.errors.ShardProtocolError`
    on a per-run violation, so this oracle re-derives the identities from
    the reported totals — a result whose counters were merged or
    serialized wrongly fails here even though the run completed.
    """
    totals = dict(shard_stats.get("conservation", {}))
    created = int(totals.get("created", 0))
    applied = int(totals.get("applied", 0))
    residual = int(totals.get("residual_cancelled", 0))
    executed = int(totals.get("executed", 0))
    exec_dropped = int(totals.get("exec_dropped", 0))
    late_dropped = int(totals.get("late_done_dropped", 0))
    if created != applied + residual:
        return (
            f"sub-queries lost or duplicated across shards: created={created} "
            f"!= applied={applied} + residual_cancelled={residual}"
        )
    if executed != applied + exec_dropped + late_dropped:
        return (
            f"execution accounting broken: executed={executed} != "
            f"applied={applied} + exec_dropped={exec_dropped} + "
            f"late_done_dropped={late_dropped}"
        )
    fired = int(shard_stats.get("shard_crashes", 0))
    if fired != expected_crashes:
        return (
            f"armed {expected_crashes} shard crash(es) but {fired} fired "
            "(crash schedule regression?)"
        )
    return None


def normalize_result(result: RunResult) -> dict[str, Any]:
    """RunResult as a comparable dict, minus run-lifecycle artifacts.

    Strips the ``crash_effective`` lifecycle flag (True on a resumed run,
    False on its uninterrupted baseline — by design), and zero-fills
    injector accounting keys so a baseline run whose fault config is
    entirely disabled compares equal to a crash-stage run that armed
    only the coordinator crash.
    """
    out = result.to_dict()
    faults = {k: v for k, v in out["faults"].items() if k != "crash_effective"}
    for key in _INJECTOR_KEYS:
        faults.setdefault(key, 0)
    out["faults"] = faults
    return out


def results_equivalent(baseline: RunResult, resumed: RunResult) -> Optional[str]:
    """Crash/resume bit-identity: ``None`` when equivalent, else the
    first divergent field path."""
    a, b = normalize_result(baseline), normalize_result(resumed)
    return _first_divergence(a, b, path="result")


def _first_divergence(a: Any, b: Any, path: str) -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} present in only one result"
            diff = _first_divergence(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path} length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_divergence(x, y, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    # Exact comparison, floats included: the determinism contract is
    # bit-identity, not approximate equality.
    if a != b or type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    return None
