"""Simulation results: the numbers every figure and table is built from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping

import numpy as np

from repro.core.base import RunObservation

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of replaying one trace under one scheduler.

    Attributes
    ----------
    scheduler_name:
        Human-readable scheduler identifier.
    n_queries / n_jobs:
        Completed counts.
    makespan:
        First arrival to last completion, engine seconds.
    response_times:
        Per-query response time (arrival → completion), engine seconds,
        in completion order.
    job_durations:
        job id → first-query arrival to last-query completion.
    runs:
        Per-run observations (adaptive-α inputs).
    alpha_history:
        α after each run for adaptive schedulers, else empty.
    cache / disk / exec:
        Snapshot dicts from the storage stack (summed over nodes).
    forced_releases:
        Gated queries released by the liveness valve (should be 0).
    alpha_histories:
        Per-node α traces for adaptive schedulers (``alpha_history`` is
        the first node's, preserving the single-node shape).
    timeouts / retries / failovers / aborted_jobs / cancelled_queries:
        Degraded-mode counters — all zero when fault injection is off.
    faults:
        Raw fault-injector snapshot plus engine-side fault accounting
        (empty dict when fault injection is off).
    rejected_jobs / rejected_queries:
        Jobs (and the queries they carried) refused at admission by
        overload protection — zero when ``EngineConfig.overload`` is
        off.
    shed_queries:
        Admitted queries dropped by load shedding (queue bound or
        brownout drain); counted separately from fault cancellations.
    throttled_jobs:
        Rejections attributable to brownout throttling specifically.
    class_response_times:
        client class → response times of its completed queries, in
        completion order (always populated, overload on or off).
    overload:
        Overload-manager snapshot: final mode, virtual time in each
        mode, per-reason rejection and shed counts, and a capped list
        of typed rejection samples (empty dict when overload is off).
    """

    scheduler_name: str
    n_queries: int
    n_jobs: int
    makespan: float
    response_times: np.ndarray
    job_durations: dict[int, float]
    runs: list[RunObservation] = field(default_factory=list)
    alpha_history: list[float] = field(default_factory=list)
    alpha_histories: list[list[float]] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    disk: dict = field(default_factory=dict)
    exec: dict = field(default_factory=dict)
    forced_releases: int = 0
    timeouts: int = 0
    retries: int = 0
    failovers: int = 0
    aborted_jobs: int = 0
    cancelled_queries: int = 0
    faults: dict = field(default_factory=dict)
    rejected_jobs: int = 0
    rejected_queries: int = 0
    shed_queries: int = 0
    throttled_jobs: int = 0
    class_response_times: dict[str, list[float]] = field(default_factory=dict)
    overload: dict = field(default_factory=dict)
    # Always 0, never serialized: kept only for benchmarks/perf/child.py.
    gating_overhead_ns: ClassVar[int] = 0
    cache_overhead_ns: ClassVar[int] = 0

    # -- headline numbers ---------------------------------------------------
    @property
    def throughput_qps(self) -> float:
        """Completed queries per engine second (the Fig. 10/11a axis)."""
        return self.n_queries / self.makespan if self.makespan > 0 else 0.0

    @property
    def mean_response_time(self) -> float:
        return float(self.response_times.mean()) if len(self.response_times) else 0.0

    @property
    def median_response_time(self) -> float:
        return float(np.median(self.response_times)) if len(self.response_times) else 0.0

    @property
    def p95_response_time(self) -> float:
        return (
            float(np.percentile(self.response_times, 95)) if len(self.response_times) else 0.0
        )

    def class_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-client-class latency profile of *completed* queries:
        count, p50, p95, p99 (the overload acceptance metric — rejected
        and shed queries never complete, so they are excluded by
        construction)."""
        out: dict[str, dict[str, float]] = {}
        for cls in sorted(self.class_response_times):
            times = self.class_response_times[cls]
            if not times:
                continue
            arr = np.asarray(times, dtype=np.float64)
            out[cls] = {
                "n": float(len(arr)),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "p99": float(np.percentile(arr, 99)),
            }
        return out

    @property
    def cache_hit_ratio(self) -> float:
        return float(self.cache.get("hit_ratio", 0.0))

    @property
    def seconds_per_query(self) -> float:
        """Engine seconds of service per completed query (Table I's
        Seconds/Qry column)."""
        busy = float(self.exec.get("busy_seconds", 0.0))
        return busy / self.n_queries if self.n_queries else 0.0

    @property
    def availability(self) -> float:
        """Fraction of arrived queries that completed (1.0 = no
        cancellations or sheds; the acceptance bar for degraded-mode
        runs).  Rejected jobs never arrive, so they do not count
        against availability — they count against
        :attr:`admission_rate` instead."""
        arrived = self.n_queries + self.cancelled_queries + self.shed_queries
        return self.n_queries / arrived if arrived else 1.0

    @property
    def admission_rate(self) -> float:
        """Fraction of offered queries admitted past the front door."""
        offered = self.n_queries + self.cancelled_queries + self.shed_queries
        offered += self.rejected_queries
        return (offered - self.rejected_queries) / offered if offered else 1.0

    def summary(self) -> dict[str, float]:
        """Flat dict for experiment tables."""
        return {
            "scheduler": self.scheduler_name,
            "queries": self.n_queries,
            "throughput_qps": self.throughput_qps,
            "mean_rt": self.mean_response_time,
            "median_rt": self.median_response_time,
            "p95_rt": self.p95_response_time,
            "cache_hit": self.cache_hit_ratio,
            "sec_per_qry": self.seconds_per_query,
            "makespan": self.makespan,
        }

    def fault_summary(self) -> dict[str, float]:
        """Flat dict of degraded-mode outcomes (for the CLI fault block)."""
        return {
            "availability": self.availability,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "failovers": self.failovers,
            "aborted_jobs": self.aborted_jobs,
            "cancelled_queries": self.cancelled_queries,
        }

    def overload_summary(self) -> dict[str, float]:
        """Flat dict of overload-protection outcomes (for the CLI
        overload block)."""
        return {
            "admission_rate": self.admission_rate,
            "rejected_jobs": self.rejected_jobs,
            "rejected_queries": self.rejected_queries,
            "shed_queries": self.shed_queries,
            "throttled_jobs": self.throttled_jobs,
        }

    # -- lossless serialization ---------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict carrying every field losslessly.

        ``response_times`` becomes a plain list, ``job_durations`` keys
        become strings (JSON objects have string keys), and each
        :class:`~repro.core.base.RunObservation` becomes a dict.
        :meth:`from_dict` inverts all three, so a round trip reproduces
        the original, including the fault/recovery counters.
        """
        return {
            "scheduler_name": self.scheduler_name,
            "n_queries": self.n_queries,
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "response_times": [float(x) for x in self.response_times],
            "job_durations": {str(k): v for k, v in self.job_durations.items()},
            "runs": [
                {
                    "run_index": obs.run_index,
                    "mean_response_time": obs.mean_response_time,
                    "throughput": obs.throughput,
                }
                for obs in self.runs
            ],
            "alpha_history": list(self.alpha_history),
            "alpha_histories": [list(h) for h in self.alpha_histories],
            "cache": dict(self.cache),
            "disk": dict(self.disk),
            "exec": dict(self.exec),
            "forced_releases": self.forced_releases,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "failovers": self.failovers,
            "aborted_jobs": self.aborted_jobs,
            "cancelled_queries": self.cancelled_queries,
            "faults": dict(self.faults),
            "rejected_jobs": self.rejected_jobs,
            "rejected_queries": self.rejected_queries,
            "shed_queries": self.shed_queries,
            "throttled_jobs": self.throttled_jobs,
            "class_response_times": {
                cls: [float(x) for x in times]
                for cls, times in self.class_response_times.items()
            },
            "overload": dict(self.overload),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (accepts freshly ``json.loads``-ed
        mappings)."""
        return cls(
            scheduler_name=str(data["scheduler_name"]),
            n_queries=int(data["n_queries"]),
            n_jobs=int(data["n_jobs"]),
            makespan=float(data["makespan"]),
            response_times=np.asarray(data["response_times"], dtype=np.float64),
            job_durations={int(k): float(v) for k, v in data["job_durations"].items()},
            runs=[
                RunObservation(
                    run_index=int(obs["run_index"]),
                    mean_response_time=float(obs["mean_response_time"]),
                    throughput=float(obs["throughput"]),
                )
                for obs in data["runs"]
            ],
            alpha_history=[float(a) for a in data["alpha_history"]],
            alpha_histories=[[float(a) for a in h] for h in data["alpha_histories"]],
            cache=dict(data["cache"]),
            disk=dict(data["disk"]),
            exec=dict(data["exec"]),
            forced_releases=int(data["forced_releases"]),
            timeouts=int(data["timeouts"]),
            retries=int(data["retries"]),
            failovers=int(data["failovers"]),
            aborted_jobs=int(data["aborted_jobs"]),
            cancelled_queries=int(data["cancelled_queries"]),
            faults=dict(data["faults"]),
            rejected_jobs=int(data.get("rejected_jobs", 0)),
            rejected_queries=int(data.get("rejected_queries", 0)),
            shed_queries=int(data.get("shed_queries", 0)),
            throttled_jobs=int(data.get("throttled_jobs", 0)),
            class_response_times={
                str(cls): [float(x) for x in times]
                for cls, times in data.get("class_response_times", {}).items()
            },
            overload=dict(data.get("overload", {})),
        )
