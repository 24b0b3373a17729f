#!/usr/bin/env python
"""Adaptive starvation resistance in action (paper §V-A).

Builds a workload whose saturation changes mid-trace — a quiet phase of
sparse one-off queries followed by a heavy burst of overlapping jobs —
and shows the age bias α adapting: rising (favouring response time)
while the system has spare capacity, falling (favouring contention
order and throughput) once the burst saturates it.

Run:  python examples/adaptive_starvation.py
"""

from dataclasses import replace

from repro import DatasetSpec, EngineConfig, WorkloadParams, generate_trace, run_trace
from repro.config import SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.workload.trace import Trace


def main() -> None:
    spec = DatasetSpec.small(n_timesteps=16, atoms_per_axis=8)

    # Phase 1 (0-600s): light load. Phase 2 (600s+): a compressed burst.
    quiet = generate_trace(
        spec, WorkloadParams(n_jobs=40, span=600.0, frac_tracking=0.05, seed=3)
    )
    burst = generate_trace(
        spec,
        WorkloadParams(n_jobs=140, span=300.0, think_time_mean=1.0, seed=4),
    )
    # Shift the burst behind the quiet phase and re-id its jobs so the
    # two generated traces can be concatenated.
    offset = 600.0
    id_base = max(j.job_id for j in quiet.jobs) + 1
    fixed = []
    for j in burst.jobs:
        for q in j.queries:
            q.job_id = j.job_id + id_base
        fixed.append(
            replace(j, job_id=j.job_id + id_base, submit_time=j.submit_time + offset)
        )
    trace = Trace(spec, quiet.jobs + fixed)

    engine = EngineConfig(run_length=25)
    cfg = SchedulerConfig(alpha=0.5, adaptive_alpha=True, batch_size=15)
    scheduler = JAWSScheduler(spec, engine.cost, cfg)
    result = run_trace(trace, scheduler, engine)

    print(f"{trace.n_jobs} jobs / {trace.n_queries} queries; quiet phase then burst\n")
    print("run   alpha   mean-rt(s)  throughput(q/s)")
    for obs, alpha in zip(result.runs, result.alpha_history):
        bar = "#" * int(alpha * 40)
        print(
            f"{obs.run_index:3d}   {alpha:5.2f}  {obs.mean_response_time:9.1f}"
            f"  {obs.throughput:10.2f}   {bar}"
        )
    print(
        "\nAlpha drifts up while the system is underloaded (cheap response-time"
        "\nwins) and drops once the burst saturates it (throughput first)."
    )


if __name__ == "__main__":
    main()
