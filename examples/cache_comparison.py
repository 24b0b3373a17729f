#!/usr/bin/env python
"""Scheduler-coordinated caching: LRU-K vs SLRU vs URC (paper §V-B).

Replays one contended workload under JAWS with each replacement
policy.  URC ranks resident atoms by the scheduler's own workload-
throughput metric (atoms from the least useful time step evicted
first), SLRU batch-promotes the run's hottest atoms into a protected
segment, and LRU-K is the SQL-Server-like baseline.  The overhead
column is the wall-clock time spent inside the policy's hooks, timed
by Table I's policy clock from outside the engine.

Run:  python examples/cache_comparison.py
"""

from repro import DatasetSpec, EngineConfig, WorkloadParams, generate_trace, run_trace
from repro.config import CacheConfig
from repro.experiments.table1 import PolicyClock


def main() -> None:
    spec = DatasetSpec.small(n_timesteps=16, atoms_per_axis=8)
    trace = generate_trace(
        spec, WorkloadParams(n_jobs=130, span=2200.0, think_time_mean=2.0, seed=9)
    ).rescale(8.0)
    print(f"workload: {trace.n_jobs} jobs / {trace.n_queries} queries\n")

    print(f"{'policy':<7} {'hit ratio':>10} {'sec/qry':>9} {'overhead/qry':>13} {'qps':>7}")
    for policy in ("lruk", "slru", "urc"):
        engine = EngineConfig(cache=CacheConfig(capacity_atoms=256, policy=policy))
        with PolicyClock() as clock:
            result = run_trace(trace, "jaws2", engine)
        print(
            f"{policy.upper():<7} {result.cache_hit_ratio:10.2%} "
            f"{result.seconds_per_query:9.3f} "
            f"{clock.ns / 1e6 / result.n_queries:10.3f} ms "
            f"{result.throughput_qps:7.3f}"
        )
    print(
        "\nPaper Table I: LRU-K 47% / 1.62 s, SLRU 49% / 1.56 s (<1 ms),"
        " URC 54% / 1.39 s (7 ms)."
    )


if __name__ == "__main__":
    main()
