"""Shard scale law: throughput and tail latency vs coordinator count.

Replays the standard calibrated trace on a fixed-size cluster while the
coordinator is split into 1, 2, 4, ... shards, one
:class:`~repro.parallel.RunSpec` per row.  The N=1 row runs the
single-coordinator cluster engine, so the table reads as "what does
coordinating the same workload through N independent, lease-fenced
schedulers cost (or buy)": cross-shard messages replace shared-memory
gating edges, so queries spanning shard boundaries pay the virtual
message latency on completion accounting, while per-shard queues
shorten.  Reported per shard count: completed queries per virtual
second (makespan throughput), mean and p99 response time, cross-shard
message volume, and stale-lease retries (zero without failovers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ShardConfig
from repro.experiments.common import (
    ExperimentScale,
    standard_engine,
    standard_scheduler_config,
    standard_trace,
    sweep_run_many,
)
from repro.experiments.report import render_table
from repro.parallel import RunSpec

#: Cluster size for the sweep: divisible by every shard count below.
N_NODES = 8

SHARD_COUNTS = (1, 2, 4, 8)


def run(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 7,
    jobs: int = 1,
    crash: Optional[float] = None,
) -> dict:
    """Sweep shard counts over one trace.

    ``crash`` optionally injects a shard crash at that virtual time
    into every sharded row (the highest-numbered shard dies; survivors
    adopt its ranges), turning the table into a failover-overhead law.
    ``jobs`` fans the rows out over the supervised pool, one whole run
    per worker — bit-identical to serial.
    """
    trace = standard_trace(scale, speedup=1.0, seed=seed)
    engine = standard_engine()
    config = standard_scheduler_config()
    specs = []
    for n_shards in SHARD_COUNTS:
        crashes = ()
        if crash is not None and n_shards > 1:
            crashes = ((n_shards - 1, float(crash)),)
        specs.append(
            RunSpec(
                trace,
                "jaws2",
                engine,
                scheduler_config=config,
                label=f"shardscale:{n_shards}",
                n_nodes=N_NODES,
                shards=ShardConfig(n_shards=n_shards, crashes=crashes),
            )
        )
    rows = []
    for n_shards, result in zip(SHARD_COUNTS, sweep_run_many(specs, jobs=jobs)):
        responses = np.asarray(result.response_times, dtype=np.float64)
        rows.append(
            {
                "shards": n_shards,
                "queries": result.n_queries,
                "makespan_s": result.makespan,
                "queries_per_s": (
                    result.n_queries / result.makespan if result.makespan else 0.0
                ),
                "mean_response_s": float(responses.mean()) if responses.size else 0.0,
                "p99_response_s": (
                    float(np.percentile(responses, 99)) if responses.size else 0.0
                ),
                "shard_messages": result.faults.get("shard_messages", 0),
                "stale_retries": result.faults.get("shard_stale_retries", 0),
            }
        )
    return {
        "n_nodes": N_NODES,
        "crash_at": crash,
        "rows": rows,
    }


def render(data: dict) -> str:
    headers = [
        "shards",
        "queries",
        "makespan_s",
        "q/s",
        "mean_s",
        "p99_s",
        "msgs",
        "stale",
    ]
    rows = [
        [
            row["shards"],
            row["queries"],
            row["makespan_s"],
            row["queries_per_s"],
            row["mean_response_s"],
            row["p99_response_s"],
            row["shard_messages"],
            row["stale_retries"],
        ]
        for row in data["rows"]
    ]
    suffix = (
        f", shard crash @ {data['crash_at']}s" if data["crash_at"] is not None else ""
    )
    return render_table(
        headers,
        rows,
        title=f"Shard scale law — {data['n_nodes']} nodes{suffix}",
    )


if __name__ == "__main__":
    print(render(run()))
