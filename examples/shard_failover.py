#!/usr/bin/env python
"""Sharded execution: lease failover and cluster-consistent recovery (§14).

Runs one workload four ways and proves the sharded machinery keeps its
promises:

1. single-coordinator reference (a one-shard plan runs the cluster
   engine);
2. two coordinator shards, fault-free;
3. two shards with shard 1 crashing mid-run — shard 0 adopts its
   Morton ranges at a bumped lease epoch and every query still
   completes, conserved exactly;
4. the same crashed run halted at a cluster barrier and resumed from
   the composed recovery point, bit-identical to the uninterrupted
   run.

Run:  python examples/shard_failover.py
"""

import tempfile
from pathlib import Path

from repro import (
    CacheConfig,
    CoordinatorCrash,
    CostModel,
    DatasetSpec,
    EngineConfig,
    WorkloadParams,
    generate_trace,
)
from repro.config import CheckpointConfig, ShardConfig
from repro.parallel import RunSpec, run_spec
from repro.shard import resume_cluster, run_sharded

N_NODES = 4
SCHEDULER = "jaws2"


def build_inputs():
    spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
    trace = generate_trace(spec, WorkloadParams(n_jobs=20, span=150.0, seed=7))
    engine = EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5), cache=CacheConfig(capacity_atoms=32)
    )
    return trace, engine


def describe(tag, n_shards, result):
    faults = result.faults
    print(
        f"{tag:<28} shards={n_shards} completed={result.n_queries} "
        f"makespan={result.makespan:.3f}s crashes={faults.get('shard_crashes', 0)} "
        f"epoch_bumps={faults.get('shard_epoch_bumps', 0)} "
        f"stale_retries={faults.get('shard_stale_retries', 0)}"
    )


def main():
    trace, engine = build_inputs()

    single = run_spec(
        RunSpec(trace, SCHEDULER, engine, n_nodes=N_NODES, shards=ShardConfig(n_shards=1))
    )
    describe("single coordinator", 1, single)

    sharded = run_sharded(
        trace, SCHEDULER, N_NODES, shards=ShardConfig(n_shards=2), engine=engine
    )
    describe("2 shards, fault-free", 2, sharded.result)

    crashed = run_sharded(
        trace,
        SCHEDULER,
        N_NODES,
        shards=ShardConfig(n_shards=2, crashes=((1, 40.0),)),
        engine=engine,
    )
    describe("2 shards, shard 1 dies", 2, crashed.result)
    assert crashed.result.n_queries == trace.n_queries, "failover lost queries"
    c = crashed.shard_stats["conservation"]
    assert c["created"] == c["applied"] + c["residual_cancelled"]
    print(
        f"  conservation: created={c['created']} == applied={c['applied']} "
        f"+ residual_cancelled={c['residual_cancelled']}  ✓ nothing lost"
    )
    print(f"  ownership after failover: operators={crashed.shard_stats['operators']}")

    with tempfile.TemporaryDirectory(prefix="repro-shard-ck-") as ckdir:
        try:
            run_sharded(
                trace,
                SCHEDULER,
                N_NODES,
                shards=ShardConfig(n_shards=2, crashes=((1, 40.0),), halt_after_barrier=3),
                # Barriers every 500 cumulative events, under ckdir.
                engine=engine.with_(
                    checkpoint=CheckpointConfig(directory=ckdir, every_events=500)
                ),
            )
            raise SystemExit("expected the halt to fire")
        except CoordinatorCrash:
            manifests = sorted(Path(ckdir).glob("cluster-*.manifest"))
            print(f"halted after barrier 3: {len(manifests)} cluster manifest(s)")

        resumed = resume_cluster(ckdir).run()
        describe("resumed from barrier", 2, resumed.result)

    same = (
        resumed.result.n_queries == crashed.result.n_queries
        and resumed.result.makespan == crashed.result.makespan
        and list(resumed.result.response_times) == list(crashed.result.response_times)
    )
    assert same, "resumed run diverged from the uninterrupted crashed run"
    print("resume is bit-identical to the uninterrupted run  ✓")


if __name__ == "__main__":
    main()
