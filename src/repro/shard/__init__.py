"""Sharded multi-coordinator execution (DESIGN.md §14).

Partitions the coordinator itself: the cluster's Morton-contiguous
node blocks are split into N *shard domains*, each run by its own
:class:`~repro.shard.coordinator.ShardSimulator` (the full two-level
JAWS scheduling loop over its slice of the cluster), composed by the
deterministic virtual-time control plane in
:mod:`repro.shard.control` — lease-based ownership with epoch fencing,
seeded shard-crash failover, and cluster-consistent barrier recovery
(:mod:`repro.shard.recovery`).

:func:`run_sharded` runs more than one shard and refuses one.
:func:`repro.parallel.pool.run_spec` is the entry point that routes a
run of any shape: a one-shard plan there runs the plain cluster engine.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.cluster.partition import MortonRangePartitioner
from repro.config import (
    CheckpointConfig,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    SchedulerConfig,
    ShardConfig,
)
from repro.engine.runner import make_scheduler
from repro.errors import ConfigurationError
from repro.recovery.checkpoint import CheckpointManager
from repro.shard.control import ClusterControlPlane, ShardRunResult, shard_checkpoint
from repro.shard.coordinator import ShardSimulator
from repro.shard.messages import ShardMessage
from repro.shard.recovery import latest_manifest, resume_cluster
from repro.shard.topology import OwnershipTable, ShardTopology
from repro.workload.trace import Trace

__all__ = [
    "ClusterControlPlane",
    "OwnershipTable",
    "ShardMessage",
    "ShardRunResult",
    "ShardSimulator",
    "ShardTopology",
    "latest_manifest",
    "resume_cluster",
    "run_sharded",
    "shard_fault_seed",
]


def shard_fault_seed(seed: int, domain: int) -> int:
    """Per-domain fault seed: a stable hash-derived stream so peer
    domains never share fault draws, yet the whole cluster remains a
    pure function of the run seed."""
    digest = hashlib.sha256(f"{seed}:shard:{domain}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


def _shard_engine(
    engine: EngineConfig, topology: ShardTopology, domain: int
) -> EngineConfig:
    """Narrow the run's engine config to one domain: local node crashes
    only, a derived fault seed, and no coordinator-crash / checkpoint /
    overload / sanitizer — those concerns live in the control plane.

    The domain reads the cluster-wide crash schedule from
    ``ShardSimulator``'s own argument; the narrowed one only decides
    whether the domain runs a fault injector."""
    local = set(topology.nodes_of_shard(domain))
    faults = engine.faults.with_(
        seed=shard_fault_seed(engine.faults.seed, domain),
        node_crashes=tuple(
            (int(node), float(down_t), float(up_t))
            for node, down_t, up_t in engine.faults.node_crashes
            if int(node) in local
        ),
        coordinator_crash_at=None,
        coordinator_crash_window=None,
    )
    return engine.with_(
        faults=faults,
        checkpoint=CheckpointConfig(),
        overload=OverloadConfig(),
        sanitize=False,
    )


def run_sharded(
    trace: Trace,
    scheduler_name: str,
    n_nodes: int,
    shards: ShardConfig,
    engine: Optional[EngineConfig] = None,
    config: Optional[SchedulerConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> ShardRunResult:
    """Replay ``trace`` across ``shards.n_shards`` (at least two)
    coordinator shards, advancing every domain in this process.

    ``faults`` overrides ``engine.faults`` exactly as in
    :func:`~repro.cluster.cluster.run_cluster`.  ``engine.checkpoint``
    arms cluster barriers: one snapshot per shard plus a manifest under
    its directory, every ``every_events`` cumulative events, keeping
    ``keep`` generations of each.  Raises
    :class:`~repro.errors.ConfigurationError` for one shard (route
    through :func:`repro.parallel.pool.run_spec` instead), for what
    the sharded control plane does not model — overload admission and
    the runtime sanitizer (single-coordinator concerns), a
    virtual-time checkpoint cadence, and a halt without barriers — and
    for ``keep < 2``.
    """
    if not shards.sharded:
        raise ConfigurationError(
            "run_sharded needs n_shards >= 2; run_spec runs a one-shard "
            "plan on the cluster engine"
        )
    engine = engine or EngineConfig()
    if faults is not None:
        engine = engine.with_(faults=faults)
    if engine.overload.enabled:
        raise ConfigurationError(
            "overload admission control is not modeled under sharded "
            "execution; run with n_shards=1 or drop the overload config"
        )
    if engine.sanitize:
        raise ConfigurationError(
            "the runtime sanitizer audits a single coordinator's invariants; "
            "sharded runs are audited by the cross-shard conservation "
            "counters instead — disable sanitize or run with n_shards=1"
        )
    if engine.checkpoint.every_seconds is not None:
        raise ConfigurationError(
            "sharded runs checkpoint at cluster barriers counted in "
            "events; set checkpoint every_events, not every_seconds"
        )
    if shards.halt_after_barrier is not None and not engine.checkpoint.enabled:
        raise ConfigurationError(
            "halt_after_barrier needs cluster barriers: set a checkpoint "
            "directory and every_events"
        )
    if engine.checkpoint.enabled and engine.checkpoint.keep < 2:
        raise ConfigurationError(
            "sharded runs keep at least 2 checkpoint generations: a crash "
            "mid-barrier resumes from the previous manifest's shard snapshots"
        )
    topology = ShardTopology(n_nodes=n_nodes, n_shards=shards.n_shards)
    partitioner = MortonRangePartitioner(
        trace.spec, n_nodes, replication=engine.faults.replication
    )
    partitioner.assert_replication(context="shard topology build")
    full_crashes = tuple(
        (int(node), float(down_t), float(up_t))
        for node, down_t, up_t in engine.faults.node_crashes
    )
    domains = []
    for d in range(shards.n_shards):
        shard_engine = _shard_engine(engine, topology, d)
        schedulers = [
            make_scheduler(scheduler_name, trace, shard_engine, config)
            for _ in topology.nodes_of_shard(d)
        ]
        domains.append(
            ShardSimulator(
                trace,
                schedulers,
                shard_engine,
                topology,
                d,
                node_of=partitioner.node_of,
                replicas_of=partitioner.replicas_of,
                full_node_crashes=full_crashes,
                message_delay=shards.message_delay,
                checkpointer=(
                    CheckpointManager(shard_checkpoint(engine.checkpoint, d))
                    if engine.checkpoint.enabled
                    else None
                ),
            )
        )
    control = ClusterControlPlane(
        domains=domains,
        topology=topology,
        shards=shards,
        checkpoint=engine.checkpoint,
        partitioner=partitioner,
    )
    return control.run()
