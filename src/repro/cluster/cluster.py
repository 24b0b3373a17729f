"""Cluster-level simulation: one scheduler instance per node.

Queries fan out to the nodes owning their atoms; a query completes when
every node has finished its share (the engine tracks the global
outstanding count), and an ordered job's next query arrives only after
the global completion plus think time — so a slow node gates the whole
job, just as in the real cluster.

Boundary stencils: a node evaluating interpolation sub-queries near its
partition edge reads the neighboring region through its *own* disk and
cache — modeling the replicated boundary data the production cluster
keeps so interpolation never blocks on a remote node (§III-A's halo
idea, lifted to the partition level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import EngineConfig, FaultConfig, SchedulerConfig
from repro.engine.results import RunResult
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.cluster.partition import MortonRangePartitioner
from repro.workload.trace import Trace

__all__ = ["ClusterResult", "run_cluster"]


@dataclass
class ClusterResult:
    """Cluster run outcome: the merged engine result plus per-node
    load-balance diagnostics."""

    result: RunResult
    n_nodes: int
    node_atoms_executed: list[int]
    node_busy_seconds: list[float]

    @property
    def load_imbalance(self) -> float:
        """max/mean busy time across nodes (1.0 = perfectly balanced)."""
        busy = self.node_busy_seconds
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean > 0 else 0.0


def run_cluster(
    trace: Trace,
    scheduler_name: str,
    n_nodes: int,
    engine: EngineConfig | None = None,
    config: SchedulerConfig | None = None,
    faults: FaultConfig | None = None,
) -> ClusterResult:
    """Replay ``trace`` on an ``n_nodes`` cluster of ``scheduler_name``
    instances with Morton-range spatial partitioning.

    ``faults`` overrides ``engine.faults``, whose ``replication`` gives
    every atom that many ring-wise owners (the failover targets when
    its primary is down).
    """
    engine = engine or EngineConfig()
    if faults is not None:
        engine = engine.with_(faults=faults)
    partitioner = MortonRangePartitioner(
        trace.spec, n_nodes, replication=engine.faults.replication
    )
    schedulers = [make_scheduler(scheduler_name, trace, engine, config) for _ in range(n_nodes)]
    sim = Simulator(
        trace,
        schedulers,
        engine,
        node_of=partitioner.node_of,
        replicas_of=partitioner.replicas_of,
    )
    result = sim.run()
    return ClusterResult(
        result=result,
        n_nodes=n_nodes,
        node_atoms_executed=[n.executor.stats.atoms_executed for n in sim.nodes],
        node_busy_seconds=[n.executor.stats.busy_seconds for n in sim.nodes],
    )
