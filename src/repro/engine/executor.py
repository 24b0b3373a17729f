"""Batch execution cost model.

Evaluating a batch (Fig. 6) means, for each atom in the given (Morton)
order: reference it through the buffer cache, paying the disk cost
:math:`T_b` on a miss; reference any neighbor atoms that the
interpolation stencils of the atom's sub-queries require (resolved
from the overshoot keys pre-processing stored on each sub-query; cache-
mediated too — this is where co-scheduling ``k`` nearby atoms pays
off, since one sub-query's neighbor is another's primary); and charge
:math:`T_m` per evaluated position.  The returned duration advances
the virtual clock.

With a :class:`~repro.engine.faults.FaultInjector` attached, primary
atom reads can fail: transient errors are retried with exponential
backoff (delays charged into the batch duration, in virtual time) up
to the configured retry limits; reads of permanently lost atoms — and
reads whose retries are exhausted — fail the atom, whose sub-queries
are returned to the engine for re-queueing or replica failover.
Neighbor (stencil halo) reads are not fault-injected: the production
cluster replicates boundary data precisely so interpolation never
blocks (§III-A), so halo copies are treated as always readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.config import CostModel
from repro.core.base import Batch
from repro.engine.faults import FaultInjector, FaultKind
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import neighbor_atoms_from_keys
from repro.storage.buffer import BufferCache
from repro.storage.disk import DiskModel
from repro.workload.query import SubQuery

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle at runtime
    from repro.analysis.sanitizer import SimulationSanitizer

__all__ = ["ExecStats", "BatchOutcome", "BatchExecutor"]


@dataclass
class ExecStats:
    """Counters accumulated over a simulation by one executor."""

    batches: int = 0
    atoms_executed: int = 0
    neighbor_reads: int = 0
    positions: int = 0
    busy_seconds: float = 0.0
    failed_atoms: int = 0

    def snapshot(self) -> dict:
        return {
            "batches": self.batches,
            "atoms_executed": self.atoms_executed,
            "neighbor_reads": self.neighbor_reads,
            "positions": self.positions,
            "busy_seconds": self.busy_seconds,
            "failed_atoms": self.failed_atoms,
        }


@dataclass
class BatchOutcome:
    """Result of executing one batch.

    ``duration`` advances the virtual clock; ``failed`` holds the
    sub-queries of atoms whose disk reads could not be completed (the
    engine re-queues or fails them over to replicas).
    """

    duration: float
    failed: list[SubQuery] = field(default_factory=list)


class BatchExecutor:
    """Executes batches against one node's cache + disk."""

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        cache: BufferCache,
        disk: DiskModel,
        injector: Optional[FaultInjector] = None,
        node_idx: int = 0,
        sanitizer: Optional["SimulationSanitizer"] = None,
    ) -> None:
        self.spec = spec
        self.cost = cost
        self.cache = cache
        self.disk = disk
        self.injector = injector
        self.node_idx = node_idx
        self.sanitizer = sanitizer
        self.stats = ExecStats()

    # ------------------------------------------------------------------
    def _charge_read(self, inj: FaultInjector, atom_id: int) -> tuple[float, bool]:
        """One fault-injected primary read: ``(seconds consumed, ok)``.

        Transient faults charge the failed attempt plus a backoff delay
        and retry; a lost atom or exhausted retries abandon the read.
        """
        seconds = 0.0
        attempt = 0
        while True:
            kind = inj.draw_outcome(self.node_idx, atom_id)
            if kind is FaultKind.LOST:
                seconds += self.disk.failed_read(atom_id)
                return seconds, False
            if kind is FaultKind.OK:
                seconds += self.disk.read_atom(atom_id, cost_factor=inj.slow_factor(self.node_idx))
                inj.on_read_ok(self.node_idx)
                return seconds, True
            # Transient fault: pay for the failed attempt, maybe retry.
            seconds += self.disk.failed_read(atom_id)
            inj.on_transient(self.node_idx, self.disk)
            attempt += 1
            if not inj.grant_retry(self.node_idx, attempt):
                return seconds, False
            seconds += inj.backoff(attempt)

    def execute(self, batch: Batch, now: float) -> BatchOutcome:
        """Run a batch starting at ``now``; returns its duration in
        simulated seconds plus any sub-queries that failed."""
        stats = self.stats
        access = self.cache.access
        read = self.disk.read_atom
        inj = self.injector
        t_m = self.cost.t_m
        spec = self.spec
        duration = self.cost.t_overhead
        failed: list[SubQuery] = []
        atoms_executed = neighbor_reads = positions = 0
        for atom_id, subqueries in batch.atoms:
            if not access(atom_id, now):
                if inj is None:
                    duration += read(atom_id)
                else:
                    seconds, ok = self._charge_read(inj, atom_id)
                    duration += seconds
                    if not ok:
                        # The atom never materialized: undo the cache
                        # insert and hand its sub-queries back.
                        self.cache.drop([atom_id])
                        stats.failed_atoms += 1
                        failed.extend(subqueries)
                        continue
            atoms_executed += 1
            for sq in subqueries:
                if sq.neighbor_keys:
                    required_atoms = neighbor_atoms_from_keys(spec, sq.neighbor_keys, atom_id)
                    neighbor_reads += len(required_atoms)
                    for required in required_atoms:
                        if not access(required, now):
                            duration += read(required)
                n_positions = sq.n_positions
                duration += t_m * n_positions
                positions += n_positions
        stats.atoms_executed += atoms_executed
        stats.neighbor_reads += neighbor_reads
        stats.positions += positions
        stats.batches += 1
        stats.busy_seconds += duration
        outcome = BatchOutcome(duration, failed)
        if self.sanitizer is not None:
            self.sanitizer.check_batch(batch, outcome)
        return outcome
