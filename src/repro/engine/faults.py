"""Seeded, deterministic fault injection for the simulated cluster.

One :class:`FaultInjector` per :class:`~repro.engine.simulator.Simulator`
owns a private RNG and every piece of mutable fault state: which atoms
have been permanently lost on which node, per-node consecutive-failure
counters (the circuit breaker), per-node retry budgets, and the
accumulated :class:`FaultStats`.

Determinism: all randomness flows through the injector's single
``random.Random(seed)`` stream, and the discrete-event engine calls the
injector in a deterministic order (heap order with sequence-number tie
breaks).  Same seed + same :class:`~repro.config.FaultConfig` + same
trace therefore reproduce bit-identical fault schedules and results —
the property the determinism tests in ``tests/test_faults.py`` assert.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from repro.config import FaultConfig
from repro.storage.disk import DiskModel

__all__ = ["FaultKind", "FaultStats", "FaultInjector"]


class FaultKind(enum.Enum):
    """Injected fault taxonomy.

    ``OK`` / ``TRANSIENT`` / ``LOST`` are the outcomes of one disk read
    attempt; ``COORDINATOR_CRASH`` is a whole-run fault — the engine
    aborts with :class:`~repro.errors.CoordinatorCrash` at an armed
    event index (recovered via the checkpoint subsystem,
    :mod:`repro.recovery`).  ``SHARD_CRASH`` is its cluster-level
    analog for sharded multi-coordinator runs (:mod:`repro.shard`): one
    coordinator shard crash-stops at a configured or seeded virtual
    time, its Morton-range leases fail over to a surviving shard at a
    deterministic epoch bump, and in-flight cross-shard work is
    re-resolved via typed retry in virtual time.
    """

    OK = "ok"
    TRANSIENT = "transient"
    LOST = "lost"
    COORDINATOR_CRASH = "coordinator_crash"
    SHARD_CRASH = "shard_crash"


@dataclass
class FaultStats:
    """Counters accumulated by one injector over a simulation."""

    transient_faults: int = 0
    permanent_losses: int = 0
    slow_reads: int = 0
    retries: int = 0
    retries_exhausted: int = 0

    def snapshot(self) -> dict:
        return {
            "transient_faults": self.transient_faults,
            "permanent_losses": self.permanent_losses,
            "slow_reads": self.slow_reads,
            "retries": self.retries,
            "retries_exhausted": self.retries_exhausted,
        }


class FaultInjector:
    """Draws fault outcomes and tracks degraded-mode state.

    Parameters
    ----------
    config:
        The fault knobs (rates, backoff schedule, breaker threshold).
    n_nodes:
        Cluster size; per-node state (budgets, breakers) is indexed by
        node.
    guaranteed_events:
        A lower bound on the number of events the engine will dispatch
        for this run (the engine passes ``len(trace.jobs) + 2 *
        len(node_crashes)``: every JOB_SUBMIT and NODE_DOWN/NODE_UP is
        dispatched no matter what the schedulers do).  Window-drawn
        coordinator-crash points are clamped below this bound so a
        window reaching past the end of a short trace still produces a
        crash that actually fires instead of silently testing nothing.
        Explicit ``coordinator_crash_at`` indices are honored verbatim.
    """

    def __init__(
        self,
        config: FaultConfig,
        n_nodes: int,
        guaranteed_events: Optional[int] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.config = config
        self._rng = random.Random(config.seed)
        self._loss_decided: set[tuple[int, int]] = set()
        self._lost: set[tuple[int, int]] = set()
        self._consecutive = [0] * n_nodes
        self._retry_budget: list[Optional[int]] = [config.retry_budget_per_node] * n_nodes
        self.degraded = [False] * n_nodes
        self.stats = FaultStats()
        # Coordinator-crash point: explicit index, or drawn once from a
        # DEDICATED seeded stream (never the shared fault stream, so
        # arming a crash cannot perturb disk-fault outcomes and a
        # resumed run stays bit-identical to an uninterrupted one).
        self.crash_fired = False
        self.crash_at: Optional[int] = config.coordinator_crash_at
        if self.crash_at is None and config.coordinator_crash_window is not None:
            lo, hi = config.coordinator_crash_window
            crash_rng = random.Random(f"{config.seed}:coordinator_crash")
            self.crash_at = crash_rng.randrange(int(lo), int(hi))
            if guaranteed_events is not None:
                # Clamp into the live event range (still >= 1 so a
                # pre-crash snapshot can exist for recovery).
                self.crash_at = max(1, min(self.crash_at, guaranteed_events - 1))

    # ------------------------------------------------------------------
    # Read outcomes
    # ------------------------------------------------------------------
    def is_lost(self, node: int, atom_id: int) -> bool:
        """Has this node already discovered the atom unrecoverable?"""
        return (node, atom_id) in self._lost

    def draw_outcome(self, node: int, atom_id: int) -> FaultKind:
        """Decide the fate of one read attempt of ``atom_id`` on ``node``.

        Permanent loss is decided exactly once per (node, atom) — a
        lost atom stays lost; an atom that survived its first read can
        still fail transiently on any later attempt.
        """
        cfg = self.config
        key = (node, atom_id)
        if key in self._lost:
            return FaultKind.LOST
        if cfg.permanent_loss_rate > 0 and key not in self._loss_decided:
            self._loss_decided.add(key)
            if self._rng.random() < cfg.permanent_loss_rate:
                self._lost.add(key)
                self.stats.permanent_losses += 1
                return FaultKind.LOST
        if cfg.transient_fault_rate > 0 and self._rng.random() < cfg.transient_fault_rate:
            return FaultKind.TRANSIENT
        return FaultKind.OK

    def slow_factor(self, node: int) -> float:
        """Cost multiplier for one successful read (slow-disk fault)."""
        cfg = self.config
        if cfg.slow_read_rate > 0 and self._rng.random() < cfg.slow_read_rate:
            self.stats.slow_reads += 1
            return cfg.slow_read_factor
        return 1.0

    # ------------------------------------------------------------------
    # Circuit breaker + retry policy
    # ------------------------------------------------------------------
    def on_read_ok(self, node: int) -> None:
        """A read succeeded: the node's consecutive-failure streak ends."""
        self._consecutive[node] = 0

    def on_transient(self, node: int, disk: DiskModel) -> None:
        """Record a transient fault; trip the breaker at the threshold.

        Once tripped, the node's disk is marked degraded (modeling a
        RAID array in rebuild mode) and every later read on it is
        charged ``degraded_factor`` times the normal cost.
        """
        self.stats.transient_faults += 1
        self._consecutive[node] += 1
        threshold = self.config.circuit_breaker_threshold
        if not self.degraded[node] and self._consecutive[node] >= threshold:
            self.degraded[node] = True
            disk.degrade(self.config.degraded_factor)

    def grant_retry(self, node: int, attempt: int) -> bool:
        """May read attempt ``attempt`` (1-based failures so far) retry?

        Denied when the per-read ``max_retries`` or the node's total
        retry budget is exhausted; a denial abandons the read and the
        caller re-queues or re-routes the affected sub-queries.
        """
        if attempt > self.config.max_retries:
            self.stats.retries_exhausted += 1
            return False
        budget = self._retry_budget[node]
        if budget is not None:
            if budget <= 0:
                self.stats.retries_exhausted += 1
                return False
            self._retry_budget[node] = budget - 1
        self.stats.retries += 1
        return True

    def backoff(self, attempt: int) -> float:
        """Virtual-time delay before retry ``attempt`` (1-based), with
        exponential growth and uniform jitter."""
        cfg = self.config
        delay = cfg.backoff_base * (cfg.backoff_factor ** (attempt - 1))
        if cfg.backoff_jitter > 0:
            delay *= 1.0 + cfg.backoff_jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    # ------------------------------------------------------------------
    # Coordinator crash (FaultKind.COORDINATOR_CRASH)
    # ------------------------------------------------------------------
    def coordinator_crash_due(self, event_index: int) -> bool:
        """Should the coordinator abort before dispatching this event?"""
        if self.crash_at is not None and event_index >= self.crash_at:
            self.crash_fired = True
            return True
        return False

    def disarm_coordinator_crash(self) -> None:
        """Clear the armed crash point (called on checkpoint restore so
        the resumed run does not immediately re-crash).

        Disarming an armed crash records it as fired: restore only ever
        disarms after the crash actually aborted a run, and the restored
        snapshot predates the abort, so the pickled ``crash_fired`` is
        still False at this point.
        """
        if self.crash_at is not None:
            self.crash_fired = True
        self.crash_at = None

    def rng_digest(self) -> str:
        """Short stable digest of the injector's RNG state.

        Embedded in error diagnostics and snapshot headers: two runs
        that diverge show different digests at the first divergent
        event, pinpointing the replay position of the divergence.
        """
        state = repr(self._rng.getstate()).encode()
        return hashlib.sha256(state).hexdigest()[:16]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Stats plus degraded-node and loss summaries for RunResult.

        ``crash_effective`` reports whether an armed coordinator crash
        actually fired during the run's lifecycle (directly, or in the
        crashed run a restored simulator resumed from).  A completed run
        whose config armed a crash but whose result says
        ``crash_effective: False`` exercised nothing — the soak-level
        assertion this flag exists for.  Lifecycle metadata, not
        simulation output: bit-identity comparisons exclude it.
        """
        out = self.stats.snapshot()
        out["degraded_nodes"] = sum(self.degraded)
        out["lost_atom_copies"] = len(self._lost)
        out["crash_effective"] = self.crash_fired
        return out
