"""Central configuration objects for the JAWS reproduction.

Every tunable in the system lives in one of the frozen dataclasses here
so that experiments are fully described by a few immutable values and a
seed.  Defaults are calibrated so that the laptop-scale experiment
configurations in :mod:`repro.experiments.common` reproduce the *shape*
of the paper's results (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.errors import ConfigurationError

__all__ = [
    "CostModel",
    "CacheConfig",
    "MetricConfig",
    "SchedulerConfig",
    "FaultConfig",
    "CheckpointConfig",
    "OverloadConfig",
    "ShardConfig",
    "EngineConfig",
]


@dataclass(frozen=True)
class CostModel:
    """Time-cost model for the simulated storage and compute substrate.

    The paper's workload-throughput metric (Eq. 1) uses two empirically
    derived constants: ``T_b``, the cost of reading one atom from disk,
    and ``T_m``, the compute cost of evaluating a single queried
    position.  Atom reads are uniform cost because atoms are equal-sized
    8 MB blocks.

    Attributes
    ----------
    t_b:
        Seconds to read one atom from disk (cold).  An 8 MB block on the
        paper's RAID-5 array lands in the tens of milliseconds.
    t_m:
        Seconds of computation per queried position (interpolation
        kernel evaluation).
    seq_discount:
        Multiplier applied to ``t_b`` when the previously read atom is
        the immediately preceding Morton code on the same time step
        (sequential read, no seek).  ``1.0`` reproduces the paper's
        uniform-cost assumption; smaller values model seek amortization
        from Morton-ordered batches.
    t_overhead:
        Fixed scheduling overhead charged per executed batch, seconds.
    """

    t_b: float = 0.04
    t_m: float = 2.0e-5
    seq_discount: float = 1.0
    t_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.t_b <= 0 or self.t_m <= 0:
            raise ConfigurationError("t_b and t_m must be positive")
        if not 0.0 < self.seq_discount <= 1.0:
            raise ConfigurationError("seq_discount must be in (0, 1]")
        if self.t_overhead < 0:
            raise ConfigurationError("t_overhead must be non-negative")


@dataclass(frozen=True)
class CacheConfig:
    """Atom-cache configuration.

    The paper manages a 2 GB cache of 8 MB atoms externally to SQL
    Server, i.e. 256 atom slots.  ``protected_fraction`` applies to SLRU
    only (5–10 % in the paper); ``lruk_k`` applies to LRU-K only.
    """

    capacity_atoms: int = 256
    policy: str = "lruk"
    protected_fraction: float = 0.05
    lruk_k: int = 2

    def __post_init__(self) -> None:
        if self.capacity_atoms < 1:
            raise ConfigurationError("capacity_atoms must be >= 1")
        if not 0.0 < self.protected_fraction < 1.0:
            raise ConfigurationError("protected_fraction must be in (0, 1)")
        if self.lruk_k < 1:
            raise ConfigurationError("lruk_k must be >= 1")


@dataclass(frozen=True)
class MetricConfig:
    """Configuration of the (aged) workload-throughput metric.

    Attributes
    ----------
    normalize:
        Eq. 2 mixes a throughput rate with an age in milliseconds; used
        raw, the age term dominates for any ``alpha > 0`` once queries
        have waited seconds.  With ``normalize=True`` (default) both
        terms are min–max normalized over the current candidate set so
        that ``alpha`` sweeps the full trade-off between contention
        order (``alpha=0``) and arrival order (``alpha=1``).  Set
        ``False`` for the paper's literal formula.
    age_units:
        Divisor converting engine seconds into the age units of Eq. 2
        (the paper uses milliseconds, i.e. ``0.001``).  Only meaningful
        when ``normalize=False``.
    """

    normalize: bool = True
    age_units: float = 1e-3

    def __post_init__(self) -> None:
        if self.age_units <= 0:
            raise ConfigurationError("age_units must be positive")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler behaviour switches shared by LifeRaft and JAWS.

    Attributes
    ----------
    alpha:
        Initial age bias of the aged workload-throughput metric
        (Eq. 2).  ``0`` maximizes contention-ordered throughput, ``1``
        processes sub-queries in arrival order.
    adaptive_alpha:
        Enable the §V-A adaptive starvation-resistance controller
        (JAWS); LifeRaft keeps ``alpha`` fixed.
    batch_size:
        ``k``, the maximum number of atoms co-scheduled per time step by
        the two-level framework (paper default 15).  ``1`` disables
        two-level batching (LifeRaft schedules a single atom at a time).
    two_level:
        Select the time step by mean workload throughput before picking
        atoms (JAWS); if ``False`` atoms compete globally (LifeRaft).
    job_aware:
        Enable gated execution (§IV): align ordered jobs and co-schedule
        data-sharing queries.  ``JAWS_1`` in the paper is
        ``job_aware=False``, ``JAWS_2`` is ``True``.
    gating_max_lag:
        Maximum number of queries a job may be held back by gating
        before its gates are dropped (a liveness valve; the paper prunes
        completed queries but does not bound lag — ``None`` disables).
    metric:
        Metric configuration (normalization etc.).
    """

    alpha: float = 0.5
    adaptive_alpha: bool = False
    batch_size: int = 15
    two_level: bool = True
    job_aware: bool = True
    gating_max_lag: Optional[int] = None
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in [0, 1]")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.gating_max_lag is not None and self.gating_max_lag < 1:
            raise ConfigurationError("gating_max_lag must be >= 1 or None")

    def with_(self, **kwargs: Any) -> "SchedulerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection and fault-tolerance knobs.

    The production Turbulence cluster (27 TB on RAID-5 across several
    nodes, Fig. 7) lives with disk errors, degraded arrays, and node
    outages; this config drives a seeded, deterministic
    :class:`~repro.engine.faults.FaultInjector` that reproduces those
    failure modes in the virtual timeline.  The default instance
    injects nothing and adds zero cost — the engine bypasses the fault
    path entirely when :attr:`enabled` is False.

    Attributes
    ----------
    seed:
        Seed of the injector's private RNG.  Same seed + same config +
        same trace ⇒ bit-identical results.
    transient_fault_rate:
        Probability that any single disk read attempt fails with a
        recoverable error (retried with backoff).
    permanent_loss_rate:
        Probability, decided once per (node, atom) on first read, that
        the atom is unrecoverable on that node (sub-queries fail over
        to a replica, or the query is cancelled if no replica holds it).
    slow_read_rate / slow_read_factor:
        Probability that a successful read is degraded (e.g. sector
        remapping), and the cost multiplier applied when it is.
    max_retries:
        Transient-fault retries per read before the read is abandoned
        and the sub-query re-queued/re-routed.
    backoff_base / backoff_factor / backoff_jitter:
        Exponential-backoff schedule for retries, in virtual seconds:
        delay ``i`` is ``base * factor**(i-1)``, jittered uniformly by
        ``±jitter`` (fraction).  Charged through the cost model into
        the batch duration.
    retry_budget_per_node:
        Total retries one node may spend over a whole run (``None`` =
        unbounded).  A node whose budget is exhausted fails reads on
        the first transient error.
    circuit_breaker_threshold / degraded_factor:
        After this many *consecutive* transient faults a node's disk is
        marked degraded (RAID rebuild mode) and every subsequent read
        costs ``degraded_factor`` times more.
    node_crashes:
        Deterministic crash schedule: ``(node_index, down_time,
        up_time)`` triples in virtual seconds.  While down a node
        executes nothing; its pending and in-flight sub-queries fail
        over to replicas and it rejoins routing at ``up_time``.
    query_deadline:
        Seconds a query may remain incomplete after arrival before it
        is cancelled (sub-queries pruned everywhere, gating groups
        released, an ordered job's remainder aborted).  ``None``
        disables deadlines.
    replication:
        Atom ownership copies used by cluster routing
        (:class:`~repro.cluster.partition.MortonRangePartitioner`);
        ``1`` means no failover targets for lost atoms or down nodes.
    coordinator_crash_at:
        ``coordinator_crash`` fault: abort the whole run (raising
        :class:`~repro.errors.CoordinatorCrash`) immediately before
        dispatching the event with this 0-based index — modeling the
        coordinator process dying mid-run.  Recovery goes through
        checkpoints (:class:`CheckpointConfig` and
        ``Simulator.restore``).  ``None`` disables.
    coordinator_crash_window:
        Seeded alternative to :attr:`coordinator_crash_at`: an
        ``(lo, hi)`` event-index window from which the injector draws
        the crash index once, from a dedicated ``random.Random`` stream
        derived from :attr:`seed` (so arming the crash never perturbs
        the disk-fault stream).  Ignored when
        :attr:`coordinator_crash_at` is set.
    """

    seed: int = 0
    transient_fault_rate: float = 0.0
    permanent_loss_rate: float = 0.0
    slow_read_rate: float = 0.0
    slow_read_factor: float = 4.0
    max_retries: int = 3
    backoff_base: float = 0.005
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget_per_node: Optional[int] = None
    circuit_breaker_threshold: int = 10
    degraded_factor: float = 2.0
    node_crashes: tuple = ()
    query_deadline: Optional[float] = None
    replication: int = 1
    coordinator_crash_at: Optional[int] = None
    coordinator_crash_window: Optional[tuple] = None

    def __post_init__(self) -> None:
        for name in ("transient_fault_rate", "permanent_loss_rate", "slow_read_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.slow_read_factor < 1.0 or self.degraded_factor < 1.0:
            raise ConfigurationError("slow_read_factor and degraded_factor must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_base must be >= 0 and backoff_factor >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError("backoff_jitter must be in [0, 1]")
        if self.retry_budget_per_node is not None and self.retry_budget_per_node < 0:
            raise ConfigurationError("retry_budget_per_node must be >= 0 or None")
        if self.circuit_breaker_threshold < 1:
            raise ConfigurationError("circuit_breaker_threshold must be >= 1")
        if self.query_deadline is not None and self.query_deadline <= 0:
            raise ConfigurationError("query_deadline must be positive or None")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.coordinator_crash_at is not None and self.coordinator_crash_at < 0:
            raise ConfigurationError("coordinator_crash_at must be >= 0 or None")
        if self.coordinator_crash_window is not None:
            window = tuple(self.coordinator_crash_window)
            if len(window) != 2:
                raise ConfigurationError("coordinator_crash_window must be (lo, hi)")
            lo, hi = window
            if int(lo) != lo or int(hi) != hi or not 0 <= lo < hi:
                raise ConfigurationError(
                    "coordinator_crash_window must satisfy 0 <= lo < hi (integers)"
                )
            object.__setattr__(self, "coordinator_crash_window", (int(lo), int(hi)))
        # Normalize the crash schedule to a hashable tuple-of-tuples.
        crashes = tuple(tuple(c) for c in self.node_crashes)
        for crash in crashes:
            if len(crash) != 3:
                raise ConfigurationError("node_crashes entries must be (node, down_time, up_time)")
            node, down, up = crash
            if int(node) < 0 or int(node) != node:
                raise ConfigurationError("crash node index must be a non-negative integer")
            if not 0 <= down < up:
                raise ConfigurationError("crash times must satisfy 0 <= down_time < up_time")
        object.__setattr__(self, "node_crashes", crashes)

    @property
    def enabled(self) -> bool:
        """True when any fault source is configured (the engine skips
        the entire injection path otherwise)."""
        return bool(
            self.transient_fault_rate > 0
            or self.permanent_loss_rate > 0
            or self.slow_read_rate > 0
            or self.node_crashes
            or self.query_deadline is not None
            or self.coordinator_crash_at is not None
            or self.coordinator_crash_window is not None
        )

    def with_(self, **kwargs: Any) -> "FaultConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CheckpointConfig:
    """Crash-consistent checkpointing policy (DESIGN.md §8).

    When :attr:`enabled`, the engine persists a versioned snapshot of
    the complete simulation state to :attr:`directory` whenever the
    policy fires, and keeps an event-sourced write-ahead log of every
    dispatched event between snapshots.  ``Simulator.restore`` rebuilds
    the engine from the latest snapshot, replays the WAL (verifying
    each event against the log), and resumes — a resumed run is
    bit-identical to an uninterrupted same-seed run.

    Attributes
    ----------
    directory:
        Where snapshots (``snapshot-<event>.ckpt``) and WAL segments
        (``wal-<event>.log``) are written.  ``None`` disables
        checkpointing entirely.
    every_events:
        Take a snapshot every N dispatched events (``None`` = no
        event-count trigger).
    every_seconds:
        Take a snapshot every T *virtual* seconds (``None`` = no
        clock trigger).  Both triggers may be combined; a snapshot is
        taken when either fires.
    keep:
        Snapshot generations retained (older snapshot + WAL files are
        pruned).  The latest snapshot is never pruned.
    """

    directory: Optional[str] = None
    every_events: Optional[int] = None
    every_seconds: Optional[float] = None
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every_events is not None and self.every_events < 1:
            raise ConfigurationError("every_events must be >= 1 or None")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ConfigurationError("every_seconds must be positive or None")
        if self.keep < 1:
            raise ConfigurationError("keep must be >= 1")
        if self.directory is not None and self.every_events is None and self.every_seconds is None:
            raise ConfigurationError(
                "checkpointing needs a policy: set every_events and/or every_seconds"
            )

    @property
    def enabled(self) -> bool:
        """True when a directory and at least one trigger are set."""
        return self.directory is not None and (
            self.every_events is not None or self.every_seconds is not None
        )

    def with_(self, **kwargs: Any) -> "CheckpointConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ShardConfig:
    """Sharded multi-coordinator execution (:mod:`repro.shard`).

    Partitions the coordinator by Morton range into :attr:`n_shards`
    shard coordinators, each running the two-level JAWS scheduling loop
    over its slice of the cluster, composed by a deterministic virtual-
    time control plane with epoch-numbered leases on every shard's
    ranges.  With the default ``n_shards=1``,
    :func:`~repro.parallel.pool.run_spec` runs the plain single-
    coordinator engine instead.

    Attributes
    ----------
    n_shards:
        Coordinator shard count.
    crashes:
        Deterministic shard-crash schedule: ``(shard_index,
        crash_time)`` pairs in virtual seconds
        (:class:`~repro.engine.faults.FaultKind.SHARD_CRASH`).  A
        crashed shard never returns; its Morton-range leases fail over
        to the next surviving shard ring-wise after
        :attr:`failover_delay`, at a deterministic epoch bump.  At
        least one shard must survive the whole schedule.
    crash_window:
        Seeded alternative to :attr:`crashes`: a ``(lo, hi)``
        virtual-time window from which :attr:`n_window_crashes` crash
        points (victim shard + time) are drawn once, from a dedicated
        ``random.Random(f"{seed}:shard_crash")`` stream — arming shard
        crashes never perturbs disk-fault outcomes.  Ignored when
        :attr:`crashes` is non-empty.
    n_window_crashes:
        How many crashes to draw from :attr:`crash_window`.
    seed:
        Seed of the dedicated shard-crash stream.
    failover_delay:
        Virtual seconds between a shard crash and the moment the
        surviving successor holds its leases (detection + takeover
        cost).  The crashed domain is frozen in between; messages
        addressed to it are held and re-resolved.
    message_delay:
        Cross-shard message latency in virtual seconds — also the
        conservative lookahead of the control plane's superstep
        windows, so it must be positive.
    retry_delay:
        Extra virtual-time penalty charged when a message carrying a
        stale epoch is re-addressed to the range's new owner (the
        typed retry/timeout path).
    halt_after_barrier:
        Testing/ops knob mirroring ``coordinator_crash_at``: abort the
        whole cluster run (raising
        :class:`~repro.errors.CoordinatorCrash`) immediately after
        writing this 1-based cluster barrier, leaving a durable
        recovery point for ``repro resume`` to restore bit-identically.
        Barriers are armed by ``EngineConfig.checkpoint`` (its
        directory and ``every_events`` cadence), as for every run.
    """

    n_shards: int = 1
    crashes: tuple = ()
    crash_window: Optional[tuple] = None
    n_window_crashes: int = 1
    seed: int = 0
    failover_delay: float = 0.05
    message_delay: float = 0.01
    retry_delay: float = 0.01
    halt_after_barrier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        crashes = tuple((int(s), float(t)) for s, t in self.crashes)
        for shard, time_ in crashes:
            if not 0 <= shard < self.n_shards:
                raise ConfigurationError(
                    f"crash schedule names shard {shard} but there are "
                    f"{self.n_shards} shards"
                )
            if time_ <= 0:
                raise ConfigurationError("shard crash times must be positive")
        if len({s for s, _ in crashes}) != len(crashes):
            raise ConfigurationError("a shard can crash at most once (crash-stop)")
        if len(crashes) >= self.n_shards and crashes:
            raise ConfigurationError("at least one shard must survive the crash schedule")
        object.__setattr__(self, "crashes", crashes)
        if self.crash_window is not None:
            window = tuple(float(v) for v in self.crash_window)
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ConfigurationError("crash_window must satisfy 0 <= lo < hi")
            if not 1 <= self.n_window_crashes < max(self.n_shards, 2):
                raise ConfigurationError(
                    "n_window_crashes must leave at least one surviving shard"
                )
            object.__setattr__(self, "crash_window", window)
        if (self.crashes or self.crash_window is not None) and self.n_shards < 2:
            raise ConfigurationError("shard crashes need n_shards >= 2 (a survivor)")
        if self.failover_delay <= 0:
            raise ConfigurationError("failover_delay must be positive")
        if self.message_delay <= 0:
            raise ConfigurationError(
                "message_delay must be positive (it is the control plane's "
                "conservative lookahead)"
            )
        if self.retry_delay <= 0:
            raise ConfigurationError("retry_delay must be positive")
        if self.halt_after_barrier is not None:
            if self.halt_after_barrier < 1:
                raise ConfigurationError("halt_after_barrier must be >= 1 or None")
            if self.n_shards < 2:
                raise ConfigurationError(
                    "halt_after_barrier interrupts the sharded control plane; "
                    "with one shard use the coordinator-crash fault instead"
                )

    @property
    def sharded(self) -> bool:
        """True when execution actually fans out over multiple shards."""
        return self.n_shards > 1

    def with_(self, **kwargs: Any) -> "ShardConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Shed-policy names accepted by ``OverloadConfig.shed_policy``.
SHED_POLICIES = ("reject-newest", "low-density", "deadline")


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-protection knobs (admission control, load shedding,
    brownout, weighted fair quotas — DESIGN.md §9).

    The default instance is disabled and adds zero cost: the engine
    bypasses the entire overload path when :attr:`enabled` is False.
    All control decisions run on the virtual clock with no randomness,
    so same-seed runs — including crash+resume — stay bit-identical.

    Attributes
    ----------
    enabled:
        Master switch for the overload subsystem.
    client_rate / client_burst:
        Per-client token bucket: ``client_rate`` job admissions per
        virtual second refill, up to ``client_burst`` banked tokens.
        One *job* costs one token (admission is job-granular so an
        ordered job is never half-admitted).  A client whose bucket is
        empty is rejected with ``reason="rate_limit"`` and a
        deterministic ``retry_after`` equal to the refill time of the
        missing fraction.
    max_queue_depth:
        Bounded per-node workload queue: the maximum pending sub-query
        slots (queued + gating-held) one node may hold.  An arrival
        that would overflow a node triggers the shed policy to evict
        pending work (possibly the arriving query itself).
    shed_policy:
        Victim selection among pending queries when room must be made:
        ``"reject-newest"`` drops the most recently arrived,
        ``"low-density"`` drops the lowest workload density (positions
        per touched atom — the least sharing value per unit of I/O)
        first, and ``"deadline"`` drops queries whose proportional
        deadline (``arrival + slack_factor x estimated service``,
        reusing the QoS-JAWS estimate) provably cannot be met even if
        scheduled immediately.  All policies shed lighter-weighted
        client classes first.
    slack_factor:
        Proportional-deadline multiplier for the ``"deadline"`` policy
        (same semantics as ``QoSJAWSScheduler.slack_factor``).
    control_interval:
        Virtual seconds between brownout control-loop ticks
        (``OVERLOAD_TICK`` events).
    ewma_beta:
        EWMA smoothing of the load signal: ``ewma = beta * ewma +
        (1 - beta) * sample``.  Larger = smoother, slower to react.
    target_response_time:
        Normalizer for the response-time component of the load signal;
        a smoothed response time equal to this value saturates the
        signal.  ``None`` drives brownout from queue depth alone.
    throttle_enter / throttle_exit / shed_enter / shed_exit:
        Hysteresis thresholds on the smoothed load signal (fraction of
        cluster queue capacity): NORMAL -> THROTTLED at
        ``throttle_enter``, back at ``throttle_exit``; THROTTLED ->
        SHEDDING at ``shed_enter``, back at ``shed_exit``.  In
        THROTTLED mode batch-class jobs are refused (interactive
        traffic keeps flowing); SHEDDING mode additionally sheds
        pending work down to ``shed_target`` each tick.
    shed_target:
        Queue-capacity fraction SHEDDING mode drains to at each tick.
    class_weights:
        Weighted fair quotas on pending sub-query slots per client
        class, as ``(class, weight)`` pairs.  Class ``c`` is entitled
        to ``weight_c / sum(weights)`` of cluster queue capacity; once
        global utilization reaches :attr:`quota_enforce_fraction`, a
        class over its quota has further arrivals shed
        (``reason="quota"``) so a heavy scan cannot starve point
        queries even below the shedding threshold.  Unknown classes
        get the minimum configured weight.
    quota_enforce_fraction:
        Global utilization at which fair quotas become binding
        (work-conserving below it: spare capacity is usable by any
        class).
    """

    enabled: bool = False
    client_rate: float = 4.0
    client_burst: float = 8.0
    max_queue_depth: int = 400
    shed_policy: str = "deadline"
    slack_factor: float = 25.0
    control_interval: float = 1.0
    ewma_beta: float = 0.7
    target_response_time: Optional[float] = None
    throttle_enter: float = 0.55
    throttle_exit: float = 0.35
    shed_enter: float = 0.85
    shed_exit: float = 0.60
    shed_target: float = 0.50
    class_weights: tuple = (("interactive", 6.0), ("tracking", 3.0), ("batch", 1.0))
    quota_enforce_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.client_rate <= 0 or self.client_burst < 1.0:
            raise ConfigurationError("client_rate must be > 0 and client_burst >= 1")
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.slack_factor <= 0:
            raise ConfigurationError("slack_factor must be positive")
        if self.control_interval <= 0:
            raise ConfigurationError("control_interval must be positive")
        if not 0.0 <= self.ewma_beta < 1.0:
            raise ConfigurationError("ewma_beta must be in [0, 1)")
        if self.target_response_time is not None and self.target_response_time <= 0:
            raise ConfigurationError("target_response_time must be positive or None")
        for name in (
            "throttle_enter", "throttle_exit", "shed_enter", "shed_exit", "shed_target"
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.5:
                raise ConfigurationError(f"{name} must be in (0, 1.5]")
        if not (
            self.throttle_exit <= self.throttle_enter
            and self.shed_exit <= self.shed_enter
            and self.throttle_enter <= self.shed_enter
        ):
            raise ConfigurationError(
                "hysteresis thresholds must satisfy throttle_exit <= throttle_enter "
                "<= shed_enter and shed_exit <= shed_enter"
            )
        weights = tuple((str(c), float(w)) for c, w in self.class_weights)
        if not weights:
            raise ConfigurationError("class_weights must not be empty")
        names = [c for c, _ in weights]
        if len(set(names)) != len(names):
            raise ConfigurationError("class_weights has duplicate class names")
        if any(w <= 0 for _, w in weights):
            raise ConfigurationError("class weights must be positive")
        object.__setattr__(self, "class_weights", weights)
        if not 0.0 <= self.quota_enforce_fraction <= 1.0:
            raise ConfigurationError("quota_enforce_fraction must be in [0, 1]")

    def with_(self, **kwargs: Any) -> "OverloadConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EngineConfig:
    """Discrete-event engine configuration.

    Attributes
    ----------
    cost:
        Storage/compute cost model.
    cache:
        Atom cache configuration.
    interpolation_order:
        Lagrange order of the ``interp`` operation's kernel.  With the
        production 4-voxel halo an order-8 kernel never leaves its
        atom; the default 12 models wider kernels (e.g. gradients of
        the order-8 interpolant), whose stencils near atom faces read
        neighbor atoms — the locality-of-reference path that batch
        size ``k`` exploits (§V).
    run_length:
        Completed queries per *run* — the granularity at which the
        engine emits run boundaries (adaptive α, SLRU promotion).
    max_sim_time:
        Safety bound on the virtual clock, seconds; the engine raises
        if exceeded (guards against livelock bugs in scheduler
        development).
    faults:
        Fault-injection configuration; the default injects nothing.
    checkpoint:
        Crash-consistent checkpointing policy
        (:class:`CheckpointConfig`); the default disables it.
    overload:
        Overload-protection configuration (:class:`OverloadConfig`):
        admission control, bounded queues, load shedding, brownout and
        fair quotas.  The default disables the entire path.
    sanitize:
        Attach the runtime simulation sanitizer
        (:class:`~repro.analysis.sanitizer.SimulationSanitizer`): after
        every event the engine asserts sub-query conservation, clock
        monotonicity, gating-graph acyclicity and workload-queue
        coherence, raising :class:`~repro.errors.InvariantViolation`
        on any breach.  Observational only — results are bit-identical
        with it on or off — but sweeps cost O(pending work) per event,
        so it is a debugging/CI tool, not a default.
    """

    cost: CostModel = field(default_factory=CostModel)
    cache: CacheConfig = field(default_factory=CacheConfig)
    interpolation_order: int = 12
    run_length: int = 50
    max_sim_time: float = 1e9
    faults: FaultConfig = field(default_factory=FaultConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.interpolation_order < 2 or self.interpolation_order % 2:
            raise ConfigurationError("interpolation_order must be an even integer >= 2")
        if self.run_length < 1:
            raise ConfigurationError("run_length must be >= 1")
        if self.max_sim_time <= 0:
            raise ConfigurationError("max_sim_time must be positive")

    def with_(self, **kwargs: Any) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
