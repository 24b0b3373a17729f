"""Discrete-event simulator: replays a trace through scheduler(s).

One :class:`Simulator` owns the virtual clock, the event heap, and one
*node* per scheduler instance — a node bundles a scheduler, a buffer
cache, a disk and a batch executor, mirroring the Turbulence cluster's
architecture of "data partitioned spatially and stored across different
nodes, each running a separate JAWS instance" (§V-C, Fig. 7).  The
single-node case (the paper's evaluation setup) is ``len(schedulers)
== 1``.

Lifecycle of a query (paper Fig. 1 + §IV-B):

1. its job's ``JOB_SUBMIT`` fires; ordered jobs emit the first query's
   ``QUERY_ARRIVAL``, batched jobs emit all of them;
2. on arrival the pre-processor splits it into per-atom sub-queries,
   one record of columns, and each node's scheduler is handed the part
   of the record routed to it;
3. idle nodes pull batches; batch completion decrements the query's
   outstanding sub-query count;
4. at zero the query completes: response time is recorded, and an
   ordered job's next query arrives after user think time.

Runs of ``run_length`` completions trigger the adaptive-α and SLRU
run-boundary hooks.

Degraded-mode operation (``EngineConfig.faults``): a seeded
:class:`~repro.engine.faults.FaultInjector` makes disk reads fail
(retried with backoff inside the executor), atoms permanently lost on
a node (their sub-queries fail over to replicas), and nodes crash and
recover on a configured schedule.  A crashing node's in-flight batch is
aborted and all its pending sub-queries are evacuated to replicas with
their original arrival times; while down it receives no new work but
still hears arrival/completion broadcasts so its gating graph stays in
sync, and on recovery it rejoins routing.  Per-query deadlines cancel
overdue queries everywhere — workload queues pruned, gating groups
released, the remainder of an ordered job aborted — and every fault
outcome is surfaced in :class:`~repro.engine.results.RunResult`.

Overload protection (``EngineConfig.overload``, DESIGN.md §9): an
:class:`~repro.overload.OverloadManager` gates every JOB_SUBMIT
(per-client token buckets, weighted fair class quotas, brownout-mode
throttling) before any scheduler hears about the job, enforces a
per-node pending-queue bound at arrival by shedding victims in policy
order, and runs a periodic OVERLOAD_TICK control loop that EWMA-smooths
load into NORMAL/THROTTLED/SHEDDING modes.  All decisions run on the
virtual clock from plain picklable state, so protected runs — including
crash+resume — stay bit-identical for the same seed.
"""

from __future__ import annotations

import bisect
import heapq
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.analysis.sanitizer import SimulationSanitizer
from repro.cache.base import CachePolicy, make_policy
from repro.config import CacheConfig, EngineConfig
from repro.core.base import Batch, RunObservation, Scheduler
from repro.core.contention import ContentionSchedulerBase
from repro.engine.events import Event, EventKind
from repro.engine.executor import BatchExecutor
from repro.engine.faults import FaultInjector
from repro.engine.results import RunResult
from repro.errors import (
    ConfigurationError,
    CoordinatorCrash,
    LivelockError,
    SimTimeExceededError,
    SimulationError,
)
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.overload import OverloadManager, PendingWork, estimate_service
from repro.storage.buffer import BufferCache
from repro.storage.disk import DiskModel
from repro.workload.job import Job, JobAtomSets
from repro.workload.query import Query, SubQueries, SubQuery, preprocess_query
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - recovery imports engine.events
    from repro.recovery.checkpoint import CheckpointManager

__all__ = ["Simulator", "build_policy", "build_result"]


class _SingleNodeRouter:
    """Default ``node_of``: every atom lives on node 0.

    A module-level callable class (not a lambda) so a simulator using
    the default routing stays picklable for checkpoint snapshots.
    """

    def __call__(self, atom_id: int) -> int:
        return 0


class _PrimaryOnlyReplicas:
    """Default ``replicas_of``: the primary owner is the only replica.

    Picklable for the same reason as :class:`_SingleNodeRouter`.
    """

    def __init__(self, node_of: Callable[[int], int]) -> None:
        self._node_of = node_of

    def __call__(self, atom_id: int) -> Sequence[int]:
        return (self._node_of(atom_id),)


def build_policy(config: CacheConfig) -> CachePolicy:
    """Instantiate the configured replacement policy with its knobs."""
    if config.policy == "slru":
        return make_policy(
            "slru",
            capacity=config.capacity_atoms,
            protected_fraction=config.protected_fraction,
        )
    if config.policy == "lruk":
        return make_policy("lruk", k=config.lruk_k)
    return make_policy(config.policy)


def _split_by_node(
    subqueries: SubQueries, targets: list[int]
) -> dict[int, Sequence[SubQuery]]:
    """Each node's part of a query's sub-queries, ``targets[i]`` being
    sub-query ``i``'s node (-1: routed nowhere).  A query whose
    sub-queries all go to one node hands it the whole record."""
    first = targets[0] if targets else -1
    if first >= 0 and targets.count(first) == len(targets):
        return {first: subqueries}
    rows: dict[int, list[int]] = {}
    for i, target in enumerate(targets):
        if target >= 0:
            rows.setdefault(target, []).append(i)
    return {target: subqueries.take(index) for target, index in rows.items()}


class _Node:
    """One cluster node: scheduler + cache + disk + executor."""

    def __init__(
        self,
        idx: int,
        scheduler: Scheduler,
        spec: DatasetSpec,
        config: EngineConfig,
        injector: Optional[FaultInjector],
        sanitizer: Optional[SimulationSanitizer] = None,
    ) -> None:
        self.scheduler = scheduler
        self.cache = BufferCache(config.cache.capacity_atoms, build_policy(config.cache))
        self.disk = DiskModel(config.cost, spec.n_atoms)
        self.executor = BatchExecutor(
            spec,
            config.cost,
            self.cache,
            self.disk,
            injector=injector,
            node_idx=idx,
            sanitizer=sanitizer,
        )
        self.busy = False
        self.up = True
        # Crash generation: BATCH_DONE events from before a crash carry
        # a stale epoch and are dropped (their work was re-routed).
        self.epoch = 0
        self.inflight: Optional[Batch] = None
        if isinstance(scheduler, ContentionSchedulerBase):
            scheduler.bind_cache(self.cache)


class Simulator:
    """Replay ``trace`` through one scheduler per node.

    Parameters
    ----------
    trace:
        The workload.
    schedulers:
        One scheduler instance per node (fresh — schedulers are
        stateful and single-use).
    config:
        Engine configuration (including ``config.faults``).
    node_of:
        Maps a packed atom id to its owning node index; defaults to a
        single node.  Must be consistent with ``len(schedulers)``.
    replicas_of:
        Maps a packed atom id to its owning nodes in failover
        preference order (primary first).  Defaults to the primary
        only, i.e. no failover targets.
    """

    #: With no fault injector every primary owner is up and holds its
    #: atoms, so arrivals route straight to ``node_of``.  Shard domains
    #: turn this off: a peer's node may be down even when the domain
    #: itself injects no faults.
    _route_fault_free = True

    def __init__(
        self,
        trace: Trace,
        schedulers: Sequence[Scheduler],
        config: Optional[EngineConfig] = None,
        node_of: Optional[Callable[[int], int]] = None,
        replicas_of: Optional[Callable[[int], Sequence[int]]] = None,
    ) -> None:
        if not schedulers:
            raise ValueError("need at least one scheduler")
        self.trace = trace
        self.config = config or EngineConfig()
        self.spec = trace.spec
        self.mapper = AtomMapper(self.spec)
        self.interp = InterpolationSpec(order=self.config.interpolation_order)
        faults = self.config.faults
        slots, jobs, crashes = self._domain(schedulers)
        for node_idx, _, _ in crashes:
            if not 0 <= int(node_idx) < len(slots):
                raise ConfigurationError(
                    f"crash schedule names node {node_idx} but the cluster has "
                    f"{len(slots)} nodes"
                )
        local_crashes = [
            (int(node_idx), down_t, up_t)
            for node_idx, down_t, up_t in crashes
            if slots[int(node_idx)] is None
        ]
        # Guaranteed-dispatch floor: every JOB_SUBMIT plus both halves
        # of every scheduled node crash is dispatched unconditionally,
        # so a window-drawn coordinator crash clamped below this count
        # always fires (it cannot land past the end of a short trace).
        guaranteed_events = len(jobs) + 2 * len(local_crashes)
        self.injector = (
            FaultInjector(faults, len(slots), guaranteed_events=guaranteed_events)
            if faults.enabled
            else None
        )
        self.sanitizer = SimulationSanitizer(self) if self.config.sanitize else None
        local = iter(schedulers)
        self.nodes = [
            _Node(i, next(local), self.spec, self.config, self.injector, self.sanitizer)
            if slot is None
            else slot
            for i, slot in enumerate(slots)
        ]
        self._node_of = node_of or _SingleNodeRouter()
        self._replicas_of = replicas_of or _PrimaryOnlyReplicas(self._node_of)

        self._heap: list[Event] = []
        self._seq = 0
        self.clock = 0.0
        self.event_index = 0
        self._last_completion = 0.0

        # Query bookkeeping.
        self._arrival: dict[int, float] = {}
        self._remaining: dict[int, int] = {}
        self._live_query: dict[int, Query] = {}
        self._job_of: dict[int, Job] = {}
        self._job_left: dict[int, int] = {}
        self._job_first_arrival: dict[int, float] = {}
        # Jobs with a cancelled/aborted query never record a duration.
        self._impaired_jobs: set[int] = set()

        # Results accumulation.
        self._response_times: list[float] = []
        self._job_durations: dict[int, float] = {}
        self._completed = 0
        self._runs: list[RunObservation] = []
        self._run_start = 0.0
        self._run_responses: list[float] = []
        self.forced_releases = 0

        # Fault accounting.
        self._timeouts = 0
        self._failovers = 0
        self._requeues = 0
        self._data_loss_cancels = 0
        self._cancelled = 0
        self._aborted_jobs = 0
        self._aborted_unarrived = 0
        self._node_downs = 0
        self._deferred = 0

        # Overload protection (DESIGN.md §9).  The shed-conservation
        # counters (_admitted/_shed) and per-class response times are
        # maintained unconditionally — the sanitizer checks the
        # admitted = completed + cancelled + shed + pending identity on
        # every run, protected or not.
        overload_cfg = self.config.overload
        self.overload: Optional[OverloadManager] = (
            OverloadManager(overload_cfg, self.config.cost, len(schedulers))
            if overload_cfg.enabled
            else None
        )
        self._admitted = 0
        self._shed = 0
        self._class_responses: dict[str, list[float]] = {}
        self._tick_armed = False

        self._job_index = {job.job_id: job for job in trace.jobs}
        for job in jobs:
            self._push(job.submit_time, EventKind.JOB_SUBMIT, job)
        if self.overload is not None and jobs:
            # First control tick coincides with the earliest submit;
            # OVERLOAD_TICK dispatches last at equal timestamps, so it
            # always observes settled queue state.
            self._arm_tick(min(job.submit_time for job in jobs))
        for node_idx, down_t, up_t in local_crashes:
            self._push(down_t, EventKind.NODE_DOWN, node_idx)
            self._push(up_t, EventKind.NODE_UP, node_idx)
        # Deferral parks work until the next recovery anywhere in the
        # cluster: a shard domain's work may wait on a peer's node.
        self._recovery_times = sorted(up_t for _, _, up_t in crashes)
        # The open parked bucket: (recovery index, its REROUTE event).
        self._parked: Optional[tuple[int, Event]] = None

        # Crash-consistent checkpointing (DESIGN.md §8).  The manager is
        # deliberately NOT part of snapshot state (_capture_state skips
        # it): it holds open file handles and is rebuilt on restore.
        self._checkpointer: Optional["CheckpointManager"] = None
        if self.config.checkpoint.enabled:
            from repro.recovery.checkpoint import CheckpointManager

            self._checkpointer = CheckpointManager(self.config.checkpoint)

    def _domain(
        self, schedulers: Sequence[Scheduler]
    ) -> tuple[list, Sequence[Job], Sequence[tuple]]:
        """The part of the cluster this engine runs — the one hook a
        shard domain (:mod:`repro.shard`) overrides.

        Returns ``(slots, jobs, crashes)``: one slot per cluster node,
        ``None`` where this engine runs the node itself (taking the next
        of ``schedulers``) or a stand-in for a node run elsewhere; the
        jobs whose JOB_SUBMIT it seeds; and the cluster-wide node-crash
        schedule, which it validates, replays for its own nodes and
        draws recovery times from.  A single coordinator runs all of it.
        """
        return [None] * len(schedulers), self.trace.jobs, self.config.faults.node_crashes

    # ------------------------------------------------------------------
    def _event(self, time_: float, kind: EventKind, payload: object) -> Event:
        """Number a new event; the sanitizer vets its time first."""
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time_, kind)
        ev = Event(time_, kind, self._seq, payload)
        self._seq += 1
        return ev

    def _push(self, time_: float, kind: EventKind, payload: object) -> None:
        heapq.heappush(self._heap, self._event(time_, kind, payload))

    def _arm_tick(self, time_: float) -> None:
        """Schedule the next overload control tick, at most one at a
        time (ticks re-arm themselves while work remains; batch starts
        re-arm a tick that died during an idle stretch)."""
        if self.overload is None or self._tick_armed:
            return
        self._tick_armed = True
        self._push(time_, EventKind.OVERLOAD_TICK, None)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, atom_id: int) -> tuple[Optional[int], bool]:
        """Pick the node to serve ``atom_id``: the first owner (primary,
        then replicas) that is up and has not lost the atom.

        Returns ``(node_index, lost_everywhere)`` — ``(None, True)``
        when every owner has discovered the atom unrecoverable (data
        loss), ``(None, False)`` when owners survive but all are down
        (defer until a recovery).
        """
        candidates = self._replicas_of(atom_id)
        lost_everywhere = True
        for idx in candidates:
            if self.injector is not None and self.injector.is_lost(idx, atom_id):
                continue
            lost_everywhere = False
            if self.nodes[idx].up:
                return idx, False
        return None, lost_everywhere

    def _reroute(self, sq: SubQuery, arrival: float, now: float, from_node: Optional[int]) -> None:
        """Find a new home for a sub-query whose node failed it (crash,
        lost atom, or exhausted retries)."""
        qid = sq.query.query_id
        if qid not in self._remaining:
            return  # query already completed or cancelled
        target, lost_everywhere = self._route(sq.atom_id)
        if target is None:
            if lost_everywhere:
                self._cancel_query(qid, now, reason="data_loss")
            else:
                self._defer(sq, arrival, now)
            return
        if from_node is not None and target == from_node:
            # Same (still healthy) node: a fresh attempt later, not a
            # failover — e.g. retries exhausted with no replica.
            self._requeues += 1
        else:
            self._failovers += 1
        self._readmit(target, sq, arrival, now)

    def _readmit(self, target: int, sq: SubQuery, arrival: float, now: float) -> None:
        """Hand a re-routed sub-query to node ``target``'s scheduler."""
        self.nodes[target].scheduler.readmit([(arrival, sq)], now)

    def _defer(self, sq: SubQuery, arrival: float, now: float) -> None:
        """Every owner of the atom is down: park the sub-query until
        the next scheduled recovery.

        Parked pairs share one ``REROUTE`` event, a *bucket*, while no
        other event has been numbered since the bucket's own: the pairs
        then hold exactly the run of consecutive sequence numbers that
        one event per pair would have had, so the dispatch order does
        not change (DESIGN.md §6)."""
        index = bisect.bisect_right(self._recovery_times, now)
        if index == len(self._recovery_times):
            raise SimulationError(
                "no node can serve a sub-query and no recovery is scheduled",
                **{**self._diagnostics(), "clock": now},
            )
        self._deferred += 1
        parked = self._parked
        if parked is not None and parked[0] == index and parked[1].seq == self._seq - 1:
            parked[1].payload.append((sq, arrival))
            return
        ev = self._event(self._recovery_times[index], EventKind.REROUTE, [(sq, arrival)])
        heapq.heappush(self._heap, ev)
        self._parked = (index, ev)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _dispatch(self, ev: Event) -> None:
        if self.injector is not None and self.injector.coordinator_crash_due(self.event_index):
            # Crash BEFORE the write-ahead record: the aborted event is
            # not in the WAL, so the resumed run re-dispatches it.
            if self._checkpointer is not None:
                self._checkpointer.flush()
            raise CoordinatorCrash(
                "injected coordinator crash "
                f"(armed at event {self.injector.crash_at})",
                **self._diagnostics(),
            )
        if self._checkpointer is not None:
            self._checkpointer.log_event(self, ev)
        kind = ev.kind
        if kind is EventKind.BATCH_DONE:
            self._on_batch_done(*ev.payload, now=ev.time)
        elif kind is EventKind.JOB_SUBMIT:
            self._on_job_submit(ev.payload, ev.time)
        elif kind is EventKind.QUERY_ARRIVAL:
            self._on_query_arrival(ev.payload, ev.time)
        elif kind is EventKind.NODE_DOWN:
            self._on_node_down(ev.payload, ev.time)
        elif kind is EventKind.NODE_UP:
            self._on_node_up(ev.payload, ev.time)
        elif kind is EventKind.REROUTE:
            self._on_reroute(ev)
        elif kind is EventKind.QUERY_DEADLINE:
            self._on_query_deadline(ev.payload, ev.time)
        elif kind is EventKind.SHARD_MSG:
            self._on_shard_msg(ev.payload, ev.time)
        else:  # OVERLOAD_TICK
            self._on_overload_tick(ev.time)
        if self.sanitizer is not None:
            # Every event handler leaves the engine in a consistent
            # state; sweep all invariants before the next decision.
            self.sanitizer.after_event()
        self.event_index += 1
        if self._checkpointer is not None:
            self._checkpointer.maybe_snapshot(self)

    def _on_job_submit(self, job: Job, now: float) -> None:
        if self.overload is not None:
            # Admission is decided for the job as a unit, BEFORE any
            # scheduler hears about it: a rejected job never enters a
            # gating graph, so there are no half-admitted ordered jobs
            # to deadlock on.  The typed rejection (with its retry
            # hint) is recorded by the manager; in a live service it
            # would be returned to the client.
            if self.overload.admit_job(job, self._global_depth(), now) is not None:
                return
        self._job_left[job.job_id] = job.n_queries
        self._announce_job(job, JobAtomSets(job, self.spec), now)
        if job.is_ordered:
            self._push(now, EventKind.QUERY_ARRIVAL, job.queries[0])
        else:
            for q in job.queries:
                self._push(now, EventKind.QUERY_ARRIVAL, q)

    def _announce_job(self, job: Job, atom_sets: JobAtomSets, now: float) -> None:
        for node in self.nodes:
            node.scheduler.on_job_submitted(job, now, atom_sets)

    def _on_query_arrival(self, query: Query, now: float) -> None:
        qid = query.query_id
        self._arrival[qid] = now
        self._job_first_arrival.setdefault(query.job_id, now)
        self._live_query[qid] = query
        self._job_of[qid] = self._job_index[query.job_id]
        subqueries = preprocess_query(query, self.mapper, self.interp)
        n_sub = len(subqueries)
        self._remaining[qid] = n_sub
        self._admitted += 1
        if self.overload is not None:
            job = self._job_of[qid]
            service = estimate_service(subqueries, self.config.cost)
            self.overload.register(
                PendingWork(
                    query_id=qid,
                    job_id=query.job_id,
                    client_class=job.client_class,
                    arrival=now,
                    n_subqueries=n_sub,
                    density=query.n_positions / max(1, n_sub),
                    service_estimate=service,
                    deadline=now + self.config.overload.slack_factor * service,
                    class_weight=self.overload.fairness.weight(job.client_class),
                ),
                n_sub,
            )
        atom_ids = subqueries.atom_ids.tolist()
        deferred: list[SubQuery] = []
        lost: bool = False
        if self.injector is None and self._route_fault_free:
            targets = [self._node_of(atom_id) for atom_id in atom_ids]
        else:
            targets = []
            for i, atom_id in enumerate(atom_ids):
                target, lost_everywhere = self._route(atom_id)
                if target is not None:
                    if target != self._node_of(atom_id):
                        self._failovers += 1
                elif lost_everywhere:
                    lost = True
                else:
                    deferred.append(subqueries[i])
                targets.append(-1 if target is None else target)
        self._deliver_arrival(query, _split_by_node(subqueries, targets), now)
        for sq in deferred:
            self._defer(sq, now, now)
        if lost:
            # Some sub-query's atom is unrecoverable everywhere: the
            # query can never complete.
            self._cancel_query(qid, now, reason="data_loss")
            return
        if self.overload is not None:
            self._enforce_queue_bounds(now)
            if qid not in self._remaining:
                return  # the arriving query itself was shed
        deadline = self.config.faults.query_deadline
        if deadline is not None:
            self._push(now + deadline, EventKind.QUERY_DEADLINE, qid)

    def _deliver_arrival(
        self, query: Query, by_node: dict[int, Sequence[SubQuery]], now: float
    ) -> None:
        """Hand an arrived query's routed sub-queries to the schedulers.

        Every node hears every arrival (possibly with no local
        sub-queries) so per-node gating state advances even for queries
        whose data lives elsewhere — including down nodes, whose gating
        graphs must stay in sync for recovery."""
        for node_idx, node in enumerate(self.nodes):
            node.scheduler.on_query_arrival(query, by_node.get(node_idx, []), now)

    def _global_depth(self) -> int:
        """Cluster-wide pending sub-query slots (queued, gated, and
        in-flight work of every admitted, incomplete query)."""
        return sum(self._remaining.values())

    def _enforce_queue_bounds(self, now: float) -> None:
        """Backpressure: while any node's workload queue exceeds the
        configured bound, shed pending queries in policy order.  Each
        shed prunes at least one local sub-query (victims are drawn
        from the node's own pending set), so the loop terminates."""
        assert self.overload is not None
        bound = self.config.overload.max_queue_depth
        for node in self.nodes:
            while node.scheduler.queue_depth() > bound:
                local = sorted(node.scheduler.pending_by_query())
                victims = self.overload.rank_victims(local, now)
                if not victims:
                    break  # pragma: no cover - pending work the manager never saw
                self.overload.note_shed("overflow")
                self._cancel_query(victims[0].query_id, now, reason="shed")

    def _on_batch_done(
        self, node_idx: int, epoch: int, batch: Batch, failed: list, now: float
    ) -> None:
        node = self.nodes[node_idx]
        if epoch != node.epoch:
            return  # the node crashed mid-batch; this work was re-routed
        node.busy = False
        node.inflight = None
        failed_ids = {id(sq) for sq in failed} if failed else ()
        remaining = self._remaining
        overload = self.overload
        stray: list[SubQuery] = []
        for _, subqueries in batch.atoms:
            for sq in subqueries:
                if id(sq) in failed_ids:
                    continue
                qid = sq.query.query_id
                left = remaining.get(qid)
                if left is None:
                    stray.append(sq)
                    continue
                remaining[qid] = left - 1
                if overload is not None:
                    overload.on_subquery_done(qid)
                if left == 1:
                    self._complete_query(sq.query, now)
        if stray:
            self._on_stray_done(stray, now)
        for sq in failed:
            self._reroute(sq, self._arrival.get(sq.query.query_id, now), now, from_node=node_idx)

    def _on_stray_done(self, stray: list[SubQuery], now: float) -> None:
        """Executed sub-queries whose query is not outstanding here: on
        a single coordinator, queries cancelled while the batch ran."""

    def _on_node_down(self, node_idx: int, now: float) -> None:
        node = self.nodes[node_idx]
        if not node.up:
            return
        node.up = False
        node.epoch += 1
        self._node_downs += 1
        evacuated = self._abort_inflight(node, now)
        node.disk.reset_locality()
        evacuated.extend(node.scheduler.evacuate(now))
        for arrival, sq in evacuated:
            self._reroute(sq, arrival, now, from_node=None)

    def _abort_inflight(self, node: _Node, now: float) -> list[tuple[float, SubQuery]]:
        """Abort ``node``'s running batch, whose completion event the
        caller has made stale by bumping the node's epoch.  Returns its
        ``(arrival, sub-query)`` pairs to re-route; :meth:`_reroute`
        skips those whose query has ended meanwhile."""
        evacuated: list[tuple[float, SubQuery]] = []
        if node.inflight is not None:
            for _, subqueries in node.inflight.atoms:
                for sq in subqueries:
                    evacuated.append((self._arrival.get(sq.query.query_id, now), sq))
        node.busy = False
        node.inflight = None
        return evacuated

    def _on_node_up(self, node_idx: int, now: float) -> None:
        node = self.nodes[node_idx]
        node.up = True
        node.disk.reset_locality()

    def _on_reroute(self, ev: Event) -> None:
        """A recovery released a parked bucket: re-route its pairs in
        the order they were parked."""
        if self._parked is not None and self._parked[1].seq == ev.seq:
            self._parked = None  # fired; its pairs must not outlive it
        for sq, arrival in ev.payload:
            self._reroute(sq, arrival, ev.time, from_node=None)

    def _on_query_deadline(self, query_id: int, now: float) -> None:
        if query_id in self._remaining:
            self._cancel_query(query_id, now, reason="timeout")

    def _on_shard_msg(self, payload: object, now: float) -> None:
        """Handle one delivered cross-shard message.

        The base engine never schedules ``SHARD_MSG`` events; the
        sharded coordinator (:mod:`repro.shard`) overrides this hook to
        apply routed sub-queries, arrival/completion broadcasts and
        completion notices from peer shards."""
        raise SimulationError(
            "SHARD_MSG delivered to a non-sharded simulator",
            **{**self._diagnostics(), "clock": now},
        )

    def _on_overload_tick(self, now: float) -> None:
        """Overload control loop: advance the brownout mode machine and
        drain pending work while in SHEDDING mode.

        The tick re-arms itself only while the simulation has work left
        (a busy node or any non-tick event); otherwise it dies so the
        run can end, and :meth:`_start_batches` re-arms it when work
        resumes."""
        self._tick_armed = False
        if self.overload is None:  # pragma: no cover - tick never armed
            return
        for qid in self.overload.on_tick(self._global_depth(), now):
            if qid in self._remaining:
                self.overload.note_shed("drain")
                self._cancel_query(qid, now, reason="shed")
        if any(n.busy for n in self.nodes) or any(
            ev.kind is not EventKind.OVERLOAD_TICK for ev in self._heap
        ):
            self._arm_tick(now + self.config.overload.control_interval)

    # ------------------------------------------------------------------
    # Completion and cancellation
    # ------------------------------------------------------------------
    def _complete_query(self, query: Query, now: float) -> None:
        del self._remaining[query.query_id]
        self._live_query.pop(query.query_id, None)
        self._last_completion = now
        response = now - self._arrival.pop(query.query_id)
        self._response_times.append(response)
        self._run_responses.append(response)
        self._completed += 1
        for node in self.nodes:
            node.scheduler.on_query_complete(query, now)

        job = self._job_of.pop(query.query_id)
        self._class_responses.setdefault(job.client_class, []).append(response)
        if self.overload is not None:
            self.overload.on_query_removed(query.query_id, 0)
            self.overload.note_response(response)
        self._job_left[job.job_id] -= 1
        if self._job_left[job.job_id] == 0:
            if job.job_id not in self._impaired_jobs:
                self._job_durations[job.job_id] = now - self._job_first_arrival[job.job_id]
        elif job.is_ordered and query.seq + 1 < job.n_queries:
            self._push(
                now + job.think_time, EventKind.QUERY_ARRIVAL, job.queries[query.seq + 1]
            )

        if self._completed % self.config.run_length == 0:
            self._run_boundary(now)

    def _cancel_query(self, query_id: int, now: float, reason: str) -> None:
        """Cancel an arrived, incomplete query everywhere: prune its
        sub-queries from all workload queues, release its gating
        partners, and abort the remainder of an ordered job.

        ``reason`` is ``"timeout"``, ``"data_loss"``, or ``"shed"``
        (overload protection dropping admitted work); shed queries are
        counted separately from fault cancellations."""
        query = self._live_query.pop(query_id)
        remaining = self._remaining.pop(query_id, 0)
        self._arrival.pop(query_id, None)
        if reason == "shed":
            self._shed += 1
        elif reason == "timeout":
            self._cancelled += 1
            self._timeouts += 1
        else:
            self._cancelled += 1
            self._data_loss_cancels += 1
        if self.overload is not None:
            self.overload.on_query_removed(query_id, remaining)
        for node in self.nodes:
            node.scheduler.cancel_query(query_id, now)

        job = self._job_of.pop(query_id)
        self._job_left[job.job_id] -= 1
        self._impaired_jobs.add(job.job_id)
        if job.is_ordered:
            # Later queries never arrive; de-gate them so partner
            # groups elsewhere are not held forever.
            for fq in job.queries[query.seq + 1 :]:
                for node in self.nodes:
                    node.scheduler.cancel_query(fq.query_id, now)
                self._job_left[job.job_id] -= 1
                self._aborted_unarrived += 1
            if query.seq + 1 < job.n_queries:
                self._aborted_jobs += 1

    def _run_boundary(self, now: float) -> None:
        elapsed = now - self._run_start
        obs = RunObservation(
            run_index=len(self._runs),
            mean_response_time=float(np.mean(self._run_responses)),
            throughput=len(self._run_responses) / elapsed if elapsed > 0 else 0.0,
        )
        self._runs.append(obs)
        self._run_start = now
        self._run_responses.clear()
        for node in self.nodes:
            node.scheduler.on_run_boundary(obs)
            node.cache.run_boundary()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _start_batches(self) -> None:
        """Start a batch on every idle live node that has work and
        schedule every completion."""
        done = self._launch_batches()
        if done is not None:
            heapq.heappush(self._heap, done)

    def _launch_batches(self) -> Optional[Event]:
        """Start a batch on every idle live node that has work.

        The first batch's numbered BATCH_DONE event is returned
        unpushed for :meth:`run_window` to place; the completions of
        any later batches go onto the heap.  None when nothing
        started."""
        held: Optional[Event] = None
        clock = self.clock
        for idx, node in enumerate(self.nodes):
            if node.busy or not node.up:
                continue
            batch = node.scheduler.next_batch(clock)
            if batch is None or not batch.atoms:
                continue
            outcome = node.executor.execute(batch, clock)
            node.busy = True
            node.inflight = batch
            done = self._event(
                clock + outcome.duration,
                EventKind.BATCH_DONE,
                (idx, node.epoch, batch, outcome.failed),
            )
            if held is None:
                held = done
            else:
                heapq.heappush(self._heap, done)
            if self.overload is not None:
                # Work resumed after an idle stretch: make sure the
                # overload control loop is ticking again.
                self._arm_tick(clock + self.config.overload.control_interval)
        return held

    def _any_pending(self) -> bool:
        return any(n.scheduler.has_pending() for n in self.nodes) or bool(self._remaining)

    def _diagnostics(self) -> dict:
        return {
            "clock": self.clock,
            "event_index": self.event_index,
            "rng_digest": self.injector.rng_digest() if self.injector is not None else None,
            "pending_queries": sorted(self._remaining),
            "queue_depths": [n.scheduler.queue_depth() for n in self.nodes],
            "busy_flags": [n.busy for n in self.nodes],
        }

    def _force_release(self) -> bool:
        """Idle-with-pending fallback: ask every live scheduler to
        force-release gated work; False when none had any."""
        released = False
        for node in self.nodes:
            if node.up:
                released |= node.scheduler.force_release(self.clock)
        if released:
            self.forced_releases += 1
        return released

    def run(self) -> RunResult:
        """Replay the whole trace; returns the accumulated results.

        :meth:`run_window` with no horizon, plus the livelock valve
        only a coordinator that sees every pending query can run: when
        the event heap empties with queries outstanding, force-release
        gated work or raise :class:`~repro.errors.LivelockError`.

        Safe to call on a freshly constructed simulator or on one
        rebuilt by :meth:`restore` — snapshots are taken only at points
        where resuming the loop from the top is equivalent to the
        original continuation.
        """
        if self._checkpointer is not None:
            self._checkpointer.start(self)
        try:
            while True:
                self.run_window(math.inf)
                if not self._any_pending():
                    return self._result()
                if not self._force_release():
                    raise LivelockError(
                        "livelock: pending queries but no schedulable work",
                        **self._diagnostics(),
                    )
        finally:
            if self._checkpointer is not None:
                self._checkpointer.flush()

    def run_window(self, horizon: float) -> None:
        """Process every pending event strictly before ``horizon``.

        The event loop of both :meth:`run` (``horizon = inf``) and the
        sharded control plane's conservative supersteps
        (:mod:`repro.shard`): because cross-shard messages travel with a
        positive virtual latency, every event in ``[clock, horizon)``
        can be processed without hearing from peer shards — anything
        they send during the same window delivers at or after
        ``horizon``.  Each pass drains every event at the current
        instant before making scheduling decisions, so same-time
        arrivals can batch, then starts batches and advances the clock.

        The first completion a pass starts is held out of the heap.
        When it falls strictly before both the heap top and ``horizon``
        it is the event the heap would pop next, so it is dispatched
        directly — numbered and vetted like any other, and still
        through :meth:`_dispatch` (WAL record, crash probe, snapshot
        cadence); otherwise it is pushed.  The
        heap push and pop it skips are the bulk of a quiet stretch's
        loop cost.
        """
        heap = self._heap
        max_sim_time = self.config.max_sim_time
        while True:
            while heap and heap[0].time <= self.clock:
                self._dispatch(heapq.heappop(heap))
            done = self._launch_batches()
            if done is not None and done.time < horizon and (not heap or done.time < heap[0].time):
                ev = done
            else:
                if done is not None:
                    heapq.heappush(heap, done)
                if not heap or heap[0].time >= horizon:
                    return
                ev = heapq.heappop(heap)
            self.clock = ev.time
            if self.clock > max_sim_time:
                raise SimTimeExceededError(
                    f"virtual clock exceeded max_sim_time={self.config.max_sim_time}",
                    **self._diagnostics(),
                )
            self._dispatch(ev)

    def next_event_time(self) -> Optional[float]:
        """Earliest pending local event time (None when idle) — the
        control plane's input for picking the next superstep window."""
        return self._heap[0].time if self._heap else None

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def restore(cls, directory: str | Path) -> "Simulator":
        """Rebuild a simulator from the latest snapshot in ``directory``.

        Loads the newest snapshot (format version + checksums verified
        by the codec), reattaches the sanitizer, disarms any still-armed
        coordinator crash so the resumed run does not immediately die
        again, and re-runs the workload-queue and gating-graph
        consistency audits before returning.  The returned simulator's
        :meth:`run` first *replays* the write-ahead log — every
        re-dispatched event is verified against its pre-crash WAL record
        — then continues past the crash point.  Determinism makes the
        final :class:`RunResult` bit-identical to an uninterrupted run.

        Raises :class:`~repro.errors.RecoveryError` when no snapshot
        exists or any artifact fails validation.
        """
        from repro.recovery.checkpoint import CheckpointManager

        _meta, state, manager = CheckpointManager.load_latest(directory)
        return cls._revive(state, manager)

    @classmethod
    def _revive(
        cls, state: dict, checkpointer: Optional["CheckpointManager"]
    ) -> "Simulator":
        """Rebuild an engine from decoded snapshot state: reattach the
        sanitizer and ``checkpointer``, disarm any armed coordinator
        crash, and audit the queues and gating graphs."""
        from repro.recovery.checkpoint import verify_restored_state

        sim = object.__new__(cls)
        sim.__dict__.update(state)
        sim._checkpointer = checkpointer
        if sim.sanitizer is not None:
            sim.sanitizer.attach(sim)
        if sim.injector is not None:
            sim.injector.disarm_coordinator_crash()
        verify_restored_state(sim)
        return sim

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _result(self) -> RunResult:
        return build_result(self.trace, [self._partial()])

    def _partial(self) -> dict:
        """This engine's share of a :class:`RunResult`: the counters of
        the nodes it runs, merged by :func:`build_result`."""
        cache: dict = {}
        disk: dict = {}
        execs: dict = {}
        sched_forced = 0
        alpha_histories: list[list[float]] = []
        local = [node for node in self.nodes if isinstance(node, _Node)]
        for node in local:
            for key, val in node.cache.stats.snapshot().items():
                if key != "hit_ratio":
                    cache[key] = cache.get(key, 0) + val
            for key, val in node.disk.stats.snapshot().items():
                disk[key] = disk.get(key, 0) + val
            for key, val in node.executor.stats.snapshot().items():
                execs[key] = execs.get(key, 0) + val
            sched_forced += getattr(node.scheduler, "forced_releases", 0)
            history = getattr(node.scheduler, "alpha_history", None)
            if history:
                alpha_histories.append(list(history))
        overload = self.overload
        return {
            "scheduler_name": local[0].scheduler.name,
            "response_times": self._response_times,
            "job_durations": self._job_durations,
            "runs": self._runs,
            "alpha_histories": alpha_histories,
            "cache": cache,
            "disk": disk,
            "exec": execs,
            "forced_releases": self.forced_releases + sched_forced,
            "timeouts": self._timeouts,
            "retries": self.injector.stats.retries if self.injector is not None else 0,
            "failovers": self._failovers,
            "aborted_jobs": self._aborted_jobs,
            "cancelled": self._cancelled,
            "completed": self._completed,
            "last_completion": self._last_completion,
            "class_responses": self._class_responses,
            "faults": self.injector.snapshot() if self.injector is not None else {},
            "node_downs": self._node_downs,
            "requeues": self._requeues,
            "deferred": self._deferred,
            "data_loss_cancels": self._data_loss_cancels,
            "aborted_unarrived": self._aborted_unarrived,
            "shed": self._shed,
            "rejected_jobs": overload.rejected_jobs if overload is not None else 0,
            "rejected_queries": overload.rejected_queries if overload is not None else 0,
            "throttled_jobs": overload.throttled_jobs if overload is not None else 0,
            "overload": overload.snapshot(self.clock) if overload is not None else {},
        }


def build_result(trace: Trace, partials: Sequence[dict], **extra_faults: int) -> RunResult:
    """Merge per-engine :meth:`Simulator._partial` counters into one
    :class:`RunResult`: a single coordinator is the one-partial case,
    a sharded run passes one partial per domain plus its control-plane
    fault counters as ``extra_faults``."""
    responses = np.asarray(
        [r for part in partials for r in part["response_times"]], dtype=np.float64
    )
    arr_min = min((j.submit_time for j in trace.jobs), default=0.0)
    # First submit to last completion: trailing idle work (e.g. a
    # final speculative prefetch batch) must not inflate makespan.
    last = max((p["last_completion"] for p in partials if p["completed"]), default=0.0)
    makespan = last - arr_min if responses.size else 0.0
    cache: dict = {}
    disk: dict = {}
    execs: dict = {}
    job_durations: dict[int, float] = {}
    faults: dict = {}
    class_responses: dict[str, list[float]] = {}
    overload: dict = {}
    runs: list[RunObservation] = []
    alpha_histories: list[list[float]] = []
    for part in partials:
        for target, source in ((cache, "cache"), (disk, "disk"), (execs, "exec")):
            for key, val in part[source].items():
                target[key] = target.get(key, 0) + val
        job_durations.update(part["job_durations"])
        runs.extend(part["runs"])
        alpha_histories.extend(part["alpha_histories"])
        for key, val in part["faults"].items():
            if isinstance(val, bool):
                faults[key] = faults.get(key, False) or val
            else:
                faults[key] = faults.get(key, 0) + val
        for cls, values in part["class_responses"].items():
            class_responses.setdefault(cls, []).extend(values)
        overload.update(part["overload"])
    accesses = cache.get("hits", 0) + cache.get("misses", 0)
    cache["hit_ratio"] = cache.get("hits", 0) / accesses if accesses else 0.0
    faults.update(
        node_downs=sum(p["node_downs"] for p in partials),
        requeued_subqueries=sum(p["requeues"] for p in partials),
        deferred_subqueries=sum(p["deferred"] for p in partials),
        data_loss_cancels=sum(p["data_loss_cancels"] for p in partials),
        aborted_unarrived_queries=sum(p["aborted_unarrived"] for p in partials),
        **extra_faults,
    )
    return RunResult(
        scheduler_name=partials[0]["scheduler_name"],
        n_queries=int(responses.size),
        n_jobs=len(job_durations),
        makespan=makespan,
        response_times=responses,
        job_durations=job_durations,
        runs=runs,
        alpha_history=alpha_histories[0] if alpha_histories else [],
        alpha_histories=alpha_histories,
        cache=cache,
        disk=disk,
        exec=execs,
        forced_releases=sum(p["forced_releases"] for p in partials),
        timeouts=sum(p["timeouts"] for p in partials),
        retries=sum(p["retries"] for p in partials),
        failovers=sum(p["failovers"] for p in partials),
        aborted_jobs=sum(p["aborted_jobs"] for p in partials),
        cancelled_queries=sum(p["cancelled"] for p in partials),
        faults=faults,
        rejected_jobs=sum(p["rejected_jobs"] for p in partials),
        rejected_queries=sum(p["rejected_queries"] for p in partials),
        shed_queries=sum(p["shed"] for p in partials),
        throttled_jobs=sum(p["throttled_jobs"] for p in partials),
        class_response_times={k: list(v) for k, v in sorted(class_responses.items())},
        overload=overload,
    )
