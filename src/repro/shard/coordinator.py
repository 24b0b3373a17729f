"""One coordinator shard: the two-level JAWS loop over a node block.

A :class:`ShardSimulator` is a :class:`~repro.engine.simulator.Simulator`
whose ``nodes`` list is full cluster length, but only the contiguous
block assigned by the :class:`~repro.shard.topology.ShardTopology` is
*real* — peer shards' slots hold inert :class:`_RemoteNode` stubs
(permanently ``busy``, so the batch starter skips them, yet ``up``, so
the router still names them as targets).  Everything the base engine
does locally — batching, caching, fault retries, gating — runs
unchanged on the real block; every interaction that crosses a block
boundary becomes a typed :class:`~repro.shard.messages.ShardMessage`
in the outbox, which the control plane moves between shards on the
virtual-time bus.

The *home-shard protocol*: a job's home shard (``job_id % n_shards``)
owns its whole lifecycle — JOB_SUBMIT, query arrivals, the
outstanding sub-query count, deadlines, ordered-job progression, and
completion/cancellation broadcasts.  Remote shards execute the
sub-queries routed to their nodes and report back (``done``/``fail``).
Conservation is enforced, not assumed: the home shard counts every
sub-query it creates, applies each completion at most once (an
over-delivery raises :class:`~repro.errors.ShardProtocolError`), and
attributes every non-applied execution to an explicit drop counter —
the cross-shard conservation oracle in :mod:`repro.fuzz` checks the
created = applied + cancelled-residual identity over these counters.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import EngineConfig
from repro.core.base import Scheduler
from repro.engine.events import EventKind
from repro.engine.simulator import Simulator
from repro.errors import ShardProtocolError
from repro.shard.messages import ShardMessage
from repro.shard.topology import ShardTopology
from repro.workload.job import Job, JobAtomSets
from repro.workload.query import Query, SubQuery
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports recovery)
    from repro.recovery.checkpoint import CheckpointManager

__all__ = ["ShardSimulator"]


class _NullScheduler:
    """Inert scheduler for a remote node slot.

    Hears nothing, holds nothing, schedules nothing — remote gating
    and queue state live in the owning shard's domain.  Module-level
    (picklable) and stateless, so snapshots stay cheap.
    """

    name = "remote"

    def on_job_submitted(self, job: Job, now: float, atom_sets: JobAtomSets) -> None:
        pass

    def on_query_arrival(self, query: Query, subqueries: Sequence[SubQuery], now: float) -> None:
        pass

    def next_batch(self, now: float) -> None:  # pragma: no cover - busy stubs never pull
        return None

    def has_pending(self) -> bool:
        return False

    def on_query_complete(self, query: Query, now: float) -> None:
        pass

    def on_run_boundary(self, obs: object) -> None:
        pass

    def queue_depth(self) -> int:
        return 0

    def evacuate(self, now: float) -> list:  # pragma: no cover - stubs never crash
        return []

    def readmit(self, items: Sequence[Tuple[float, SubQuery]], now: float) -> None:
        raise ShardProtocolError(
            "readmit on a remote node stub: cross-shard re-admission must "
            "travel as a 'route' message, never as a local scheduler call"
        )

    def cancel_query(self, query_id: int, now: float) -> None:
        pass

    def pending_by_query(self) -> dict:  # pragma: no cover - overload is off when sharded
        return {}

    def force_release(self, now: float) -> bool:
        return False


class _NullCache:
    """Stub cache for a remote node slot (run-boundary hook only)."""

    def run_boundary(self) -> None:
        pass


class _RemoteNode:
    """Placeholder for a node owned by a peer shard.

    ``busy=True`` keeps :meth:`Simulator._start_batches` away;
    ``up=True`` keeps :meth:`Simulator._route` willing to name it as a
    routing target (down-ness of remote nodes is decided from the
    static crash schedule instead, see
    :meth:`ShardSimulator._remote_down`).
    """

    def __init__(self) -> None:
        self.scheduler = _NullScheduler()
        self.cache = _NullCache()
        self.busy = True
        self.up = True
        self.epoch = 0
        self.inflight = None


class ShardSimulator(Simulator):
    """The engine for one shard *domain*: the base engine plus boundary
    hooks.

    The base constructor initialises all engine state; this class only
    adds its shard fields and answers :meth:`Simulator._domain` — a
    full-cluster node list whose peer slots hold :class:`_RemoteNode`
    stubs, the home jobs, and the cluster-wide crash schedule.  The
    per-domain config arrives already narrowed by
    :func:`repro.shard.run_sharded` (local node crashes only, a derived
    fault seed, no coordinator crash, checkpoint, overload or sanitizer
    — cluster-level invariants are checked by the control plane and the
    conservation counters instead).  A barrier run hands the domain its
    own ``checkpointer``, through which the base engine writes the
    domain's WAL; the control plane decides when it snapshots.  The
    handlers below override exactly the points where work crosses a
    shard boundary.
    """

    # A peer's node can be down while this domain injects no faults:
    # every arrival goes through :meth:`_route`.
    _route_fault_free = False

    def __init__(
        self,
        trace: Trace,
        schedulers: Sequence[Scheduler],
        config: EngineConfig,
        topology: ShardTopology,
        shard_id: int,
        node_of,
        replicas_of,
        full_node_crashes: Tuple[Tuple[int, float, float], ...],
        message_delay: float,
        checkpointer: Optional["CheckpointManager"] = None,
    ) -> None:
        local_idx = topology.nodes_of_shard(shard_id)
        if len(schedulers) != len(local_idx):
            raise ValueError(
                f"shard {shard_id} owns {len(local_idx)} node(s) but got "
                f"{len(schedulers)} scheduler(s)"
            )
        self.shard_id = shard_id
        self._topology = topology
        self._local_idx: Tuple[int, ...] = tuple(local_idx)
        self._local_set = frozenset(local_idx)
        self._full_node_crashes = tuple(
            (int(n), float(d), float(u)) for n, d, u in full_node_crashes
        )
        self._message_delay = float(message_delay)
        self._lease_epoch = 0
        self._msg_seq = 0
        self._outbox: List[ShardMessage] = []
        # query_id -> home domain, for every live foreign query heard of.
        self._foreign: Dict[int, int] = {}
        # (node, atom) loss facts learned from peer shards' fail reports.
        self._remote_lost: Set[Tuple[int, int]] = set()
        # Cross-shard conservation counters (home-side unless noted).
        self._sq_created = 0
        self._sq_applied = 0
        self._sq_residual_cancelled = 0
        self._sq_executed = 0  # executor-side: successful executions here
        self._sq_exec_dropped = 0  # executed here for an already-dead query
        self._late_done_dropped = 0  # done-counts arriving after cancel
        self._msgs_sent = 0
        super().__init__(trace, schedulers, config, node_of, replicas_of)
        self._checkpointer = checkpointer

    def _domain(self, schedulers: Sequence[Scheduler]) -> tuple:
        # Slots span the whole cluster, so the domain's one injector is
        # indexed by GLOBAL node id (executors pass their cluster-wide
        # node index); its seed is already derived per domain
        # (run_sharded), so peer domains never share a fault stream.
        slots = [
            None if i in self._local_set else _RemoteNode()
            for i in range(self._topology.n_nodes)
        ]
        home_jobs = [
            job for job in self.trace.jobs
            if self._topology.home_shard_of_job(job.job_id) == self.shard_id
        ]
        return slots, home_jobs, self._full_node_crashes

    # ------------------------------------------------------------------
    # Control-plane surface
    # ------------------------------------------------------------------
    def deliver(self, msg: ShardMessage) -> None:
        """Inject one bus message as a local SHARD_MSG event."""
        self._push(msg.deliver_time, EventKind.SHARD_MSG, msg)

    def drain_outbox(self) -> List[ShardMessage]:
        out, self._outbox = self._outbox, []
        return out

    def force_release_pass(self) -> bool:
        """Cluster-idle fallback: ask every live local scheduler to
        force-release gated work (the control plane decides livelock)."""
        released = self._force_release()
        if released:
            self._start_batches()
        return released

    def on_shard_failover(self, resume_time: float) -> None:
        """Adopt this domain after its operator crash-stopped.

        Models recovery from the domain's replicated state: queued work
        survives wholesale, but the crashed coordinator's in-flight
        dispatch context is lost — every running batch is aborted via a
        node epoch bump (its BATCH_DONE arrives stale and is dropped)
        and its sub-queries are re-routed.  Events frozen during the
        failover window are re-timestamped to the resume instant with
        their sequence numbers intact, so relative order is preserved
        and the run stays bit-deterministic.
        """
        self._lease_epoch += 1
        self.clock = max(self.clock, resume_time)
        evacuated: List[Tuple[float, SubQuery]] = []
        for idx in self._local_idx:
            node = self.nodes[idx]
            if node.inflight is not None:
                node.epoch += 1
                evacuated.extend(self._abort_inflight(node, resume_time))
        if self._heap and self._heap[0].time < resume_time:
            # In place: ``run_window`` keeps a local alias of the heap.
            self._heap[:] = [
                ev._replace(time=max(ev.time, resume_time)) for ev in self._heap
            ]
            heapq.heapify(self._heap)
        for arrival, sq in evacuated:
            self._reroute(sq, arrival, resume_time, from_node=None)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _send(self, dst_domain: int, kind: str, payload: object, now: float) -> None:
        # dst_epoch is stamped by the control plane when the message
        # enters the bus (the ownership table is control-plane state).
        self._outbox.append(
            ShardMessage(
                kind=kind,
                src_domain=self.shard_id,
                dst_domain=dst_domain,
                src_epoch=self._lease_epoch,
                dst_epoch=-1,
                send_time=now,
                deliver_time=now + self._message_delay,
                seq=self._msg_seq,
                payload=payload,
            )
        )
        self._msg_seq += 1
        self._msgs_sent += 1

    def _broadcast(self, kind: str, payload: object, now: float) -> None:
        for domain in range(self._topology.n_shards):
            if domain != self.shard_id:
                self._send(domain, kind, payload, now)

    # ------------------------------------------------------------------
    # Routing across the block boundary
    # ------------------------------------------------------------------
    def _remote_down(self, node_idx: int, now: float) -> bool:
        """Is a REMOTE node inside a scheduled crash window at ``now``?

        The full crash schedule is static config every shard holds, so
        no state synchronisation is needed to route around planned
        downtime — and a sub-query that races a crash boundary anyway
        is bounced back by the executing shard as a ``fail``.
        """
        for n, down_t, up_t in self._full_node_crashes:
            if n == node_idx and down_t <= now < up_t:
                return True
        return False

    def _route(self, atom_id: int) -> Tuple[Optional[int], bool]:
        candidates = self._replicas_of(atom_id)
        lost_everywhere = True
        for idx in candidates:
            if self.injector is not None and self.injector.is_lost(idx, atom_id):
                continue
            if (idx, atom_id) in self._remote_lost:
                continue
            lost_everywhere = False
            if idx in self._local_set:
                if self.nodes[idx].up:
                    return idx, False
            elif not self._remote_down(idx, self.clock):
                return idx, False
        return None, lost_everywhere

    def _reroute(self, sq: SubQuery, arrival: float, now: float, from_node: Optional[int]) -> None:
        home = self._foreign.get(sq.query.query_id)
        if home is None:
            super()._reroute(sq, arrival, now, from_node)
            return
        # Not our query: report the failure (plus any loss facts we
        # learned locally) to the home shard, which owns routing.
        lost_pairs = tuple(
            (idx, sq.atom_id)
            for idx in self._local_idx
            if self.injector is not None and self.injector.is_lost(idx, sq.atom_id)
        )
        self._send(home, "fail", (sq, arrival, from_node, lost_pairs), now)

    def _readmit(self, target: int, sq: SubQuery, arrival: float, now: float) -> None:
        if target in self._local_set:
            super()._readmit(target, sq, arrival, now)
        else:
            self._send(
                self._topology.shard_of_node(target), "route", (target, sq, arrival), now
            )

    # ------------------------------------------------------------------
    # Event handlers (home side)
    # ------------------------------------------------------------------
    def _announce_job(self, job: Job, atom_sets: JobAtomSets, now: float) -> None:
        super()._announce_job(job, atom_sets, now)
        # Remote gating graphs hear the admission one message hop later,
        # with the job's AtomSet bitmaps; the job notice outruns none of its
        # arrivals (same send instant, lower sequence number, FIFO per
        # sender-pair).
        self._broadcast("job", (job, atom_sets), now)

    def _deliver_arrival(
        self, query: Query, by_node: Dict[int, Sequence[SubQuery]], now: float
    ) -> None:
        # Routing has not touched the outstanding count yet: it is still
        # the number of sub-queries this arrival created.
        self._sq_created += self._remaining[query.query_id]
        for idx in self._local_idx:
            self.nodes[idx].scheduler.on_query_arrival(query, by_node.get(idx, []), now)
        # Every peer domain hears every arrival (even with no local
        # sub-queries) so remote gating state stays in lockstep.
        for domain in range(self._topology.n_shards):
            if domain == self.shard_id:
                continue
            routed = tuple(
                (idx, tuple(by_node[idx]))
                for idx in self._topology.nodes_of_shard(domain)
                if idx in by_node
            )
            self._send(domain, "arrival", (query, routed), now)

    def _apply_done(self, qid: int, count: int, now: float) -> None:
        """Apply ``count`` sub-query completions reported by a peer to
        the home-side outstanding counter — at most once per sub-query,
        by contract."""
        remaining = self._remaining.get(qid)
        if remaining is None:
            self._late_done_dropped += count
            return
        if count > remaining:
            raise ShardProtocolError(
                f"completion over-delivery for query {qid}: {count} done "
                f"reported with only {remaining} outstanding (a sub-query "
                "was double-executed across an epoch change)",
                domain=self.shard_id,
                epoch=self._lease_epoch,
                **self._diagnostics(),
            )
        self._remaining[qid] = remaining - count
        self._sq_applied += count
        if self._remaining[qid] == 0:
            self._complete_query(self._live_query[qid], now)

    def _on_batch_done(self, node_idx: int, epoch: int, batch, failed: list, now: float) -> None:
        if epoch == self.nodes[node_idx].epoch:
            # Every sub-query of a current batch that did not fail ran
            # here, and the base handler applies it to its outstanding
            # count here — except the strays (foreign or already ended)
            # that _on_stray_done takes back.
            ran = sum(len(subqueries) for _, subqueries in batch.atoms) - len(failed)
            self._sq_executed += ran
            self._sq_applied += ran
        super()._on_batch_done(node_idx, epoch, batch, failed, now)

    def _on_stray_done(self, stray: List[SubQuery], now: float) -> None:
        """Report foreign sub-queries done to their home shards, one
        count per query; the rest were cancelled while running."""
        self._sq_applied -= len(stray)
        done_for_home: Dict[int, Dict[int, int]] = {}
        for sq in stray:
            qid = sq.query.query_id
            home = self._foreign.get(qid)
            if home is None:
                self._sq_exec_dropped += 1
            else:
                per_home = done_for_home.setdefault(home, {})
                per_home[qid] = per_home.get(qid, 0) + 1
        for home in sorted(done_for_home):
            for qid in sorted(done_for_home[home]):
                self._send(home, "done", (qid, done_for_home[home][qid]), now)

    def _complete_query(self, query: Query, now: float) -> None:
        super()._complete_query(query, now)
        self._broadcast("complete", (query,), now)

    def _cancel_query(self, query_id: int, now: float, reason: str) -> None:
        query = self._live_query.get(query_id)
        job = self._job_of.get(query_id)
        residual = self._remaining.get(query_id, 0)
        extra: Tuple[int, ...] = ()
        if query is not None and job is not None and job.is_ordered:
            extra = tuple(fq.query_id for fq in job.queries[query.seq + 1:])
        super()._cancel_query(query_id, now, reason)
        self._sq_residual_cancelled += residual
        self._broadcast("cancel", (query_id, extra), now)

    # ------------------------------------------------------------------
    # Event handlers (message delivery)
    # ------------------------------------------------------------------
    def _on_shard_msg(self, payload: object, now: float) -> None:
        msg = payload
        assert isinstance(msg, ShardMessage)
        kind = msg.kind
        if kind == "job":
            job, atom_sets = msg.payload
            for idx in self._local_idx:
                self.nodes[idx].scheduler.on_job_submitted(job, now, atom_sets)
        elif kind == "arrival":
            query, routed = msg.payload
            self._foreign[query.query_id] = msg.src_domain
            by_node = {idx: list(sqs) for idx, sqs in routed}
            bounced: List[SubQuery] = []
            for idx in self._local_idx:
                node = self.nodes[idx]
                sqs = by_node.get(idx, [])
                if sqs and not node.up:
                    # The home shard routed here around a crash boundary
                    # it could not observe; bounce the work back.
                    bounced.extend(sqs)
                    sqs = []
                node.scheduler.on_query_arrival(query, sqs, now)
            for sq in bounced:
                self._reroute(sq, now, now, from_node=None)
        elif kind == "done":
            qid, count = msg.payload
            self._apply_done(qid, count, now)
        elif kind == "fail":
            sq, arrival_hint, from_node, lost_pairs = msg.payload
            self._remote_lost.update(lost_pairs)
            qid = sq.query.query_id
            self._reroute(sq, self._arrival.get(qid, arrival_hint), now, from_node)
        elif kind == "route":
            target, sq, arrival = msg.payload
            qid = sq.query.query_id
            if qid not in self._foreign:
                return  # cancelled while the re-admission was in flight
            node = self.nodes[target]
            if not node.up:
                self._reroute(sq, arrival, now, from_node=None)
            else:
                node.scheduler.readmit([(arrival, sq)], now)
        elif kind == "complete":
            (query,) = msg.payload
            self._foreign.pop(query.query_id, None)
            for idx in self._local_idx:
                self.nodes[idx].scheduler.on_query_complete(query, now)
        elif kind == "cancel":
            qid, extra = msg.payload
            self._foreign.pop(qid, None)
            for idx in self._local_idx:
                self.nodes[idx].scheduler.cancel_query(qid, now)
            for fq in extra:
                self._foreign.pop(fq, None)
                for idx in self._local_idx:
                    self.nodes[idx].scheduler.cancel_query(fq, now)
        else:  # pragma: no cover - MESSAGE_KINDS is validated at build
            raise ShardProtocolError(
                f"undeliverable shard message kind {kind!r}",
                domain=self.shard_id,
                epoch=self._lease_epoch,
                **self._diagnostics(),
            )

    # ------------------------------------------------------------------
    # Result fragment
    # ------------------------------------------------------------------
    def partial(self) -> dict:
        """This domain's share of the cluster result — the base
        :meth:`Simulator._partial` over its real nodes, plus the
        counters the control plane audits — merged by
        :func:`~repro.engine.simulator.build_result`."""
        return {
            **self._partial(),
            "event_index": self.event_index,
            "conservation": {
                "created": self._sq_created,
                "applied": self._sq_applied,
                "residual_cancelled": self._sq_residual_cancelled,
                "executed": self._sq_executed,
                "exec_dropped": self._sq_exec_dropped,
                "late_done_dropped": self._late_done_dropped,
                "messages_sent": self._msgs_sent,
            },
        }
