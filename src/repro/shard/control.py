"""Deterministic control plane for N coordinator shards.

Drives :class:`~repro.shard.coordinator.ShardSimulator` domains through
*conservative supersteps*: with every cross-shard message paying a
positive virtual latency ``delta`` (``ShardConfig.message_delay``), all
events in ``[T, horizon)`` — where ``T`` is the earliest pending event
or delivery anywhere and ``horizon <= T + delta`` — can be processed
per-shard without synchronisation, because nothing sent inside the
window can deliver before ``horizon``.  Each superstep:

1. deliver bus messages due before the horizon (validating lease
   epochs; stale messages are re-addressed with a typed retry delay,
   never applied and never silently dropped);
2. run every shard with work in the window, one after another in this
   process; each domain writes its own write-ahead log as it
   dispatches, exactly as a single coordinator does (a sharded run's
   parallelism is whole runs fanned out by
   :func:`repro.parallel.run_many`, never windows);
3. collect outboxes onto the bus in a total deterministic order
   ``(send_time, src_domain, seq)``;
4. at cluster barriers, snapshot every shard plus a manifest — the
   consistent cut :func:`repro.shard.recovery.resume_cluster` restores.

Shard crashes (``FaultKind.SHARD_CRASH``) are control events on the
same virtual timeline: at the crash instant the victim's domains
freeze (crash-stop — no event of theirs at or after the crash time is
ever processed); one ``failover_delay`` later each frozen domain is
adopted by the next surviving shard in ring order under a bumped lease
epoch, in-flight batches abort via the node-epoch fence, and held or
stale messages re-resolve through the retry path.  Every transition is
a deterministic function of the seeded schedule, so an N-shard run
with crashes is exactly reproducible — and resumable — by seed.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.partition import MortonRangePartitioner
from repro.config import CheckpointConfig, ShardConfig
from repro.engine.results import RunResult
from repro.engine.simulator import build_result
from repro.errors import CoordinatorCrash, LivelockError, ShardProtocolError
from repro.recovery.codec import SNAPSHOT_FORMAT_VERSION, encode_snapshot
from repro.shard.coordinator import ShardSimulator
from repro.shard.messages import ShardMessage
from repro.shard.topology import OwnershipTable, ShardTopology

__all__ = ["ClusterControlPlane", "ShardRunResult", "MANIFEST_GLOB"]

#: Cluster manifest filename pattern (sibling of the shard-N/ subdirs).
MANIFEST_GLOB = "cluster-*.manifest"

#: Snapshot policy sentinel for per-shard managers: the policy must
#: never self-fire (barriers are cluster-wide, driven by force_snapshot).
#: Every dispatched event asks maybe_snapshot, as on a single
#: coordinator; no run dispatches this many events in one domain, so
#: the per-shard policy never fires and the threshold only satisfies
#: CheckpointConfig's enablement check.
_NEVER_EVENTS = 10**9


def shard_checkpoint(checkpoint: CheckpointConfig, domain: int) -> CheckpointConfig:
    """The checkpoint policy of shard ``domain``'s own manager: its
    ``shard-<domain>/`` subdirectory of the barrier directory, the run's
    ``keep``, and no self-firing snapshots."""
    return CheckpointConfig(
        directory=str(Path(str(checkpoint.directory)) / f"shard-{domain}"),
        every_events=_NEVER_EVENTS,
        keep=checkpoint.keep,
    )


@dataclass(frozen=True)
class ShardRunResult:
    """A sharded run's outcome: the merged engine result plus the
    cluster-level accounting the single-coordinator engine has no
    notion of."""

    result: RunResult
    n_shards: int
    topology_digest: str
    shard_stats: Dict[str, Any] = field(default_factory=dict)


class ClusterControlPlane:
    """Owns the bus, the ownership table, the crash/failover schedule,
    the barrier writer, and the superstep loop.

    Each domain owns its :class:`~repro.recovery.checkpoint.CheckpointManager`
    (its ``_checkpointer``, attached when the domain is built or
    revived); the control plane only starts, force-snapshots and
    flushes them."""

    def __init__(
        self,
        domains: List[ShardSimulator],
        topology: ShardTopology,
        shards: ShardConfig,
        checkpoint: CheckpointConfig,
        partitioner: MortonRangePartitioner,
        _restored: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.domains = domains
        self.topology = topology
        self.cfg = shards
        self.checkpoint = checkpoint
        self.partitioner = partitioner
        n = topology.n_shards

        if _restored is not None:
            self.ownership: OwnershipTable = _restored["ownership"]
            self.bus: List[ShardMessage] = list(_restored["bus"])
            self._ctrl: List[Tuple[float, int, str, int]] = list(_restored["ctrl"])
            self.frozen: Set[int] = set(_restored["frozen"])
            self.dead: Set[int] = set(_restored["dead"])
            self.stale_retries: int = _restored["stale_retries"]
            self.epoch_bumps: int = _restored["epoch_bumps"]
            self.shard_crashes: int = _restored["shard_crashes"]
            self.messages_delivered: int = _restored["messages_delivered"]
            self._ctrl_seq: int = _restored["ctrl_seq"]
            self._barrier_count: int = _restored["barrier_count"]
            self._next_barrier: Optional[int] = _restored["next_barrier"]
            heapq.heapify(self._ctrl)
            return

        self.ownership = OwnershipTable.identity(n)
        self.bus = []
        self.frozen = set()
        self.dead = set()
        self.stale_retries = 0
        self.epoch_bumps = 0
        self.shard_crashes = 0
        self.messages_delivered = 0
        self._ctrl = []
        self._ctrl_seq = 0
        self._barrier_count = 0
        self._next_barrier = checkpoint.every_events if checkpoint.enabled else None
        for shard, when in self._crash_schedule():
            self._push_ctrl(when, "crash", shard)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _crash_schedule(self) -> List[Tuple[int, float]]:
        """The run's shard-crash plan: explicit pairs, or seeded draws
        from the crash window (dedicated RNG stream, so arming crashes
        cannot perturb any other draw in the cluster)."""
        if self.cfg.crashes:
            return sorted(self.cfg.crashes, key=lambda pair: (pair[1], pair[0]))
        if self.cfg.crash_window is None:
            return []
        lo, hi = self.cfg.crash_window
        rng = random.Random(f"{self.cfg.seed}:shard_crash")
        survivors = list(range(self.topology.n_shards))
        plan: List[Tuple[int, float]] = []
        for _ in range(self.cfg.n_window_crashes):
            victim = survivors.pop(rng.randrange(len(survivors)))
            plan.append((victim, rng.uniform(lo, hi)))
        return sorted(plan, key=lambda pair: (pair[1], pair[0]))

    def _push_ctrl(self, when: float, kind: str, shard: int) -> None:
        heapq.heappush(self._ctrl, (when, self._ctrl_seq, kind, shard))
        self._ctrl_seq += 1

    # ------------------------------------------------------------------
    # Bus
    # ------------------------------------------------------------------
    def _drain_outboxes(self) -> None:
        for domain in self.domains:
            for msg in domain.drain_outbox():
                # Stamp the destination's current lease epoch: the
                # ownership table is control-plane truth the sender
                # consults as the message enters the bus.
                self.bus.append(
                    dataclasses.replace(
                        msg, dst_epoch=self.ownership.epoch[msg.dst_domain]
                    )
                )

    def _bus_next_time(self) -> Optional[float]:
        times = [
            msg.deliver_time for msg in self.bus if msg.dst_domain not in self.frozen
        ]
        return min(times) if times else None

    def _deliver(self, horizon: float) -> None:
        if not self.bus:
            return
        keep: List[ShardMessage] = []
        for msg in sorted(
            self.bus, key=lambda m: (m.deliver_time, m.src_domain, m.seq)
        ):
            dst = msg.dst_domain
            if msg.deliver_time >= horizon or dst in self.frozen:
                keep.append(msg)
                continue
            if msg.dst_epoch != self.ownership.epoch[dst]:
                # Stale lease: the domain failed over after this message
                # was stamped.  Typed retry in virtual time — re-address
                # to the current epoch, delivery pushed out, attempt
                # counted.  Never dropped: crash-stop means the state
                # the message targets moved wholesale to the new owner.
                self.stale_retries += 1
                keep.append(
                    dataclasses.replace(
                        msg,
                        dst_epoch=self.ownership.epoch[dst],
                        deliver_time=msg.deliver_time + self.cfg.retry_delay,
                        retries=msg.retries + 1,
                    )
                )
                continue
            self.domains[dst].deliver(msg)
            self.messages_delivered += 1
        self.bus = keep

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def _run_windows(self, horizon: float) -> None:
        # A window only fills its domain's outbox, so running the
        # domains one after another is the same as running them at once.
        for d, domain in enumerate(self.domains):
            t = domain.next_event_time()
            if d not in self.frozen and t is not None and t < horizon:
                domain.run_window(horizon)

    # ------------------------------------------------------------------
    # Crash + failover
    # ------------------------------------------------------------------
    def _process_ctrl(self) -> None:
        when, _seq, kind, shard = heapq.heappop(self._ctrl)
        if kind == "crash":
            self._process_crash(shard, when)
        else:
            self._process_failover(shard, when)

    def _process_crash(self, shard: int, now: float) -> None:
        """Crash-stop ``shard``: freeze every domain it operates until
        the failover fires.  Windows never straddle a control event
        (the horizon is capped at the next control time), so no frozen
        domain has processed anything at or past ``now``."""
        self.dead.add(shard)
        self.shard_crashes += 1
        self.frozen.update(self.ownership.domains_of(shard))
        self._push_ctrl(now + self.cfg.failover_delay, "failover", shard)

    def _successor_of(self, shard: int) -> int:
        n = self.topology.n_shards
        for step in range(1, n):
            candidate = (shard + step) % n
            if candidate not in self.dead:
                return candidate
        raise ShardProtocolError(  # pragma: no cover - ShardConfig keeps a survivor
            "no surviving shard to adopt the crashed shard's ranges",
            domain=shard,
        )

    def _process_failover(self, shard: int, now: float) -> None:
        """Adopt the dead shard's domains at a deterministic epoch bump."""
        successor = self._successor_of(shard)
        adopted = self.ownership.domains_of(shard)
        # Replica-placement invariant (typed, never silent): ranges must
        # keep at least one permanently reachable replica.  Nodes inside
        # a crash window with a scheduled recovery are *deferrable*, not
        # lost — only an open-ended outage counts against the floor.
        permanently_down = {
            int(node)
            for node, down_t, up_t in self.cfg_crashes_all()
            if down_t <= now and (up_t is None or math.isinf(up_t))
        }
        self.partitioner.assert_replication(
            down_nodes=permanently_down,
            require=1,
            context=f"failover of shard {shard} -> {successor}",
        )
        for domain_id in adopted:
            self.ownership.transfer(domain_id, successor)
            self.epoch_bumps += 1
            self.frozen.discard(domain_id)
            self.domains[domain_id].on_shard_failover(now)
        # Messages held for the frozen domains resume delivery at the
        # failover instant (their pre-crash epoch stamp then takes the
        # visible retry path above).
        self.bus = [
            dataclasses.replace(msg, deliver_time=max(msg.deliver_time, now))
            if msg.dst_domain in adopted
            else msg
            for msg in self.bus
        ]
        self._drain_outboxes()

    def cfg_crashes_all(self) -> Tuple[Tuple[int, float, float], ...]:
        """The full node-crash schedule (all shards), for the replica
        floor check."""
        return self.domains[0]._full_node_crashes

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _cumulative_events(self) -> int:
        return sum(domain.event_index for domain in self.domains)

    def _diagnostics(self) -> dict:
        """The domains' engine diagnostics merged: cumulative events, all pending
        queries, each node as its own domain sees it, the latest clock."""
        parts = [domain._diagnostics() for domain in self.domains]
        owner = [parts[self.topology.shard_of_node(n)] for n in range(self.topology.n_nodes)]
        return {
            "clock": max(part["clock"] for part in parts),
            "event_index": self._cumulative_events(),
            "pending_queries": sorted({q for part in parts for q in part["pending_queries"]}),
            "queue_depths": [own["queue_depths"][n] for n, own in enumerate(owner)],
            "busy_flags": [own["busy_flags"][n] for n, own in enumerate(owner)],
        }

    def _maybe_barrier(self) -> None:
        if self._next_barrier is None:
            return
        cum = self._cumulative_events()
        if cum < self._next_barrier:
            return
        self._barrier_count += 1
        self._next_barrier = cum + (self.checkpoint.every_events or 0)
        for domain in self.domains:
            assert domain._checkpointer is not None
            domain._checkpointer.force_snapshot(domain)
        self._write_manifest(cum)
        if (
            self.cfg.halt_after_barrier is not None
            and self._barrier_count >= self.cfg.halt_after_barrier
        ):
            # run()'s finally flushes every shard's WAL.
            clocks = ", ".join(f"{domain.clock:.6g}s" for domain in self.domains)
            raise CoordinatorCrash(
                f"halted after cluster barrier {self._barrier_count} "
                f"({cum} cumulative events; domain clocks {clocks}); resume from "
                f"{self.checkpoint.directory}",
                **self._diagnostics(),
            )

    def _write_manifest(self, cum: int) -> None:
        root = Path(str(self.checkpoint.directory))
        meta = {
            "format": SNAPSHOT_FORMAT_VERSION,
            "barrier": self._barrier_count,
            "every_events": self.checkpoint.every_events,
            "keep": self.checkpoint.keep,
            "cumulative_events": cum,
            "n_shards": self.topology.n_shards,
            "topology_digest": self.topology.digest(),
        }
        state = {
            "shards": self.cfg,
            "topology": self.topology,
            "partitioner": self.partitioner,
            "ownership": self.ownership,
            "bus": list(self.bus),
            "ctrl": sorted(self._ctrl),
            "frozen": set(self.frozen),
            "dead": set(self.dead),
            "stale_retries": self.stale_retries,
            "epoch_bumps": self.epoch_bumps,
            "shard_crashes": self.shard_crashes,
            "messages_delivered": self.messages_delivered,
            "ctrl_seq": self._ctrl_seq,
            "barrier_count": self._barrier_count,
            "next_barrier": self._next_barrier,
            "shard_event_indices": [d.event_index for d in self.domains],
        }
        blob = encode_snapshot(meta, state)
        path = root / f"cluster-{cum:012d}.manifest"
        tmp = path.with_suffix(".manifest.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        manifests = sorted(root.glob(MANIFEST_GLOB))
        for stale in manifests[: -self.checkpoint.keep]:
            stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> ShardRunResult:
        for domain in self.domains:
            if domain._checkpointer is not None:
                domain._checkpointer.start(domain)
        try:
            while True:
                event_times = [
                    t
                    for d in range(self.topology.n_shards)
                    if d not in self.frozen
                    and (t := self.domains[d].next_event_time()) is not None
                ]
                t_evt = min(event_times) if event_times else None
                t_bus = self._bus_next_time()
                t_ctrl = self._ctrl[0][0] if self._ctrl else None
                candidates = [t for t in (t_evt, t_bus, t_ctrl) if t is not None]
                if not candidates:
                    if any(d._any_pending() for d in self.domains):
                        released = False
                        for d in range(self.topology.n_shards):
                            if d not in self.frozen:
                                released |= self.domains[d].force_release_pass()
                        if not released:
                            raise LivelockError(
                                "cluster livelock: pending queries on some "
                                "shard but no schedulable work, no message "
                                "in flight, and no control event",
                                **self._diagnostics(),
                            )
                        self._drain_outboxes()
                        continue
                    break
                start = min(candidates)
                if t_ctrl is not None and t_ctrl <= start:
                    self._process_ctrl()
                    continue
                horizon = start + self.cfg.message_delay
                if t_ctrl is not None:
                    horizon = min(horizon, t_ctrl)
                self._deliver(horizon)
                self._run_windows(horizon)
                self._drain_outboxes()
                self._maybe_barrier()
            return self._finalize()
        finally:
            for domain in self.domains:
                if domain._checkpointer is not None:
                    domain._checkpointer.flush()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def _check_conservation(self, partials: List[dict]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for part in partials:
            for key, val in part["conservation"].items():
                totals[key] = totals.get(key, 0) + val
        created = totals.get("created", 0)
        applied = totals.get("applied", 0)
        residual = totals.get("residual_cancelled", 0)
        executed = totals.get("executed", 0)
        exec_dropped = totals.get("exec_dropped", 0)
        late_dropped = totals.get("late_done_dropped", 0)
        if created != applied + residual:
            raise ShardProtocolError(
                f"cross-shard conservation violated: {created} sub-queries "
                f"created but {applied} applied + {residual} cancelled "
                "(a sub-query was lost across an epoch change)"
            )
        if executed != applied + exec_dropped + late_dropped:
            raise ShardProtocolError(
                f"cross-shard conservation violated: {executed} executions "
                f"vs {applied} applied + {exec_dropped} + {late_dropped} "
                "dropped (a sub-query was double-executed)"
            )
        return totals

    def _finalize(self) -> ShardRunResult:
        partials = [domain.partial() for domain in self.domains]
        conservation = self._check_conservation(partials)
        result = build_result(
            self.domains[0].trace,
            partials,
            shard_crashes=self.shard_crashes,
            shard_epoch_bumps=self.epoch_bumps,
            shard_stale_retries=self.stale_retries,
            shard_messages=conservation.get("messages_sent", 0),
        )
        stats = {
            "n_shards": self.topology.n_shards,
            "topology_digest": self.topology.digest(),
            "shard_crashes": self.shard_crashes,
            "epoch_bumps": self.epoch_bumps,
            "stale_retries": self.stale_retries,
            "messages_delivered": self.messages_delivered,
            "conservation": conservation,
            "lease_epochs": list(self.ownership.epoch),
            "operators": list(self.ownership.operator),
            "shard_event_indices": [p["event_index"] for p in partials],
            "barriers": self._barrier_count,
        }
        return ShardRunResult(
            result=result,
            n_shards=self.topology.n_shards,
            topology_digest=self.topology.digest(),
            shard_stats=stats,
        )
