"""Typed cross-shard messages.

Every interaction between shard coordinators travels as one
:class:`ShardMessage` over the control plane's virtual-time bus, with a
positive delivery latency (``ShardConfig.message_delay``) — the
conservative-window guarantee of the superstep loop rests on that
latency being strictly positive.  Seven kinds:

``job``
    Home shard announces a job admission, with the job's atom sets
    (computed at most once per submission); every remote scheduler's
    gating graph hears ``on_job_submitted`` one hop later.
``arrival``
    Home shard broadcasts a query arrival, carrying the sub-queries it
    routed to the destination domain's nodes (possibly none — every
    node hears every arrival so gating state stays in sync).
``done``
    Executing shard reports successful sub-query completions back to
    the home shard, which owns the outstanding count.
``fail``
    Executing shard returns a sub-query it cannot serve (node crash,
    lost atom copy, exhausted retries) to the home shard for
    re-routing, along with any permanent-loss facts it learned.
``route``
    Home shard re-admits a failed-over sub-query directly onto a named
    remote node.
``complete`` / ``cancel``
    Home shard broadcasts query completion / cancellation so remote
    schedulers release gating partners and prune queues.

Messages are immutable; the control plane re-stamps a stale message
(destination epoch no longer current after a failover) by building a
replacement with ``dataclasses.replace`` — the retry is visible in
``retries`` and in the delivery time, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.errors import ShardProtocolError

__all__ = ["ShardMessage", "MESSAGE_KINDS"]

#: Every legal ``ShardMessage.kind`` tag.
MESSAGE_KINDS = ("job", "arrival", "done", "fail", "route", "complete", "cancel")


@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard message on the virtual-time bus.

    ``seq`` is the sender's per-domain send counter — together with
    ``(send_time, src_domain)`` it gives the bus a total delivery order
    with no ties, so N-shard runs are bit-deterministic.  ``dst_epoch``
    is the destination domain's lease epoch as recorded when the
    message entered the bus; the control plane validates it at delivery
    and re-addresses stale messages instead of applying them.
    """

    kind: str
    src_domain: int
    dst_domain: int
    src_epoch: int
    dst_epoch: int
    send_time: float
    deliver_time: float
    seq: int
    payload: Any = None
    retries: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise ShardProtocolError(
                f"unknown shard message kind {self.kind!r}",
                domain=self.dst_domain,
                epoch=self.dst_epoch,
            )

    # ------------------------------------------------------------------
    def _payload_parts(self) -> Tuple:
        """Semantic identity of the payload — ids only, never object
        identity, so WAL fingerprints survive process boundaries."""
        payload = self.payload
        if self.kind == "job":
            job, _ = payload
            return (job.job_id,)
        if self.kind == "arrival":
            query, by_node = payload
            return (
                query.query_id,
                tuple(
                    (node_idx, tuple(sq.atom_id for sq in sqs))
                    for node_idx, sqs in by_node
                ),
            )
        if self.kind == "done":
            qid, count = payload
            return (qid, count)
        if self.kind == "fail":
            sq, arrival, from_node, lost_pairs = payload
            return (
                sq.query.query_id,
                sq.atom_id,
                float(arrival).hex(),
                from_node,
                tuple(sorted(lost_pairs)),
            )
        if self.kind == "route":
            target, sq, arrival = payload
            return (target, sq.query.query_id, sq.atom_id, float(arrival).hex())
        if self.kind == "complete":
            (query,) = payload
            return (query.query_id,)
        # "cancel"
        qid, extra = payload
        return (qid, tuple(extra))

    def fingerprint_parts(self) -> Tuple:
        """Stable tuple digested into the WAL record for the SHARD_MSG
        event that delivers this message (see
        :func:`repro.recovery.wal.event_fingerprint`)."""
        return (
            self.kind,
            self.src_domain,
            self.dst_domain,
            self.src_epoch,
            self.dst_epoch,
            self.seq,
            self.retries,
            float(self.send_time).hex(),
            *self._payload_parts(),
        )
