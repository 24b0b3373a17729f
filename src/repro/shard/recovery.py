"""Cluster-consistent recovery for sharded runs.

A cluster recovery point is a *consistent cut* written at a barrier of
the control plane's superstep loop: one CRC-guarded snapshot per shard
(each taken through that shard's own
:class:`~repro.recovery.checkpoint.CheckpointManager`, in its
``shard-<d>/`` subdirectory) plus one ``cluster-*.manifest`` recording
the control-plane state — ownership table, lease epochs, in-flight bus
messages, pending crash/failover control events, and the exact event
index each shard snapshot was taken at.  The manifest is written
*after* every shard snapshot lands, so a crash mid-barrier leaves the
previous manifest (and its shard snapshots, which a retention ``keep``
of at least 2 still holds) as the newest complete cut.

:func:`resume_cluster` rebuilds the N domains from the snapshots the
manifest names — refusing with :class:`~repro.errors.RecoveryError` if
any shard's snapshot for the recorded index is missing or disagrees —
and re-arms each shard's WAL in replay-verify mode, so the resumed run
re-dispatches events under the same fingerprint check the
single-coordinator engine uses.  Failovers that happened before the
barrier are already baked into the restored ownership table and
domains; failovers scheduled after it are restored as pending control
events.  Either way the resumed run reproduces the uninterrupted run
bit-for-bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.config import CheckpointConfig
from repro.errors import RecoveryError
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.codec import decode_snapshot
from repro.shard.control import MANIFEST_GLOB, ClusterControlPlane, shard_checkpoint
from repro.shard.coordinator import ShardSimulator

__all__ = ["resume_cluster", "latest_manifest"]


def latest_manifest(directory: str | Path) -> Optional[Path]:
    """The newest cluster manifest under ``directory``, or ``None``.

    Used by the CLI to tell a sharded recovery directory apart from a
    single-coordinator one (which holds bare ``snapshot-*.ckpt`` files).
    """
    manifests = sorted(Path(directory).glob(MANIFEST_GLOB))
    return manifests[-1] if manifests else None


def resume_cluster(directory: str | Path) -> ClusterControlPlane:
    """Rebuild a sharded run from its newest consistent cut.

    Returns the reconstructed control plane; call
    :meth:`~repro.shard.control.ClusterControlPlane.run` to resume.
    The halt-after-barrier trigger (if the interrupted run armed one)
    is disarmed, mirroring how single-coordinator resume disarms the
    injected coordinator crash.
    """
    root = Path(directory)
    manifest = latest_manifest(root)
    if manifest is None:
        raise RecoveryError(f"no cluster manifest found in {root}")
    meta, state = decode_snapshot(manifest.read_bytes())
    n_shards = int(meta.get("n_shards", 0))
    topology = state["topology"]
    if n_shards != topology.n_shards or meta.get("topology_digest") != (
        topology.digest()
    ):
        raise RecoveryError(
            f"cluster manifest {manifest.name} disagrees with its recorded "
            "topology (shard count or range-assignment digest mismatch)"
        )
    every_events = meta.get("every_events")
    if not isinstance(every_events, int):
        raise RecoveryError(
            f"cluster manifest {manifest.name} records no barrier cadence "
            "(written by an older version); it cannot be resumed"
        )
    # Resume where the files actually live, at the recorded cadence and
    # retention (a manifest that records no keep was written at the
    # default one).
    checkpoint = CheckpointConfig(
        directory=str(root),
        every_events=every_events,
        keep=meta.get("keep", CheckpointConfig.keep),
    )
    indices = state["shard_event_indices"]
    if len(indices) != n_shards:
        raise RecoveryError(
            f"cluster manifest {manifest.name} records {len(indices)} shard "
            f"snapshot indices for {n_shards} shards"
        )
    domains = []
    for d in range(n_shards):
        # The exact index the manifest recorded, never the newest: a
        # crash between a shard snapshot and the manifest write may
        # leave a newer snapshot that belongs to no consistent cut.
        config = shard_checkpoint(checkpoint, d)
        _meta, shard_state, manager = CheckpointManager.load(
            str(config.directory), indices[d], config
        )
        domains.append(ShardSimulator._revive(shard_state, manager))
    restored = {
        "ownership": state["ownership"],
        "bus": state["bus"],
        "ctrl": state["ctrl"],
        "frozen": state["frozen"],
        "dead": state["dead"],
        "stale_retries": state["stale_retries"],
        "epoch_bumps": state["epoch_bumps"],
        "shard_crashes": state["shard_crashes"],
        "messages_delivered": state["messages_delivered"],
        "ctrl_seq": state["ctrl_seq"],
        "barrier_count": state["barrier_count"],
        "next_barrier": state["next_barrier"],
    }
    return ClusterControlPlane(
        domains=domains,
        topology=topology,
        shards=state["shards"].with_(halt_after_barrier=None),
        checkpoint=checkpoint,
        partitioner=state["partitioner"],
        _restored=restored,
    )
