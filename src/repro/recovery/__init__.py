"""Crash-consistent checkpointing and deterministic recovery (DESIGN.md §8).

A coordinator crash must not lose a multi-hour exploration run.  This
package persists the engine's complete state — virtual clock, event
heap, per-node workload queues and slot maps, gating graph + gating
numbers, adaptive-α tuner state, cache-policy contents, the fault
injector's ``random.Random`` stream, circuit-breaker state, and
in-flight batches — as versioned snapshots, with an event-sourced
write-ahead log of everything dispatched between snapshots.

Three modules:

``repro.recovery.codec``
    The versioned snapshot container: magic + format version + JSON
    header + CRC-guarded payload.  The trace and the disk B+-trees are
    written once per checkpoint directory (``input.ckpt``) and snapshots
    refer to those objects.  Refuses (``RecoveryError``) any file whose version,
    length, checksum or input disagrees.
``repro.recovery.wal``
    The write-ahead log: one CRC-guarded record per dispatched event
    (index, virtual time, kind, payload fingerprint).  Replayed —
    record by record, each verified against the deterministic re-run —
    when a restored simulator resumes.
``repro.recovery.checkpoint``
    The :class:`CheckpointManager` driving both, under the
    ``EngineConfig.checkpoint`` policy (every N events and/or T virtual
    seconds), plus the restored-state consistency audit.

Because the engine is bit-for-bit deterministic under a seed (§7), a
resumed run is *verifiably* equivalent to an uninterrupted one: the WAL
replay must reproduce the pre-crash event sequence exactly, and the
final :class:`~repro.engine.results.RunResult` is bit-identical.
"""

from repro.recovery.checkpoint import CheckpointManager, verify_restored_state
from repro.recovery.codec import SNAPSHOT_FORMAT_VERSION, decode_snapshot, encode_snapshot
from repro.recovery.wal import WalRecord, event_fingerprint, read_wal

__all__ = [
    "CheckpointManager",
    "verify_restored_state",
    "SNAPSHOT_FORMAT_VERSION",
    "encode_snapshot",
    "decode_snapshot",
    "WalRecord",
    "event_fingerprint",
    "read_wal",
]
