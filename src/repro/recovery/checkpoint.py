"""Checkpoint orchestration: snapshot policy, WAL rotation, recovery.

One :class:`CheckpointManager` is attached to a
:class:`~repro.engine.simulator.Simulator` when
``EngineConfig.checkpoint`` is enabled.  Lifecycle:

* ``start`` — writes the input file ``input.ckpt`` (the trace and the
  disk B+-trees, once per directory) and the *genesis* snapshot
  (event 0), so recovery is possible from any crash point, however
  early;
* ``log_event`` — called before every event handler (write-ahead):
  appends a CRC-guarded record to the current WAL segment, or, on a
  resumed run, verifies the re-dispatched event against the next
  pre-crash record;
* ``maybe_snapshot`` — called after every event handler: when the
  policy fires (every N events and/or T virtual seconds) it writes a
  new snapshot, rotates the WAL, and prunes old generations.

``load`` + :func:`verify_restored_state` implement the resume side
used by ``Simulator.restore`` (newest snapshot, via ``load_latest``)
and by sharded recovery (the snapshot a cluster manifest names): check
the snapshot and the input file it names (version, length, CRC and the
input's digest, by the codec) before unpickling either, read its WAL
segment, and — once
the simulator object is rebuilt — re-run the workload-queue and
gating-graph consistency audits from the simulation sanitizer before a
single new event executes.  Recovery refuses
(:class:`~repro.errors.RecoveryError`) rather than resume from state it
cannot prove consistent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.config import CheckpointConfig
from repro.engine.events import Event
from repro.errors import RecoveryError
from repro.recovery.codec import (
    SNAPSHOT_FORMAT_VERSION,
    InputRefs,
    check_container,
    encode_snapshot,
    read_container,
    unpickle_state,
)
from repro.recovery.wal import WalRecord, WalWriter, make_record, read_wal
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.engine.simulator import Simulator

__all__ = ["CheckpointManager", "DIRECTORY_PLACEHOLDER", "INPUT_NAME", "verify_restored_state"]

#: The checkpoint input: the trace and the disk B+-trees, written once
#: per checkpoint directory; every snapshot in the directory refers to it.
INPUT_NAME = "input.ckpt"

#: The checkpoint directory a snapshot's engine config names.  Where
#: the files live is known when they are loaded, and a directory may
#: move, so :func:`_capture_state` pickles this in place of the path
#: (snapshots are then the same bytes wherever they are written) and
#: :meth:`CheckpointManager.load` puts the real directory back.
DIRECTORY_PLACEHOLDER = "<checkpoint directory>"

#: Simulator attributes every restorable snapshot must contain; a
#: snapshot missing any of them predates the current engine layout.
_REQUIRED_STATE_KEYS = (
    "trace",
    "config",
    "nodes",
    "injector",
    "sanitizer",
    "clock",
    "event_index",
    "_heap",
    "_seq",
    "_remaining",
    "_arrival",
    "_response_times",
)


def _snapshot_name(event_index: int) -> str:
    return f"snapshot-{event_index:09d}.ckpt"


def _wal_name(event_index: int) -> str:
    return f"wal-{event_index:09d}.log"


def _capture_state(sim: "Simulator") -> Dict[str, Any]:
    """The simulator's complete mutable state, minus the manager itself
    (it holds open file handles and is rebuilt on restore).  Captured
    as ONE mapping pickled in one pass, so shared references — the
    in-flight batch held by both a node and its pending ``BATCH_DONE``
    event, sub-queries shared between heap payloads and queues — keep
    their identity through the round trip.  The trace's own objects and
    the disk B+-trees in it are pickled as references into ``input.ckpt``
    (:class:`~repro.recovery.codec.InputRefs`).  The engine config
    names :data:`DIRECTORY_PLACEHOLDER` as its checkpoint directory."""
    state = {key: value for key, value in vars(sim).items() if key != "_checkpointer"}
    checkpoint = sim.config.checkpoint
    if checkpoint.directory is not None:
        state["config"] = dataclasses.replace(
            sim.config,
            checkpoint=dataclasses.replace(checkpoint, directory=DIRECTORY_PLACEHOLDER),
        )
    return state


def _snapshot_meta(sim: "Simulator") -> Dict[str, Any]:
    injector = sim.injector
    return {
        "format": SNAPSHOT_FORMAT_VERSION,
        "event_index": sim.event_index,
        "clock": sim.clock,
        "clock_hex": float(sim.clock).hex(),
        "scheduler": sim.nodes[0].scheduler.name,
        "n_nodes": len(sim.nodes),
        "completed_queries": sim._completed,
        "rng_digest": injector.rng_digest() if injector is not None else None,
    }


def verify_restored_state(sim: "Simulator") -> None:
    """Audit a freshly restored simulator before it resumes.

    Re-runs the simulation sanitizer's structural checks wholesale:
    :meth:`~repro.core.queues.WorkloadQueues.check_consistency` on
    every node's workload queues, and the precedence graph's
    :meth:`~repro.core.gating.PrecedenceGraph.validate` (which includes
    the gating-number fixed-point check) plus acyclicity.  Raises
    :class:`~repro.errors.RecoveryError` listing every problem found.
    """
    problems: List[str] = []
    for idx, node in enumerate(sim.nodes):
        queues = getattr(node.scheduler, "queues", None)
        if queues is not None:
            problems.extend(f"node {idx}: {p}" for p in queues.check_consistency())
        gating = getattr(node.scheduler, "_gating", None)
        if gating is not None:
            graph = gating.graph
            problems.extend(f"node {idx}: {p}" for p in graph.validate())
            if not graph.is_acyclic():
                problems.append(f"node {idx}: contracted gating-group graph has a cycle")
    if problems:
        raise RecoveryError(
            "restored state failed the consistency audit: " + "; ".join(problems),
            clock=sim.clock,
            event_index=sim.event_index,
            rng_digest=sim.injector.rng_digest() if sim.injector is not None else None,
            pending_queries=sorted(sim._remaining),
        )


class CheckpointManager:
    """Drives snapshots and the WAL for one simulator."""

    def __init__(self, config: CheckpointConfig) -> None:
        if not config.enabled:
            raise ValueError("CheckpointConfig is not enabled (directory + policy required)")
        assert config.directory is not None
        self.config = config
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._last_snapshot_event = 0
        self._last_snapshot_clock = 0.0
        self._has_snapshot = False
        # The input every snapshot refers to, and its payload digest.
        self._input: Optional[InputRefs] = None
        self._input_digest: Optional[str] = None
        self._wal_path: Optional[Path] = None
        self._writer: Optional[WalWriter] = None
        # Resume-mode replay queue: pre-crash records still to verify.
        self._replay: List[WalRecord] = []
        self._replay_pos = 0

    # ------------------------------------------------------------------
    # Forward path (fresh and resumed runs)
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        """True while pre-crash WAL records remain to be verified."""
        return self._replay_pos < len(self._replay)

    def start(self, sim: "Simulator") -> None:
        """Write the genesis snapshot on a fresh run (no-op on resume)."""
        if not self._has_snapshot:
            self._snapshot(sim)

    def log_event(self, sim: "Simulator", ev: Event) -> None:
        """Write-ahead hook: called immediately before dispatching.

        Appends the event's record or, while pre-crash records remain,
        verifies the re-dispatched event against the next one."""
        record = make_record(sim.event_index, ev)
        if self.replaying:
            expected = self._replay[self._replay_pos]
            if record != expected:
                raise RecoveryError(
                    f"replay diverged from the WAL at {expected.describe()}: "
                    f"the deterministic re-run produced {record.describe()} "
                    f"(fingerprint {record.fingerprint} != {expected.fingerprint})",
                    clock=sim.clock,
                    event_index=sim.event_index,
                )
            self._replay_pos += 1
            return
        self._append(record)

    def maybe_snapshot(self, sim: "Simulator") -> None:
        """Policy hook: called after every dispatched event."""
        if self.replaying:
            # Snapshot points inside the replayed span were already
            # persisted pre-crash; rewriting them mid-replay would
            # rotate the WAL segment out from under the verification.
            return
        cfg = self.config
        due = False
        if cfg.every_events is not None:
            due = sim.event_index - self._last_snapshot_event >= cfg.every_events
        if not due and cfg.every_seconds is not None:
            due = sim.clock - self._last_snapshot_clock >= cfg.every_seconds
        if due:
            self._snapshot(sim)

    def force_snapshot(self, sim: "Simulator") -> None:
        """Take a snapshot now, regardless of policy.

        The cluster-consistent barrier of :mod:`repro.shard` drives
        per-shard snapshots explicitly (the per-shard policy never
        self-fires, so every shard's cut lands at the same barrier).
        Skipped while replaying, exactly like :meth:`maybe_snapshot` —
        the pre-crash snapshot files already exist.
        """
        if not self.replaying:
            self._snapshot(sim)

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    def _append(self, record: WalRecord) -> None:
        if self._writer is None:
            # Resumed run past the end of the replayed records: continue
            # appending to the same pre-crash segment.
            if self._wal_path is None:  # pragma: no cover - defensive
                raise RecoveryError("WAL segment unknown; manager not started")
            self._writer = WalWriter(self._wal_path, append=True)
        self._writer.append(record)

    def _write_input(self, sim: "Simulator") -> None:
        """Write the run's input once to ``input.ckpt``: the trace and
        the nodes' disk B+-trees (a shard's stand-ins for peer-owned
        nodes have no disk).  Snapshots refer to these objects."""
        trace = sim.trace
        trees = [node.disk.tree for node in sim.nodes if hasattr(node, "disk")]
        meta = {"format": SNAPSHOT_FORMAT_VERSION, "jobs": trace.n_jobs,
                "queries": trace.n_queries, "trees": len(trees)}
        blob = encode_snapshot(meta, {"trace": trace, "trees": trees})
        _write_atomic(self.directory / INPUT_NAME, blob)
        self._input = InputRefs(trace, trees)
        self._input_digest = hashlib.sha256(read_container(blob)[1]).hexdigest()

    def _snapshot(self, sim: "Simulator") -> None:
        if self._input is None:
            self._write_input(sim)
        meta = _snapshot_meta(sim)
        meta["input_digest"] = self._input_digest
        blob = encode_snapshot(meta, _capture_state(sim), self._input)
        _write_atomic(self.directory / _snapshot_name(sim.event_index), blob)
        # Rotate the WAL: records before this snapshot are superseded.
        if self._writer is not None:
            self._writer.close()
        self._wal_path = self.directory / _wal_name(sim.event_index)
        self._writer = WalWriter(self._wal_path, append=False)
        self._last_snapshot_event = sim.event_index
        self._last_snapshot_clock = sim.clock
        self._has_snapshot = True
        self._prune()

    def _prune(self) -> None:
        # The glob never matches input.ckpt: every snapshot refers to it.
        snapshots = sorted(self.directory.glob("snapshot-*.ckpt"))
        for stale in snapshots[: -self.config.keep]:
            index_text = stale.stem.rpartition("-")[2]
            stale.unlink(missing_ok=True)
            (self.directory / f"wal-{index_text}.log").unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Recovery path
    # ------------------------------------------------------------------
    @classmethod
    def load_latest(
        cls, directory: str | Path
    ) -> Tuple[Dict[str, Any], Dict[str, Any], "CheckpointManager"]:
        """:meth:`load` of the newest snapshot in ``directory``."""
        directory = Path(directory)
        snapshots = sorted(directory.glob("snapshot-*.ckpt"))
        if not snapshots:
            raise RecoveryError(f"no snapshots found in {directory}")
        index_text = snapshots[-1].stem.rpartition("-")[2]
        if not index_text.isdigit():
            raise RecoveryError(f"unexpected snapshot file name {snapshots[-1].name}")
        return cls.load(directory, int(index_text))

    @classmethod
    def load(
        cls,
        directory: str | Path,
        event_index: int,
        config: Optional[CheckpointConfig] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, Any], "CheckpointManager"]:
        """Load the snapshot taken at ``event_index``, its input and its WAL.

        Returns ``(meta, state, manager)`` where ``manager`` is primed
        in resume mode (replay queue loaded, WAL segment selected) and
        runs under ``config`` (default: the restored engine's
        checkpoint policy), re-pointed at ``directory``; so is the
        restored engine config, whose snapshot names
        :data:`DIRECTORY_PLACEHOLDER`.  Raises
        :class:`~repro.errors.RecoveryError` when the snapshot, the
        input file it names or its WAL segment is missing or fails
        validation.
        """
        directory = Path(directory)
        path = directory / _snapshot_name(event_index)
        try:
            file = path.open("rb")
        except FileNotFoundError:
            raise RecoveryError(f"snapshot {path.name} is missing from {directory}") from None
        with file:
            meta = check_container(file)
            refs, digest = _read_input(directory, meta.get("input_digest"), path.name)
            state = unpickle_state(file, refs)
        missing = [key for key in _REQUIRED_STATE_KEYS if key not in state]
        if missing:
            raise RecoveryError(f"snapshot {path.name} lacks required state keys: {missing}")
        if int(meta.get("event_index", -1)) != event_index or (
            int(state["event_index"]) != event_index
        ):
            raise RecoveryError(
                f"snapshot {path.name}: header/state event index "
                f"{meta.get('event_index')}/{state['event_index']}, expected {event_index}"
            )
        wal_path = directory / _wal_name(event_index)
        replay = read_wal(wal_path, event_index)
        if config is None:
            config = state["config"].checkpoint
        if not config.enabled:  # pragma: no cover - snapshots imply enabled
            raise RecoveryError("snapshot was written without checkpointing enabled")
        # Resume where the files live, wherever the run first wrote them.
        manager = cls(dataclasses.replace(config, directory=str(directory)))
        engine = state["config"]
        if engine.checkpoint.directory == DIRECTORY_PLACEHOLDER:
            state["config"] = dataclasses.replace(
                engine,
                checkpoint=dataclasses.replace(engine.checkpoint, directory=str(directory)),
            )
        manager._input, manager._input_digest = refs, digest
        manager._last_snapshot_event = event_index
        manager._last_snapshot_clock = float(state["clock"])
        manager._has_snapshot = True
        manager._wal_path = wal_path
        manager._replay = replay
        return meta, state, manager


def _write_atomic(path: Path, blob: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _read_input(
    directory: Path, expected: Any, snapshot: str
) -> Tuple[InputRefs, str]:
    """Load ``input.ckpt`` and check it is the input ``snapshot`` names."""
    path = directory / INPUT_NAME
    try:
        file = path.open("rb")
    except FileNotFoundError:
        raise RecoveryError(
            f"checkpoint input {INPUT_NAME} is missing from {directory}"
        ) from None
    with file:
        hasher = hashlib.sha256()
        try:
            check_container(file, hasher.update)
        except RecoveryError as exc:
            raise RecoveryError(f"checkpoint input {INPUT_NAME}: {exc}") from exc
        digest = hasher.hexdigest()
        if digest != expected:
            raise RecoveryError(
                f"checkpoint input {INPUT_NAME} (digest {digest[:16]}) is not the input "
                f"snapshot {snapshot} was taken from (digest {str(expected)[:16]})"
            )
        state = unpickle_state(file)
    trace, trees = state.get("trace"), state.get("trees")
    if not isinstance(trace, Trace) or not isinstance(trees, list):
        raise RecoveryError(f"checkpoint input {INPUT_NAME} holds no trace and trees")
    return InputRefs(trace, trees), digest
