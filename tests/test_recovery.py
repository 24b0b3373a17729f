"""Crash-consistent checkpointing and deterministic recovery (DESIGN.md §8).

The contract under test: for any coordinator-crash point, crashing and
resuming via ``Simulator.restore`` yields a :class:`RunResult`
bit-identical to the uninterrupted same-seed run — and recovery REFUSES
(:class:`RecoveryError`) whenever a snapshot or WAL cannot be trusted
(version mismatch, corruption, truncation, replay divergence).

The broad randomized sweep lives in ``tests/test_recovery_soak.py``
(slow-marked, run by the CI chaos-soak job); this file covers the
mechanism and every refusal path.
"""

import dataclasses
import io
import json
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.recovery.checkpoint as checkpoint_module
from repro.cluster.cluster import run_cluster
from repro.config import CheckpointConfig, FaultConfig
from repro.core.base import Batch
from repro.engine.events import Event, EventKind
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import CoordinatorCrash, RecoveryError, SimulationError
from repro.recovery.checkpoint import INPUT_NAME, CheckpointManager
from repro.recovery.codec import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    InputRefs,
    decode_snapshot,
    encode_snapshot,
    load_state,
    read_container,
)
from repro.recovery.wal import WalRecord, event_fingerprint, format_record, read_wal
from repro.workload.job import Job
from repro.workload.query import Query, SubQuery

from tests.test_determinism import assert_identical, engine, small_trace

FAULTS = FaultConfig(
    seed=11,
    transient_fault_rate=0.05,
    permanent_loss_rate=0.01,
    slow_read_rate=0.05,
)


def build_sim(trace, name, *, checkpoint=None, crash_at=None, sanitize=True):
    faults = dataclasses.replace(FAULTS, coordinator_crash_at=crash_at)
    cfg = engine(
        faults=faults,
        checkpoint=checkpoint or CheckpointConfig(),
        sanitize=sanitize,
    )
    return Simulator(trace, [make_scheduler(name, trace, cfg)], cfg)


def crash_and_leave_artifacts(tmp_path, trace, name, crash_at, every_events=20):
    """Run to the injected crash; returns the checkpoint directory."""
    ckpt_dir = tmp_path / f"ckpt-{name}-{crash_at}"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=every_events)
    sim = build_sim(trace, name, checkpoint=checkpoint, crash_at=crash_at)
    with pytest.raises(CoordinatorCrash):
        sim.run()
    return ckpt_dir


# ---------------------------------------------------------------------------
# Crash + restore = bit-identical
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("crash_at", [1, 5, 37, 120])
def test_crash_restore_bit_identical(tmp_path, crash_at):
    trace = small_trace()
    baseline = build_sim(trace, "jaws2").run()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at)
    resumed = Simulator.restore(ckpt_dir).run()
    assert_identical(baseline, resumed)


@pytest.mark.parametrize("name", ["noshare", "liferaft2"])
def test_crash_restore_other_schedulers(tmp_path, name):
    trace = small_trace()
    baseline = build_sim(trace, name).run()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, name, crash_at=60)
    assert_identical(baseline, Simulator.restore(ckpt_dir).run())


def test_crash_restore_cluster(tmp_path):
    trace = small_trace()
    faults = dataclasses.replace(FAULTS, replication=2)
    baseline = run_cluster(trace, "jaws2", 2, engine=engine(faults=faults)).result

    ckpt_dir = tmp_path / "cluster-ckpt"
    crashing = dataclasses.replace(faults, coordinator_crash_at=80)
    cfg = engine(
        faults=crashing,
        checkpoint=CheckpointConfig(directory=str(ckpt_dir), every_events=25),
        sanitize=True,
    )
    with pytest.raises(CoordinatorCrash):
        run_cluster(trace, "jaws2", 2, engine=cfg)
    resumed = Simulator.restore(ckpt_dir)
    assert len(resumed.nodes) == 2
    assert_identical(baseline, resumed.run())


def test_crash_window_draws_deterministic_point():
    trace = small_trace()
    faults = dataclasses.replace(FAULTS, coordinator_crash_window=(10, 200))
    cfg = engine(faults=faults)
    sims = [Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg) for _ in range(2)]
    assert sims[0].injector.crash_at == sims[1].injector.crash_at
    assert 10 <= sims[0].injector.crash_at < 200


def test_crash_window_past_trace_end_is_clamped_and_fires(tmp_path):
    """A window drawn entirely past the trace's last event used to
    schedule a crash that never fired (silently testing nothing).  The
    injector now clamps window draws to the guaranteed event floor, so
    the crash always lands inside the live range — and the run is still
    resumable to a bit-identical result."""
    trace = small_trace()
    baseline = build_sim(trace, "jaws2").run()

    faults = dataclasses.replace(FAULTS, coordinator_crash_window=(100_000, 200_000))
    ckpt_dir = tmp_path / "ckpt-window"
    cfg = engine(
        faults=faults,
        checkpoint=CheckpointConfig(directory=str(ckpt_dir), every_events=10),
        sanitize=True,
    )
    sim = Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg)
    guaranteed = len(trace.jobs) + 2 * len(faults.node_crashes)
    assert 1 <= sim.injector.crash_at < guaranteed
    with pytest.raises(CoordinatorCrash):
        sim.run()
    resumed = Simulator.restore(ckpt_dir).run()
    assert_identical(baseline, resumed)
    # The resumed result reports that its lifecycle really crashed.
    assert resumed.faults["crash_effective"] is True


def test_explicit_crash_at_is_not_clamped():
    """Only window draws are clamped; an explicit index is honored
    verbatim (callers probing past-the-end behavior on purpose)."""
    trace = small_trace()
    sim = build_sim(trace, "jaws2", crash_at=100_000)
    assert sim.injector.crash_at == 100_000
    result = sim.run()  # never reaches event 100000 -> completes
    assert result.faults["crash_effective"] is False


def test_crash_effective_reported_on_completed_armed_run():
    """crash_effective distinguishes 'armed and fired' from 'armed but
    the run ended first' — and is excluded from bit-identity."""
    trace = small_trace()
    armed = build_sim(trace, "jaws2", crash_at=100_000).run()
    unarmed = build_sim(trace, "jaws2").run()
    assert armed.faults["crash_effective"] is False
    assert unarmed.faults["crash_effective"] is False
    assert_identical(armed, unarmed)


def test_restore_disarms_crash_and_keeps_wal_appendable(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=40)
    sim = Simulator.restore(ckpt_dir)
    assert sim.injector.crash_at is None  # no immediate re-crash
    first = sim.run()
    # The run continued past the crash point and kept checkpointing:
    # restoring AGAIN from the same directory still works and replays
    # to the same final result.
    again = Simulator.restore(ckpt_dir).run()
    assert_identical(first, again)


# ---------------------------------------------------------------------------
# Snapshot policy
# ---------------------------------------------------------------------------
def test_every_seconds_policy_produces_snapshots(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "by-time"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_seconds=20.0, keep=100)
    build_sim(trace, "jaws2", checkpoint=checkpoint).run()
    snapshots = sorted(ckpt_dir.glob("snapshot-*.ckpt"))
    assert len(snapshots) > 1  # genesis + at least one timed snapshot


def test_retention_prunes_old_generations(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "retention"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=10, keep=2)
    build_sim(trace, "jaws2", checkpoint=checkpoint).run()
    snapshots = sorted(ckpt_dir.glob("snapshot-*.ckpt"))
    wals = sorted(ckpt_dir.glob("wal-*.log"))
    assert len(snapshots) == 2
    # Every surviving snapshot keeps its WAL segment, and vice versa.
    assert [p.stem.rpartition("-")[2] for p in snapshots] == [
        p.stem.rpartition("-")[2] for p in wals
    ]


def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere")  # directory without a policy
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_events=0)
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_seconds=0.0)
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_events=5, keep=0)
    assert not CheckpointConfig().enabled
    assert CheckpointConfig(directory="d", every_events=5).enabled


# ---------------------------------------------------------------------------
# Refusal paths
# ---------------------------------------------------------------------------
def test_restore_empty_directory_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no snapshots"):
        Simulator.restore(tmp_path)


def test_version_mismatch_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    # Overwrite the u32 format version right after the magic.
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), SNAPSHOT_FORMAT_VERSION + 1)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="version mismatch"):
        Simulator.restore(ckpt_dir)


def test_v3_snapshot_refused(tmp_path):
    """Format 3 sub-queries lack their neighbor keys: never resumed."""
    assert SNAPSHOT_FORMAT_VERSION == 8
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 3)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v3, this build reads v8"):
        Simulator.restore(ckpt_dir)


def test_codec_rejects_bad_magic_truncation_and_crc():
    blob = encode_snapshot({"event_index": 0}, {"event_index": 0})
    with pytest.raises(RecoveryError, match="not a JAWS snapshot"):
        decode_snapshot(b"NOTAJAWS" + blob[8:])
    with pytest.raises(RecoveryError, match="truncated"):
        decode_snapshot(blob[:-5])
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(RecoveryError, match="CRC mismatch"):
        decode_snapshot(bytes(corrupt))
    meta, state = decode_snapshot(blob)
    assert meta == {"event_index": 0} and state == {"event_index": 0}


def test_truncated_wal_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    text = wal.read_text()
    assert text.endswith("\n")
    wal.write_text(text[:-3])  # tear the final record
    with pytest.raises(RecoveryError, match="torn"):
        Simulator.restore(ckpt_dir)


def test_corrupt_wal_crc_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines(keepends=True)
    assert lines
    lines[-1] = lines[-1].replace('"k":', '"K":', 1)  # body no longer matches CRC
    wal.write_text("".join(lines))
    with pytest.raises(RecoveryError, match="corrupt WAL"):
        Simulator.restore(ckpt_dir)


def test_wal_index_gap_raises(tmp_path):
    trace = small_trace()
    # Crash mid-segment (not on a snapshot boundary) so the latest WAL
    # holds several records.
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=38, every_events=5)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    del lines[0]
    wal.write_text("".join(lines))
    with pytest.raises(RecoveryError, match="expected event index"):
        Simulator.restore(ckpt_dir)


def test_missing_wal_segment_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    for wal in ckpt_dir.glob("wal-*.log"):
        wal.unlink()
    with pytest.raises(RecoveryError, match="missing"):
        Simulator.restore(ckpt_dir)


def test_replay_divergence_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=38, every_events=5)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines()
    assert lines
    # Forge the last record's fingerprint WITH a valid CRC: the file
    # parses cleanly, but the deterministic re-run cannot match it.
    body, _, _ = lines[-1].rpartition("\t")
    fields = json.loads(body)
    fields["f"] = "0" * 16
    forged = format_record(
        WalRecord(
            index=fields["i"], time_hex=fields["t"], kind=fields["k"], fingerprint=fields["f"]
        )
    )
    assert forged.rpartition("\t")[0] == json.dumps(fields, sort_keys=True)
    wal.write_text("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else "") + forged)
    sim = Simulator.restore(ckpt_dir)  # artifacts are well-formed
    with pytest.raises(RecoveryError, match="diverged"):
        sim.run()


def test_read_wal_missing_file(tmp_path):
    with pytest.raises(RecoveryError, match="missing"):
        read_wal(tmp_path / "wal-000000000.log", 0)


# ---------------------------------------------------------------------------
# Diagnostics satellite: event index + RNG digest on engine errors
# ---------------------------------------------------------------------------
def test_coordinator_crash_carries_diagnostics():
    trace = small_trace()
    sim = build_sim(trace, "jaws2", crash_at=37)
    with pytest.raises(CoordinatorCrash) as info:
        sim.run()
    err = info.value
    assert isinstance(err, SimulationError)
    assert err.event_index == 37
    assert isinstance(err.rng_digest, str) and len(err.rng_digest) == 16
    int(err.rng_digest, 16)  # hex digest
    assert f"event={err.event_index}" in str(err)
    assert f"rng={err.rng_digest}" in str(err)


# ---------------------------------------------------------------------------
# CLI: repro run --checkpoint-dir/--crash-at-event + repro resume
# ---------------------------------------------------------------------------
class TestCliRecovery:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "t.npz"
        assert main(
            ["trace", "generate", "--out", str(path), "--jobs", "12", "--span", "60",
             "--seed", "3"]
        ) == 0
        return path

    def test_run_crash_then_resume(self, trace_file, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "cli-ckpt"
        rc = main(
            ["run", "--trace", str(trace_file), "--scheduler", "jaws2",
             "--disk-fault-rate", "0.05", "--checkpoint-dir", str(ckpt),
             "--checkpoint-every-events", "25", "--crash-at-event", "60"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "coordinator crashed" in captured.err
        assert "repro resume" in captured.err
        assert sorted(ckpt.glob("snapshot-*.ckpt"))

        assert main(["resume", "--dir", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "resuming from event" in out
        assert "throughput_qps" in out
        assert "availability" in out  # degraded-mode block prints

    def test_resume_without_snapshots_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["resume", "--dir", str(tmp_path / "nothing")]) == 2
        assert "recovery failed" in capsys.readouterr().err

    def test_crash_without_checkpoint_dir_hints(self, trace_file, capsys):
        from repro.cli import main

        rc = main(
            ["run", "--trace", str(trace_file), "--scheduler", "noshare",
             "--crash-at-event", "10"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "cannot be recovered" in captured.err


def test_rng_digest_tracks_stream_position():
    trace = small_trace()
    sim = build_sim(trace, "jaws2")
    before = sim.injector.rng_digest()
    sim.run()
    assert sim.injector.rng_digest() != before
    # Two identical runs end at the same stream position.
    other = build_sim(trace, "jaws2")
    other.run()
    assert other.injector.rng_digest() == sim.injector.rng_digest()


# ---------------------------------------------------------------------------
# Snapshot format v3: the trace is written once to input.ckpt and every
# snapshot refers to it
# ---------------------------------------------------------------------------
def _payload_queries(payload):
    """Every Query reachable from one heap-event payload."""
    if isinstance(payload, Query):
        yield payload
    elif isinstance(payload, SubQuery):
        yield payload.query
    elif isinstance(payload, Batch):
        for _, subs in payload.atoms:
            for sq in subs:
                yield sq.query
    elif isinstance(payload, (tuple, list)):
        for item in payload:
            yield from _payload_queries(item)


def test_restored_trace_objects_are_the_inputs(tmp_path):
    trace = small_trace()
    # Snapshot at event 40: queries live, arrivals and submits pending.
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=41)
    sim = Simulator.restore(ckpt_dir)
    jobs = {job.job_id: job for job in sim.trace.jobs}
    queries = {q.query_id: q for q in sim.trace.queries()}
    assert sim._job_index and all(job is jobs[j] for j, job in sim._job_index.items())
    assert all(job is jobs[job.job_id] for job in sim._job_of.values())
    assert sim._live_query
    assert all(q is queries[qid] for qid, q in sim._live_query.items())
    heap_queries = [q for ev in sim._heap for q in _payload_queries(ev.payload)]
    assert heap_queries
    assert all(q is queries[q.query_id] for q in heap_queries)
    heap_jobs = [ev.payload for ev in sim._heap if isinstance(ev.payload, Job)]
    assert all(job is jobs[job.job_id] for job in heap_jobs)
    assert_identical(build_sim(trace, "jaws2").run(), sim.run())


def _subquery_records(state):
    """``(query id, atom id, position count, neighbor keys)`` of every
    sub-query reachable from an engine-state mapping, sorted."""
    found = {}

    class Collector(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, SubQuery):
                found[id(obj)] = obj
                return id(obj)
            return None

    Collector(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    return sorted(
        (sq.query.query_id, sq.atom_id, sq.n_positions, sq.neighbor_keys)
        for sq in found.values()
    )


def test_restored_derived_caches_equal_pre_crash(tmp_path, monkeypatch):
    """Each live sub-query's position count and stencil neighbor keys
    come back as they were when the snapshot was taken."""
    taken = {}
    encode = checkpoint_module.encode_snapshot

    def recording_encode(meta, state, refs=None):
        if "trace" in state and "event_index" in meta:
            taken[meta["event_index"]] = _subquery_records(state)
        return encode(meta, state, refs)

    monkeypatch.setattr(checkpoint_module, "encode_snapshot", recording_encode)
    trace = small_trace()
    # The snapshot at event 80 holds sub-queries with neighbor keys.
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=90)
    sim = Simulator.restore(ckpt_dir)
    records = taken[sim.event_index]
    assert any(keys for *_, keys in records)
    assert _subquery_records(checkpoint_module._capture_state(sim)) == records


def test_disk_trees_go_by_reference_and_stay_unmodified(tmp_path):
    """The disk B+-trees are written to input.ckpt once, so they must
    not change during a run; a restored node reads the input's tree."""
    trace = small_trace()
    ckpt_dir = tmp_path / "trees"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=50)
    sim = build_sim(trace, "jaws2", checkpoint=checkpoint)
    sim.run()
    _meta, payload = read_container((ckpt_dir / INPUT_NAME).read_bytes())
    (genesis_tree,) = load_state(payload)["trees"]
    assert sim.nodes[0].disk.tree.__getstate__() == genesis_tree.__getstate__()

    crashed = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=150)
    restored = Simulator.restore(crashed)
    assert restored.nodes[0].disk.tree is restored._checkpointer._input.trees[0]


def _damage_missing(path, _other):
    path.unlink()


def _damage_truncated(path, _other):
    path.write_bytes(path.read_bytes()[:-100])


def _damage_crc(path, _other):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def _damage_foreign(path, other):
    path.write_bytes((other / INPUT_NAME).read_bytes())


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_missing, "input.ckpt is missing"),
        (_damage_truncated, "truncated"),
        (_damage_crc, "CRC mismatch"),
        (_damage_foreign, "is not the input"),
    ],
    ids=["missing", "truncated", "crc", "foreign"],
)
def test_bad_input_file_refused(tmp_path, damage, message):
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=60)
    other_root = tmp_path / "other"
    other_root.mkdir()
    other = crash_and_leave_artifacts(other_root, small_trace(seed=4), "jaws2", crash_at=60)
    damage(ckpt_dir / INPUT_NAME, other)
    with pytest.raises(RecoveryError, match=message):
        Simulator.restore(ckpt_dir)


def test_pruning_keeps_the_input_file(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "keep1"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=10, keep=1)
    sim = build_sim(trace, "jaws2", checkpoint=checkpoint, crash_at=80)
    with pytest.raises(CoordinatorCrash):
        sim.run()
    assert len(sorted(ckpt_dir.glob("snapshot-*.ckpt"))) == 1
    assert (ckpt_dir / INPUT_NAME).exists()
    assert_identical(build_sim(trace, "jaws2").run(), Simulator.restore(ckpt_dir).run())


def test_lookalike_trace_objects_round_trip_by_value():
    """A Query or Job sharing an id with a trace object, but not the
    object itself, is pickled by value; the trace's own go by reference."""
    trace = small_trace()
    own = trace.jobs[0].queries[0]
    lookalike = dataclasses.replace(own, positions=own.positions + 0.5)
    job_lookalike = dataclasses.replace(trace.jobs[1])
    blob = encode_snapshot(
        {}, {"trace": trace, "own": own, "lookalike": lookalike, "job": job_lookalike},
        InputRefs(trace),
    )
    loaded = pickle.loads(pickle.dumps(trace))
    state = load_state(read_container(blob)[1], InputRefs(loaded))
    assert state["trace"] is loaded
    assert state["own"] is loaded.jobs[0].queries[0]
    assert state["lookalike"] is not loaded.jobs[0].queries[0]
    assert state["lookalike"].query_id == own.query_id
    assert np.array_equal(state["lookalike"].positions, lookalike.positions)
    assert state["job"] is not loaded.jobs[1]
    assert state["job"].job_id == trace.jobs[1].job_id
    # Without the input the references cannot resolve.
    with pytest.raises(RecoveryError, match="not loaded"):
        decode_snapshot(blob)


def test_genesis_snapshot_is_small_next_to_the_trace(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "genesis"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=10**6)
    build_sim(trace, "jaws2", checkpoint=checkpoint).run()
    _meta, payload = read_container((ckpt_dir / "snapshot-000000000.ckpt").read_bytes())
    assert len(payload) < 0.1 * len(pickle.dumps(trace))


def test_v2_snapshot_refused(tmp_path):
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 2)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v2"):
        Simulator.restore(ckpt_dir)


def _json_record_line(record):
    """The WAL line as the json.dumps layout defines it."""
    body = json.dumps(
        {"i": record.index, "t": record.time_hex, "k": record.kind, "f": record.fingerprint},
        sort_keys=True,
    )
    return f"{body}\t{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}\n"


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=-(2**40), max_value=2**62),
    kind=st.integers(min_value=0, max_value=8),
    fingerprint=st.text(alphabet="0123456789abcdef", min_size=0, max_size=64),
    time=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         float("inf"), float("-inf")]),
    ),
)
def test_format_record_matches_json_layout(index, kind, fingerprint, time):
    record = WalRecord(index=index, time_hex=float(time).hex(), kind=kind,
                       fingerprint=fingerprint)
    assert format_record(record) == _json_record_line(record)


# ---------------------------------------------------------------------------
# Format v5: sub-queries parked for one recovery share a REROUTE bucket
# ---------------------------------------------------------------------------
OUTAGE = FaultConfig(seed=11, transient_fault_rate=0.05, node_crashes=((0, 30.0, 60.0),))


class _BucketLog(Simulator):
    """Records the index of the event whose handler opened each bucket
    and ``(index, seq)`` of each bucket that fired."""

    def _defer(self, sq, arrival, now):
        seq = self._seq
        super()._defer(sq, arrival, now)
        if self._seq != seq:
            self.opened.append(self.event_index)

    def _on_reroute(self, ev):
        self.fired.append((self.event_index, ev.seq))
        super()._on_reroute(ev)


def outage_sim(trace, cls=Simulator, *, every_events=None, directory=None, crash_at=None):
    checkpoint = CheckpointConfig()
    if every_events is not None:
        checkpoint = CheckpointConfig(directory=str(directory), every_events=every_events)
    faults = dataclasses.replace(OUTAGE, coordinator_crash_at=crash_at)
    cfg = engine(faults=faults, checkpoint=checkpoint, sanitize=True)
    return cls(trace, [make_scheduler("jaws2", trace, cfg)], cfg)


@pytest.fixture(scope="module")
def outage_run():
    """``(trace, uninterrupted result, index opening the first bucket,
    index firing it, its seq)`` of a one-node run with a 30-60 s outage."""
    trace = small_trace()
    sim = outage_sim(trace, _BucketLog)
    sim.opened, sim.fired = [], []
    result = sim.run()
    fired, seq = sim.fired[0]
    assert sim.opened[0] + 1 < fired
    return trace, result, sim.opened[0], fired, seq


def _pairs(trace, n=3):
    query = trace.jobs[0].queries[0]
    return [
        (SubQuery(query, atom_id, np.arange(2, dtype=np.int32)), 1.5 * atom_id)
        for atom_id in range(n)
    ]


def test_reroute_fingerprint_covers_every_pair_in_order():
    pairs = _pairs(small_trace())
    bucket = Event(60.0, EventKind.REROUTE, 7, pairs)
    base = event_fingerprint(bucket)
    assert event_fingerprint(bucket._replace(payload=list(pairs))) == base
    swapped = [pairs[1], pairs[0], pairs[2]]
    moved = [pairs[0], pairs[1], (pairs[2][0], pairs[2][1] + 0.5)]
    for variant in (swapped, pairs[:-1], pairs[1:], moved):
        assert event_fingerprint(bucket._replace(payload=variant)) != base


@pytest.mark.parametrize("every_events", [1, 5])
@pytest.mark.parametrize("where", ["opened", "parked", "before-fire", "after-fire"])
def test_crash_around_a_parked_bucket_resumes_identically(
    tmp_path, outage_run, where, every_events
):
    trace, baseline, opened, fired, seq = outage_run
    crash_at = {
        "opened": opened + 1,
        "parked": (opened + fired) // 2 + 1,
        "before-fire": fired,
        "after-fire": fired + 1,
    }[where]
    sim = outage_sim(trace, every_events=every_events, directory=tmp_path, crash_at=crash_at)
    with pytest.raises(CoordinatorCrash):
        sim.run()
    if every_events == 1:
        _meta, state, _manager = CheckpointManager.load_latest(tmp_path)
        parked = {ev.seq for ev in state["_heap"] if ev.kind is EventKind.REROUTE}
        assert (seq in parked) == (where != "after-fire")
        if where == "opened":
            # The open bucket and its heap event share one pair list.
            _index, open_bucket = state["_parked"]
            heap_bucket = next(ev for ev in state["_heap"] if ev.seq == open_bucket.seq)
            assert open_bucket.payload is heap_bucket.payload
    assert_identical(baseline, Simulator.restore(tmp_path).run())


def test_replayed_bucket_must_match_its_record(tmp_path, outage_run):
    """The snapshot holds the parked bucket and the WAL logs it firing;
    a record forged to one pair fewer (valid CRC) is refused on replay."""
    trace, _baseline, _opened, fired, seq = outage_run
    sim = outage_sim(trace, every_events=fired, directory=tmp_path, crash_at=fired + 1)
    with pytest.raises(CoordinatorCrash):
        sim.run()
    _meta, state, _manager = CheckpointManager.load_latest(tmp_path)
    assert state["event_index"] == fired
    (bucket,) = [ev for ev in state["_heap"] if ev.seq == seq]
    assert len(bucket.payload) > 1
    wal = tmp_path / f"wal-{fired:09d}.log"
    (record,) = read_wal(wal, fired)
    assert record.kind == EventKind.REROUTE
    assert record.fingerprint == event_fingerprint(bucket)
    forged = dataclasses.replace(
        record, fingerprint=event_fingerprint(bucket._replace(payload=bucket.payload[1:]))
    )
    wal.write_text(format_record(forged))
    resumed = Simulator.restore(tmp_path)
    with pytest.raises(RecoveryError, match="diverged"):
        resumed.run()


def test_v4_snapshot_refused(tmp_path):
    """Format 4 REROUTE events carry one bare pair, not a bucket."""
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 4)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v4, this build reads v8"):
        Simulator.restore(ckpt_dir)


def test_v5_snapshot_refused(tmp_path):
    """Format 5 sub-queries carry index bytes and its queries an atom-set
    cache: never resumed."""
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 5)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v5, this build reads v8"):
        Simulator.restore(ckpt_dir)


def test_v6_snapshot_refused(tmp_path):
    """Format 6 gating vertices hold frozenset atom sets: never resumed."""
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 6)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v6, this build reads v8"):
        Simulator.restore(ckpt_dir)


def test_v7_snapshot_refused(tmp_path):
    """Format 7 caches and JAWS schedulers carry wall-clock overhead
    counters: never resumed."""
    ckpt_dir = crash_and_leave_artifacts(tmp_path, small_trace(), "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), 7)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="file has v7, this build reads v8"):
        Simulator.restore(ckpt_dir)
