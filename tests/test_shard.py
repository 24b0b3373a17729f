"""Tests for sharded multi-coordinator execution (repro.shard).

The matrix: shard counts {1, 2, 4} x faults on/off x crash/failover
mid-run x resume-from-cluster-checkpoint, with a one-shard spec routed
to the single-coordinator cluster engine and every sharded run audited
by the cross-shard conservation identities (no sub-query lost or
double-executed across epoch changes).
"""

import dataclasses
import json
import shutil

import pytest

from repro.cluster.cluster import run_cluster
from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    ShardConfig,
)
from repro.errors import (
    ConfigurationError,
    CoordinatorCrash,
    PartitionError,
    RecoveryError,
    ShardProtocolError,
)
from repro.fuzz.oracles import check_conservation, results_equivalent
from repro.grid.dataset import DatasetSpec
from repro.parallel.pool import RunSpec, run_many, run_spec
from repro.recovery.codec import decode_snapshot, encode_snapshot
from repro.recovery.wal import WalRecord, format_record
from repro.shard import (
    OwnershipTable,
    ShardMessage,
    ShardTopology,
    latest_manifest,
    resume_cluster,
    run_sharded,
    shard_fault_seed,
)
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def engine(**overrides):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        **overrides,
    )


def small_trace(seed=0):
    return generate_trace(SPEC, WorkloadParams(n_jobs=20, span=150.0, seed=seed))


def assert_conserved(stats):
    c = stats["conservation"]
    assert c["created"] == c["applied"] + c["residual_cancelled"]
    assert c["executed"] == (
        c["applied"] + c["exec_dropped"] + c["late_done_dropped"]
    )


# ---------------------------------------------------------------------------
# Topology and ownership
# ---------------------------------------------------------------------------
class TestTopology:
    def test_blocks_cover_all_nodes_disjointly(self):
        topo = ShardTopology(n_nodes=8, n_shards=3)
        blocks = [set(topo.nodes_of_shard(d)) for d in range(3)]
        assert set().union(*blocks) == set(range(8))
        assert sum(len(b) for b in blocks) == 8

    def test_shard_of_node_inverts_blocks(self):
        topo = ShardTopology(n_nodes=7, n_shards=3)
        for d in range(3):
            for node in topo.nodes_of_shard(d):
                assert topo.shard_of_node(node) == d

    def test_validation(self):
        with pytest.raises(PartitionError):
            ShardTopology(n_nodes=2, n_shards=4)
        with pytest.raises(PartitionError):
            ShardTopology(n_nodes=4, n_shards=0)

    def test_digest_tracks_shape(self):
        a = ShardTopology(n_nodes=8, n_shards=2)
        assert a.digest() == ShardTopology(n_nodes=8, n_shards=2).digest()
        assert a.digest() != ShardTopology(n_nodes=8, n_shards=4).digest()
        assert a.digest() != ShardTopology(n_nodes=6, n_shards=2).digest()

    def test_ownership_transfer_bumps_epoch(self):
        table = OwnershipTable.identity(3)
        assert table.operator == [0, 1, 2] and table.epoch == [0, 0, 0]
        assert table.transfer(1, 2) == 1
        assert table.operator[1] == 2
        assert table.epoch[1] == 1
        assert sorted(table.domains_of(2)) == [1, 2]

    def test_message_rejects_unknown_kind(self):
        with pytest.raises(ShardProtocolError):
            ShardMessage(
                kind="gossip",
                src_domain=0,
                dst_domain=1,
                src_epoch=0,
                dst_epoch=0,
                send_time=0.0,
                deliver_time=0.01,
                seq=0,
            )

    def test_shard_fault_seed_is_stable_and_distinct(self):
        assert shard_fault_seed(7, 0) == shard_fault_seed(7, 0)
        assert shard_fault_seed(7, 0) != shard_fault_seed(7, 1)
        assert shard_fault_seed(7, 0) != shard_fault_seed(8, 0)


# ---------------------------------------------------------------------------
# Bit-identity matrix
# ---------------------------------------------------------------------------
class TestShardRuns:
    def test_single_shard_matches_cluster_engine(self):
        trace = small_trace(seed=1)
        spec = RunSpec(
            trace, "jaws2", engine(), n_nodes=4, shards=ShardConfig(n_shards=1)
        )
        result = run_spec(spec)
        cluster = run_cluster(trace, "jaws2", 4, engine=engine())
        assert results_equivalent(cluster.result, result) is None
        # The plain cluster engine ran: no control plane, no shard counters.
        assert "shard_crashes" not in result.faults

    def test_run_sharded_refuses_one_shard(self):
        with pytest.raises(ValueError) as exc:
            run_sharded(
                small_trace(), "jaws2", 4, shards=ShardConfig(n_shards=1),
                engine=engine(),
            )
        assert type(exc.value) is ConfigurationError

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_all_queries_complete(self, n_shards):
        trace = small_trace(seed=1)
        out = run_sharded(
            trace, "jaws2", 4, shards=ShardConfig(n_shards=n_shards), engine=engine()
        )
        assert out.result.n_queries == trace.n_queries
        assert out.n_shards == n_shards
        assert_conserved(out.shard_stats)
        assert out.shard_stats["shard_crashes"] == 0
        assert out.shard_stats["stale_retries"] == 0

    def test_same_seed_bit_identical(self):
        trace = small_trace(seed=2)
        runs = [
            run_sharded(
                trace, "jaws2", 4, shards=ShardConfig(n_shards=2), engine=engine()
            )
            for _ in range(2)
        ]
        assert results_equivalent(runs[0].result, runs[1].result) is None
        assert runs[0].shard_stats == runs[1].shard_stats

    def test_pooled_sharded_spec_matches_run_spec(self):
        """Sharded runs go parallel only as whole specs: a two-shard
        spec with a shard crash comes back from a ``run_many`` worker
        equal, field for field, to the same spec run in this process."""
        trace = small_trace(seed=3)
        sharded = RunSpec(
            trace, "jaws2", engine(), label="sharded", n_nodes=4,
            shards=ShardConfig(n_shards=2, crashes=((1, 40.0),)),
        )
        single = RunSpec(trace, "noshare", engine(), label="single")
        pooled = run_many([sharded, single], jobs=2)
        assert results_equivalent(run_spec(sharded), pooled[0]) is None
        assert pooled[0].faults["shard_crashes"] == 1
        assert results_equivalent(run_spec(single), pooled[1]) is None


# ---------------------------------------------------------------------------
# Crash, failover, fault interplay
# ---------------------------------------------------------------------------
class TestFailover:
    def test_explicit_crash_fails_over_and_conserves(self):
        trace = small_trace(seed=1)
        out = run_sharded(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2, crashes=((1, 40.0),)),
            engine=engine(),
        )
        assert out.result.n_queries == trace.n_queries
        stats = out.shard_stats
        assert stats["shard_crashes"] == 1
        assert stats["epoch_bumps"] >= 1
        # The dead shard's domain moved to a survivor at a bumped epoch.
        assert stats["operators"][1] != 1
        assert stats["lease_epochs"][1] >= 1
        assert_conserved(stats)

    def test_failover_is_deterministic(self):
        trace = small_trace(seed=4)
        shards = ShardConfig(n_shards=4, crashes=((3, 30.0), (2, 60.0)))
        a = run_sharded(trace, "jaws2", 4, shards=shards, engine=engine())
        b = run_sharded(trace, "jaws2", 4, shards=shards, engine=engine())
        assert results_equivalent(a.result, b.result) is None
        assert a.shard_stats == b.shard_stats
        assert a.shard_stats["shard_crashes"] == 2

    def test_seeded_window_crashes(self):
        trace = small_trace(seed=5)
        shards = ShardConfig(
            n_shards=4, crash_window=(20.0, 60.0), n_window_crashes=2, seed=7
        )
        out = run_sharded(trace, "jaws2", 4, shards=shards, engine=engine())
        assert out.result.n_queries == trace.n_queries
        assert out.shard_stats["shard_crashes"] == 2
        assert_conserved(out.shard_stats)

    def test_node_crash_and_transients_under_sharding(self):
        trace = small_trace(seed=1)
        faults = FaultConfig(
            seed=11,
            transient_fault_rate=0.05,
            node_crashes=((1, 30.0, 60.0),),
            replication=2,
        )
        shards = ShardConfig(n_shards=2, crashes=((1, 50.0),))
        a = run_sharded(
            trace, "jaws2", 4, shards=shards, engine=engine(), faults=faults
        )
        b = run_sharded(
            trace, "jaws2", 4, shards=shards, engine=engine(), faults=faults
        )
        assert a.result.n_queries == trace.n_queries
        assert a.result.faults["node_downs"] >= 1
        assert_conserved(a.shard_stats)
        assert results_equivalent(a.result, b.result) is None

    def test_node_crash_moves_inflight_foreign_work(self):
        # Node 0 goes down while running sub-queries of queries homed on
        # the peer shard; they must travel back as 'fail' reports and be
        # re-routed, or their queries never complete (cluster livelock).
        trace = small_trace()
        faults = FaultConfig(replication=2, node_crashes=((0, 48.0, 68.0),))
        out = run_sharded(
            trace, "jaws2", 4, shards=ShardConfig(n_shards=2), engine=engine(),
            faults=faults,
        )
        assert out.result.n_queries == trace.n_queries
        assert out.result.failovers > 0
        assert_conserved(out.shard_stats)

    def test_permanent_loss_conserves_residual(self):
        trace = small_trace(seed=6)
        faults = FaultConfig(seed=3, permanent_loss_rate=0.01)
        out = run_sharded(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2),
            engine=engine(),
            faults=faults,
        )
        assert out.result.cancelled_queries > 0
        assert check_conservation(trace, out.result) is None
        assert_conserved(out.shard_stats)


# ---------------------------------------------------------------------------
# Cluster-consistent recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def _engine(self, directory):
        return engine(checkpoint=CheckpointConfig(directory=str(directory), every_events=500))

    def _halt(self, trace, tmp_path, halt_after_barrier=2, **shard_overrides):
        with pytest.raises(CoordinatorCrash):
            run_sharded(
                trace,
                "jaws2",
                4,
                shards=ShardConfig(
                    n_shards=2, halt_after_barrier=halt_after_barrier, **shard_overrides
                ),
                engine=self._engine(tmp_path),
            )

    def test_resume_is_bit_identical(self, tmp_path):
        trace = small_trace(seed=1)
        # The reference writes barriers at the same cadence elsewhere,
        # so the resumed run must count the same barriers.
        reference = run_sharded(
            trace, "jaws2", 4, shards=ShardConfig(n_shards=2),
            engine=self._engine(tmp_path / "reference"),
        )
        self._halt(trace, tmp_path / "halted")
        assert latest_manifest(tmp_path / "halted") is not None
        resumed = resume_cluster(tmp_path / "halted").run()
        assert results_equivalent(reference.result, resumed.result) is None
        assert resumed.shard_stats["barriers"] == reference.shard_stats["barriers"] > 2
        assert_conserved(resumed.shard_stats)

    def test_resume_after_failover(self, tmp_path):
        trace = small_trace(seed=2)
        crashes = ((1, 30.0),)
        reference = run_sharded(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2, crashes=crashes),
            engine=engine(),
        )
        self._halt(trace, tmp_path, halt_after_barrier=3, crashes=crashes)
        control = resume_cluster(tmp_path)
        # The recovery point must carry the post-failover ownership.
        assert 1 in control.dead
        resumed = control.run()
        assert results_equivalent(reference.result, resumed.result) is None
        assert resumed.shard_stats["shard_crashes"] == 1

    def test_resume_of_completed_run_replays_post_barrier_wal(self, tmp_path):
        """A completed barrier run leaves every shard's newest WAL
        segment holding the records dispatched after the last barrier.
        Resuming it replays and verifies each of them, and a single
        forged record is a typed replay divergence."""
        trace = small_trace(seed=1)
        done = tmp_path / "done"
        reference = run_sharded(
            trace, "jaws2", 4, shards=ShardConfig(n_shards=2),
            engine=self._engine(done),
        )
        tails = [sorted((done / f"shard-{d}").glob("wal-*.log"))[-1] for d in range(2)]
        counts = [len(wal.read_text().splitlines()) for wal in tails]
        assert all(count > 0 for count in counts)

        resumed = resume_cluster(shutil.copytree(done, tmp_path / "resume")).run()
        assert results_equivalent(reference.result, resumed.result) is None
        assert resumed.shard_stats == reference.shard_stats

        # Forging the LAST record of each shard's tail is detected, so
        # replay verified every record before it, on every shard.
        for d, wal in enumerate(tails):
            forged_dir = shutil.copytree(done, tmp_path / f"forged-{d}")
            target = forged_dir / wal.relative_to(done)
            lines = target.read_text().splitlines()
            body, _, _ = lines[-1].rpartition("\t")
            fields = json.loads(body)
            forged = format_record(
                WalRecord(
                    index=fields["i"], time_hex=fields["t"], kind=fields["k"],
                    fingerprint="0" * 16,
                )
            )
            target.write_text("".join(line + "\n" for line in lines[:-1]) + forged)
            control = resume_cluster(forged_dir)  # artifacts are well-formed
            with pytest.raises(RecoveryError, match="replay diverged"):
                control.run()

    def test_keep_bounds_manifests_and_shard_snapshots(self, tmp_path):
        """``CheckpointConfig.keep`` prunes the cluster manifests and
        every shard's snapshots, and a resumed run keeps pruning to it."""
        def run(directory, **shard_overrides):
            return run_sharded(
                small_trace(seed=1), "jaws2", 4,
                shards=ShardConfig(n_shards=2, **shard_overrides),
                engine=engine(checkpoint=CheckpointConfig(
                    directory=str(directory), every_events=200, keep=2
                )),
            )

        def generations(directory):
            return [len(list(directory.glob("cluster-*.manifest")))] + [
                len(list((directory / f"shard-{d}").glob(pattern)))
                for d in range(2)
                for pattern in ("snapshot-*.ckpt", "wal-*.log")
            ]

        reference = run(tmp_path / "full")
        assert reference.shard_stats["barriers"] > 3
        assert generations(tmp_path / "full") == [2] * 5

        halted = tmp_path / "halted"
        with pytest.raises(CoordinatorCrash):
            run(halted, halt_after_barrier=3)
        assert decode_snapshot(latest_manifest(halted).read_bytes())[0]["keep"] == 2
        resumed = resume_cluster(halted).run()
        assert results_equivalent(reference.result, resumed.result) is None
        assert generations(halted) == [2] * 5

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            resume_cluster(tmp_path)

    def test_manifest_without_cadence_is_refused(self, tmp_path):
        """A manifest that does not record its barrier cadence (as
        manifests written before the cadence moved to
        ``EngineConfig.checkpoint`` do not) is a typed refusal."""
        self._halt(small_trace(seed=1), tmp_path)
        manifest = latest_manifest(tmp_path)
        meta, state = decode_snapshot(manifest.read_bytes())
        del meta["every_events"]
        manifest.write_bytes(encode_snapshot(meta, state))
        with pytest.raises(RecoveryError, match="records no barrier cadence"):
            resume_cluster(tmp_path)


# ---------------------------------------------------------------------------
# Configuration guardrails
# ---------------------------------------------------------------------------
class TestConfigErrors:
    def test_rejects_overload_when_sharded(self):
        with pytest.raises(ConfigurationError):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(overload=OverloadConfig(enabled=True)),
            )

    def test_rejects_sanitizer_when_sharded(self):
        with pytest.raises(ConfigurationError):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(sanitize=True),
            )

    def test_rejects_seconds_cadence_when_sharded(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not every_seconds"):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(
                    checkpoint=CheckpointConfig(
                        directory=str(tmp_path), every_events=100, every_seconds=5.0
                    )
                ),
            )
        assert list(tmp_path.iterdir()) == []

    def test_rejects_keep_below_two_when_sharded(self, tmp_path):
        """A crash mid-barrier resumes from the previous manifest, whose
        shard snapshots ``keep=1`` would already have pruned."""
        with pytest.raises(ConfigurationError, match="at least 2 checkpoint generations"):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(
                    checkpoint=CheckpointConfig(
                        directory=str(tmp_path), every_events=100, keep=1
                    )
                ),
            )
        assert list(tmp_path.iterdir()) == []

    def test_rejects_halt_without_barriers(self):
        with pytest.raises(ConfigurationError, match="halt_after_barrier needs"):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2, halt_after_barrier=1),
                engine=engine(),
            )

    def test_rejects_halt_without_sharding(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(n_shards=1, crashes=((0, 10.0),))
        with pytest.raises(ConfigurationError):
            run_sharded(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=1, halt_after_barrier=1),
                engine=engine(),
            )

    def test_crash_schedule_needs_a_survivor(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(n_shards=2, crashes=((0, 10.0), (1, 20.0)))


# ---------------------------------------------------------------------------
# Spec digests
# ---------------------------------------------------------------------------
class TestDigests:
    def test_runspec_digest_tracks_topology(self):
        trace = small_trace(seed=1)
        base = RunSpec(trace=trace, scheduler="jaws2")
        clustered = dataclasses.replace(base, n_nodes=4)
        sharded = dataclasses.replace(base, n_nodes=4, shards=ShardConfig(n_shards=2))
        digests = {base.digest(), clustered.digest(), sharded.digest()}
        assert len(digests) == 3
