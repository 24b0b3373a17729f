"""Determinism regression suite (DESIGN.md §7).

Same trace + same seeds ⇒ bit-identical :class:`RunResult`,
field-for-field, with faults off and on — and independent of
``PYTHONHASHSEED`` (checked in fresh subprocesses), since string
hashing is the one stdlib source of per-process iteration-order
variation the engine could accidentally depend on.  Checkpointed runs
also write byte-identical checkpoint directories.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    ShardConfig,
)
from repro.engine.runner import SCHEDULER_NAMES, run_trace
from repro.grid.dataset import DatasetSpec
from repro.parallel.pool import RunSpec, run_spec
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(**kwargs):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        **kwargs,
    )


def result_fields(result):
    """``RunResult.to_dict()`` with the ``faults["crash_effective"]``
    lifecycle flag stripped (a resumed run records that its crash fired;
    the uninterrupted same-seed run never armed one — metadata about the
    run's lifecycle, not simulation output)."""
    out = result.to_dict()
    out["faults"] = {k: v for k, v in out["faults"].items() if k != "crash_effective"}
    return out


def assert_identical(a, b):
    fa, fb = result_fields(a), result_fields(b)
    assert set(fa) == set(fb)
    for name in fa:
        # repr, not ==: a dict's key order is part of what must not vary.
        assert repr(fa[name]) == repr(fb[name]), f"RunResult.{name} differs between same-seed runs"


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_same_seed_runs_identical(name):
    trace = small_trace()
    assert_identical(
        run_trace(trace, name, engine()),
        run_trace(trace, name, engine()),
    )


@pytest.mark.parametrize("name", ["noshare", "liferaft2", "jaws2"])
def test_same_seed_runs_identical_with_faults(name):
    faults = FaultConfig(
        seed=11,
        transient_fault_rate=0.05,
        permanent_loss_rate=0.01,
        slow_read_rate=0.05,
    )
    trace = small_trace()
    assert_identical(
        run_trace(trace, name, engine(faults=faults)),
        run_trace(trace, name, engine(faults=faults)),
    )


def test_trace_generation_deterministic():
    a, b = small_trace(seed=3), small_trace(seed=3)
    assert len(a.jobs) == len(b.jobs)
    for ja, jb in zip(a.jobs, b.jobs):
        assert ja.submit_time == jb.submit_time
        assert [q.query_id for q in ja.queries] == [q.query_id for q in jb.queries]
        for qa, qb in zip(ja.queries, jb.queries):
            assert np.array_equal(qa.positions, qb.positions)


# ---------------------------------------------------------------------------
# PYTHONHASHSEED independence (fresh interpreters)
# ---------------------------------------------------------------------------
_DIGEST_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, sys
    from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
    from repro.engine.runner import run_trace
    from repro.grid.dataset import DatasetSpec
    from repro.workload.generator import WorkloadParams, generate_trace

    spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
    trace = generate_trace(spec, WorkloadParams(n_jobs=12, span=90.0, seed=2))
    eng = EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        faults=FaultConfig(seed=4, transient_fault_rate=0.03),
    )
    result = run_trace(trace, "jaws2", eng)
    doc = json.dumps(result.to_dict())
    sys.stdout.write(hashlib.sha256(doc.encode()).hexdigest())
    """
)


def _run_digest(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src_dir + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_results_independent_of_hash_seed():
    digests = {seed: _run_digest(seed) for seed in ("0", "1", "12345")}
    assert len(set(digests.values())) == 1, (
        "RunResult digest varies with PYTHONHASHSEED: " + repr(digests)
    )


# ---------------------------------------------------------------------------
# Byte-identical checkpoint directories
# ---------------------------------------------------------------------------
def _directory_digests(directory):
    """``relative path -> SHA-256`` of every file under ``directory``."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


_CHECKPOINT_CASES = {
    # One coordinator with faults, snapshotting every 200 events.
    "single": dict(
        n_nodes=1,
        faults=FaultConfig(seed=11, transient_fault_rate=0.05, slow_read_rate=0.05),
    ),
    # Two shards with a shard crash, a cluster barrier every 200 events.
    "sharded": dict(n_nodes=4, shards=ShardConfig(n_shards=2, crashes=((1, 40.0),))),
}


@pytest.mark.parametrize("case", sorted(_CHECKPOINT_CASES))
def test_same_seed_checkpoint_directories_byte_identical(case, tmp_path):
    """Two same-seed checkpointed runs write the same bytes to every
    file.  Both runs use one directory path, because the checkpoint
    configuration (and with it that path) is pickled into each
    snapshot."""
    from tests.test_shard import engine as shard_engine, small_trace as shard_trace

    trace = shard_trace(seed=1)
    directory = tmp_path / "ckpt"
    spec = RunSpec(
        trace,
        "jaws2",
        shard_engine(checkpoint=CheckpointConfig(directory=str(directory), every_events=200)),
        **_CHECKPOINT_CASES[case],
    )
    digests = []
    for attempt in range(2):
        run_spec(spec)
        digests.append(_directory_digests(directory))
        directory.rename(tmp_path / f"run-{attempt}")
    assert len(digests[0]) > 2
    assert digests[0] == digests[1], sorted(
        name for name in digests[0] if digests[0][name] != digests[1].get(name)
    )
