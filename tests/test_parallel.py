"""Parallel-vs-serial bit-identity (DESIGN.md §10).

``run_many(specs, jobs=N)`` must be indistinguishable from the inline
serial path: same seed ⇒ same :class:`RunResult`, field for field, for
every scheduler, with faults off and on, and with the runtime sanitizer
attached.

Worker-crash retry is exercised by monkeypatching the worker entry
point with a crashing stand-in; the patch reaches pool workers because
this platform forks them (tests are skipped under spawn/forkserver).
"""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.engine.runner import SCHEDULER_NAMES, run_trace
from repro.errors import SimulationError, WorkerCrashError
from repro.experiments.report import render_table
from repro.grid.dataset import DatasetSpec
from repro.parallel import RunSpec, run_many
from repro.parallel import pool as pool_module
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)

FAULTS = FaultConfig(
    seed=11,
    transient_fault_rate=0.05,
    permanent_loss_rate=0.01,
    slow_read_rate=0.05,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the monkeypatch",
)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(**kwargs):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        **kwargs,
    )


def assert_identical(serial, parallel):
    a, b = serial.to_dict(), parallel.to_dict()
    assert set(a) == set(b)
    for key in a:
        assert a[key] == b[key], f"to_dict()[{key!r}] differs parallel vs serial"


# ---------------------------------------------------------------------------
# Bit-identity: all five schedulers × faults off/on, one pooled fan-out.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def identity_runs():
    """Serial and pooled results for every (scheduler, faults) combo.

    One ``run_many(..., jobs=2)`` call over the full spec list also
    checks that pooled results come back in spec order.
    """
    trace = small_trace()
    specs = [
        RunSpec(trace, name, engine(), faults=faults, label=f"{name}/{tag}")
        for faults, tag in ((None, "clean"), (FAULTS, "faults"))
        for name in SCHEDULER_NAMES
    ]
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    return specs, serial, parallel


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_parallel_matches_serial(identity_runs, name, faulty):
    specs, serial, parallel = identity_runs
    index = next(
        i
        for i, spec in enumerate(specs)
        if spec.scheduler == name and (spec.faults is not None) == faulty
    )
    assert_identical(serial[index], parallel[index])


def test_results_come_back_in_spec_order(identity_runs):
    specs, serial, parallel = identity_runs
    for spec, serial_result, parallel_result in zip(specs, serial, parallel):
        expected = {
            "noshare": "NoShare",
            "liferaft1": "LifeRaft(alpha=1)",
            "liferaft2": "LifeRaft(alpha=0)",
            "jaws1": "JAWS_1",
            "jaws2": "JAWS_2",
        }[spec.scheduler]
        assert serial_result.scheduler_name == expected
        assert parallel_result.scheduler_name == expected


def test_experiments_style_table_identical(identity_runs):
    """The rendered EXPERIMENTS-style table is byte-for-byte identical."""
    specs, serial, parallel = identity_runs

    def table(results):
        rows = [
            (
                spec.label,
                r.throughput_qps,
                r.mean_response_time,
                r.cache_hit_ratio,
                r.disk["reads"],
            )
            for spec, r in zip(specs, results)
        ]
        return render_table(
            ["run", "qps", "mean_rt_s", "cache_hit", "reads"],
            rows,
            title="parallel identity check",
        )

    assert table(serial) == table(parallel)


def test_parallel_matches_serial_with_sanitizer():
    trace = small_trace(seed=3)
    specs = [RunSpec(trace, name, engine(sanitize=True)) for name in ("noshare", "jaws2")]
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    for a, b in zip(serial, parallel):
        assert_identical(a, b)


def test_inline_path_equals_run_trace():
    trace = small_trace(seed=1)
    spec = RunSpec(trace, "jaws2", engine())
    (inline,) = run_many([spec], jobs=4)  # single spec short-circuits inline
    direct = run_trace(trace, "jaws2", engine())
    assert_identical(inline, direct)


# ---------------------------------------------------------------------------
# Validation and crash handling
# ---------------------------------------------------------------------------
def test_negative_jobs_rejected():
    with pytest.raises(ValueError):
        run_many([], jobs=-1)


def test_empty_specs():
    assert run_many([], jobs=4) == []


def _crash_marker_path():
    return Path(os.environ["REPRO_TEST_CRASH_MARKER"])


def _crash_twice_then_run(spec):
    """Worker stand-in: die abnormally until two markers exist."""
    marker = _crash_marker_path()
    count = len(list(marker.parent.glob("crash-*")))
    if count < 2:
        (marker.parent / f"crash-{count}").touch()
        os._exit(13)  # simulates a hard worker death (no exception)
    return pool_module.run_trace(
        spec.trace, spec.scheduler, engine=spec.engine,
        config=spec.scheduler_config, faults=spec.faults,
    )


def _always_crash(spec):
    os._exit(13)


@fork_only
def test_worker_crash_retries_then_succeeds(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(tmp_path / "marker"))
    monkeypatch.setattr(pool_module, "run_spec", _crash_twice_then_run)
    trace = small_trace(seed=2, n_jobs=6)
    specs = [RunSpec(trace, "jaws2", engine())] * 2
    results = pool_module.run_many(specs, jobs=2, max_retries=2)
    reference = run_trace(trace, "jaws2", engine())
    for result in results:
        assert_identical(result, reference)


@fork_only
def test_worker_crash_exhausts_retries(monkeypatch):
    monkeypatch.setattr(pool_module, "run_spec", _always_crash)
    trace = small_trace(seed=2, n_jobs=6)
    specs = [RunSpec(trace, "jaws2", engine())] * 2
    with pytest.raises(WorkerCrashError) as excinfo:
        pool_module.run_many(specs, jobs=2, max_retries=1)
    assert isinstance(excinfo.value, SimulationError)
    assert excinfo.value.attempts == 2


def test_deterministic_errors_propagate_without_retry():
    trace = small_trace(seed=0, n_jobs=4)
    with pytest.raises(Exception):
        run_many([RunSpec(trace, "no-such-scheduler"), RunSpec(trace, "jaws2")], jobs=2)
