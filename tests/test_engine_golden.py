"""Golden-fixture regression gate for the simulation engine.

``tests/fixtures/engine_golden.json`` pins, for every cell of
:data:`CELLS`, three SHA-256 digests recorded from a known-good engine:

* ``decisions`` — every non-empty scheduling decision in order, one
  ``node|clock.hex|atom:count,...`` line each, where ``node`` numbers
  the scheduler instances in the order they first decide.  Empty
  decisions carry no work and are skipped;
* ``response_times`` — the per-query response times as ``float.hex``,
  so even a sign-of-zero change fails;
* ``result`` — canonical JSON of :func:`~repro.fuzz.oracles.
  normalize_result` (the whole summary minus wall-clock counters).

The cells cross the five schedulers with clean and faulted runs on a
small trace with the runtime sanitizer armed, then add a checkpointed
coordinator crash and resume, a clean two-shard run, a faulted
two-shard run with a node crash, a three-shard run with a shard crash
and failover, an overload-protected flash crowd, and a longer faulted
LifeRaft₁ run that exercises the α = 1 tie-set cache.  The test only reads the fixture.  When a
behaviour change is intended, rewrite the fixture and review its diff::

    PYTHONPATH=src python -m tests.test_engine_golden --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    ShardConfig,
)
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.noshare import NoShareScheduler
from repro.engine.results import RunResult
from repro.engine.runner import SCHEDULER_NAMES, make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import CoordinatorCrash
from repro.fuzz.oracles import normalize_result
from repro.grid.dataset import DatasetSpec
from repro.shard import run_sharded
from repro.workload.generator import (
    FlashCrowdParams,
    WorkloadParams,
    generate_trace,
    inject_flash_crowd,
)
from repro.workload.trace import Trace

FIXTURE = Path(__file__).parent / "fixtures" / "engine_golden.json"

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)

#: Every class whose ``next_batch`` the simulator calls.
SCHEDULER_CLASSES = (NoShareScheduler, LifeRaftScheduler, JAWSScheduler)


def small_trace(seed: int = 11, n_jobs: int = 15) -> Trace:
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(sanitize: bool = True, **overrides) -> EngineConfig:
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        sanitize=sanitize,
        **overrides,
    )


def faults(seed: int = 3) -> FaultConfig:
    """Transient errors, permanent losses (cancellations) and slow reads."""
    return FaultConfig(
        seed=seed,
        transient_fault_rate=0.05,
        permanent_loss_rate=0.002,
        slow_read_rate=0.1,
        slow_read_factor=4.0,
    )


@contextmanager
def decision_digest() -> Iterator["hashlib._Hash"]:
    """Hash every non-empty decision of every scheduler while open."""
    digest = hashlib.sha256()
    labels: dict[int, tuple[object, int]] = {}
    depth = [0]
    saved = [(cls, cls.__dict__["next_batch"]) for cls in SCHEDULER_CLASSES]

    def wrap(inner: Callable) -> Callable:
        def next_batch(self, now):
            depth[0] += 1
            try:
                batch = inner(self, now)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and batch is not None and batch.n_atoms != 0:
                # Keep the instance alive so its id is never reused.
                node = labels.setdefault(id(self), (self, len(labels)))[1]
                atoms = ",".join(f"{a}:{len(subs)}" for a, subs in batch.atoms)
                digest.update(f"{node}|{now.hex()}|{atoms}\n".encode())
            return batch

        return next_batch

    for cls, inner in saved:
        setattr(cls, "next_batch", wrap(inner))
    try:
        yield digest
    finally:
        for cls, inner in saved:
            setattr(cls, "next_batch", inner)


def simulate(trace: Trace, name: str, cfg: EngineConfig) -> RunResult:
    return Simulator(trace, [make_scheduler(name, trace, cfg)], cfg).run()


def crash_and_resume() -> RunResult:
    trace = small_trace()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = engine(
            faults=dataclasses.replace(faults(), coordinator_crash_at=150),
            checkpoint=CheckpointConfig(directory=tmp, every_events=20),
        )
        with pytest.raises(CoordinatorCrash):
            simulate(trace, "jaws2", cfg)
        return Simulator.restore(tmp).run()


def sharded() -> RunResult:
    out = run_sharded(
        small_trace(), "liferaft2", 4, shards=ShardConfig(n_shards=2),
        engine=engine(sanitize=False),
    )
    return out.result


def sharded_faults() -> RunResult:
    """Two shards over four nodes with replicas, transient disk faults
    and a node crash, so work fails over across the shard boundary."""
    out = run_sharded(
        small_trace(), "jaws2", 4, shards=ShardConfig(n_shards=2),
        engine=engine(sanitize=False),
        faults=FaultConfig(
            seed=3,
            transient_fault_rate=0.05,
            replication=2,
            node_crashes=((1, 70.0, 110.0),),
        ),
    )
    return out.result


def sharded_failover() -> RunResult:
    """Three shards; shard 2 crash-stops with batches in flight, and its
    domain fails over to shard 0 under a bumped lease epoch (aborted
    work is re-routed, held messages take the stale-epoch retry)."""
    out = run_sharded(
        small_trace(), "jaws2", 6, shards=ShardConfig(n_shards=3, crashes=((2, 75.0),)),
        engine=engine(sanitize=False),
        faults=FaultConfig(replication=2),
    )
    return out.result


def overloaded() -> RunResult:
    burst = inject_flash_crowd(
        small_trace(), FlashCrowdParams(factor=20.0, start=40.0, duration=30.0, seed=5)
    )
    protection = OverloadConfig(
        enabled=True,
        max_queue_depth=16,
        client_rate=1.0,
        client_burst=3.0,
        shed_policy="deadline",
        shed_enter=0.7,
        shed_exit=0.45,
        shed_target=0.4,
    )
    return simulate(burst, "liferaft2", engine(overload=protection))


def _matrix() -> dict[str, Callable[[], RunResult]]:
    cells: dict[str, Callable[[], RunResult]] = {}
    for name in SCHEDULER_NAMES:
        cells[f"{name}/clean"] = lambda n=name: simulate(small_trace(), n, engine())
        cells[f"{name}/faults"] = lambda n=name: simulate(
            small_trace(), n, engine(faults=faults())
        )
    return cells


CELLS: dict[str, Callable[[], RunResult]] = {
    **_matrix(),
    "jaws2/crash-resume": crash_and_resume,
    "liferaft2/shards2": sharded,
    "jaws2/shards2-faults": sharded_faults,
    "jaws2/shards3-failover": sharded_failover,
    "liferaft2/overload": overloaded,
    "liferaft1/faults-long": lambda: simulate(
        small_trace(seed=4, n_jobs=30), "liferaft1", engine(faults=faults(seed=5))
    ),
}


def run_cell(name: str) -> dict[str, str]:
    """The three digests of one cell."""
    with decision_digest() as digest:
        result = CELLS[name]()
    times = ",".join(float(t).hex() for t in result.response_times)
    canonical = json.dumps(normalize_result(result), sort_keys=True, separators=(",", ":"))
    return {
        "decisions": digest.hexdigest(),
        "response_times": hashlib.sha256(times.encode()).hexdigest(),
        "result": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def write_fixture(path: Path = FIXTURE) -> None:
    """Record every cell from the current engine into ``path``."""
    doc = {name: run_cell(name) for name in CELLS}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_fixture_covers_every_cell():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert run_cell(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_engine_golden --write")
    write_fixture()
