#!/usr/bin/env python
"""Crash-consistent checkpointing and deterministic recovery (§8).

Runs one workload three ways and proves they agree bit-for-bit:

1. an uninterrupted baseline run;
2. a checkpointed run killed mid-flight by an injected
   ``coordinator_crash`` fault;
3. the recovery: ``Simulator.restore`` loads the latest snapshot,
   replay-verifies the write-ahead log against the deterministic
   re-run, re-audits queue/gating consistency, and continues.

Run:  python examples/crash_recovery.py
"""

import tempfile
from pathlib import Path

from repro import (
    CheckpointConfig,
    CoordinatorCrash,
    DatasetSpec,
    EngineConfig,
    FaultConfig,
    Simulator,
    WorkloadParams,
    generate_trace,
)
from repro.engine.runner import make_scheduler


def build_engine(ckpt_dir: Path | None = None, crash_at: int | None = None) -> EngineConfig:
    faults = FaultConfig(
        seed=11,
        transient_fault_rate=0.05,
        slow_read_rate=0.05,
        coordinator_crash_at=crash_at,
    )
    checkpoint = (
        CheckpointConfig(directory=str(ckpt_dir), every_events=50)
        if ckpt_dir is not None
        else CheckpointConfig()
    )
    return EngineConfig(faults=faults, checkpoint=checkpoint, sanitize=True)


def run_once(trace, engine: EngineConfig) -> Simulator:
    sim = Simulator(trace, [make_scheduler("jaws2", trace, engine)], engine)
    sim.run()
    return sim


def main() -> None:
    spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
    trace = generate_trace(spec, WorkloadParams(n_jobs=20, span=150.0, seed=7))

    baseline_sim = run_once(trace, build_engine())
    baseline = baseline_sim._result()
    total = baseline_sim.event_index
    crash_at = total // 2
    print(f"baseline: {total} events, {baseline.n_queries} queries, "
          f"mean rt {baseline.mean_response_time:.4f}s")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        engine = build_engine(ckpt, crash_at=crash_at)
        sim = Simulator(trace, [make_scheduler("jaws2", trace, engine)], engine)
        try:
            sim.run()
        except CoordinatorCrash as exc:
            print(f"crashed:  {exc}")
        artifacts = sorted(p.name for p in ckpt.iterdir())
        print(f"on disk:  {', '.join(artifacts)}")

        resumed = Simulator.restore(ckpt)
        print(f"restored: snapshot at event {resumed.event_index}, "
              f"replaying the WAL forward")
        recovered = resumed.run()

    def comparable(result):
        # Lifecycle metadata, not simulation output: the resumed run
        # records that its crash fired; the baseline never armed one.
        out = result.to_dict()
        out["faults"] = {k: v for k, v in out["faults"].items() if k != "crash_effective"}
        return out

    identical = comparable(recovered) == comparable(baseline)
    print(f"recovered: {recovered.n_queries} queries, "
          f"mean rt {recovered.mean_response_time:.4f}s")
    print(f"bit-identical to uninterrupted baseline: {identical}")
    assert identical


if __name__ == "__main__":
    main()
