"""Command-line interface.

Installed as ``repro`` (console script) or run via ``python -m
repro.cli``::

    repro trace generate --out trace.npz --jobs 120 --speedup 8
    repro trace info trace.npz
    repro run --trace trace.npz --scheduler jaws2 --cache urc
    repro run --trace trace.npz --nodes 4 --disk-fault-rate 0.05 \
        --replication 2 --crash 1:100:600
    repro run --trace trace.npz --checkpoint-dir ckpt --crash-at-event 500
    repro run --trace trace.npz --overload --max-queue-depth 200 --client-rate 2
    repro resume --dir ckpt
    repro compare --trace trace.npz --jobs 4
    repro overload --trace trace.npz --flash-crowd 10
    repro experiment fig10 --scale small --jobs 4
    repro lint src tests
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.config import (
    SHED_POLICIES,
    CheckpointConfig,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    ShardConfig,
)
from repro.engine.results import RunResult
from repro.engine.runner import SCHEDULER_NAMES, run_trace
from repro.errors import (
    ConfigurationError,
    CoordinatorCrash,
    JournalError,
    RecoveryError,
)
from repro.experiments import (
    ablations,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    jobid,
    shardscale,
    table1,
)
from repro.experiments.common import (
    ExperimentScale,
    standard_engine,
    standard_params,
    standard_spec,
)
from repro.experiments.report import render_table
from repro.parallel import (
    RunSpec,
    SupervisorConfig,
    run_many,
    run_many_outcomes,
)
from repro.workload.generator import generate_trace
from repro.workload.stats import workload_summary
from repro.workload.trace import Trace

EXPERIMENTS = {
    "fig08": (fig08.run, fig08.render),
    "fig09": (fig09.run, fig09.render),
    "fig10": (fig10.run, fig10.render),
    "fig11": (fig11.run, fig11.render),
    "fig12": (fig12.run, fig12.render),
    "table1": (table1.run, table1.render),
    "jobid": (jobid.run, jobid.render),
    "urc-ablation": (ablations.urc_vs_saturation, ablations.render_urc),
    "shardscale": (shardscale.run, shardscale.render),
}


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("fault injection (degraded-mode runs)")
    grp.add_argument(
        "--disk-fault-rate", type=float, default=0.0,
        help="probability a disk read fails transiently (retried with backoff)",
    )
    grp.add_argument(
        "--loss-rate", type=float, default=0.0,
        help="probability an atom copy is permanently lost on first access",
    )
    grp.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in engine seconds (overdue queries cancel)",
    )
    grp.add_argument("--fault-seed", type=int, default=0, help="fault injector RNG seed")
    grp.add_argument(
        "--replication", type=int, default=1,
        help="owners per atom (failover targets beyond the primary)",
    )
    grp.add_argument(
        "--crash", action="append", default=[], metavar="NODE:DOWN:UP",
        help="crash node NODE at time DOWN, recover at UP (repeatable)",
    )
    grp.add_argument(
        "--crash-at-event", type=int, default=None, metavar="N",
        help="kill the coordinator before dispatching event N "
        "(recover with 'repro resume' when checkpointing is on)",
    )


def _add_overload_args(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("overload protection")
    grp.add_argument(
        "--max-queue-depth", type=int, default=400, metavar="N",
        help="bounded per-node queue: max pending sub-query slots per node",
    )
    grp.add_argument(
        "--client-rate", type=float, default=4.0, metavar="R",
        help="per-client token-bucket refill, job admissions per engine second",
    )
    grp.add_argument(
        "--client-burst", type=float, default=8.0, metavar="B",
        help="per-client token-bucket burst capacity",
    )
    grp.add_argument(
        "--shed-policy", choices=list(SHED_POLICIES), default="deadline",
        help="victim selection when pending work must be dropped",
    )


def _overload_config(args: argparse.Namespace) -> OverloadConfig:
    return OverloadConfig(
        enabled=True,
        max_queue_depth=args.max_queue_depth,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        shed_policy=args.shed_policy,
    )


def _fault_config(args: argparse.Namespace) -> Optional[FaultConfig]:
    crashes = []
    for spec in args.crash:
        parts = spec.split(":")
        try:
            if len(parts) != 3:
                raise ValueError
            crashes.append((int(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ConfigurationError(f"--crash expects NODE:DOWN:UP, got {spec!r}") from None
    faults = FaultConfig(
        seed=args.fault_seed,
        transient_fault_rate=args.disk_fault_rate,
        permanent_loss_rate=args.loss_rate,
        query_deadline=args.deadline,
        replication=args.replication,
        node_crashes=tuple(crashes),
        coordinator_crash_at=args.crash_at_event,
    )
    if args.replication > max(args.nodes, 1):
        raise ConfigurationError(
            f"--replication {args.replication} needs at least that many nodes "
            f"(got --nodes {args.nodes})"
        )
    return faults if faults.enabled or args.replication > 1 else None


def _shard_config(args: argparse.Namespace) -> Optional[ShardConfig]:
    """Build the sharded-execution plan from ``--shards`` and friends;
    ``None`` when the run is a plain single-coordinator one.  Its
    barriers come from the checkpoint flags (:func:`_run_engine`)."""
    crash_specs = args.shard_crash_at or []
    if args.shards <= 1 and not crash_specs and args.halt_after_barrier is None:
        return None
    crashes = []
    for spec in crash_specs:
        head, sep, tail = spec.partition(":")
        try:
            if not sep:
                raise ValueError
            crashes.append((int(head), float(tail)))
        except ValueError:
            raise ConfigurationError(
                f"--shard-crash-at expects SHARD:TIME, got {spec!r}"
            ) from None
    return ShardConfig(
        n_shards=args.shards,
        crashes=tuple(crashes),
        halt_after_barrier=args.halt_after_barrier,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="JAWS (SC 2010) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_p = sub.add_parser("trace", help="generate or inspect workload traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    gen = trace_sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument("--out", required=True, help="output .npz path")
    gen.add_argument("--jobs", type=int, default=None, help="override job count")
    gen.add_argument("--span", type=float, default=None, help="override submit span (s)")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--speedup", type=float, default=1.0, help="saturation rescale")
    gen.add_argument(
        "--scale", choices=["small", "full"], default="small", help="base parameter set"
    )

    info = trace_sub.add_parser("info", help="summarize a trace file")
    info.add_argument("path")

    run_p = sub.add_parser("run", help="replay a trace under one scheduler")
    run_p.add_argument("--trace", required=True)
    run_p.add_argument(
        "--scheduler", action="append", choices=SCHEDULER_NAMES, default=None,
        help="scheduler to run (repeatable; multiple fan out across --jobs workers)",
    )
    run_p.add_argument("--cache", choices=["lru", "lruk", "slru", "urc"], default=None)
    run_p.add_argument("--speedup", type=float, default=1.0)
    run_p.add_argument("--nodes", type=int, default=1, help="cluster size")
    run_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan several --scheduler runs out over "
        "(bit-identical to serial); a single run, sharded or not, runs in "
        "this process",
    )
    run_p.add_argument(
        "--salvage", action="store_true",
        help="keep going past failing schedulers; report typed failure "
        "records instead of aborting the whole fan-out",
    )
    run_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="T",
        help="watchdog deadline per run, real seconds: hung workers are "
        "killed and the run retried (default: no deadline)",
    )
    run_p.add_argument(
        "--overload", action="store_true",
        help="enable overload protection (admission control, shedding, brownout)",
    )
    _add_overload_args(run_p)
    _add_fault_args(run_p)
    ckpt = run_p.add_argument_group("crash-consistent checkpointing")
    ckpt.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist snapshots + write-ahead log under DIR (enables recovery)",
    )
    ckpt.add_argument(
        "--checkpoint-every-events", type=int, default=None, metavar="N",
        help="snapshot every N dispatched events (default 500 if only a dir is given)",
    )
    ckpt.add_argument(
        "--checkpoint-every-seconds", type=float, default=None, metavar="T",
        help="snapshot every T virtual seconds",
    )
    shard = run_p.add_argument_group("sharded multi-coordinator execution")
    shard.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split the coordinator into N shards with lease-based "
        "ownership (requires --nodes >= N; 1 = single coordinator)",
    )
    shard.add_argument(
        "--shard-crash-at", action="append", default=None, metavar="SHARD:TIME",
        help="crash shard SHARD at virtual time TIME; surviving shards "
        "adopt its ranges after the failover delay (repeatable, at "
        "most one crash per shard, at least one survivor)",
    )
    shard.add_argument(
        "--halt-after-barrier", type=int, default=None, metavar="K",
        help="stop the sharded run right after its K-th cluster "
        "checkpoint barrier (with --checkpoint-dir); resume with "
        "`repro resume --dir DIR`",
    )

    res_p = sub.add_parser("resume", help="resume a crashed run from its checkpoints")
    res_p.add_argument(
        "--dir", required=True, metavar="DIR",
        help="checkpoint directory of the crashed run (--checkpoint-dir)",
    )

    cmp_p = sub.add_parser("compare", help="replay a trace under several schedulers")
    cmp_p.add_argument("--trace", required=True)
    cmp_p.add_argument(
        "--schedulers", nargs="+", choices=SCHEDULER_NAMES, default=list(SCHEDULER_NAMES)
    )
    cmp_p.add_argument("--speedup", type=float, default=1.0)
    cmp_p.add_argument("--nodes", type=int, default=1, help="cluster size")
    cmp_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallel evaluation (bit-identical to serial)",
    )
    cmp_p.add_argument(
        "--salvage", action="store_true",
        help="keep going past failing schedulers; failed rows are reported "
        "as typed failure records instead of aborting the comparison",
    )
    cmp_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="T",
        help="watchdog deadline per run, real seconds (default: no deadline)",
    )
    _add_fault_args(cmp_p)

    ov_p = sub.add_parser(
        "overload",
        help="flash-crowd demonstration: baseline vs unprotected vs protected",
    )
    ov_p.add_argument("--trace", required=True)
    ov_p.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="jaws2")
    ov_p.add_argument("--speedup", type=float, default=1.0)
    ov_p.add_argument(
        "--flash-crowd", type=float, default=10.0, metavar="F",
        help="burst load as a multiple of the base arrival rate (default 10x)",
    )
    ov_p.add_argument(
        "--burst-start", type=float, default=None, metavar="T",
        help="burst window start, engine seconds (default: 25%% into the trace)",
    )
    ov_p.add_argument(
        "--burst-duration", type=float, default=None, metavar="D",
        help="burst window length, engine seconds (default: 10%% of the trace span)",
    )
    ov_p.add_argument("--burst-seed", type=int, default=7, help="burst RNG seed")
    _add_overload_args(ov_p)

    exp_p = sub.add_parser("experiment", help="regenerate a paper figure/table")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_p.add_argument("--scale", choices=["small", "full"], default="small")
    exp_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallel evaluation (bit-identical to serial)",
    )
    exp_p.add_argument(
        "--csv", default=None, help="also export the series to a CSV file (fig10/fig11/fig12/table1)"
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the jawslint determinism analysis (per-file D001-D007 + "
        "whole-program D100/D200/D300) over source trees",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    lint_p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the --format report to PATH (stdout keeps the text render)",
    )
    lint_p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppression baseline ledger (default: ./jawslint-baseline.json when present)",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline ledger, report every finding",
    )
    lint_p.add_argument(
        "--no-interproc", action="store_true",
        help="per-file rules only (skip the whole-program passes)",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="adversarial scenario fuzzing: seeded campaigns, chaos oracles, "
        "shrunk JSON reproducers",
    )
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command")
    fuzz_p.add_argument("--seed", type=int, default=0, help="campaign master seed")
    fuzz_p.add_argument(
        "--runs", type=int, default=50, metavar="N",
        help="number of scenarios to explore (default 50)",
    )
    fuzz_p.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes for scenario fan-out (bit-identical to serial)",
    )
    fuzz_p.add_argument(
        "--quick", action="store_true",
        help="small scenarios for CI smoke runs (seconds per scenario)",
    )
    fuzz_p.add_argument(
        "--out-dir", default="fuzz-reproducers", metavar="DIR",
        help="directory for shrunk reproducer JSONs (default fuzz-reproducers/)",
    )
    fuzz_p.add_argument(
        "--shrink-budget", type=int, default=200, metavar="N",
        help="max candidate evaluations per shrink (default 200)",
    )
    fuzz_p.add_argument(
        "--summary-out", default=None, metavar="PATH",
        help="also write the canonical campaign summary JSON to PATH",
    )
    fuzz_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="T",
        help="watchdog deadline per scenario, real seconds: hung workers are "
        "killed, the scenario retried, then quarantined as a typed "
        "harness failure (default: no deadline)",
    )
    fuzz_p.add_argument(
        "--resume-journal", default=None, metavar="PATH",
        help="crash-safe campaign journal: outcomes are recorded as they "
        "settle; re-running with the same seed/runs/journal resumes "
        "exactly, with a byte-identical summary",
    )
    repro_p = fuzz_sub.add_parser(
        "repro", help="replay a shrunk reproducer file bit-identically"
    )
    repro_p.add_argument("file", help="reproducer JSON written by a campaign")

    return parser


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    scale = ExperimentScale(args.scale)
    params = standard_params(scale, seed=args.seed)
    overrides = {}
    if args.jobs is not None:
        overrides["n_jobs"] = args.jobs
    if args.span is not None:
        overrides["span"] = args.span
    if overrides:
        params = dataclasses.replace(params, **overrides)
    trace = generate_trace(standard_spec(), params)
    trace = trace.rescale(args.speedup)
    trace.save(args.out)
    summary = workload_summary(trace)
    print(f"wrote {args.out}")
    for key, value in summary.items():
        print(f"  {key}: {value:.3f}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    trace = Trace.load(args.path)
    print(f"{args.path}:")
    spec = trace.spec
    print(
        f"  dataset: {spec.n_timesteps} steps x {spec.atoms_per_timestep} atoms "
        f"({spec.grid_side}^3 voxels, {spec.atom_side}^3 per atom)"
    )
    for key, value in workload_summary(trace).items():
        print(f"  {key}: {value:.3f}")
    print(f"  span: {trace.span:.1f}s")
    return 0


def _run_engine(args: argparse.Namespace) -> EngineConfig:
    engine = standard_engine()
    if getattr(args, "cache", None):
        engine = dataclasses.replace(
            engine, cache=dataclasses.replace(engine.cache, policy=args.cache)
        )
    directory = args.checkpoint_dir
    every_events = args.checkpoint_every_events
    every_seconds = args.checkpoint_every_seconds
    if not directory:
        if every_events is not None or every_seconds is not None:
            raise ConfigurationError(
                "--checkpoint-every-events and --checkpoint-every-seconds need --checkpoint-dir"
            )
        return engine
    if every_events is None and every_seconds is None:
        every_events = 500  # a directory alone implies a sane default policy
    checkpoint = CheckpointConfig(
        directory=directory, every_events=every_events, every_seconds=every_seconds
    )
    return dataclasses.replace(engine, checkpoint=checkpoint)


def _print_result(result: RunResult, degraded: bool, protected: bool = False) -> None:
    for key, value in result.summary().items():
        print(f"  {key}: {value if isinstance(value, str) else round(value, 4)}")
    if degraded:
        print("  -- degraded-mode outcomes --")
        for key, value in result.fault_summary().items():
            print(f"  {key}: {round(value, 4)}")
    if protected:
        print("  -- overload protection --")
        for key, value in result.overload_summary().items():
            print(f"  {key}: {round(value, 4)}")
        for mode, seconds in result.overload.get("time_in_mode", {}).items():
            print(f"  time_{mode.lower()}: {round(seconds, 1)}s")
        for cls, pct in result.class_percentiles().items():
            print(
                f"  {cls}: n={int(pct['n'])} p50={pct['p50']:.3f}s p99={pct['p99']:.3f}s"
            )


def _print_run(
    spec: RunSpec, result: RunResult, degraded: bool, protected: bool = False
) -> None:
    """A run's summary, led by the control plane's counters when the
    run was sharded."""
    if spec.shards is not None and spec.shards.sharded:
        print(
            f"  shards: {spec.shards.n_shards} "
            f"(crashes {result.faults['shard_crashes']}, "
            f"epoch bumps {result.faults['shard_epoch_bumps']}, "
            f"stale retries {result.faults['shard_stale_retries']})"
        )
    _print_result(result, degraded, protected)


def _supervisor_from_args(args: argparse.Namespace) -> Optional[SupervisorConfig]:
    """Build a supervisor config from ``--task-timeout`` (None when the
    defaults suffice — the pool then uses its own)."""
    timeout = getattr(args, "task_timeout", None)
    if timeout is None:
        return None
    return SupervisorConfig(task_timeout=timeout)


def _cmd_run(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    trace = trace.rescale(args.speedup)
    faults = _fault_config(args)
    engine = _run_engine(args)
    if args.overload:
        engine = dataclasses.replace(engine, overload=_overload_config(args))
    shards = _shard_config(args)
    if shards is not None and args.shards > args.nodes:
        raise ConfigurationError(
            f"--shards {args.shards} needs at least that many nodes "
            f"(got --nodes {args.nodes})"
        )
    specs = [
        RunSpec(trace, name, engine, faults=faults, label=name, n_nodes=args.nodes, shards=shards)
        for name in args.scheduler or ["jaws2"]
    ]
    if len(specs) > 1 and engine.checkpoint.enabled:
        raise ConfigurationError(
            "--checkpoint-dir holds one run's recovery point; give each "
            "--scheduler its own run and checkpoint directory"
        )
    supervisor = _supervisor_from_args(args)
    degraded = faults is not None
    try:
        if len(specs) == 1:
            # One run has nothing to fan out: run_many runs it inline
            # and still refuses a negative --jobs.
            (result,) = run_many(specs, jobs=min(args.jobs, 1))
            _print_run(specs[0], result, degraded, args.overload)
            return 0
        if args.salvage:
            failed = 0
            outcomes = run_many_outcomes(specs, jobs=args.jobs, supervisor=supervisor)
            for spec, outcome in zip(specs, outcomes):
                print(f"[{spec.label}]")
                if outcome.ok:
                    _print_run(spec, outcome.value, degraded, args.overload)
                else:
                    assert outcome.failure is not None
                    failed += 1
                    print(f"  FAILED: {outcome.failure.describe()}", file=sys.stderr)
            return 1 if failed else 0
        for spec, result in zip(
            specs, run_many(specs, jobs=args.jobs, supervisor=supervisor)
        ):
            print(f"[{spec.label}]")
            _print_run(spec, result, degraded, args.overload)
        return 0
    except CoordinatorCrash as exc:
        print(f"coordinator crashed: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print(
                f"recover with: repro resume --dir {args.checkpoint_dir}",
                file=sys.stderr,
            )
        else:
            print(
                "no --checkpoint-dir was set; this run cannot be recovered",
                file=sys.stderr,
            )
        return 3


def _cmd_overload(args: argparse.Namespace) -> int:
    from repro.workload.generator import FlashCrowdParams, inject_flash_crowd

    base = Trace.load(args.trace)
    base = base.rescale(args.speedup)
    span = max(base.span, 1.0)
    start = args.burst_start if args.burst_start is not None else 0.25 * span
    duration = args.burst_duration if args.burst_duration is not None else 0.10 * span
    try:
        burst = inject_flash_crowd(
            base,
            FlashCrowdParams(
                factor=args.flash_crowd,
                start=start,
                duration=duration,
                seed=args.burst_seed,
            ),
        )
    except ValueError as exc:
        raise ConfigurationError(f"invalid flash-crowd parameters: {exc}") from None
    engine = standard_engine()
    protected_engine = dataclasses.replace(engine, overload=_overload_config(args))
    print(
        f"flash crowd: {args.flash_crowd:g}x for {duration:.0f}s starting at "
        f"{start:.0f}s ({burst.n_jobs - base.n_jobs} burst jobs on "
        f"{base.n_jobs} base jobs)"
    )
    rows = []
    for label, trace, eng in (
        ("baseline (no burst)", base, engine),
        ("burst, unprotected", burst, engine),
        ("burst, protected", burst, protected_engine),
    ):
        result = run_trace(trace, args.scheduler, eng)
        pct = result.class_percentiles().get("interactive", {"p50": 0.0, "p99": 0.0})
        rows.append(
            (
                label,
                result.n_queries,
                result.rejected_jobs,
                result.shed_queries,
                pct["p50"],
                pct["p99"],
            )
        )
        if eng.overload.enabled:
            modes = result.overload.get("time_in_mode", {})
            spent = ", ".join(
                f"{m.lower()} {s:.0f}s" for m, s in modes.items() if s > 0
            )
            print(f"  [{label}] modes: {spent or 'normal only'}")
    print(
        render_table(
            ["run", "completed", "rejected", "shed", "int_p50_s", "int_p99_s"], rows
        )
    )
    base_p99 = rows[0][5]
    if base_p99 > 0:
        print(
            f"interactive p99 vs baseline: unprotected {rows[1][5] / base_p99:.1f}x, "
            f"protected {rows[2][5] / base_p99:.1f}x"
        )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.engine.simulator import Simulator
    from repro.shard.recovery import latest_manifest, resume_cluster

    if latest_manifest(args.dir) is not None:
        # Sharded run: the directory holds a cluster manifest plus one
        # snapshot/WAL set per shard — restore the consistent cut.
        try:
            control = resume_cluster(args.dir)
        except RecoveryError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 2
        print(
            f"resuming sharded run: {control.topology.n_shards} shards at "
            f"cluster barrier {control._barrier_count} "
            f"(epochs {list(control.ownership.epoch)})"
        )
        try:
            sharded = control.run()
        except RecoveryError as exc:
            print(f"recovery failed during WAL replay: {exc}", file=sys.stderr)
            return 2
        _print_result(
            sharded.result,
            degraded=any(d.injector is not None for d in control.domains),
        )
        return 0

    try:
        sim = Simulator.restore(args.dir)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"resuming from event {sim.event_index} "
        f"(clock {sim.clock:.6g}s, {sim._completed} queries completed)"
    )
    try:
        result = sim.run()
    except RecoveryError as exc:
        print(f"recovery failed during WAL replay: {exc}", file=sys.stderr)
        return 2
    _print_result(result, degraded=sim.injector is not None)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    trace = trace.rescale(args.speedup)
    engine = standard_engine()
    faults = _fault_config(args)
    degraded = faults is not None
    specs = [
        RunSpec(trace, name, engine, faults=faults, label=name, n_nodes=args.nodes)
        for name in args.schedulers
    ]
    supervisor = _supervisor_from_args(args)
    failed = 0
    done: list[tuple[str, RunResult]] = []
    if args.salvage:
        for spec, outcome in zip(
            specs, run_many_outcomes(specs, jobs=args.jobs, supervisor=supervisor)
        ):
            if outcome.ok:
                done.append((spec.label, outcome.value))
            else:
                assert outcome.failure is not None
                failed += 1
                print(f"FAILED: {outcome.failure.describe()}", file=sys.stderr)
    else:
        done = list(
            zip(args.schedulers, run_many(specs, jobs=args.jobs, supervisor=supervisor))
        )
    rows = []
    for name, result in done:
        row = (
            name,
            result.throughput_qps,
            result.mean_response_time,
            result.cache_hit_ratio,
            result.disk["reads"],
        )
        if degraded:
            row += (result.availability, result.retries, result.failovers, result.timeouts)
        rows.append(row)
    headers = ["scheduler", "qps", "mean_rt_s", "cache_hit", "reads"]
    if degraded:
        headers += ["avail", "retries", "failovers", "timeouts"]
    print(render_table(headers, rows))
    return 1 if failed else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    run_fn, render_fn = EXPERIMENTS[args.name]
    parameters = inspect.signature(run_fn).parameters
    kwargs = {}
    if args.jobs != 1 and "jobs" in parameters:
        kwargs["jobs"] = args.jobs
    data = run_fn(ExperimentScale(args.scale), **kwargs)
    print(render_fn(data))
    if args.csv:
        from repro.experiments import export

        exporters = {
            "fig10": export.export_fig10,
            "fig11": export.export_fig11,
            "fig12": export.export_fig12,
            "table1": export.export_table1,
        }
        exporter = exporters.get(args.name)
        if exporter is None:
            print(f"(no CSV exporter for {args.name}; skipped)")
        else:
            print(f"wrote {exporter(data, args.csv)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint

    argv = list(args.paths)
    if args.list_rules:
        argv.insert(0, "--list-rules")
    if args.format != "text":
        argv = ["--format", args.format, *argv]
    if args.out is not None:
        argv = ["--out", args.out, *argv]
    if args.baseline is not None:
        argv = ["--baseline", args.baseline, *argv]
    if args.no_baseline:
        argv = ["--no-baseline", *argv]
    if args.no_interproc:
        argv = ["--no-interproc", *argv]
    return lint.main(argv)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import replay_file, run_campaign

    if getattr(args, "fuzz_command", None) == "repro":
        outcome = replay_file(Path(args.file))
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True))
        if outcome.failure is not None:
            failure = outcome.failure
            print(
                f"reproduced: {failure.kind}:{failure.name} "
                f"(stage {failure.stage})",
                file=sys.stderr,
            )
            return 2
        print("scenario passed: the recorded failure no longer reproduces", file=sys.stderr)
        return 0

    try:
        result = run_campaign(
            seed=args.seed,
            runs=args.runs,
            jobs=args.jobs,
            quick=args.quick,
            out_dir=Path(args.out_dir),
            shrink_budget=args.shrink_budget,
            journal_path=Path(args.resume_journal) if args.resume_journal else None,
            supervisor=_supervisor_from_args(args),
        )
    except JournalError as exc:
        print(f"journal error: {exc}", file=sys.stderr)
        return 2
    summary = result.summary_json()
    print(summary)
    if result.resumed_scenarios:
        print(
            f"resumed {result.resumed_scenarios}/{args.runs} scenarios "
            f"from {args.resume_journal}",
            file=sys.stderr,
        )
    if args.summary_out:
        Path(args.summary_out).write_text(summary + "\n")
        print(f"wrote {args.summary_out}", file=sys.stderr)
    for path in result.reproducer_paths:
        print(f"reproducer: {path}", file=sys.stderr)
    if result.failures:
        print(
            f"{len(result.failures)}/{args.runs} scenarios failed "
            f"({len(result.reproducers)} distinct signatures shrunk)",
            file=sys.stderr,
        )
        return 1
    print(f"{args.runs}/{args.runs} scenarios clean", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        # Typed configuration mismatches (e.g. --shards with
        # --overload) are user errors, not crashes.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "trace":
        if args.trace_command == "generate":
            return _cmd_trace_generate(args)
        return _cmd_trace_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "overload":
        return _cmd_overload(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
