"""One measured run of one workload, in its own process.

``run.py`` starts this script once per measurement, so every run pays
the cold start a ``repro run`` invocation pays (empty process-wide
memos, fresh allocator).  It prints one JSON object on its last stdout
line: set-up and run times, peak RSS, the result digest and the
simulated results.  ``--traced`` installs the span wrappers of
:data:`LAYERS` and adds per-layer metrics, dumping the spans to
``--spans``.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python benchmarks/perf/child.py --workload jaws2-full --seed 7 \
        --workdir benchmarks/perf/results/work
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core.gating import PrecedenceGraph
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.noshare import NoShareScheduler
from repro.core.queues import WorkloadQueues
from repro.engine.executor import BatchExecutor
from repro.engine.results import RunResult
from repro.engine.simulator import Simulator
from repro.recovery.checkpoint import CheckpointManager
from repro.workload import generator

import repro.core.contention as contention
import repro.core.jaws as jaws
import repro.core.merge as merge
import repro.engine.simulator as simulator
import repro.recovery.checkpoint as checkpoint
import repro.recovery.wal as wal

from tracing import Target, Tracer, now
from workloads import WORKLOADS, prepare, result_digest

#: Span names (``<layer>.<op>``, layers named after ``repro`` modules)
#: and the public callables they wrap.  Functions imported by name are
#: wrapped where the caller looks them up.
LAYERS: tuple[Target, ...] = (
    Target(LifeRaftScheduler, "next_batch", "core.next_batch"),
    Target(JAWSScheduler, "next_batch", "core.next_batch"),
    Target(NoShareScheduler, "next_batch", "core.next_batch"),
    Target(WorkloadQueues, "active_view", "core.active_view"),
    Target(contention, "workload_throughput", "core.workload_throughput"),
    Target(contention, "aged_metric", "core.aged_metric"),
    Target(JAWSScheduler, "on_job_submitted", "core.on_job_submitted"),
    Target(merge, "align_jobs", "core.align_jobs"),
    Target(PrecedenceGraph, "admit_edge", "core.admit_edge"),
    Target(jaws, "select_two_level", "core.select_two_level"),
    Target(JAWSScheduler, "on_query_arrival", "core.on_query_arrival"),
    Target(JAWSScheduler, "on_query_complete", "core.on_query_complete"),
    Target(BatchExecutor, "execute", "engine.execute"),
    Target(Simulator, "run", "engine.run"),
    Target(simulator, "preprocess_query", "workload.preprocess_query"),
    Target(generator, "generate_trace", "workload.generate_trace"),
    Target(CheckpointManager, "log_event", "recovery.log_event"),
    Target(CheckpointManager, "maybe_snapshot", "recovery.maybe_snapshot"),
    Target(Simulator, "restore", "recovery.restore"),
)

#: Byte counters: the snapshot blobs and WAL lines the recovery layer
#: produces, measured on the values returned to its writers.
BYTE_COUNTERS: tuple[Target, ...] = (
    Target(checkpoint, "encode_snapshot", "recovery.snapshot_bytes"),
    Target(wal, "format_record", "recovery.wal_bytes"),
)


def span_names() -> list[str]:
    """Every span name, in :data:`LAYERS` order, without repeats."""
    return list(dict.fromkeys(t.name for t in LAYERS))


def peak_rss_mb() -> float:
    """This process's peak resident set, MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_metrics(result: RunResult) -> dict[str, float]:
    """The simulated (virtual-time) results users read off a run."""
    rt = result.response_times
    return {
        "sim_throughput_qps": result.throughput_qps,
        "sim_response_p50_s": float(np.percentile(rt, 50)),
        "sim_response_p98_s": float(np.percentile(rt, 98)),
        "sim_queries": float(result.n_queries),
    }


def layer_counters(result: RunResult, events: int) -> dict[str, float]:
    """Per-layer counts the program keeps itself, read off the result."""
    cache, disk, execs = result.cache, result.disk, result.exec
    return {
        "core.gating_overhead_s": result.gating_overhead_ns / 1e9,
        "core.forced_releases": float(result.forced_releases),
        "engine.events": float(events),
        "engine.atoms_executed": float(execs["atoms_executed"]),
        "engine.neighbor_reads": float(execs["neighbor_reads"]),
        "engine.retries": float(result.retries),
        "engine.failovers": float(result.failovers),
        "storage.cache.accesses": float(cache["hits"] + cache["misses"]),
        "storage.cache.hit_ratio": result.cache_hit_ratio,
        "storage.cache.evictions": float(cache["evictions"]),
        "storage.cache.overhead_s": result.cache_overhead_ns / 1e9,
        "storage.disk.reads": float(disk["reads"]),
        "storage.disk.sequential_reads": float(disk["sequential_reads"]),
    }


def measure(
    name: str, seed: int, workdir: Path, crash_at: Optional[int] = None,
    traced: bool = False, n_jobs: Optional[int] = None,
) -> tuple[dict[str, Any], Optional[Tracer]]:
    """Set up and run ``name`` once: ``(report, tracer if traced)``.

    A traced run wraps :data:`LAYERS` and :data:`BYTE_COUNTERS` for its
    whole length and restores them before returning.
    """
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install_spans(LAYERS)
        for target in BYTE_COUNTERS:
            tracer.install_counter(target, len)
    try:
        t0 = now()
        prepared = prepare(name, seed, workdir, n_jobs=n_jobs, crash_at=crash_at)
        t1 = now()
        result, events = prepared.run()
        t2 = now()
    finally:
        if tracer is not None:
            tracer.restore()
    out: dict[str, Any] = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb(),
        "events": events,
        "digest": result_digest(result),
        **sim_metrics(result),
    }
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = {
            name: dict(zip(("calls", "self_s"), summary.get(name, (0, 0.0))))
            for name in span_names()
        }
        out["counters"] = {**layer_counters(result, events), **tracer.counters}
    return out, tracer


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true",
                        help="install the span wrappers and report per-layer metrics")
    parser.add_argument("--crash-at", type=int,
                        help="jaws2-recover: crash the coordinator at this event "
                             "(without it, run uninterrupted)")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="parent of this run's fresh scratch directory")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        out, tracer = measure(args.workload, args.seed, workdir, args.crash_at, args.traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None and args.spans is not None:
        tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
