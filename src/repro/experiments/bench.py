"""End-to-end performance benchmark (`repro bench`).

Times the standard SMALL-scale run under every scheduler and emits a
machine-readable record: wall-clock seconds, dispatched events per
second and peak RSS, one flat row per scheduler, seeding the repo's
performance trajectory (``BENCH_PR5.json``, ``BENCH_PR10.json``,
``BENCH_PR12.json``).  CI runs the ``--quick`` mode and fails when
wall-clock regresses more than 2x over the recorded baseline.

Each scheduler's measurement runs in its own spawned child process.
That serves two purposes:

* **per-run RSS** — ``ru_maxrss`` is a process-lifetime high-water
  mark, so sampling it in one long-lived process attributes the
  largest run's footprint to every later row; a fresh child per run
  reports the true peak of that run alone;
* **cold-start honesty** — each run pays its own import and
  allocation cost instead of inheriting warm caches from whichever
  run happened first.

Within a child the run repeats (3x standard, 1x quick) and the minimum
wall-clock is reported, damping scheduler-noise on shared machines.

Wall-clock reads below are deliberate and safe: they measure the *real*
cost of simulating, feed only this report, and never touch the virtual
clock or any scheduling decision (hence the D001 suppressions).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import resource
import time
from pathlib import Path
from typing import Any, Optional

from repro.engine.runner import SCHEDULER_NAMES, make_scheduler
from repro.engine.simulator import Simulator
from repro.experiments.common import (
    STANDARD_SPEEDUP,
    ExperimentScale,
    standard_engine,
    standard_params,
    standard_spec,
)
from repro.parallel import map_many
from repro.parallel.supervisor import _wall_now
from repro.workload.cache import cached_generate_trace
from repro.workload.trace import Trace

__all__ = ["FORMAT_VERSION", "check_regression", "run_bench", "write_report"]

#: 3 = one flat measurement row per scheduler.  Format 2 nested one row
#: per engine kind ({"exact": {...}, "fast": {...}, "speedup": r});
#: format 1 was flat like format 3.
FORMAT_VERSION = 3

#: CI gate: fail when a scheduler's wall-clock exceeds baseline by this.
REGRESSION_FACTOR = 2.0


def _bench_trace(scale: ExperimentScale, quick: bool) -> Trace:
    params = standard_params(scale)
    if quick:
        # A deterministic one-third slice of the SMALL workload: big
        # enough to exercise every scheduler phase, small enough for a
        # CI smoke job.
        params = dataclasses.replace(params, n_jobs=30, span=550.0)
    return cached_generate_trace(standard_spec(), params, speedup=STANDARD_SPEEDUP)


def _peak_rss_kb() -> int:
    # ru_maxrss is kilobytes on Linux (bytes on macOS; this repo's CI
    # and benchmarks run on Linux, where the raw value is correct).
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _build_sim(trace: Trace, name: str) -> Simulator:
    engine = standard_engine()
    return Simulator(trace, [make_scheduler(name, trace, engine)], engine)


def _measure_child(
    conn: Any, scale_value: str, quick: bool, name: str, repeats: int
) -> None:
    """Child-process body: run, time, report through the pipe."""
    try:
        trace = _bench_trace(ExperimentScale(scale_value), quick)
        best = float("inf")
        events = 0
        throughput = 0.0
        for _ in range(max(repeats, 1)):
            sim = _build_sim(trace, name)
            t0 = time.perf_counter()  # jawslint: disable=D001
            result = sim.run()
            wall = time.perf_counter() - t0  # jawslint: disable=D001
            best = min(best, wall)
            events = sim.event_index
            throughput = result.throughput_qps
        conn.send(
            {
                "wall_s": round(best, 4),
                "events": float(events),
                "events_per_sec": round(events / best, 1) if best > 0 else 0.0,
                # This child ran exactly one scheduler, so its
                # high-water mark is that run's true peak.
                "peak_rss_kb": float(_peak_rss_kb()),
                "throughput_qps": round(throughput, 4),
            }
        )
    except BaseException as exc:  # noqa: BLE001 — reporting is the parent's job
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _measure(
    scale: ExperimentScale, quick: bool, name: str, repeats: int
) -> dict[str, float]:
    """Measure one scheduler in a fresh spawned process."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_measure_child,
        args=(child_conn, scale.value, quick, name, repeats),
    )
    proc.start()
    child_conn.close()
    try:
        # recv blocks until the child reports or dies (EOF on death).
        payload = parent_conn.recv()
    except EOFError:
        payload = None
    finally:
        proc.join()
        parent_conn.close()
    if not isinstance(payload, dict) or "error" in (payload or {}):
        detail = (payload or {}).get("error", f"exit code {proc.exitcode}")
        raise RuntimeError(f"bench child ({name}) failed: {detail}")
    return payload


def _noop_task(x: int) -> int:
    """Trivial worker payload for supervisor-overhead measurement
    (top-level so it pickles by reference)."""
    return x


def _bench_supervisor(quick: bool) -> dict[str, float]:
    """Measure the supervised pool's per-task dispatch cost.

    Pushes no-op tasks through the pooled salvage path (watchdog armed
    at its default heartbeat) and through the inline reference path;
    the difference, divided by the task count, is the price of
    supervision per task — the number that tells you when fan-out is
    worth it for short runs.
    """
    n = 64 if quick else 256
    items = list(range(n))
    # Reuse the supervisor's confined watchdog clock (DESIGN.md §13)
    # rather than opening another wall-clock read site in this module.
    t0 = _wall_now()
    inline = map_many(_noop_task, items, jobs=1)
    inline_wall = _wall_now() - t0
    t0 = _wall_now()
    pooled = map_many(_noop_task, items, jobs=2, salvage=True)
    pooled_wall = _wall_now() - t0
    if inline != items or not all(o.ok and o.value == i for i, o in enumerate(pooled)):
        raise RuntimeError("supervisor overhead benchmark produced wrong results")
    return {
        "tasks": float(n),
        "inline_wall_s": round(inline_wall, 4),
        "pooled_wall_s": round(pooled_wall, 4),
        "dispatch_overhead_ms_per_task": round(
            1000.0 * max(pooled_wall - inline_wall, 0.0) / n, 4
        ),
    }


def run_bench(
    scale: ExperimentScale = ExperimentScale.SMALL, quick: bool = False
) -> dict[str, Any]:
    """Benchmark every scheduler; returns the report dict."""
    # Generate (and disk-cache) the trace once up front so no child
    # pays generation cost inside its timed region's process.
    trace = _bench_trace(scale, quick)
    repeats = 1 if quick else 3
    schedulers = {name: _measure(scale, quick, name, repeats) for name in SCHEDULER_NAMES}
    return {
        "format": FORMAT_VERSION,
        "mode": "quick" if quick else "standard",
        "scale": scale.value,
        "n_queries": trace.n_queries,
        "total_wall_s": round(sum(row["wall_s"] for row in schedulers.values()), 4),
        "schedulers": schedulers,
        # Informational (not regression-gated): what supervised fan-out
        # costs per task over the inline reference path.
        "supervisor": _bench_supervisor(quick),
    }


def write_report(report: dict[str, Any], path: Path) -> None:
    """Merge the report into ``path`` under its mode key.

    ``BENCH_*.json`` files hold one entry per mode (``standard`` and
    ``quick``) so the CI smoke run and the recorded full numbers share
    one artifact.
    """
    existing: dict[str, Any] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
    existing[report["mode"]] = report
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _wall(row: dict[str, Any]) -> Optional[float]:
    """A scheduler row's wall-clock: flat rows (formats 1 and 3) carry
    it directly; format-2 rows nest it under their ``exact`` column."""
    if "exact" in row:
        row = row["exact"]
    wall = row.get("wall_s") if isinstance(row, dict) else None
    return float(wall) if wall else None


def check_regression(
    report: dict[str, Any], baseline_path: Path
) -> Optional[str]:
    """Compare a fresh report against a recorded baseline.

    Returns a human-readable failure message when any scheduler's
    wall-clock, or the total, regressed more than
    :data:`REGRESSION_FACTOR` over the baseline's same-mode entry;
    ``None`` when within budget or when no comparable baseline exists.
    Reads every baseline format, so ``BENCH_PR5.json`` (format 1) and
    ``BENCH_PR10.json`` (format 2, whose ``exact`` column is the
    comparable one) stay valid gates.
    """
    try:
        baseline_doc = json.loads(baseline_path.read_text())
    except (OSError, ValueError):
        return None
    baseline = baseline_doc.get(report["mode"])
    if not isinstance(baseline, dict):
        return None
    problems = []
    base_total = baseline.get("total_wall_s", 0.0)
    if base_total and report["total_wall_s"] > REGRESSION_FACTOR * base_total:
        problems.append(
            f"total wall-clock {report['total_wall_s']:.2f}s > "
            f"{REGRESSION_FACTOR}x baseline {base_total:.2f}s"
        )
    for name, row in report["schedulers"].items():
        base_row = baseline.get("schedulers", {}).get(name)
        base_wall = _wall(base_row) if isinstance(base_row, dict) else None
        wall = row["wall_s"]
        if base_wall and wall > REGRESSION_FACTOR * base_wall:
            problems.append(
                f"{name}: {wall:.2f}s > {REGRESSION_FACTOR}x baseline {base_wall:.2f}s"
            )
    return "; ".join(problems) if problems else None
