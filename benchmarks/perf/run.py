"""Outside-in performance benchmark of the exact engine.

Runs each workload of ``workloads.py`` as one client in a closed loop:
fresh single-threaded processes (``child.py``), one at a time.  Per
workload it runs

* for ``jaws2-recover``, one uninterrupted reference run first (its
  length places the coordinator crash; its digest is what every resumed
  run must reproduce);
* timed runs until ``--seconds`` have passed, and at least
  :data:`MIN_RUNS`;
* with ``--trace 1``, one traced run that gives the per-layer metrics.

Every run's result digest is checked against the calibrated digest in
``baseline.json`` (a seed only relabels ids, which must not change it).
Every metric is printed with its workload and unit, a JSON report is
written, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The exit code is 0 only when
every check passed.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --seed 7            # every workload
    python3 benchmarks/perf/run.py --workload jaws2-full --seed 3 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

# The parent imports the simulator too: a checkout without ``src/``
# fails here, before any result is printed.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from tracing import now  # noqa: E402
from workloads import CALIBRATED_SEED, WORKLOADS, crash_point  # noqa: E402

#: Timed runs per workload, however short ``--seconds`` is.
MIN_RUNS = 3
#: Every child of a workload is done (or killed, and counted failed)
#: this many seconds after the workload started, so a one-workload
#: invocation ends inside three minutes even if the program hangs.
DEADLINE_S = 160
#: Paper reference for the simulated results: JAWS_2 over NoShare
#: throughput at high contention (Fig. 10, "nearly three-fold").
PAPER_JAWS2_OVER_NOSHARE = 2.6


def child_env() -> dict[str, str]:
    """Environment of every measured process: single-threaded, no trace cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_TRACE_CACHE="off",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(
    workload: str, seed: int, timeout: float, crash_at: Optional[int] = None,
    spans: Optional[Path] = None,
) -> tuple[Optional[dict[str, Any]], str]:
    """One measurement in a fresh process: ``(report, "")`` or ``(None, error)``."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(RESULTS / "work"),
    ]
    if crash_at is not None:
        cmd += ["--crash-at", str(crash_at)]
    if spans is not None:
        cmd += ["--traced", "--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.0f}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0]
    return json.loads(lines[-1]), ""


class WorkloadBench:
    """Measurements and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, expected: Optional[str]) -> None:
        self.name = name
        self.seed = seed
        self.expected = expected
        self.runs: list[dict[str, Any]] = []
        self.reference: Optional[dict[str, Any]] = None
        self.traced: Optional[dict[str, Any]] = None
        self.crash_at: Optional[int] = None
        self.errors: list[str] = []
        self.attempted = 0
        self.deadline = now() + DEADLINE_S

    def attempt(self, **kwargs: Any) -> Optional[dict[str, Any]]:
        """Run one child; a crash or a wrong digest counts as a failure."""
        self.attempted += 1
        out, error = run_child(self.name, self.seed, max(1.0, self.deadline - now()), **kwargs)
        if out is None:
            self.errors.append(error)
            return None
        self.expected = self.expected or out["digest"]
        if out["digest"] != self.expected:
            self.errors.append(
                f"result digest {out['digest'][:16]} != expected {self.expected[:16]}"
            )
            return None
        return out

    def measure(self, seconds: float, trace: bool, spans_dir: Path) -> None:
        """Reference run (jaws2-recover), timed runs for ``seconds``, traced run."""
        if WORKLOADS[self.name].recover:
            self.reference = self.attempt()
            if self.reference is None:
                return
            self.crash_at = crash_point(self.reference["events"])
        started, tries = now(), 0
        while now() < self.deadline:
            elapsed = now() - started
            # Stop once another run of average length would end mostly
            # past the window, so an invocation lasts about ``seconds``.
            if tries >= MIN_RUNS and elapsed * (1 + 0.5 / tries) >= seconds:
                break
            tries += 1
            out = self.attempt(crash_at=self.crash_at)
            if out is None and not self.runs:
                return  # the workload cannot run at all
            if out is not None:
                self.runs.append(out)
        if trace:
            spans = spans_dir / f"{self.name}-seed{self.seed}.spans.json"
            self.traced = self.attempt(crash_at=self.crash_at, spans=spans)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def end_to_end(self) -> dict[str, float]:
        """``wall_s`` of the fastest timed run; medians of the others.

        Interference from other tenants of the host only ever adds time
        to a run, so the fastest run is the steadiest estimate of the
        program's own cost (its median, max and n are in the report).
        """
        if not self.runs:
            return {}
        return {
            "wall_s": min(r["wall_s"] for r in self.runs),
            "setup_s": statistics.median(r["setup_s"] for r in self.runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.runs),
        }

    def per_layer(self) -> dict[str, float]:
        """Span and counter metrics of the traced run."""
        if self.traced is None or not self.runs:
            return {}
        out: dict[str, float] = {}
        for name, row in self.traced["layers"].items():
            out[f"{name}.calls"] = float(row["calls"])
            out[f"{name}.self_s"] = row["self_s"]
        out.update(self.traced["counters"])
        untraced = statistics.median(r["wall_s"] for r in self.runs)
        out["bench.trace_overhead_frac"] = (self.traced["wall_s"] - untraced) / untraced
        return out

    def simulated(self) -> dict[str, float]:
        """Simulated (virtual-time) results; identical in every run."""
        return {k: v for k, v in self.runs[0].items() if k.startswith("sim_")} if self.runs else {}

    def wall_summary(self) -> dict[str, float]:
        """Min, median, max and n of the timed runs' ``wall_s``."""
        walls = [r["wall_s"] for r in self.runs]
        if not walls:
            return {}
        return {"min": min(walls), "median": statistics.median(walls), "max": max(walls),
                "n": len(walls)}

    def report(self) -> dict[str, Any]:
        return {
            "workload": self.name, "seed": self.seed, "expected_digest": self.expected,
            "crash_at": self.crash_at, "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "end_to_end": self.end_to_end(),
            "wall_s_runs": self.wall_summary(),
            "simulated": self.simulated(), "per_layer": self.per_layer(),
            "runs": self.runs, "reference": self.reference, "traced": self.traced,
        }


def print_metrics(workload: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:16s} {name:34s} {value:16.6f} {units.get(name, '')}")


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("Usage", 1)[1],
    )
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=CALIBRATED_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long to keep starting timed runs, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds one traced run per workload (per-layer metrics)")
    parser.add_argument("--trace-dir", type=Path, default=RESULTS / "spans",
                        help="where traced runs write their spans")
    parser.add_argument("--out", type=Path, help="JSON report path")
    args = parser.parse_args(argv)

    digests = json.loads((HERE / "baseline.json").read_text())["digests"]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sim_units = {"sim_throughput_qps": "q/s", "sim_response_p50_s": "s (simulated)",
                 "sim_response_p98_s": "s (simulated)", "sim_queries": "count"}

    benches = []
    for name in names if args.workload == "all" else [args.workload]:
        bench = WorkloadBench(name, args.seed, digests.get(name))
        bench.measure(args.seconds, bool(args.trace), args.trace_dir)
        print_metrics(name, bench.end_to_end(), e2e_units)
        if bench.runs:
            print(f"{name:16s} {'wall_s of the timed runs':34s} " + ", ".join(
                f"{k} {v:.4f}" if k != "n" else f"n {v}"
                for k, v in bench.wall_summary().items()))
        print_metrics(name, bench.simulated(), sim_units)
        print_metrics(name, bench.per_layer(), layer_units)
        for error in bench.errors:
            print(f"{name:16s} FAILED: {error}")
        benches.append(bench)

    sims = {b.name: b.simulated() for b in benches}
    if sims.get("jaws2-full") and sims.get("noshare-full"):
        ratio = (sims["jaws2-full"]["sim_throughput_qps"]
                 / sims["noshare-full"]["sim_throughput_qps"])
        print(f"simulated throughput jaws2-full / noshare-full: {ratio:.2f} "
              f"(paper Fig. 10: {PAPER_JAWS2_OVER_NOSHARE:.2f})")

    units = layer_units if args.trace else e2e_units
    metrics = {}
    for bench in benches:
        values = bench.per_layer() if args.trace else bench.end_to_end()
        for metric, unit in units.items():
            if metric in values:
                label = metric if len(benches) == 1 else f"{bench.name}/{metric}"
                metrics[label] = {"value": values[metric], "unit": unit}
    out = args.out or RESULTS / f"report-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "nproc": os.cpu_count(),
         "workloads": {b.name: b.report() for b in benches}}, indent=1) + "\n")
    print(f"report: {out}")
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    correct = failed == 0 and len(metrics) == len(units) * len(benches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
