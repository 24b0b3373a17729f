"""Convenience facade for common end-to-end flows.

Most users need three calls: build a dataset, generate (or load) a
trace, and run it under one or more schedulers.  This module bundles
those into single functions used by the examples and ad-hoc scripts;
everything here is a thin composition of the public subpackage APIs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import EngineConfig, SchedulerConfig
from repro.engine.results import RunResult
from repro.engine.runner import SCHEDULER_NAMES, run_trace
from repro.experiments.common import (
    standard_engine,
    standard_params,
    standard_spec,
    standard_trace,
)
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.trace import Trace

__all__ = ["build_workload", "compare_schedulers", "run_experiment"]


def build_workload(
    spec: Optional[DatasetSpec] = None,
    params: Optional[WorkloadParams] = None,
    speedup: float = 1.0,
) -> Trace:
    """Generate a calibrated synthetic trace (standard knobs unless
    overridden) at the requested saturation."""
    spec = spec or standard_spec()
    params = params or standard_params()
    return generate_trace(spec, params).rescale(speedup)


def run_experiment(
    trace: Optional[Trace] = None,
    scheduler: str = "jaws2",
    engine: Optional[EngineConfig] = None,
    config: Optional[SchedulerConfig] = None,
) -> RunResult:
    """Replay a trace (the standard one by default) under a scheduler."""
    trace = trace or standard_trace()
    return run_trace(trace, scheduler, engine or standard_engine(), config)


def compare_schedulers(
    trace: Optional[Trace] = None,
    schedulers: Sequence[str] = SCHEDULER_NAMES,
    engine: Optional[EngineConfig] = None,
) -> dict[str, RunResult]:
    """Replay one trace under several schedulers (fresh instances)."""
    trace = trace or standard_trace()
    engine = engine or standard_engine()
    return {name: run_trace(trace, name, engine) for name in schedulers}
