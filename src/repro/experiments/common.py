"""Shared, calibrated experiment configuration.

The paper evaluates an 800 GB / 31-time-step sample with a 50 k-query
trace on one server with a 2 GB (256-atom) external cache.  The
laptop-scale equivalents here keep every structural ratio —
atoms-per-step vs cache size, job mix, burstiness — while shrinking
query count so a full figure regenerates in minutes.  Two scales are
provided: ``SMALL`` for tests/CI, ``FULL`` for the recorded
EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import enum
import functools
import os
from typing import Any, List, Optional, Sequence
from repro.config import CacheConfig, CostModel, EngineConfig, SchedulerConfig
from repro.engine.results import RunResult
from repro.errors import ConfigurationError
from repro.grid.dataset import DatasetSpec
from repro.parallel import RunSpec, SupervisorConfig, run_many
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.trace import Trace

__all__ = [
    "ExperimentScale",
    "standard_spec",
    "standard_params",
    "standard_engine",
    "standard_scheduler_config",
    "standard_trace",
    "sweep_run_many",
    "sweep_supervisor",
    "STANDARD_SPEEDUP",
]

#: Saturation applied for the headline Fig. 10 / Table I comparisons —
#: the paper's trace week is heavily contended ("when contention in the
#: workload is high").
STANDARD_SPEEDUP = 8.0


class ExperimentScale(enum.Enum):
    """How much workload to simulate."""

    SMALL = "small"  # seconds per run; used by tests
    FULL = "full"  # tens of seconds per run; used for EXPERIMENTS.md


def standard_spec() -> DatasetSpec:
    """31 time steps (like the paper's sample) of an 8³-atom grid."""
    return DatasetSpec.small(n_timesteps=31, atoms_per_axis=8)


def standard_params(scale: ExperimentScale = ExperimentScale.FULL, seed: int = 7) -> WorkloadParams:
    """Workload knobs per scale; see WorkloadParams for semantics.

    Calibrated (see DESIGN.md §5) so that at ``STANDARD_SPEEDUP`` the
    five schedulers reproduce the Fig. 10 ordering and rough factors.
    """
    common = dict(
        think_time_mean=2.0,
        frac_tracking=0.25,
        frac_batched=0.25,
        batched_len_mean=6.0,
        tracking_len_mean=16.0,
        campaign_prob=0.25,
        campaign_size_mean=1.5,
        hotspot_sigma=80.0,
        seed=seed,
    )
    if scale is ExperimentScale.SMALL:
        return WorkloadParams(n_jobs=90, span=1650.0, **common)
    return WorkloadParams(n_jobs=320, span=5800.0, **common)


def standard_engine() -> EngineConfig:
    """Cost model + 256-atom LRU-K cache (the paper's baseline)."""
    return EngineConfig(
        cost=CostModel(t_b=0.04, t_m=2.0e-5),
        cache=CacheConfig(capacity_atoms=256, policy="lruk"),
        run_length=40,
    )


def standard_scheduler_config(**overrides: Any) -> SchedulerConfig:
    """JAWS defaults: α₀ = 0.5, adaptive, k = 15 (paper §VI-B)."""
    base = SchedulerConfig(alpha=0.5, adaptive_alpha=True, batch_size=15)
    return base.with_(**overrides) if overrides else base


@functools.lru_cache(maxsize=4)
def _calibrated_trace(scale: ExperimentScale, seed: int) -> Trace:
    """The unscaled calibrated trace, generated once per process.

    Callers share its ``Job``/``Query`` objects; runs never mutate their
    input (``tests/test_input_immutable.py``), so sharing is safe.
    """
    return generate_trace(standard_spec(), standard_params(scale, seed))


def standard_trace(
    scale: ExperimentScale = ExperimentScale.FULL,
    speedup: float = STANDARD_SPEEDUP,
    seed: int = 7,
) -> Trace:
    """The calibrated trace, rescaled to the requested saturation.

    Sweeps over several speed-ups generate the trace once per
    ``(scale, seed)`` and rescale it in memory on each call.
    """
    return _calibrated_trace(scale, seed).rescale(speedup)


def sweep_supervisor() -> Optional[SupervisorConfig]:
    """Supervision knobs for experiment sweeps, from the environment.

    ``REPRO_TASK_TIMEOUT=<seconds>`` arms the per-run watchdog for every
    figure/table sweep without threading a flag through each experiment
    signature — an overnight ``--scale full`` regeneration then survives
    a wedged worker (killed, retried, at worst surfaced as a typed
    :class:`~repro.errors.WorkerCrashError` naming the run's label).
    Unset (the default) leaves the supervisor defaults: retries on
    worker death, no deadline.  The timeout only bounds *real* execution
    time; results remain bit-identical to serial runs.
    """
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_TASK_TIMEOUT={raw!r} is not a number of seconds"
        ) from None
    if not timeout > 0:
        raise ConfigurationError(
            f"REPRO_TASK_TIMEOUT={raw!r} must be a positive number of seconds"
        )
    return SupervisorConfig(task_timeout=timeout)


def sweep_run_many(specs: Sequence[RunSpec], jobs: int = 1) -> List[RunResult]:
    """Run an experiment sweep's specs under the supervised pool.

    The one fan-out entry point every figure/table module uses: spec
    labels ride along to failure records, and :func:`sweep_supervisor`
    (the ``REPRO_TASK_TIMEOUT`` environment knob) arms the watchdog
    uniformly across fig10/fig11/fig12/table1 and the ablations.
    """
    return run_many(specs, jobs=jobs, supervisor=sweep_supervisor())
