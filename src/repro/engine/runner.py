"""High-level entry points: build a scheduler by name, run a trace.

The evaluation's five schedulers (§VI-B) map to factory names:

========== =====================================================
name        configuration
========== =====================================================
noshare     arrival order, no sharing, round-robin interleave
liferaft1   LifeRaft, age bias α = 1 (arrival-order batching)
liferaft2   LifeRaft, age bias α = 0 (contention order)
jaws1       JAWS without job-awareness (two-level + adaptive α)
jaws2       full JAWS
========== =====================================================
"""

from __future__ import annotations

from typing import Optional

from repro.config import EngineConfig, FaultConfig, SchedulerConfig
from repro.core.base import Scheduler
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.noshare import NoShareScheduler
from repro.engine.results import RunResult
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.workload.trace import Trace

__all__ = ["SCHEDULER_NAMES", "make_scheduler", "run_trace"]

SCHEDULER_NAMES = ("noshare", "liferaft1", "liferaft2", "jaws1", "jaws2")


def make_scheduler(
    name: str,
    trace: Trace,
    engine: Optional[EngineConfig] = None,
    config: Optional[SchedulerConfig] = None,
) -> Scheduler:
    """Construct a fresh scheduler for one run over ``trace``.

    ``config`` overrides the JAWS scheduler knobs (batch size k, initial
    α, gating valve); LifeRaft/NoShare ignore most of it by
    construction.  LifeRaft receives ``engine.max_sim_time`` as the
    clock bound of its tie-set cache.
    """
    engine = engine or EngineConfig()
    spec = trace.spec
    base = config or SchedulerConfig(alpha=0.5, adaptive_alpha=True)
    key = name.lower()
    if key == "noshare":
        return NoShareScheduler()
    if key == "liferaft1":
        return LifeRaftScheduler(
            spec, engine.cost, base, alpha=1.0, max_sim_time=engine.max_sim_time
        )
    if key == "liferaft2":
        return LifeRaftScheduler(
            spec, engine.cost, base, alpha=0.0, max_sim_time=engine.max_sim_time
        )
    if key == "jaws1":
        return JAWSScheduler(spec, engine.cost, base.with_(job_aware=False))
    if key == "jaws2":
        return JAWSScheduler(spec, engine.cost, base.with_(job_aware=True))
    raise ConfigurationError(f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}")


def run_trace(
    trace: Trace,
    scheduler: Scheduler | str,
    engine: Optional[EngineConfig] = None,
    config: Optional[SchedulerConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> RunResult:
    """Replay ``trace`` under ``scheduler`` (an instance or a factory
    name) on a single node and return the results.

    ``faults`` overrides ``engine.faults`` — a convenience so callers
    can inject faults without rebuilding the whole engine config.
    """
    engine = engine or EngineConfig()
    if faults is not None:
        engine = engine.with_(faults=faults)
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, trace, engine, config)
    return Simulator(trace, [scheduler], engine).run()
