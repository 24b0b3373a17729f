"""Every configuration value a user can get wrong is rejected with a
typed :class:`~repro.errors.ConfigurationError`.

``ConfigurationError`` subclasses ``ValueError``, so ``pytest.raises``
alone cannot tell a typed rejection from a bare one; these tests check
the exact type.
"""

import pytest

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    MetricConfig,
    SchedulerConfig,
)
from repro.errors import ConfigurationError
from repro.grid.dataset import DatasetSpec
from repro.parallel import RunSpec, SupervisorConfig, map_many, run_spec
from repro.workload.generator import WorkloadParams, generate_trace

#: One case per validation check of these dataclasses (``ShardConfig``
#: and ``OverloadConfig`` are checked in their own test modules).
CASES = [
    (CostModel, {"t_b": 0.0}),
    (CostModel, {"seq_discount": 0.0}),
    (CostModel, {"t_overhead": -1.0}),
    (CacheConfig, {"capacity_atoms": 0}),
    (CacheConfig, {"protected_fraction": 1.0}),
    (CacheConfig, {"lruk_k": 0}),
    (MetricConfig, {"age_units": 0.0}),
    (SchedulerConfig, {"alpha": 1.5}),
    (SupervisorConfig, {"task_timeout": -1.0}),
    (SchedulerConfig, {"batch_size": 0}),
    (SchedulerConfig, {"gating_max_lag": 0}),
    (FaultConfig, {"transient_fault_rate": 2.0}),
    (FaultConfig, {"slow_read_factor": 0.5}),
    (FaultConfig, {"max_retries": -1}),
    (FaultConfig, {"backoff_factor": 0.5}),
    (FaultConfig, {"backoff_jitter": 2.0}),
    (FaultConfig, {"retry_budget_per_node": -1}),
    (FaultConfig, {"circuit_breaker_threshold": 0}),
    (FaultConfig, {"query_deadline": 0.0}),
    (FaultConfig, {"replication": 0}),
    (FaultConfig, {"coordinator_crash_at": -1}),
    (FaultConfig, {"coordinator_crash_window": (1, 2, 3)}),
    (FaultConfig, {"coordinator_crash_window": (5, 2)}),
    (FaultConfig, {"node_crashes": ((1, 2.0),)}),
    (FaultConfig, {"node_crashes": ((-1, 0.0, 1.0),)}),
    (FaultConfig, {"node_crashes": ((0, 5.0, 1.0),)}),
    (CheckpointConfig, {"every_events": 0}),
    (CheckpointConfig, {"every_seconds": 0.0}),
    (CheckpointConfig, {"keep": 0}),
    (CheckpointConfig, {"directory": "ckpt"}),
    (EngineConfig, {"interpolation_order": 3}),
    (EngineConfig, {"run_length": 0}),
    (EngineConfig, {"max_sim_time": 0.0}),
    (SupervisorConfig, {"heartbeat": 0.0}),
    (SupervisorConfig, {"max_retries": -1}),
    (SupervisorConfig, {"rss_limit_mb": 0.0}),
    (SupervisorConfig, {"runaway_deadline": -1.0}),
    (SupervisorConfig, {"backoff_base": 1.0, "backoff_cap": 0.5}),
]


@pytest.mark.parametrize(
    "cls, kwargs", CASES, ids=[f"{c.__name__}-{'-'.join(k)}-{i}" for i, (c, k) in enumerate(CASES)]
)
def test_bad_value_is_a_configuration_error(cls, kwargs):
    with pytest.raises(ValueError) as exc:
        cls(**kwargs)
    assert type(exc.value) is ConfigurationError



def test_unknown_scheduler_is_a_configuration_error():
    trace = generate_trace(
        DatasetSpec.small(n_timesteps=4, atoms_per_axis=4),
        WorkloadParams(n_jobs=2, span=10.0, seed=0),
    )
    with pytest.raises(ValueError) as exc:
        run_spec(RunSpec(trace, "belady"))
    assert type(exc.value) is ConfigurationError


def test_negative_jobs_is_a_configuration_error():
    with pytest.raises(ValueError) as exc:
        map_many(abs, [1], jobs=-1)
    assert type(exc.value) is ConfigurationError
