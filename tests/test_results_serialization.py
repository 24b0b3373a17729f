"""RunResult ``to_dict``/``from_dict`` round trip, including fault and
recovery counters, survives ``json.dumps``/``json.loads`` losslessly."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import FaultConfig
from repro.engine.results import RunResult
from repro.engine.runner import run_trace

from tests.test_determinism import engine, small_trace

FAULTS = FaultConfig(
    seed=11,
    transient_fault_rate=0.05,
    permanent_loss_rate=0.01,
    slow_read_rate=0.05,
    query_deadline=500.0,
)


def roundtrip(result: RunResult) -> RunResult:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return RunResult.from_dict(json.loads(payload))


def assert_equal_results(a: RunResult, b: RunResult) -> None:
    """Field-for-field equality (dict key *order* is not significant —
    JSON sorts object keys; values must match exactly)."""
    for f in dataclasses.fields(RunResult):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert vb.dtype == va.dtype, f.name
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f"RunResult.{f.name} changed across the round trip"


@pytest.mark.parametrize("name", ["jaws2", "noshare"])
def test_roundtrip_plain_run(name):
    result = run_trace(small_trace(), name, engine())
    restored = roundtrip(result)
    assert_equal_results(result, restored)


def test_roundtrip_with_fault_counters():
    result = run_trace(small_trace(), "jaws2", engine(faults=FAULTS))
    assert result.faults  # the fault block is populated
    restored = roundtrip(result)
    assert_equal_results(result, restored)
    assert restored.faults == result.faults
    assert restored.timeouts == result.timeouts
    assert restored.retries == result.retries
    assert restored.failovers == result.failovers
    assert restored.cancelled_queries == result.cancelled_queries


def test_roundtrip_preserves_types():
    result = run_trace(small_trace(), "jaws2", engine())
    restored = roundtrip(result)
    assert isinstance(restored.response_times, np.ndarray)
    assert restored.response_times.dtype == np.float64
    assert np.array_equal(restored.response_times, result.response_times)
    # JSON object keys are strings; from_dict restores the int keys.
    assert restored.job_durations == result.job_durations
    assert all(isinstance(k, int) for k in restored.job_durations)
    assert [dataclasses.astuple(o) for o in restored.runs] == [
        dataclasses.astuple(o) for o in result.runs
    ]
    # Derived metrics come out identical.
    assert restored.summary() == result.summary()
    assert restored.fault_summary() == result.fault_summary()
