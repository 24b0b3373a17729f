"""Whole-run identities: outcomes the simulator can be checked against
by construction, not only against itself.

*LifeRaft is JAWS with its mechanisms removed* (paper §V builds on
LifeRaft): a :class:`JAWSScheduler` without job awareness, two-level
selection or adaptive α, batching one atom at a time, gives the same
run as :class:`LifeRaftScheduler` at the same α — every result field
but the scheduler's name.  The identity also covers LifeRaft's
reduced-metric and tie-set fast paths, which JAWS does not share.
"""

import pytest

from repro.config import SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.engine.runner import run_trace
from repro.fuzz.oracles import normalize_result

from tests.test_determinism import engine, small_trace


def comparable(result):
    out = normalize_result(result)
    del out["scheduler_name"]
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stripped_jaws_is_liferaft(seed, alpha):
    trace = small_trace(seed=seed)
    eng = engine()
    liferaft = LifeRaftScheduler(
        trace.spec, eng.cost, SchedulerConfig(), alpha=alpha, max_sim_time=eng.max_sim_time
    )
    jaws = JAWSScheduler(
        trace.spec,
        eng.cost,
        SchedulerConfig(
            alpha=alpha, job_aware=False, two_level=False, adaptive_alpha=False, batch_size=1
        ),
    )
    expected = run_trace(trace, liferaft, eng)
    got = run_trace(trace, jaws, eng)
    assert expected.scheduler_name != got.scheduler_name
    assert expected.n_queries == trace.n_queries
    assert comparable(got) == comparable(expected)
