"""One run, every route: a run's result does not depend on which entry
point carried it to the engine.

A single-node run can reach the engine as :func:`run_trace`, as a
one-node :func:`run_cluster`, or as a :class:`RunSpec` through the
pool; a four-node run as :func:`run_cluster` or as a ``RunSpec`` with
or without a one-shard plan.  Each pair must give results equivalent
field for field (floats compared exactly), for a sharing and a
non-sharing scheduler, with and without faults.
"""

import pytest

from repro.cluster.cluster import run_cluster
from repro.config import FaultConfig, ShardConfig
from repro.engine.runner import run_trace
from repro.experiments.common import ExperimentScale, standard_engine, standard_trace
from repro.fuzz.oracles import results_equivalent
from repro.parallel.pool import RunSpec, run_many
from repro.workload.trace import Trace

SCHEDULERS = ("jaws2", "noshare")

#: Transient read errors, slow reads and one node crash with recovery.
FAULTS = FaultConfig(
    seed=5,
    transient_fault_rate=0.05,
    slow_read_rate=0.1,
    slow_read_factor=4.0,
    node_crashes=((0, 120.0, 180.0),),
)


@pytest.fixture(scope="module")
def trace():
    full = standard_trace(ExperimentScale.SMALL)
    return Trace(full.spec, full.jobs[:20])


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
@pytest.mark.parametrize("name", SCHEDULERS)
def test_single_node_routes_agree(trace, name, faults):
    engine = standard_engine()
    direct = run_trace(trace, name, engine, faults=faults)
    if faults is not None:
        assert direct.faults["node_downs"] == 1 and direct.retries > 0
    cluster = run_cluster(trace, name, 1, engine=engine, faults=faults).result
    (pooled,) = run_many([RunSpec(trace, name, engine, faults=faults)])
    assert results_equivalent(direct, cluster) is None
    assert results_equivalent(direct, pooled) is None


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
@pytest.mark.parametrize("name", SCHEDULERS)
def test_four_node_routes_agree(trace, name, faults):
    engine = standard_engine()
    cluster = run_cluster(trace, name, 4, engine=engine, faults=faults).result
    specs = [
        RunSpec(trace, name, engine, faults=faults, n_nodes=4),
        RunSpec(trace, name, engine, faults=faults, n_nodes=4, shards=ShardConfig(n_shards=1)),
    ]
    for result in run_many(specs):
        assert results_equivalent(cluster, result) is None
