"""Hot-path micro-benchmarks: ``WorkloadQueues.remove_query``.

The pair demonstrates the inverted per-query index: cancellation cost
tracks the *cancelled query's* atom count, not the total number of
active atoms, so the 1k-atom and 16k-atom variants should report the
same order of magnitude (pre-index, the 16k variant scanned every
active slot and scaled linearly).

End-to-end timing lives in one place, ``benchmarks/perf/run.py``.
"""

import numpy as np

from repro.core.queues import WorkloadQueues
from repro.workload.query import Query, SubQuery


# ---------------------------------------------------------------------------
# remove_query: cost must track the query's atoms, not total active atoms
# ---------------------------------------------------------------------------
TARGET_ATOMS = 50


def _loaded_queues(n_background_atoms):
    """Queues holding one sub-query on each of ``n_background_atoms``
    distinct atoms (each from its own query)."""
    queues = WorkloadQueues(atoms_per_timestep=1 << 30)
    for atom in range(n_background_atoms):
        q = Query(
            query_id=atom,
            job_id=atom,
            seq=0,
            user_id=0,
            op="velocity",
            timestep=0,
            positions=np.zeros((1, 3)),
        )
        queues.add(SubQuery(q, atom_id=atom, n_positions=1), now=0.0)
    return queues


def _remove_query_bench(benchmark, n_background_atoms):
    queues = _loaded_queues(n_background_atoms)
    target = Query(
        query_id=10 ** 9,
        job_id=10 ** 9,
        seq=0,
        user_id=0,
        op="velocity",
        timestep=0,
        positions=np.zeros((TARGET_ATOMS, 3)),
    )

    def setup():
        for i in range(TARGET_ATOMS):
            queues.add(
                SubQuery(target, atom_id=i, n_positions=1), now=1.0
            )
        return (), {}

    def cancel():
        assert queues.remove_query(target.query_id) == TARGET_ATOMS

    benchmark.pedantic(cancel, setup=setup, rounds=50, iterations=1)
    assert queues.check_consistency() == []


def test_remove_query_amid_1k_atoms(benchmark):
    _remove_query_bench(benchmark, 1_000)


def test_remove_query_amid_16k_atoms(benchmark):
    """Must match the 1k variant (per-query index); pre-index this
    scanned all 16k slots and was ~16x slower."""
    _remove_query_bench(benchmark, 16_000)
