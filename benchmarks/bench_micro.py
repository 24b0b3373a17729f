"""Micro-benchmarks of the hot substrate operations (true
pytest-benchmark statistics, many rounds)."""

import numpy as np
import pytest

from repro.config import CostModel, MetricConfig
from repro.core.alignment import align_jobs
from repro.core.gating import PrecedenceGraph
from repro.core.merge import build_gating_offline
from repro.core.metrics import aged_metric, workload_throughput
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec, neighbor_atoms_from_keys
from repro.morton.codec import morton_decode, morton_encode
from repro.storage.btree import BPlusTree
from repro.workload.query import AtomSet, Query, preprocess_query


@pytest.fixture(scope="module")
def coords():
    rng = np.random.default_rng(0)
    return tuple(rng.integers(0, 1 << 16, 100_000) for _ in range(3))


def test_morton_encode_100k(benchmark, coords):
    x, y, z = coords
    codes = benchmark(morton_encode, x, y, z)
    assert len(codes) == 100_000


def test_morton_decode_100k(benchmark, coords):
    x, y, z = coords
    codes = morton_encode(x, y, z)
    benchmark(morton_decode, codes)


def test_btree_point_lookups(benchmark):
    tree = BPlusTree.build_clustered(4096, order=64)
    keys = np.random.default_rng(1).integers(0, 4096, 1000)

    def lookups():
        return sum(tree.get(int(k)) for k in keys)

    benchmark(lookups)


def test_btree_range_scan(benchmark):
    tree = BPlusTree.build_clustered(4096, order=64)
    benchmark(lambda: sum(1 for _ in tree.range(0, 4096)))


def test_workload_metric_1000_atoms(benchmark):
    rng = np.random.default_rng(2)
    counts = rng.integers(1, 1000, 1000)
    cached = rng.random(1000) < 0.3
    oldest = rng.uniform(0, 100, 1000)
    cost = CostModel()
    cfg = MetricConfig()

    def metric():
        u_t = workload_throughput(counts, cached, cost)
        return aged_metric(u_t, oldest, 200.0, 0.5, cfg)

    benchmark(metric)


def test_alignment_30x30(benchmark):
    rng = np.random.default_rng(3)
    a = [AtomSet.of(rng.integers(0, 40, 3)) for _ in range(30)]
    b = [AtomSet.of(rng.integers(0, 40, 3)) for _ in range(30)]
    benchmark(align_jobs, a, b)


def test_offline_merge_20_jobs(benchmark):
    rng = np.random.default_rng(4)

    def build_and_merge():
        g = PrecedenceGraph()
        qid = 0
        for j in range(20):
            length = 8
            atoms = [AtomSet.of(rng.integers(0, 30, 2)) for _ in range(length)]
            g.add_job(j, list(range(qid, qid + length)), atoms)
            qid += length
        return build_gating_offline(g)

    benchmark(build_and_merge)


def test_neighbor_atoms_boundary_cloud(benchmark):
    spec = DatasetSpec.small(n_timesteps=4, atoms_per_axis=8)
    rng = np.random.default_rng(5)
    # Cloud hugging an atom face: worst-case expansion.
    positions = np.column_stack(
        [
            rng.uniform(62.0, 66.0, 200) % spec.grid_side,
            rng.uniform(0, 64, 200),
            rng.uniform(0, 64, 200),
        ]
    )
    query = Query(0, 0, 0, 0, "interp", 0, positions)
    mapper = AtomMapper(spec)
    interp = InterpolationSpec(order=12)

    def run():
        # Pre-processing computes the keys; the executor resolves them.
        return [
            neighbor_atoms_from_keys(spec, sq.neighbor_keys, sq.atom_id)
            for sq in preprocess_query(query, mapper, interp)
        ]

    assert any(benchmark(run))


def test_bigmin_skip_scan(benchmark):
    from repro.morton.bigmin import zrange_scan
    from repro.morton.codec import morton_encode_scalar

    zmin = morton_encode_scalar(3, 3, 3)
    zmax = morton_encode_scalar(12, 12, 12)
    count = benchmark(lambda: sum(1 for _ in zrange_scan(zmin, zmax)))
    assert count == 10**3
