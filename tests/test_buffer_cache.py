"""Tests for the buffer cache container (policy-agnostic behaviour)."""

import itertools

import pytest

from repro.cache.base import _REGISTRY
from repro.cache.lru import LRUPolicy
from repro.config import CacheConfig, EngineConfig
from repro.experiments import table1
from repro.experiments.table1 import HOOKS, PolicyClock, clocked_run
from repro.fuzz.oracles import results_equivalent
from repro.grid.dataset import DatasetSpec
from repro.parallel import RunSpec, run_spec
from repro.storage.buffer import BufferCache
from repro.workload.generator import WorkloadParams, generate_trace


def make(capacity=3):
    return BufferCache(capacity, LRUPolicy())


class TestResidency:
    def test_miss_then_hit(self):
        cache = make()
        assert cache.access(1, 0.0) is False
        assert cache.access(1, 1.0) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_capacity_respected(self):
        cache = make(capacity=2)
        for a in range(5):
            cache.access(a, float(a))
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferCache(0, LRUPolicy())

    def test_contains(self):
        cache = make()
        cache.access(7, 0.0)
        assert 7 in cache
        assert 8 not in cache

    def test_resident_atoms_snapshot(self):
        cache = make()
        cache.access(1, 0.0)
        cache.access(2, 0.0)
        assert cache.resident_atoms() == frozenset({1, 2})


class TestListeners:
    def test_insert_evict_callbacks(self):
        cache = make(capacity=1)
        inserted, evicted = [], []
        cache.add_listener(on_insert=inserted.append, on_evict=evicted.append)
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        assert inserted == [1, 2]
        assert evicted == [1]

    def test_drop(self):
        cache = make()
        evicted = []
        cache.add_listener(on_evict=evicted.append)
        cache.access(1, 0.0)
        cache.access(2, 0.0)
        cache.drop([1, 99])
        assert 1 not in cache
        assert evicted == [1]
        assert cache.stats.evictions == 1


class TestInvariants:
    def test_lru_eviction_order(self):
        cache = make(capacity=2)
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        cache.access(1, 2.0)  # refresh 1
        cache.access(3, 3.0)  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache


class TestPolicyClock:
    """Table I's overhead column: wall-clock time inside policy hooks,
    measured from outside the engine."""

    def test_clocked_run_measures_and_changes_nothing(self):
        classes = list(_REGISTRY.values())
        before = [(dict(vars(cls)), [getattr(cls, h) for h in HOOKS]) for cls in classes]
        trace = generate_trace(
            DatasetSpec.small(n_timesteps=6, atoms_per_axis=4),
            WorkloadParams(n_jobs=10, span=90.0, seed=3),
        )
        spec = RunSpec(
            trace, "jaws2", EngineConfig(cache=CacheConfig(capacity_atoms=32, policy="urc"))
        )
        clocked, policy_ns = clocked_run(spec)
        assert policy_ns > 0
        assert [(dict(vars(cls)), [getattr(cls, h) for h in HOOKS]) for cls in classes] == before
        assert results_equivalent(run_spec(spec), clocked) is None

    def test_hook_called_from_a_hook_is_counted_once(self, monkeypatch):
        class Nested(LRUPolicy):
            def on_insert(self, atom_id, now):
                super().on_insert(atom_id, now)
                self.on_access(atom_id, now)

        # A fake clock that ticks once per read: an outermost call adds 1.
        monkeypatch.setattr(table1, "_now_ns", itertools.count().__next__)
        monkeypatch.setitem(_REGISTRY, "nested-test", Nested)
        cache = BufferCache(2, Nested())
        with PolicyClock() as clock:
            cache.access(1, 0.0)  # miss: on_insert, which calls on_access
            cache.access(1, 1.0)  # hit: on_access
        assert clock.ns == 2
        assert "on_insert" in vars(Nested) and "on_access" not in vars(Nested)
