"""Fixed-capacity atom buffer cache.

The paper's evaluation manages a 2 GB atom cache *externally* to SQL
Server (§VI-B); :class:`BufferCache` is that cache.  It owns residency
and statistics, delegates victim selection to a pluggable
:class:`~repro.cache.base.CachePolicy`, and notifies listeners on
insert/evict so the scheduler's workload queues can keep their ``phi``
(cached?) flags current without set lookups on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cache.base import CachePolicy

__all__ = ["CacheStats", "BufferCache"]


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`BufferCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served from the cache (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
        }


class BufferCache:
    """LRU-style container with pluggable replacement policy.

    Parameters
    ----------
    capacity:
        Maximum resident atoms (paper: 2 GB / 8 MB = 256).
    policy:
        Victim-selection policy.
    """

    def __init__(self, capacity: int, policy: CachePolicy) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        self._resident: set[int] = set()
        self.stats = CacheStats()
        self._on_insert: list[Callable[[int], None]] = []
        self._on_evict: list[Callable[[int], None]] = []

    # -- listeners --------------------------------------------------------
    def add_listener(
        self,
        on_insert: Callable[[int], None] | None = None,
        on_evict: Callable[[int], None] | None = None,
    ) -> None:
        """Register residency-change callbacks (scheduler phi flags)."""
        if on_insert is not None:
            self._on_insert.append(on_insert)
        if on_evict is not None:
            self._on_evict.append(on_evict)

    # -- queries ----------------------------------------------------------
    def __contains__(self, atom_id: int) -> bool:
        return atom_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident_atoms(self) -> frozenset[int]:
        """Immutable snapshot of resident atom ids."""
        return frozenset(self._resident)

    # -- the single hot-path operation -------------------------------------
    def access(self, atom_id: int, now: float) -> bool:
        """Reference an atom; returns ``True`` on hit.

        On a miss the atom is fetched into the cache (the caller charges
        the disk cost), evicting the policy's victim if full.
        """
        stats = self.stats
        resident = self._resident
        if atom_id in resident:
            self.policy.on_access(atom_id, now)
            stats.hits += 1
            return True

        policy = self.policy
        if len(resident) >= self.capacity:
            victim = policy.choose_victim()
            if victim not in resident:
                raise RuntimeError(
                    f"policy chose non-resident victim {victim}"
                )
            resident.remove(victim)
            policy.on_evict(victim)
            stats.evictions += 1
            for cb in self._on_evict:
                cb(victim)

        resident.add(atom_id)
        policy.on_insert(atom_id, now)
        stats.misses += 1
        for cb in self._on_insert:
            cb(atom_id)
        return False

    # -- control ------------------------------------------------------------
    def run_boundary(self) -> None:
        """Propagate a workload run boundary to the policy (SLRU)."""
        self.policy.on_run_boundary()

    def drop(self, atom_ids: Iterable[int]) -> None:
        """Explicitly evict atoms (used by tests and cluster rebalance)."""
        for atom_id in list(atom_ids):
            if atom_id in self._resident:
                self._resident.remove(atom_id)
                self.policy.on_evict(atom_id)
                self.stats.evictions += 1
                for cb in self._on_evict:
                    cb(atom_id)
