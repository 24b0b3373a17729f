"""LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD '93).

SQL Server's page replacement is "a variant of LRU-K" (paper §II/§V-B);
the paper uses it as the workload-oblivious baseline in Table I.

The policy evicts the resident atom with the maximum *backward
K-distance*: the atom whose K-th most recent reference is oldest.
Atoms with fewer than K references are preferred victims (their
K-distance is infinite), broken by least-recent last access — the
property that makes LRU-K scan-resistant.  A bounded retained-history
map remembers reference times of recently evicted atoms so a quickly
re-fetched atom keeps its history, as the original algorithm specifies.

Victim selection uses a lazily-invalidated min-heap: each reference
pushes one fresh versioned entry and eviction pops until it finds a
current one, giving amortized O(log n) instead of an O(n) scan per miss.
An atom's history is one tuple of its last k reference times, oldest
first, held in the resident map beside the atom's version and kept on
its own in the retained map after eviction.

Known defect, kept because Table I, the engine golden fixture and the
benchmark digests record it: :meth:`LRUKPolicy.on_evict` forgets the
atom's version counter, so a re-inserted atom numbers its entries from
the start again.  A stale entry left in the heap from the atom's
previous stay can then carry the current version and look current, and
the atom is evicted by its old reference times instead of the true
LRU-K victim.  Smallest case: capacity 2, references ``(1, t=0)``,
``(3, 0)``, ``(0, 0)``, ``(1, 2)``, ``(2, 3)`` evict atom 1 (two
references, the last at t=2) rather than atom 3 (one reference).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from repro.cache.base import CachePolicy, register_policy

__all__ = ["LRUKPolicy"]

_NEG_INF = float("-inf")


@register_policy("lruk")
class LRUKPolicy(CachePolicy):
    """LRU-K victim selection over resident atoms.

    Parameters
    ----------
    k:
        History depth (2 in the classical configuration).
    retained_history:
        Number of evicted atoms whose reference history is retained.
    """

    def __init__(self, k: int = 2, retained_history: int = 1024) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self._k = k
        # atom -> (last k reference times, version)
        self._resident: dict[int, tuple[tuple[float, ...], int]] = {}
        self._retained: OrderedDict[int, tuple[float, ...]] = OrderedDict()
        self._retained_cap = retained_history
        # Lazy heap of (kth_ref_time, last_ref_time, version, atom).
        self._heap: list[tuple[float, float, int, int]] = []

    def _reference(
        self, atom_id: int, history: tuple[float, ...], version: int, now: float
    ) -> None:
        """Make ``atom_id`` resident with the last k of ``history`` plus
        ``now`` under ``version``, and push its heap entry."""
        history = (*history[max(0, len(history) - self._k + 1):], now)
        self._resident[atom_id] = (history, version)
        kth = history[0] if len(history) == self._k else _NEG_INF
        heapq.heappush(self._heap, (kth, now, version, atom_id))

    def on_insert(self, atom_id: int, now: float) -> None:
        # Versions start at 2: they are the heap key's tie-break and the
        # stale-entry defect above depends on them, and Table I, the
        # golden fixture and the benchmark digests record both.
        self._reference(atom_id, self._retained.pop(atom_id, ()), 2, now)

    def on_evict(self, atom_id: int) -> None:
        entry = self._resident.pop(atom_id, None)
        if entry is not None and self._retained_cap > 0:
            # A resident atom is never in the retained map (on_insert
            # takes it out), so this appends at the MRU end.
            self._retained[atom_id] = entry[0]
            if len(self._retained) > self._retained_cap:
                self._retained.popitem(last=False)

    def on_access(self, atom_id: int, now: float) -> None:
        history, version = self._resident[atom_id]
        self._reference(atom_id, history, version + 1, now)

    def choose_victim(self) -> int:
        while self._heap:
            kth, last, version, atom_id = self._heap[0]
            entry = self._resident.get(atom_id)
            if entry is not None and entry[1] == version:
                return atom_id
            heapq.heappop(self._heap)  # stale entry
        raise RuntimeError("choose_victim called on empty cache")
