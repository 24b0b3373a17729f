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
from collections import OrderedDict, deque

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
        self._resident: dict[int, deque] = {}
        self._retained: OrderedDict[int, deque] = OrderedDict()
        self._retained_cap = retained_history
        # Lazy heap of (kth_ref_time, last_ref_time, version, atom).
        self._heap: list[tuple[float, float, int, int]] = []
        self._version: dict[int, int] = {}

    def on_insert(self, atom_id: int, now: float) -> None:
        history = self._retained.pop(atom_id, None)
        if history is None:
            history = deque(maxlen=self._k)
        history.append(now)
        self._resident[atom_id] = history
        # Versions start at 2: they are the heap key's tie-break and the
        # stale-entry defect above depends on them, and Table I, the
        # golden fixture and the benchmark digests record both.
        self._version[atom_id] = 2
        kth = history[0] if len(history) == self._k else _NEG_INF
        heapq.heappush(self._heap, (kth, now, 2, atom_id))

    def on_evict(self, atom_id: int) -> None:
        history = self._resident.pop(atom_id, None)
        self._version.pop(atom_id, None)
        if history is not None and self._retained_cap > 0:
            # A resident atom is never in the retained map (on_insert
            # takes it out), so this appends at the MRU end.
            self._retained[atom_id] = history
            if len(self._retained) > self._retained_cap:
                self._retained.popitem(last=False)

    def on_access(self, atom_id: int, now: float) -> None:
        history = self._resident[atom_id]
        history.append(now)
        version = self._version[atom_id] + 1
        self._version[atom_id] = version
        kth = history[0] if len(history) == self._k else _NEG_INF
        heapq.heappush(self._heap, (kth, now, version, atom_id))

    def choose_victim(self) -> int:
        while self._heap:
            kth, last, version, atom_id = self._heap[0]
            if atom_id in self._resident and self._version.get(atom_id) == version:
                return atom_id
            heapq.heappop(self._heap)  # stale entry
        raise RuntimeError("choose_victim called on empty cache")
