"""NoShare baseline scheduler (paper §VI).

"NoShare evaluates each query independently (no I/O is shared) and in
arrival order."  To model multiple queries executing *simultaneously*
and competing for I/O — the contention the paper's introduction
motivates — active queries are interleaved round-robin, one sub-query
(atom) at a time, the way a conventional DBMS timeslices concurrent
scans.  No co-scheduling happens: a batch contains exactly one
sub-query of one query, even when other queries have pending work on
the same atom (they will read it again themselves; only the buffer
cache can save them, as it would under SQL Server).

An active query is held as its pre-processed sub-queries (a
:class:`~repro.workload.query.SubQueries` record of columns, or the
list a re-admission hands over) and a cursor to the next one; the
:class:`SubQuery` a batch runs is built when the batch is.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Optional, Sequence

from repro.core.base import Batch, Scheduler
from repro.workload.query import Query, SubQuery

__all__ = ["NoShareScheduler"]


class NoShareScheduler(Scheduler):
    """Arrival-order, share-nothing execution with round-robin
    interleaving of concurrent queries.

    Parameters
    ----------
    max_concurrent:
        Maximum queries interleaved at once; arrivals beyond it wait in
        FIFO admission order (``None`` = unbounded, every active query
        competes).
    """

    name = "NoShare"

    def __init__(self, max_concurrent: Optional[int] = None) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 or None")
        self._max_concurrent = max_concurrent
        # (query, sub-queries, cursor to the next one, arrival time)
        self._admission: deque[tuple[Query, Sequence[SubQuery], int, float]] = deque()
        self._active: deque[tuple[Query, Sequence[SubQuery], int, float]] = deque()

    def on_query_arrival(self, query: Query, subqueries: Sequence[SubQuery], now: float) -> None:
        if not subqueries:
            return  # multi-node broadcast: no local work for this query
        entry = (query, subqueries, 0, now)
        if self._max_concurrent is not None and len(self._active) >= self._max_concurrent:
            self._admission.append(entry)
        else:
            self._active.append(entry)

    def _admit(self) -> None:
        while self._admission and (
            self._max_concurrent is None or len(self._active) < self._max_concurrent
        ):
            self._active.append(self._admission.popleft())

    def next_batch(self, now: float) -> Optional[Batch]:
        self._admit()
        if not self._active:
            return None
        query, subs, cursor, arrival = self._active.popleft()
        subquery = subs[cursor]
        cursor += 1
        if cursor < len(subs):
            self._active.append((query, subs, cursor, arrival))  # round-robin rotation
        else:
            self._admit()
        return Batch(atoms=[(subquery.atom_id, [subquery])])

    def has_pending(self) -> bool:
        return bool(self._active) or bool(self._admission)

    def queue_depth(self) -> int:
        return sum(
            len(subs) - cursor for _, subs, cursor, _ in chain(self._active, self._admission)
        )

    def pending_by_query(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for query, subs, cursor, _ in chain(self._active, self._admission):
            qid = query.query_id
            counts[qid] = counts.get(qid, 0) + len(subs) - cursor
        return counts

    # ------------------------------------------------------------------
    # Degraded-mode hooks (node failover, query cancellation)
    # ------------------------------------------------------------------
    def evacuate(self, now: float) -> list[tuple[float, SubQuery]]:
        entries = [
            (arrival, subs[i])
            for _, subs, cursor, arrival in chain(self._active, self._admission)
            for i in range(cursor, len(subs))
        ]
        self._active.clear()
        self._admission.clear()
        return entries

    # readmit: the base implementation regroups by query and re-enters
    # through on_query_arrival, which is exactly NoShare admission.

    def cancel_query(self, query_id: int, now: float) -> int:
        removed = 0
        for queue in (self._active, self._admission):
            kept = []
            for entry in queue:
                query, subs, cursor, _ = entry
                if query.query_id == query_id:
                    removed += len(subs) - cursor
                else:
                    kept.append(entry)
            queue.clear()
            queue.extend(kept)
        return removed
