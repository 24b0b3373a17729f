"""Per-atom workload queues (paper §III-C, §V-C).

The Workload Manager keeps, for every atom with pending requests, the
union of all sub-query position sets against it, the age of the oldest
pending sub-query, and whether the atom is currently cached (the
``phi`` term of Eq. 1).  This module stores those aggregates
struct-of-arrays: parallel NumPy columns over *packed positions*
``0..n-1``, one row per active atom, so the scheduling metrics
vectorize over all active atoms in one shot.

The columns are atom id, queued position count, oldest arrival, cached
flag, the Eq. 1 workload throughput ``u_t`` and an activation sequence
number; each position also owns its pending sub-query list and the
parallel list of their arrival times.  The layout keeps per-event cost
independent of the number of active atoms:

* rows stay dense by **swap-remove** — draining an atom moves the last
  row into its place — so a scheduling decision reads ``column[:n]``
  slices with no gather;
* ``u_t`` is maintained **incrementally**, per mutated row: scalar
  IEEE-754 arithmetic bit-identical to the vectorized
  :func:`~repro.core.metrics.workload_throughput`, or that function
  itself over the rows one arriving query touches
  (:meth:`WorkloadQueues.add_query`).  The column *is* Eq. 1: the
  schedulers read it from the view and never recompute it, and
  :meth:`WorkloadQueues.check_consistency` compares it with a fresh
  recomputation;
* capacity grows geometrically (doubling), so row allocation is
  amortized O(1);
* a per-query inverted index (query id -> atom ids) lets
  :meth:`WorkloadQueues.remove_query` touch only the cancelled query's
  rows.  An entry lives from the query's arrival until its completion
  (:meth:`WorkloadQueues.forget_query`) or cancellation: an arriving
  query records its atom column once, a single re-admitted sub-query
  appends its atom, and draining an atom un-indexes nothing, so an
  entry may name atoms the query no longer has work on (the sanitizer
  checks that every entry belongs to a live query);
* :meth:`WorkloadQueues.active_view` is memoized on a mutation version
  counter.

Swap-remove permutes the packed order.  Order-sensitive consumers (the
two-level per-time-step float sums, URC utility means) read
:meth:`WorkloadQueues.active_view`, which lists the rows by time step
and, within a step, in activation order — an atom re-enters at the end
each time its queue goes from empty to non-empty — with one argsort of
the key ``(time step << 40) | activation sequence``.  Only
order-independent reductions (min, max, ties) may read
:meth:`WorkloadQueues.packed` directly.  Walks that need activation
order across steps (node evacuation) follow the atom -> row map, whose
insertion order is activation order.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.config import CostModel
from repro.core.metrics import workload_throughput
from repro.workload.query import SubQueries, SubQuery

__all__ = ["ActiveView", "WorkloadQueues"]

_MIN_CAPACITY = 256
# Bits below the time step in the view's sort key: room for 2**40
# activations per run.
_SEQ_BITS = 40


class ActiveView(NamedTuple):
    """Read-only parallel arrays over the active atoms, ordered by time
    step and, within a step, by activation."""

    atom_ids: np.ndarray
    timesteps: np.ndarray
    counts: np.ndarray
    oldest: np.ndarray
    u_t: np.ndarray


class WorkloadQueues:
    """Aggregated pending work, indexed by atom.

    An atom gets a packed row when its first sub-query arrives and
    gives it up when a batch drains the atom.  Cached flags are
    maintained incrementally from buffer-cache listener callbacks.

    ``capacity_hint`` preallocates column storage when the caller knows
    the expected working set (e.g. the dataset's atoms-per-timestep),
    avoiding early regrowth; capacity still doubles beyond the hint.
    ``cost`` supplies the ``T_b``/``T_m`` constants of the ``u_t``
    column (the default :class:`~repro.config.CostModel` when omitted).
    """

    def __init__(
        self,
        atoms_per_timestep: int,
        capacity_hint: int = 0,
        cost: Optional[CostModel] = None,
    ) -> None:
        self._atoms_per_timestep = atoms_per_timestep
        self._cost = cost or CostModel()
        cap = _MIN_CAPACITY
        while cap < capacity_hint:
            cap *= 2
        # atom id -> packed row.  Dict order is activation order: a
        # moved row updates its key in place, a new atom appends.
        self._pos: dict[int, int] = {}
        self._n = 0
        self._ids = np.zeros(cap, dtype=np.int64)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._oldest = np.zeros(cap, dtype=np.float64)
        self._cached = np.zeros(cap, dtype=bool)
        self._ut = np.zeros(cap, dtype=np.float64)
        self._seq = np.zeros(cap, dtype=np.int64)
        self._next_seq = 0
        # Per-row pending sub-queries and their arrival times (parallel
        # lists; min(arrivals) == oldest).  Length n, swap-removed with
        # the columns.
        self._subqueries: list[list[SubQuery]] = []
        self._arrivals: list[list[float]] = []
        # Inverted index: query id -> the atoms its sub-queries were
        # queued on, from arrival until completion or cancellation
        # (a superset of the atoms it still has work on).  Raw int64
        # arrays: an entry outlives the sub-queries' boxed atom ids.
        self._by_query: dict[int, array[int]] = {}
        self._cached_atoms: set[int] = set()
        self.total_positions = 0
        # Mutation counter; bumped whenever the active view would
        # change.  Consumers (metric memos, tie caches) key on it.
        self._version = 0
        self._view: Optional[ActiveView] = None
        self._view_version = -1

    @property
    def version(self) -> int:
        """Monotonic mutation counter for memoizing derived metrics."""
        return self._version

    @property
    def capacity(self) -> int:
        """Rows allocated in every column (grows by doubling)."""
        return len(self._ids)

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        extra = len(self._ids)
        self._ids = np.concatenate([self._ids, np.zeros(extra, dtype=np.int64)])
        self._counts = np.concatenate([self._counts, np.zeros(extra, dtype=np.int64)])
        self._oldest = np.concatenate([self._oldest, np.zeros(extra)])
        self._cached = np.concatenate([self._cached, np.zeros(extra, dtype=bool)])
        self._ut = np.concatenate([self._ut, np.zeros(extra)])
        self._seq = np.concatenate([self._seq, np.zeros(extra, dtype=np.int64)])

    def _throughput(self, count: int, cached: bool) -> float:
        """Scalar Eq. 1, bit-identical to the elementwise
        :func:`~repro.core.metrics.workload_throughput` (the same
        IEEE-754 operations in the same order)."""
        w = float(count)
        denom = self._cost.t_b * (0.0 if cached else 1.0) + self._cost.t_m * w
        return w / denom if denom > 0.0 else 0.0

    def _remove_row(self, atom_id: int, p: int) -> None:
        """Swap-remove row ``p`` (holding ``atom_id``)."""
        del self._pos[atom_id]
        last = self._n - 1
        if p != last:
            self._pos[int(self._ids[last])] = p
            for col in (self._ids, self._counts, self._oldest, self._cached, self._ut, self._seq):
                col[p] = col[last]
            self._subqueries[p] = self._subqueries[last]
            self._arrivals[p] = self._arrivals[last]
        self._subqueries.pop()
        self._arrivals.pop()
        self._n = last

    def _index_query(self, query_id: int, atom_ids: array[int]) -> None:
        """Record that ``query_id`` queued work on ``atom_ids``."""
        atoms = self._by_query.get(query_id)
        if atoms is None:
            self._by_query[query_id] = atom_ids
        else:
            atoms.extend(atom_ids)

    def _drop_query_from_row(self, atom_id: int, p: int, query_id: int) -> int:
        """Remove ``query_id``'s sub-queries from row ``p`` (holding
        ``atom_id``); returns how many it had there."""
        kept_subs: list[SubQuery] = []
        kept_arrivals: list[float] = []
        dropped = 0
        for sq, arrival in zip(self._subqueries[p], self._arrivals[p]):
            if sq.query.query_id == query_id:
                dropped += sq.n_positions
            else:
                kept_subs.append(sq)
                kept_arrivals.append(arrival)
        removed = len(self._subqueries[p]) - len(kept_subs)
        if not removed:
            return 0
        self.total_positions -= dropped
        if kept_subs:
            self._subqueries[p] = kept_subs
            self._arrivals[p] = kept_arrivals
            count = int(self._counts[p]) - dropped
            self._counts[p] = count
            self._oldest[p] = min(kept_arrivals)
            self._ut[p] = self._throughput(count, bool(self._cached[p]))
        else:
            self._remove_row(atom_id, p)
        return removed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subquery: SubQuery, now: float) -> None:
        """Append a sub-query to its atom's workload queue.

        ``now`` is the sub-query's arrival time; re-admitted sub-queries
        (node failover) pass their *original* arrival, which may predate
        the row's current oldest and then takes over the atom's age.
        """
        atom_id = subquery.atom_id
        p = self._pos.get(atom_id)
        if p is None:
            p = self._n
            if p == len(self._ids):
                self._grow()
            self._n = p + 1
            self._pos[atom_id] = p
            cached = atom_id in self._cached_atoms
            self._ids[p] = atom_id
            self._oldest[p] = now
            self._cached[p] = cached
            self._seq[p] = self._next_seq
            self._next_seq += 1
            self._subqueries.append([subquery])
            self._arrivals.append([now])
            count = subquery.n_positions
        else:
            if now < self._oldest[p]:
                self._oldest[p] = now
            cached = bool(self._cached[p])
            count = int(self._counts[p]) + subquery.n_positions
            self._subqueries[p].append(subquery)
            self._arrivals[p].append(now)
        self._counts[p] = count
        self._ut[p] = self._throughput(count, cached)
        self._index_query(subquery.query.query_id, array("q", (atom_id,)))
        self.total_positions += subquery.n_positions
        self._version += 1

    def add_query(self, subqueries: Sequence[SubQuery], now: float) -> None:
        """Append sub-queries that all arrived at ``now`` (one query's).

        Equivalent to :meth:`add` on each in order: one pass over the
        sub-queries assigns rows and activation sequence numbers in
        sub-query order, then the column writes and the Eq. 1 ``u_t``
        refresh run vectorized over the touched rows.  A
        :class:`~repro.workload.query.SubQueries` record is read by
        its columns, and its atom column becomes the query's index entry.
        """
        if not subqueries:
            return
        if isinstance(subqueries, SubQueries):
            atom_ids = subqueries.atom_ids.tolist()
            subs: Sequence[SubQuery] = list(
                map(
                    SubQuery,
                    repeat(subqueries.query),
                    atom_ids,
                    subqueries.n_positions.tolist(),
                    subqueries.neighbor_keys,
                )
            )
            positions = subqueries.n_positions
            # The column is int64: its bytes are the entry's.
            self._index_query(subqueries.query.query_id, array("q", subqueries.atom_ids.tobytes()))
        else:
            subs = subqueries
            atom_ids = [sq.atom_id for sq in subs]
            positions = np.array([sq.n_positions for sq in subs], dtype=np.int64)
            for sq, atom_id in zip(subs, atom_ids):
                self._index_query(sq.query.query_id, array("q", (atom_id,)))
        n0 = n = self._n
        pos = self._pos
        rows: list[int] = []
        new_atoms: list[int] = []
        for atom_id, sq in zip(atom_ids, subs):
            p = pos.get(atom_id)
            if p is None:
                p = pos[atom_id] = n
                n += 1
                new_atoms.append(atom_id)
                self._subqueries.append([sq])
                self._arrivals.append([now])
            else:
                self._subqueries[p].append(sq)
                self._arrivals[p].append(now)
            rows.append(p)
        while n > len(self._ids):
            self._grow()
        if n > n0:
            self._ids[n0:n] = new_atoms
            self._counts[n0:n] = 0
            self._oldest[n0:n] = now
            self._cached[n0:n] = [a in self._cached_atoms for a in new_atoms]
            self._seq[n0:n] = np.arange(self._next_seq, self._next_seq + n - n0)
            self._next_seq += n - n0
            self._n = n
        r = np.array(rows, dtype=np.intp)
        # add.at accumulates repeated rows the way sequential add would.
        np.add.at(self._counts, r, positions)
        oldest = self._oldest[r]
        self._oldest[r[now < oldest]] = now
        self._ut[r] = workload_throughput(self._counts[r], self._cached[r], self._cost)
        self.total_positions += int(positions.sum())
        self._version += len(rows)

    def pop_atom(self, atom_id: int) -> list[SubQuery]:
        """Drain an atom's queue (the batch takes every pending
        sub-query in one pass over the data)."""
        p = self._pos[atom_id]
        subs = self._subqueries[p]
        self.total_positions -= int(self._counts[p])
        self._remove_row(atom_id, p)
        self._version += 1
        return subs

    def pop_atom_entries(self, atom_id: int) -> list[tuple[float, SubQuery]]:
        """Drain an atom's queue keeping each sub-query's true arrival
        time (node-failover evacuation re-admits with these ages)."""
        p = self._pos[atom_id]
        entries = list(zip(self._arrivals[p], self._subqueries[p]))
        self.pop_atom(atom_id)
        return entries

    def pop_all_entries(self) -> list[tuple[float, SubQuery]]:
        """Drain every atom's queue in activation order, keeping each
        sub-query's true arrival time (node evacuation)."""
        entries: list[tuple[float, SubQuery]] = []
        for atom_id in list(self._pos):
            entries.extend(self.pop_atom_entries(atom_id))
        return entries

    def remove_query(self, query_id: int) -> int:
        """Drop every pending sub-query of ``query_id`` (cancellation).

        The inverted per-query index makes this touch only the
        cancelled query's atoms, not every active row: atoms no longer
        queued are skipped and each remaining row is filtered by query
        id.  Atoms whose queues empty give up their rows; surviving
        atoms restore their true oldest-arrival age from the stored
        per-sub-query arrival times.  Returns the number removed.
        """
        atoms = self._by_query.pop(query_id, None)
        if not atoms:
            return 0
        removed = 0
        for atom_id in atoms:
            p = self._pos.get(atom_id)
            if p is not None:
                removed += self._drop_query_from_row(atom_id, p, query_id)
        if removed:
            self._version += 1
        return removed

    def forget_query(self, query_id: int) -> None:
        """Drop a completed query's index entry."""
        self._by_query.pop(query_id, None)

    # -- cache residency listeners ------------------------------------------
    def on_cache_insert(self, atom_id: int) -> None:
        self._cached_atoms.add(atom_id)
        self._set_cached(atom_id, True)

    def on_cache_evict(self, atom_id: int) -> None:
        self._cached_atoms.discard(atom_id)
        self._set_cached(atom_id, False)

    def _set_cached(self, atom_id: int, cached: bool) -> None:
        p = self._pos.get(atom_id)
        if p is not None:
            self._cached[p] = cached
            self._ut[p] = self._throughput(int(self._counts[p]), cached)
            self._version += 1

    # ------------------------------------------------------------------
    # Views for metric computation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, atom_id: int) -> bool:
        return atom_id in self._pos

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(atom_ids, u_t, oldest_arrival)`` live column slices in
        packed order, which is NOT activation order.

        Callers must treat them as read-only and use only
        order-independent reductions (min, max, ties); anything that
        depends on order reads :meth:`active_view`.
        """
        n = self._n
        return self._ids[:n], self._ut[:n], self._oldest[:n]

    def active_view(self) -> ActiveView:
        """The active atoms' columns, ordered by time step and, within
        a step, by activation; ``u_t`` is the maintained Eq. 1 column.

        Arrays are read-only snapshots, memoized on the queue version:
        repeated calls with no intervening mutation return the same
        tuple without copying.  Callers must not write to them (they
        are marked non-writeable).
        """
        if self._view is not None and self._view_version == self._version:
            return self._view
        n = self._n
        ids = self._ids[:n]
        steps = self.timesteps_of(ids)
        # Sequence numbers are unique, so the keys are too.
        order = np.argsort((steps << _SEQ_BITS) | self._seq[:n])
        view = ActiveView(
            ids[order],
            steps[order],
            self._counts[:n][order],
            self._oldest[:n][order],
            self._ut[:n][order],
        )
        for arr in view:
            arr.flags.writeable = False
        self._view = view
        self._view_version = self._version
        return view

    def iter_subquery_lists(self) -> Iterator[list[SubQuery]]:
        """Yield each active atom's pending sub-query list (read-only),
        in activation order."""
        for p in self._pos.values():
            yield self._subqueries[p]

    def positions_pending(self, atom_id: int) -> int:
        """Total queued positions against one atom (0 when idle)."""
        p = self._pos.get(atom_id)
        return int(self._counts[p]) if p is not None else 0

    def oldest_arrival(self, atom_id: int) -> float:
        """Arrival time of the atom's oldest pending sub-query."""
        return float(self._oldest[self._pos[atom_id]])

    def timesteps_of(self, atom_ids: np.ndarray) -> np.ndarray:
        """Vectorized packed-id -> time step."""
        return atom_ids // self._atoms_per_timestep

    # ------------------------------------------------------------------
    # Sanitizer checkpoint
    # ------------------------------------------------------------------
    def check_consistency(self) -> list[str]:
        """Audit the packed columns, per-row lists and inverted index.

        Returns human-readable problem descriptions (empty = coherent).
        Called by the simulation sanitizer after every engine event and
        on checkpoint restore; read-only.  Verifies that the atom -> row
        map is the inverse of the id column over rows ``0..n-1``; that
        activation sequence numbers are unique and ascend in map order;
        that ``u_t`` equals an Eq. 1 recomputation; per row, that the
        arrival list parallels the sub-query list with
        ``min(arrivals) == oldest``, that the count matches the queued
        positions and the cached flag the residency set; and that the
        inverted per-query index covers every pending (query, atom)
        pair.  The index may also name atoms a query no longer has
        work on: entries last until completion.
        """
        problems: list[str] = []
        n = self._n
        if len(self._pos) != n:
            problems.append(f"row map holds {len(self._pos)} atoms for {n} packed rows")
            return problems
        if len(self._subqueries) != n or len(self._arrivals) != n:
            problems.append(
                f"{len(self._subqueries)} sub-query and {len(self._arrivals)} "
                f"arrival lists for {n} packed rows"
            )
            return problems
        rows = np.fromiter(self._pos.values(), dtype=np.int64, count=n)
        atoms = np.fromiter(self._pos.keys(), dtype=np.int64, count=n)
        if not np.array_equal(np.sort(rows), np.arange(n)):
            problems.append("row map is not a permutation of the packed rows")
            return problems
        if not np.array_equal(self._ids[rows], atoms):
            problems.append("row map and atom-id column are not inverse")
        seq = self._seq[:n]
        # Sort and diff, not np.unique, which imports numpy.ma.
        if not bool((np.diff(np.sort(seq)) > 0).all()):
            problems.append("activation sequence numbers are not unique")
        elif not bool((np.diff(seq[rows]) > 0).all()):
            problems.append("activation sequence disagrees with the row map's order")
        expected_ut = workload_throughput(self._counts[:n], self._cached[:n], self._cost)
        if not np.array_equal(self._ut[:n], expected_ut):
            problems.append("u_t column diverges from Eq. 1 recomputation")
        total = 0
        indexed = {(q, a) for q, atoms in self._by_query.items() for a in atoms}
        for atom_id, p in self._pos.items():
            subs = self._subqueries[p]
            arrivals = self._arrivals[p]
            if not subs:
                problems.append(f"atom {atom_id}: active row {p} has no sub-queries")
            if len(arrivals) != len(subs):
                problems.append(
                    f"atom {atom_id}: {len(arrivals)} arrivals for {len(subs)} sub-queries"
                )
            elif subs and min(arrivals) != float(self._oldest[p]):
                problems.append(
                    f"atom {atom_id}: oldest {float(self._oldest[p])} != "
                    f"min arrival {min(arrivals)}"
                )
            positions = sum(sq.n_positions for sq in subs)
            if int(self._counts[p]) != positions:
                problems.append(
                    f"atom {atom_id}: row count {int(self._counts[p])} != "
                    f"sub-query positions {positions}"
                )
            if bool(self._cached[p]) != (atom_id in self._cached_atoms):
                problems.append(f"atom {atom_id}: stale cached flag")
            for sq in subs:
                if sq.atom_id != atom_id:
                    problems.append(
                        f"atom {atom_id}: row holds sub-query for atom {sq.atom_id}"
                    )
                if (sq.query.query_id, atom_id) not in indexed:
                    problems.append(
                        f"atom {atom_id}: query {sq.query.query_id} missing from "
                        "inverted index"
                    )
            total += positions
        if total != self.total_positions:
            problems.append(
                f"total_positions {self.total_positions} != summed row counts {total}"
            )
        return problems
