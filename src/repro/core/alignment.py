"""Needleman–Wunsch alignment of job query sequences (paper §IV-B).

JAWS identifies the maximal data sharing between a *pair* of ordered
jobs with a global sequence alignment: queries are the "characters",
the match score ``s(j, l)`` is 1 when ``A(q_{i,j}) ∩ A(q_{k,l}) ≠ ∅``
(the queries touch at least one common atom) and 0 otherwise, and gaps
are free.  Atom sets are :class:`~repro.workload.query.AtomSet`
bitmaps.  Every matched pair in the optimal alignment becomes a
*gating edge* candidate: the scheduler should co-schedule the two
queries so the shared atoms are read once.

Because the alignment is monotone, the produced edge set automatically
satisfies the paper's per-pair feasibility conditions: no two edges
cross, and each query has at most one edge to the other job.

Cost.  The paper states :math:`O(n^2 m^2)` over all pairs of ``n`` jobs
of ``m`` queries, counting an :math:`O(m^2)` DP per pair.  Here the
overlap matrix comes from a *sharing index* of one job
(:class:`SharingIndex`): its queries sorted by the lowest atom each
touches.  Every query of the partner job bisects the index for the
queries whose atom range ``[min, max]`` meets its own, and only those
run the bitmap sharing test (:meth:`AtomSet.shares`: one shift and one
AND).  A query's atoms lie in one time step and an ordered job's
queries in distinct ones, so in practice at most
one candidate survives the range test; a partner that shares no atom
costs two bisections per query and no DP at all.  The DP itself is
``n`` vectorized rows: the row recurrence is a prefix max (see
:func:`align_jobs`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

import numpy as np

from repro.workload.query import AtomSet

__all__ = ["SharingIndex", "overlap_matrix", "align_jobs", "alignment_score"]


class SharingIndex:
    """One job's non-empty queries sorted by ``(min, max)`` of their
    atom sets, built once per arriving job and then dropped.

    :meth:`overlap` gives the job's overlap matrix against any other
    job.  A set ``a`` can share an atom with ``b`` only if
    ``min(b) - width <= min(a) <= max(b)`` and ``max(a) >= min(b)``,
    where ``width`` is the widest ``max - min`` in the index; the first
    condition is two bisections, and :meth:`AtomSet.shares` runs only on
    the pairs meeting both.  Exact for any atom sets.
    """

    __slots__ = ("n", "width", "lows", "highs", "rows", "sets")

    def __init__(
        self,
        atom_sets: Sequence[AtomSet],
        spans: Optional[Sequence[tuple[int, int]]] = None,
    ) -> None:
        if spans is None:
            spans = [a.span for a in atom_sets]
        entries = sorted((lo, hi, j) for j, (lo, hi) in enumerate(spans) if lo <= hi)
        self.n = len(atom_sets)
        self.width = max((hi - lo for lo, hi, _ in entries), default=0)
        self.lows = [lo for lo, _, _ in entries]
        self.highs = [hi for _, hi, _ in entries]
        self.rows = [j for _, _, j in entries]
        self.sets = [atom_sets[j] for j in self.rows]

    def overlap(
        self,
        atoms_b: Sequence[AtomSet],
        spans_b: Optional[Sequence[tuple[int, int]]] = None,
    ) -> Optional[np.ndarray]:
        """``S[j, l]`` of the indexed job against ``atoms_b`` (with
        their spans, computed when not given), or ``None`` when no pair
        shares an atom."""
        if spans_b is None:
            spans_b = [b.span for b in atoms_b]
        lows, highs, rows, sets = self.lows, self.highs, self.rows, self.sets
        width = self.width
        hit_rows: list[int] = []
        hit_cols: list[int] = []
        for l, (lo, hi) in enumerate(spans_b):
            for k in range(bisect_left(lows, lo - width), bisect_right(lows, hi)):
                if highs[k] >= lo and sets[k].shares(atoms_b[l]):
                    hit_rows.append(rows[k])
                    hit_cols.append(l)
        if not hit_rows:
            return None
        s = np.zeros((self.n, len(atoms_b)), dtype=bool)
        s[hit_rows, hit_cols] = True
        return s


def overlap_matrix(atoms_a: Sequence[AtomSet], atoms_b: Sequence[AtomSet]) -> np.ndarray:
    """Boolean matrix ``S[j, l]`` = queries j (of A) and l (of B) share data."""
    s = SharingIndex(atoms_a).overlap(atoms_b)
    return s if s is not None else np.zeros((len(atoms_a), len(atoms_b)), dtype=bool)


def align_jobs(
    atoms_a: Sequence[AtomSet],
    atoms_b: Sequence[AtomSet],
    overlap: Optional[np.ndarray] = None,
) -> list[tuple[int, int]]:
    """Optimal monotone matching of data-sharing queries between two jobs.

    Parameters
    ----------
    atoms_a, atoms_b:
        Per-query atom sets ``A(q)`` of the two jobs, in execution
        order.
    overlap:
        Their overlap matrix when the caller already has it (from a
        :class:`SharingIndex`); computed with :func:`overlap_matrix`
        otherwise.

    Returns
    -------
    list of (j, l)
        Matched index pairs with ``s = 1``, strictly increasing in both
        coordinates — the gating-edge candidates.
    """
    n, m = len(atoms_a), len(atoms_b)
    if n == 0 or m == 0:
        return []
    s = overlap_matrix(atoms_a, atoms_b) if overlap is None else overlap

    # score[j, l] = best alignment of prefixes a[:j], b[:l]:
    # row[l] = max(prev[l], prev[l-1] + s[j-1, l-1], row[l-1]) with
    # row[0] = 0.  The first two terms are a vector; the row[l-1] term
    # makes the row the running max of that vector, and since every
    # score is non-negative the running max from 0 is its prefix max.
    # Rows are non-decreasing, so a row without a match repeats prev.
    score = np.zeros((n + 1, m + 1), dtype=np.int32)
    matched = s.any(axis=1).tolist()
    for j in range(1, n + 1):
        prev = score[j - 1]
        if matched[j - 1]:
            np.maximum.accumulate(np.maximum(prev[1:], prev[:-1] + s[j - 1]), out=score[j, 1:])
        else:
            score[j] = prev

    # Traceback, preferring matches so every point of score is realized
    # as an explicit edge (on Python lists: scalar numpy indexing is
    # the slow part of a short walk).
    sc: list[list[int]] = score.tolist()
    sl: list[list[bool]] = s.tolist()
    pairs: list[tuple[int, int]] = []
    j, l = n, m
    while j > 0 and l > 0:
        if sl[j - 1][l - 1] and sc[j][l] == sc[j - 1][l - 1] + 1:
            pairs.append((j - 1, l - 1))
            j -= 1
            l -= 1
        elif sc[j][l] == sc[j - 1][l]:
            j -= 1
        else:
            l -= 1
    pairs.reverse()
    return pairs


def alignment_score(atoms_a: Sequence[AtomSet], atoms_b: Sequence[AtomSet]) -> int:
    """Number of gating edges the optimal alignment yields."""
    return len(align_jobs(atoms_a, atoms_b))
