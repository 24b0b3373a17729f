"""Needleman–Wunsch alignment of job query sequences (paper §IV-B).

JAWS identifies the maximal data sharing between a *pair* of ordered
jobs with a global sequence alignment: queries are the "characters",
the match score ``s(j, l)`` is 1 when ``A(q_{i,j}) ∩ A(q_{k,l}) ≠ ∅``
(the queries touch at least one common atom) and 0 otherwise, and gaps
are free.  Every matched pair in the optimal alignment becomes a
*gating edge* candidate: the scheduler should co-schedule the two
queries so the shared atoms are read once.

Because the alignment is monotone, the produced edge set automatically
satisfies the paper's per-pair feasibility conditions: no two edges
cross, and each query has at most one edge to the other job.

Cost.  The paper states :math:`O(n^2 m^2)` over all pairs of ``n`` jobs
of ``m`` queries, counting an :math:`O(m^2)` DP per pair.  Here the
overlap matrix comes from a *sharing index* of one job (atom →
bitmask of its query indices, :class:`SharingIndex`): every query of
the partner job is tested once against the index's key set with a
C-level ``isdisjoint``, and only intersecting queries fold in masks.
Building the index is linear in the job's atoms, and a partner that
shares no atom costs one disjointness test per query and no DP at all.
The DP itself is ``n`` vectorized rows: the row recurrence is a prefix
max (see :func:`align_jobs`).
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

import numpy as np

__all__ = ["SharingIndex", "overlap_matrix", "align_jobs", "alignment_score"]


class SharingIndex:
    """Which queries of one job touch each atom: ``atom → bitmask`` of
    query indices, built once per arriving job and then dropped.

    :meth:`overlap` gives the job's overlap matrix against any other
    job by testing each of that job's queries once against the index.
    """

    __slots__ = ("n", "masks", "keys")

    def __init__(self, atom_sets: Sequence[frozenset[int]]) -> None:
        masks: dict[int, int] = {}
        for j, atoms in enumerate(atom_sets):
            bit = 1 << j
            for atom in atoms:
                masks[atom] = masks.get(atom, 0) | bit
        self.n = len(atom_sets)
        self.masks = masks
        # A frozenset keeps the disjointness tests in C.
        self.keys = frozenset(masks)

    def overlap(self, atoms_b: Sequence[frozenset[int]]) -> Optional[np.ndarray]:
        """``S[j, l]`` of the indexed job against ``atoms_b``, or ``None``
        when no pair shares an atom."""
        keys = self.keys
        get = self.masks.__getitem__
        cols: list[int] = []
        col_masks: list[int] = []
        for l, b in enumerate(atoms_b):
            if keys.isdisjoint(b):
                continue
            cols.append(l)
            col_masks.append(reduce(or_, map(get, keys & b)))
        if not cols:
            return None
        n = self.n
        nbytes = (n + 7) // 8
        packed = np.frombuffer(
            b"".join(mask.to_bytes(nbytes, "little") for mask in col_masks), dtype=np.uint8
        ).reshape(len(cols), nbytes)
        s = np.zeros((n, len(atoms_b)), dtype=bool)
        s[:, cols] = np.unpackbits(packed, axis=1, count=n, bitorder="little").T
        return s


def overlap_matrix(
    atoms_a: Sequence[frozenset[int]], atoms_b: Sequence[frozenset[int]]
) -> np.ndarray:
    """Boolean matrix ``S[j, l]`` = queries j (of A) and l (of B) share data."""
    s = SharingIndex(atoms_a).overlap(atoms_b)
    return s if s is not None else np.zeros((len(atoms_a), len(atoms_b)), dtype=bool)


def align_jobs(
    atoms_a: Sequence[frozenset[int]],
    atoms_b: Sequence[frozenset[int]],
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


def alignment_score(
    atoms_a: Sequence[frozenset[int]], atoms_b: Sequence[frozenset[int]]
) -> int:
    """Number of gating edges the optimal alignment yields."""
    return len(align_jobs(atoms_a, atoms_b))
