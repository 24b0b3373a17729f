"""Tests for Needleman–Wunsch job alignment."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alignment import (
    SharingIndex,
    align_jobs,
    alignment_score,
    overlap_matrix,
)
from repro.workload.query import AtomSet


def fs(*atoms):
    return AtomSet.of(atoms)


def sets(job):
    """The ``AtomSet`` of each of a job's frozensets (the reference)."""
    return [AtomSet.of(a) for a in job]


class TestOverlapMatrix:
    def test_basic(self):
        s = overlap_matrix([fs(1, 2), fs(3)], [fs(2), fs(4)])
        assert s.tolist() == [[True, False], [False, False]]

    def test_empty_sets_never_share(self):
        s = overlap_matrix([fs()], [fs()])
        assert not s.any()


class TestAlignJobs:
    def test_identical_jobs_fully_aligned(self):
        a = [fs(1), fs(2), fs(3)]
        assert align_jobs(a, a) == [(0, 0), (1, 1), (2, 2)]

    def test_paper_figure3_style(self):
        """Two jobs sharing a sparse subsequence align monotonically."""
        a = [fs(1), fs(2), fs(3), fs(4)]
        b = [fs(1), fs(9), fs(3), fs(8), fs(4)]
        pairs = align_jobs(a, b)
        assert (0, 0) in pairs and (2, 2) in pairs and (3, 4) in pairs

    def test_offset_alignment_uses_gaps(self):
        a = [fs(10), fs(1), fs(2)]
        b = [fs(1), fs(2)]
        assert align_jobs(a, b) == [(1, 0), (2, 1)]

    def test_no_sharing(self):
        assert align_jobs([fs(1)], [fs(2)]) == []

    def test_empty_jobs(self):
        assert align_jobs([], [fs(1)]) == []
        assert align_jobs([fs(1)], []) == []

    def test_monotone_and_unique(self):
        a = [fs(i) for i in (1, 2, 1, 2, 1)]
        b = [fs(1), fs(2)]
        pairs = align_jobs(a, b)
        # strictly increasing in both coordinates, <= 1 edge per query
        assert all(p1[0] < p2[0] and p1[1] < p2[1] for p1, p2 in zip(pairs, pairs[1:]))
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)

    def test_crossing_resolved_to_best(self):
        # a = [X, Y], b = [Y, X]: only one edge can survive.
        a = [fs(1), fs(2)]
        b = [fs(2), fs(1)]
        assert len(align_jobs(a, b)) == 1


def brute_force_best(a, b):
    """Max monotone matching by exhaustive search (tiny inputs)."""
    n, m = len(a), len(b)
    best = 0
    idx_pairs = [
        (i, j) for i in range(n) for j in range(m) if a[i] and not a[i].isdisjoint(b[j])
    ]
    for size in range(len(idx_pairs), 0, -1):
        for combo in combinations(idx_pairs, size):
            is_ = [c[0] for c in combo]
            js_ = [c[1] for c in combo]
            if sorted(is_) == is_ and sorted(js_) == js_:
                if len(set(is_)) == size and len(set(js_)) == size:
                    if all(
                        combo[x][0] < combo[x + 1][0] and combo[x][1] < combo[x + 1][1]
                        for x in range(size - 1)
                    ):
                        return size
        if best:
            break
    return 0


ATOM_SET = st.frozensets(st.integers(0, 5), max_size=3)


class TestOptimality:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ATOM_SET, min_size=1, max_size=5),
        st.lists(ATOM_SET, min_size=1, max_size=5),
    )
    def test_matches_brute_force(self, a, b):
        assert alignment_score(sets(a), sets(b)) == brute_force_best(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(ATOM_SET, min_size=1, max_size=6),
        st.lists(ATOM_SET, min_size=1, max_size=6),
    )
    def test_symmetry(self, a, b):
        assert alignment_score(sets(a), sets(b)) == alignment_score(sets(b), sets(a))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(ATOM_SET, min_size=1, max_size=6))
    def test_self_alignment_counts_nonempty(self, a):
        expected = sum(1 for s in a if s)
        assert alignment_score(sets(a), sets(a)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(ATOM_SET, min_size=1, max_size=6),
        st.lists(ATOM_SET, min_size=1, max_size=6),
    )
    def test_every_pair_shares_data(self, a, b):
        for i, j in align_jobs(sets(a), sets(b)):
            assert not a[i].isdisjoint(b[j])


def reference_overlap(a, b):
    """Pairwise ``isdisjoint`` over every (j, l) cell."""
    return np.array(
        [[bool(x) and not x.isdisjoint(y) for y in b] for x in a], dtype=bool
    ).reshape(len(a), len(b))


def reference_align(a, b):
    """Per-cell Needleman–Wunsch with free gaps, plus the traceback that
    prefers a match, then a gap in ``b``, then a gap in ``a``."""
    n, m = len(a), len(b)
    s = reference_overlap(a, b).tolist()
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        for k in range(1, m + 1):
            score[j][k] = max(
                score[j - 1][k], score[j][k - 1], score[j - 1][k - 1] + s[j - 1][k - 1]
            )
    pairs = []
    j, k = n, m
    while j > 0 and k > 0:
        if s[j - 1][k - 1] and score[j][k] == score[j - 1][k - 1] + 1:
            pairs.append((j - 1, k - 1))
            j, k = j - 1, k - 1
        elif score[j][k] == score[j - 1][k]:
            j -= 1
        else:
            k -= 1
    return pairs[::-1]


# Jobs of 1-31 queries over a small universe, empty atom sets included.
JOB = st.lists(st.frozensets(st.integers(0, 40), max_size=4), min_size=1, max_size=31)


# Jobs whose queries each sit mostly in one "time step" of 512 atoms,
# some straddling two, so spans overlap, nest and repeat.
STEP_QUERY = st.tuples(
    st.integers(0, 5), st.frozensets(st.integers(0, 520), max_size=5)
).map(lambda t: frozenset(t[0] * 512 + a for a in t[1]))
STEP_JOB = st.lists(STEP_QUERY, min_size=1, max_size=20)


class TestSharingIndex:
    def test_index_spans(self):
        """Non-empty queries sorted by (min, max), with their rows and
        the widest span; the empty set is left out."""
        index = SharingIndex([fs(5, 9), fs(2), fs(), fs(2, 3)])
        assert index.lows == [2, 2, 5]
        assert index.highs == [2, 3, 9]
        assert index.rows == [1, 3, 0]
        assert index.width == 4
        assert fs(7, 3, 5).span == (3, 7)
        assert fs().span == (0, -1)

    @settings(max_examples=150, deadline=None)
    @given(STEP_JOB, STEP_JOB)
    def test_range_filter_matches_brute_force(self, a, b):
        """Empty sets, queries across time steps and queries of one job
        sharing atoms: the span-filtered matrix is the brute-force one,
        with spans given (as the gating graph does) or computed."""
        expected = reference_overlap(a, b)
        a, b = sets(a), sets(b)
        for s in (
            SharingIndex(a, [x.span for x in a]).overlap(b, [y.span for y in b]),
            SharingIndex(a).overlap(b),
        ):
            if s is None:
                assert not expected.any()
            else:
                assert s.dtype == bool and np.array_equal(s, expected)

    def test_no_sharing_gives_none(self):
        assert SharingIndex([fs(1), fs()]).overlap([fs(2), fs()]) is None

    def test_matrix_shape_without_sharing(self):
        assert overlap_matrix([fs(1), fs(2)], [fs(3)]).shape == (2, 1)

    @settings(max_examples=80, deadline=None)
    @given(JOB, JOB)
    def test_matches_pairwise_isdisjoint(self, a, b):
        expected = reference_overlap(a, b)
        assert np.array_equal(overlap_matrix(sets(a), sets(b)), expected)
        s = SharingIndex(sets(a)).overlap(sets(b))
        if s is None:
            assert not expected.any()
        else:
            assert s.dtype == bool and np.array_equal(s, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 40), min_size=1, max_size=4), min_size=22, max_size=31
        ),
        st.sets(st.integers(0, 92), max_size=8),
    )
    def test_wide_masks(self, a, drop):
        """Masks past one byte and one machine word keep their bits."""
        a = a * 3  # 66-93 queries; every atom recurs past bit 63
        b = [x for i, x in enumerate(a) if i not in drop]
        assert np.array_equal(overlap_matrix(sets(a), sets(b)), reference_overlap(a, b))


class TestPrefixMaxDP:
    @settings(max_examples=80, deadline=None)
    @given(JOB, JOB)
    def test_matches_reference_dp_with_traceback(self, a, b):
        assert align_jobs(sets(a), sets(b)) == reference_align(a, b)

    @settings(max_examples=40, deadline=None)
    @given(JOB, JOB)
    def test_precomputed_overlap_gives_same_pairs(self, a, b):
        s = reference_overlap(a, b)
        assert align_jobs(sets(a), sets(b), s) == align_jobs(sets(a), sets(b))


def near(base):
    """Atom sets whose ids lie in ``[base, base + 4096)``: one atom,
    sparse sets up to 4,096 bits wide (empty included) or dense runs."""
    offsets = st.one_of(
        st.integers(0, 4095).map(lambda o: frozenset({o})),
        st.frozensets(st.integers(0, 4095), max_size=40),
        st.frozensets(st.integers(0, 70), min_size=1, max_size=70),
    )
    return offsets.map(lambda offs: frozenset(base + o for o in offs))


@st.composite
def set_pairs(draw):
    """Two reference sets whose bases differ by either sign, some far
    enough apart that their spans are disjoint."""
    base = draw(st.integers(-(1 << 20), 1 << 20))
    shift = draw(st.integers(-4500, 4500))
    return draw(near(base)), draw(near(base + shift))


class TestAtomSet:
    @settings(max_examples=400, deadline=None)
    @given(set_pairs())
    @example((frozenset({10, 20}), frozenset({15, 20})))  # b above a, sharing
    @example((frozenset({15, 20}), frozenset({10, 20})))  # b below a, sharing
    @example((frozenset({10, 12}), frozenset({11, 13})))  # interleaved
    @example((frozenset({10, 4105}), frozenset({4105})))  # 4,096 bits wide
    @example((frozenset({10}), frozenset({5000})))  # disjoint spans
    @example((frozenset({7}), frozenset({7})))  # one atom each
    @example((frozenset(), frozenset({0})))
    def test_matches_frozenset_reference(self, pair):
        a, b = pair
        x, y = AtomSet.of(a), AtomSet.of(b)
        assert x.shares(y) == y.shares(x) == (not a.isdisjoint(b))
        for ref, got in ((a, x), (b, y)):
            assert got.span == ((min(ref), max(ref)) if ref else (0, -1))
            assert got.ids() == sorted(ref)
            assert got.n_atoms == len(ref)
            assert AtomSet.of(np.array(sorted(ref), dtype=np.int64)) == got
