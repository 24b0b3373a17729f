"""Tests for interpolation stencils and neighbor-atom resolution."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import (
    InterpolationSpec,
    neighbor_atoms_from_keys,
    stencil_atoms,
)
from repro.workload.query import Query, preprocess_query

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=8)
MAPPER = AtomMapper(SPEC)


class TestInterpolationSpec:
    def test_half_width(self):
        assert InterpolationSpec(order=8).half_width == 4
        assert InterpolationSpec(order=12).half_width == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            InterpolationSpec(order=7)
        with pytest.raises(ValueError):
            InterpolationSpec(order=0)


class TestStencilAtoms:
    def test_interior_position_single_atom(self):
        pos = np.array([[32.0, 32.0, 32.0]])  # atom center
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 1

    def test_kernel_within_halo_never_expands(self):
        """Order 8 with the production halo of 4 never needs neighbors —
        the design rationale for the 72³ physical atoms (§III-A)."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, SPEC.grid_side, (2000, 3))
        interp = InterpolationSpec(order=8)
        atoms = stencil_atoms(SPEC, pos, 0, interp)
        primaries = np.unique(MAPPER.atom_ids(pos, 0))
        np.testing.assert_array_equal(np.sort(atoms), np.sort(primaries))

    def test_face_position_expands_once(self):
        # 0.5 voxels from the x face: order-12 stencil (h=6) exceeds the
        # 4-voxel halo on that side only.
        pos = np.array([[64.5, 32.0, 32.0]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 2

    def test_corner_position_expands_to_eight(self):
        pos = np.array([[64.5, 64.5, 64.5]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 8

    def test_periodic_wrap_at_domain_edge(self):
        pos = np.array([[0.5, 32.0, 32.0]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        mortons = sorted(int(a) % SPEC.atoms_per_timestep for a in atoms)
        assert len(atoms) == 2
        # The neighbor is the far-x atom (periodic domain).
        coords = [divmod_coords(m) for m in mortons]
        xs = sorted(c[0] for c in coords)
        assert xs == [0, 7]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("coord", [-1e-20, float(SPEC.grid_side)])
    def test_wrap_to_grid_side_is_coordinate_zero(self, axis, coord):
        """``np.mod(-1e-20, side) == side``: the stencil of such a position
        is the stencil at 0 on that axis, in the same time step."""
        interp = InterpolationSpec(order=12)
        pos = np.full((1, 3), 100.0)
        zero = pos.copy()
        pos[0, axis] = coord
        zero[0, axis] = 0.0
        last = SPEC.n_timesteps - 1
        atoms = stencil_atoms(SPEC, pos, last, interp)
        np.testing.assert_array_equal(atoms, stencil_atoms(SPEC, zero, last, interp))
        assert atoms.max() < SPEC.n_atoms

    def test_timestep_offset(self):
        pos = np.array([[32.0, 32.0, 32.0]])
        a0 = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=8))
        a2 = stencil_atoms(SPEC, pos, 2, InterpolationSpec(order=8))
        assert a2[0] - a0[0] == 2 * SPEC.atoms_per_timestep


def divmod_coords(morton: int):
    from repro.morton.codec import morton_decode_scalar

    return morton_decode_scalar(morton)


def preprocessed(spec, pos, ts, interp, op="interp"):
    """``(sub-query, neighbor atom ids)`` the way the engine sees them:
    keys from pre-processing, resolved as the executor does."""
    subs = preprocess_query(Query(0, 0, 0, 0, op, ts, pos), AtomMapper(spec), interp)
    return [(sq, neighbor_atoms_from_keys(spec, sq.neighbor_keys, sq.atom_id)) for sq in subs]


def atom_members(spec, pos, ts, sq):
    """Indices of ``sq``'s positions, recomputed the way pre-processing
    groups them (a sub-query carries only their count)."""
    order, bounds, atoms = AtomMapper(spec).sort_by_atom(pos, ts)
    i = atoms.tolist().index(sq.atom_id)
    idx = order[bounds[i] : bounds[i + 1]]
    assert len(idx) == sq.n_positions
    return idx


def face_heavy_positions(rng, spec, n):
    """Uniform positions, half of them snapped to within a few voxels of
    an atom face, plus coordinates that wrap to exactly ``grid_side``."""
    pos = rng.uniform(0, spec.grid_side, (n, 3))
    snap = rng.random((n, 3)) < 0.5
    faces = rng.integers(0, spec.atoms_per_axis + 1, (n, 3)) * spec.atom_side
    pos[snap] = (faces + rng.uniform(-8, 8, (n, 3)))[snap]
    edge = rng.random((n, 3)) < 0.05
    pos[edge] = rng.choice([-1e-20, float(spec.grid_side)], (n, 3))[edge]
    return pos


class TestFastPathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 10, 12, 16]))
    def test_matches_generic_stencil(self, seed, order):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pos = rng.uniform(0, SPEC.grid_side, (n, 3))
        interp = InterpolationSpec(order=order)
        ts = int(rng.integers(SPEC.n_timesteps))
        for sq, fast in preprocessed(SPEC, pos, ts, interp):
            idx = atom_members(SPEC, pos, ts, sq)
            slow = set(int(a) for a in stencil_atoms(SPEC, pos[idx], ts, interp))
            assert set(fast) == slow - {sq.atom_id}

    def test_no_neighbors_when_kernel_fits_halo(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, SPEC.grid_side, (100, 3))
        for sq, fast in preprocessed(SPEC, pos, 0, InterpolationSpec(order=8)):
            assert sq.neighbor_keys == () and fast == []


class TestPreprocessedNeighbors:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([8, 10, 12]), st.sampled_from([0, 4])
    )
    def test_equal_stencil_atoms_minus_primary(self, seed, order, halo):
        spec = dataclasses.replace(SPEC, halo=halo)
        rng = np.random.default_rng(seed)
        pos = face_heavy_positions(rng, spec, int(rng.integers(1, 200)))
        interp = InterpolationSpec(order=order)
        ts = int(rng.integers(spec.n_timesteps))
        for sq, fast in preprocessed(spec, pos, ts, interp):
            slow = stencil_atoms(spec, pos[atom_members(spec, pos, ts, sq)], ts, interp).tolist()
            assert fast == sorted(set(slow) - {sq.atom_id})
            keys = sq.neighbor_keys
            assert list(keys) == sorted(set(keys)) and 13 not in keys

    def test_only_interp_queries_carry_keys(self):
        rng = np.random.default_rng(4)
        pos = face_heavy_positions(rng, SPEC, 300)
        interp = InterpolationSpec(order=12)
        assert any(sq.neighbor_keys for sq, _ in preprocessed(SPEC, pos, 0, interp))
        for op in ("velocity", "stats"):
            assert all(sq.neighbor_keys == () for sq, _ in preprocessed(SPEC, pos, 0, interp, op))
