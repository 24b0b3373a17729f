"""Tests for DatasetSpec and AtomMapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.atoms import AtomMapper, morton_table
from repro.grid.dataset import DatasetSpec
from repro.morton.codec import morton_encode


class TestDatasetSpec:
    def test_production_geometry(self):
        spec = DatasetSpec()  # paper defaults
        assert spec.atoms_per_axis == 16
        assert spec.atoms_per_timestep == 4096
        assert spec.atom_bytes == 8 << 20

    def test_small_helper(self):
        spec = DatasetSpec.small(n_timesteps=8, atoms_per_axis=4)
        assert spec.atoms_per_timestep == 64
        assert spec.n_atoms == 512
        assert spec.atom_side == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(grid_side=100, atom_side=64)
        with pytest.raises(ValueError):
            DatasetSpec(grid_side=192, atom_side=64)  # 3 atoms/axis
        with pytest.raises(ValueError):
            DatasetSpec(n_timesteps=0)
        with pytest.raises(ValueError):
            DatasetSpec(halo=64)

    def test_duration(self):
        spec = DatasetSpec(n_timesteps=11, dt=0.5)
        assert spec.duration == pytest.approx(5.0)


class TestAtomIdPacking:
    spec = DatasetSpec.small(n_timesteps=5, atoms_per_axis=4)

    def test_roundtrip(self):
        for ts in range(self.spec.n_timesteps):
            for m in (0, 1, 63):
                a = self.spec.atom_id(ts, m)
                assert self.spec.atom_timestep(a) == ts
                assert self.spec.atom_morton(a) == m

    def test_ids_unique(self):
        ids = {
            self.spec.atom_id(ts, m)
            for ts in range(self.spec.n_timesteps)
            for m in range(self.spec.atoms_per_timestep)
        }
        assert len(ids) == self.spec.n_atoms

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            self.spec.atom_id(5, 0)
        with pytest.raises(ValueError):
            self.spec.atom_id(0, 64)


class TestAtomMapper:
    spec = DatasetSpec.small(n_timesteps=4, atoms_per_axis=4)
    mapper = AtomMapper(spec)

    def test_wrap_periodic(self):
        pos = np.array([[-1.0, 0.0, 300.0]])
        wrapped = self.mapper.wrap(pos)
        assert 0 <= wrapped[0, 0] < self.spec.grid_side
        assert wrapped[0, 2] == pytest.approx(300.0 - self.spec.grid_side)

    def test_atom_coords_basic(self):
        pos = np.array([[0.0, 64.0, 130.0]])
        np.testing.assert_array_equal(self.mapper.atom_coords(pos), [[0, 1, 2]])

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            self.mapper.atom_coords(np.zeros((3, 2)))

    def test_atom_ids_timestep_offset(self):
        pos = np.array([[1.0, 1.0, 1.0]])
        a0 = self.mapper.atom_ids(pos, 0)[0]
        a1 = self.mapper.atom_ids(pos, 1)[0]
        assert a1 - a0 == self.spec.atoms_per_timestep

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("coord", [-1e-20, 256.0])
    def test_wrap_to_grid_side_is_atom_zero(self, axis, coord):
        """``np.mod(-1e-20, side) == side`` in floating point; such a
        position lies in atom coordinate 0, never ``atoms_per_axis``."""
        assert self.spec.grid_side == 256
        pos = np.full((1, 3), 100.0)
        pos[0, axis] = coord
        expected = [1, 1, 1]
        expected[axis] = 0
        np.testing.assert_array_equal(self.mapper.atom_coords(pos), [expected])
        last = self.spec.n_timesteps - 1
        atom = int(self.mapper.atom_ids(pos, last)[0])
        assert self.spec.atom_timestep(atom) == last and atom < self.spec.n_atoms

    def test_table_codes_match_morton_encode(self):
        """Table lookups equal the bit-spreading encode on random
        positions and on every face and corner of the atom grid."""
        rng = np.random.default_rng(5)
        side, n = self.spec.atom_side, self.spec.atoms_per_axis
        grid = np.arange(n + 1) * side
        edges = np.array(np.meshgrid(grid, grid, grid, indexing="ij")).reshape(3, -1).T
        pos = np.concatenate(
            [
                rng.uniform(-300, 600, (2000, 3)),
                edges,
                edges - 1e-9,
                np.clip(edges - 1e-9, 0, None),
            ]
        ).astype(np.float64)
        coords = self.mapper.atom_coords(pos)
        expected = morton_encode(coords[:, 0], coords[:, 1], coords[:, 2]).astype(np.int64)
        np.testing.assert_array_equal(self.mapper.morton_of(pos), expected)
        axis = np.arange(n)
        x, y, z = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
        np.testing.assert_array_equal(morton_table(n)[(x * n + y) * n + z], morton_encode(x, y, z))

    def _groups(self, pos, timestep):
        order, bounds, atoms = self.mapper.sort_by_atom(pos, timestep)
        return [(a, order[s:e]) for a, s, e in zip(atoms, bounds, bounds[1:])]

    def test_sort_by_atom_partitions_everything(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, self.spec.grid_side, (500, 3))
        groups = self._groups(pos, 2)
        all_idx = np.concatenate([idx for _, idx in groups])
        assert sorted(all_idx) == list(range(500))

    def test_sort_by_atom_morton_sorted(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, self.spec.grid_side, (200, 3))
        groups = self._groups(pos, 0)
        atom_ids = [a for a, _ in groups]
        assert atom_ids == sorted(atom_ids)

    def test_group_members_map_back_to_their_atom(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, self.spec.grid_side, (300, 3))
        for atom_id, idx in self._groups(pos, 1):
            ids = self.mapper.atom_ids(pos[idx], 1)
            assert (ids == atom_id).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sort_by_atom_total_positions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 100))
        pos = rng.uniform(-100, self.spec.grid_side + 100, (n, 3))
        groups = self._groups(pos, 0)
        assert sum(len(idx) for _, idx in groups) == n
