"""Mapping between continuous positions and storage atoms.

The query pre-processor (paper §III-B) takes a query's list of 3-D
positions, identifies the atom containing each position, and groups the
positions into per-atom sub-queries sorted in Morton order.  This module
implements the vectorized position→atom mapping that underlies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.dataset import DatasetSpec
from repro.morton.codec import morton_encode_unchecked
from repro.morton.index import MortonIndex

__all__ = ["AtomMapper"]


@dataclass(frozen=True)
class AtomMapper:
    """Vectorized position→atom resolution for one :class:`DatasetSpec`."""

    spec: DatasetSpec

    def _index(self) -> MortonIndex:
        return self.spec.morton_index()

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Wrap continuous positions into the periodic domain.

        The DNS domain is periodic; particle tracking advects positions
        out of ``[0, grid_side)`` and they re-enter from the other side.
        """
        return np.mod(np.asarray(positions, dtype=np.float64), self.spec.grid_side)

    def atom_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer atom coordinates ``(N, 3)`` containing each position."""
        pos = self.wrap(positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        return (pos // self.spec.atom_side).astype(np.int64)

    def morton_of(self, positions: np.ndarray) -> np.ndarray:
        """Within-step Morton code of the atom containing each position."""
        coords = self.atom_coords(positions)
        return morton_encode_unchecked(coords[:, 0], coords[:, 1], coords[:, 2])

    def atom_ids(self, positions: np.ndarray, timestep: int) -> np.ndarray:
        """Packed atom ids for each position at the given time step."""
        if not 0 <= timestep < self.spec.n_timesteps:
            raise ValueError(f"timestep {timestep} out of range")
        morton = self.morton_of(positions).astype(np.int64)
        return timestep * self.spec.atoms_per_timestep + morton

    def group_by_atom(
        self, positions: np.ndarray, timestep: int
    ) -> list[tuple[int, np.ndarray]]:
        """Group positions into per-atom sub-query fragments.

        Returns ``[(atom_id, position_indices), ...]`` sorted by Morton
        code (equivalently atom id, since all share one time step), as
        the pre-processor requires: points are "sorted and evaluated in
        Morton order so that each atom is read only once" (§III-A).
        ``position_indices`` index into the input array; each is a slice
        view of one stable argsort.
        """
        ids = self.atom_ids(positions, timestep)
        if not len(ids):
            return []
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.diff(sorted_ids)) + 1
        bounds = [0, *starts.tolist(), len(ids)]
        atoms = sorted_ids[bounds[:-1]].tolist()
        return [(a, order[s:e]) for a, s, e in zip(atoms, bounds, bounds[1:])]
