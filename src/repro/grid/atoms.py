"""Mapping between continuous positions and storage atoms.

The query pre-processor (paper §III-B) takes a query's list of 3-D
positions, identifies the atom containing each position, and groups the
positions into per-atom sub-queries sorted in Morton order.  This module
implements the vectorized position→atom mapping that underlies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.grid.dataset import DatasetSpec
from repro.morton.codec import morton_encode_unchecked

__all__ = ["AtomMapper", "morton_table"]


@lru_cache(maxsize=None)
def morton_table(n_axis: int) -> np.ndarray:
    """Within-step Morton code of every atom of an ``n_axis``³ grid,
    flat: ``table[(x * n_axis + y) * n_axis + z]``.

    Built once per grid resolution; a lookup replaces the bit-spreading
    encode per position.  Read-only, since every caller shares it.
    """
    axis = np.arange(n_axis, dtype=np.int64)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    table = morton_encode_unchecked(gx, gy, gz).astype(np.int64).ravel()
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class AtomMapper:
    """Vectorized position→atom resolution for one :class:`DatasetSpec`."""

    spec: DatasetSpec

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Wrap continuous positions into the periodic domain.

        The DNS domain is periodic; particle tracking advects positions
        out of ``[0, grid_side)`` and they re-enter from the other side.
        """
        return np.mod(np.asarray(positions, dtype=np.float64), self.spec.grid_side)

    def atom_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer atom coordinates ``(N, 3)`` containing each position.

        Wrapped once more on the atom grid: a tiny negative coordinate
        wraps to exactly ``grid_side`` in floating point
        (``np.mod(-1e-20, 512.0) == 512.0``), which is atom 0.
        """
        pos = self.wrap(positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        coords = (pos // self.spec.atom_side).astype(np.int64)
        coords %= self.spec.atoms_per_axis
        return coords

    def morton_of(self, positions: np.ndarray) -> np.ndarray:
        """Within-step Morton code (int64) of the atom containing each
        position, read from :func:`morton_table`."""
        coords = self.atom_coords(positions)
        n = self.spec.atoms_per_axis
        flat = (coords[:, 0] * n + coords[:, 1]) * n + coords[:, 2]
        codes: np.ndarray = morton_table(n)[flat]
        return codes

    def atom_ids(self, positions: np.ndarray, timestep: int) -> np.ndarray:
        """Packed atom ids for each position at the given time step."""
        if not 0 <= timestep < self.spec.n_timesteps:
            raise ValueError(f"timestep {timestep} out of range")
        return timestep * self.spec.atoms_per_timestep + self.morton_of(positions)

    def sort_by_atom(
        self, positions: np.ndarray, timestep: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, bounds, atoms)``: the stable argsort of the
        positions by atom id, the group boundaries into it
        (``[0, ..., N]``, one group per atom) and each group's atom id,
        ascending; ``bounds`` and ``atoms`` are ``int64`` arrays."""
        ids = self.atom_ids(positions, timestep).astype(np.int64, copy=False)
        order = np.argsort(ids, kind="stable")
        if not len(ids):
            return order, np.zeros(1, np.int64), ids
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.diff(sorted_ids)) + 1
        bounds = np.concatenate(([0], starts, [len(ids)]))
        return order, bounds, sorted_ids[bounds[:-1]]
