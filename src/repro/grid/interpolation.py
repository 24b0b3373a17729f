"""Interpolation stencils and the atoms they touch.

Turbulence queries evaluate Lagrangian interpolation kernels at
arbitrary positions (paper §III-A, §V).  A kernel of order ``2h`` needs
``h`` grid points on each side of the position; atoms carry a
replicated halo (4 voxels in production) so most stencils are satisfied
from the primary atom alone, but positions close to an atom face whose
stencil exceeds the halo must also read the adjacent atom(s).

Two-level scheduling exploits exactly this: co-scheduling a batch of
``k`` Morton-adjacent atoms means a neighbor touched as part of one
sub-query's stencil is likely the primary atom of another sub-query in
the same batch, so it is read once (paper §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from repro.grid.atoms import morton_table
from repro.grid.dataset import DatasetSpec
from repro.morton.codec import morton_decode, morton_encode_unchecked

__all__ = [
    "InterpolationSpec",
    "group_overshoot_keys",
    "neighbor_atoms_from_keys",
    "stencil_atoms",
    "stencil_overshoot_keys",
]


@dataclass(frozen=True)
class InterpolationSpec:
    """Interpolation kernel description.

    Attributes
    ----------
    order:
        Lagrange polynomial order; the kernel needs ``order // 2`` grid
        points on each side of the target position (production supports
        4th, 6th and 8th order).
    """

    order: int = 8

    def __post_init__(self) -> None:
        if self.order < 2 or self.order % 2:
            raise ValueError("order must be an even integer >= 2")

    @property
    def half_width(self) -> int:
        """Grid points needed on each side of a position."""
        return self.order // 2


def stencil_atoms(
    spec: DatasetSpec,
    positions: np.ndarray,
    timestep: int,
    interp: InterpolationSpec,
) -> np.ndarray:
    """Unique packed atom ids a batch of stencils must read.

    For each position, the stencil spans
    ``[floor(p) - h + 1, floor(p) + h]`` per axis with
    ``h = interp.half_width``.  The primary atom's halo covers ``halo``
    voxels beyond each face, so a neighbor read is required on an axis
    side only when the stencil extends further than the halo.

    Returns the sorted unique atom ids (including primary atoms) needed
    to evaluate all positions; callers diff against the primary set to
    count extra neighbor I/O.
    """
    pos = np.mod(np.asarray(positions, dtype=np.float64), spec.grid_side)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    h = interp.half_width
    # Wrapped on the voxel grid too: np.mod(-1e-20, 512.0) == 512.0.
    base = np.floor(pos).astype(np.int64) % spec.grid_side
    lo = base - h + 1  # first grid point used, per axis
    hi = base + h  # last grid point used, per axis

    side = spec.atom_side
    n_axis = spec.atoms_per_axis
    primary = base // side  # (N, 3) atom coords

    # Per-axis neighbor offset: -1 / +1 when the stencil exceeds the
    # halo on that face, else 0.  The stencil is narrower than an atom,
    # so a position never needs both sides of one axis.
    atom_lo = primary * side
    offset = (hi > atom_lo + side - 1 + spec.halo).astype(np.int64)
    offset -= lo < atom_lo - spec.halo

    primary_codes = morton_encode_unchecked(primary[:, 0], primary[:, 1], primary[:, 2])
    needs = offset.any(axis=1)
    if not needs.any():
        unique = np.unique(primary_codes.astype(np.int64))
        return timestep * spec.atoms_per_timestep + unique

    # Only boundary positions expand; enumerate the up-to-8 corner
    # combinations of their (possibly zero) per-axis offsets.
    sub_primary = primary[needs]
    sub_offset = offset[needs]
    pieces = [primary_codes.astype(np.int64)]
    for bits in range(1, 8):
        mask = np.array([(bits >> a) & 1 for a in range(3)], dtype=np.int64)
        delta = sub_offset * mask
        if not delta.any():
            continue
        coords = (sub_primary + delta) % n_axis
        pieces.append(
            morton_encode_unchecked(coords[:, 0], coords[:, 1], coords[:, 2]).astype(np.int64)
        )
    unique = np.unique(np.concatenate(pieces))
    return timestep * spec.atoms_per_timestep + unique


# Sub-key expansion table: offset key (base-3 digits of dx,dy,dz each
# +1) -> all axis-subset keys its stencil box overlaps.  A corner
# offset (1,1,1) needs every sub-combination of its nonzero axes.
def _subcombos(dx: int, dy: int, dz: int) -> list[tuple[int, int, int]]:
    out = []
    for bx in (0, dx) if dx else (0,):
        for by in (0, dy) if dy else (0,):
            for bz in (0, dz) if dz else (0,):
                if bx or by or bz:
                    out.append((bx, by, bz))
    return out


_SUBCOMBO_TABLE: dict[int, list[tuple[int, int, int]]] = {
    (dx + 1) * 9 + (dy + 1) * 3 + (dz + 1): _subcombos(dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
}


def stencil_overshoot_keys(
    spec: DatasetSpec, positions: np.ndarray, interp: InterpolationSpec
) -> np.ndarray:
    """Per-position halo-overshoot key (base-3 encoded per-axis offset).

    Key 13 encodes (0, 0, 0): the stencil fits inside the primary
    atom's halo.
    """
    pos = np.mod(np.asarray(positions, dtype=np.float64), spec.grid_side)
    h = interp.half_width
    side = spec.atom_side
    local = np.floor(pos).astype(np.int64) % side
    offset = (local + h > side - 1 + spec.halo).astype(np.int8)
    offset -= local - h + 1 < -spec.halo
    keys: np.ndarray = (offset[:, 0] + 1) * 9 + (offset[:, 1] + 1) * 3 + (offset[:, 2] + 1)
    return keys


def group_overshoot_keys(
    spec: DatasetSpec,
    positions: np.ndarray,
    order: np.ndarray,
    bounds: list[int],
    interp: InterpolationSpec,
) -> list[tuple[int, ...]]:
    """Each atom group's sorted distinct overshoot keys, 13 excluded.

    ``order`` and ``bounds`` are :meth:`AtomMapper.sort_by_atom`'s
    grouping of ``positions``.  The keys are computed in one vectorized
    pass over the whole query; only overshooting positions are then
    assigned to their group (a ``searchsorted`` on the group starts).
    Groups none of whose stencils leave the halo share the empty tuple.
    """
    n_groups = len(bounds) - 1
    out: list[tuple[int, ...]] = [()] * n_groups
    if interp.half_width <= spec.halo:
        return out
    keys = stencil_overshoot_keys(spec, positions, interp)[order]
    hit = np.flatnonzero(keys != 13)
    if not len(hit):
        return out
    seg = np.searchsorted(bounds[:-1], hit, side="right") - 1
    # One code per distinct (group, key): keys are < 27, so 5 bits.  A
    # set, not np.unique, which imports numpy.ma (~0.5 MiB) on first use.
    codes = sorted(set((seg * 32 + keys[hit]).tolist()))
    for group, group_codes in groupby(codes, key=lambda c: c >> 5):
        out[group] = tuple(c & 31 for c in group_codes)
    return out


# Memo of within-timestep neighbor Morton codes: they are a pure
# function of (grid resolution, primary atom position, overshoot key
# set), so the wrap-around arithmetic runs once per distinct
# combination instead of once per sub-query.  Bounded: at most
# atoms-per-timestep × the handful of key sets a workload produces;
# the cap below is a safety valve for enormous grids.
_NEIGHBOR_MEMO: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}
_NEIGHBOR_MEMO_MAX = 1 << 20

@lru_cache(maxsize=None)
def _morton_tables(n_axis: int) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Within-timestep Morton tables of one grid resolution as Python
    lists: code -> (x, y, z), and :func:`morton_table`.  A memo miss
    then resolves with integer lookups instead of vectorized Morton
    operations on tiny arrays (whose NumPy dispatch dominated the miss
    cost)."""
    xs, ys, zs = morton_decode(np.arange(n_axis**3, dtype=np.uint64))
    return list(zip(xs.tolist(), ys.tolist(), zs.tolist())), morton_table(n_axis).tolist()


def neighbor_atoms_from_keys(
    spec: DatasetSpec, keys: tuple[int, ...], primary_atom_id: int
) -> list[int]:
    """Neighbor atom ids for one sub-query's overshoot keys.

    ``keys`` is one entry of :func:`group_overshoot_keys`: sorted,
    distinct, 13 excluded.  Returns sorted packed atom ids (primary
    excluded).
    """
    if not keys:
        return []
    n_axis = spec.atoms_per_axis
    primary_morton = primary_atom_id % (n_axis * n_axis * n_axis)
    base = primary_atom_id - primary_morton
    memo_key = (n_axis, primary_morton, keys)
    codes = _NEIGHBOR_MEMO.get(memo_key)
    if codes is None:
        decode, encode = _morton_tables(n_axis)
        px, py, pz = decode[primary_morton]
        codes = tuple(
            sorted(
                {
                    encode[
                        (((px + dx) % n_axis) * n_axis + (py + dy) % n_axis) * n_axis
                        + (pz + dz) % n_axis
                    ]
                    for key in keys
                    for dx, dy, dz in _SUBCOMBO_TABLE[key]
                }
            )
        )
        if len(_NEIGHBOR_MEMO) < _NEIGHBOR_MEMO_MAX:
            _NEIGHBOR_MEMO[memo_key] = codes
    return [base + c for c in codes]
