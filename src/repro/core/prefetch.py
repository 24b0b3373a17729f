"""Trajectory prediction and prefetching (paper §VII, future work).

The Discussion proposes extrapolating "the trajectory of jobs in time
and space (i.e. the velocity of the bounding box or time step delta
between consecutive queries) to predict which data atoms are accessed
by subsequent queries", prefetching them to avoid page faults and mask
random-read cost.

:class:`TrajectoryPredictor` keeps, per ordered job, the footprint and
cloud center of the last two completed queries; the prediction for the
next query translates the latest *atom footprint* by the observed
center drift (a tighter variant of the paper's bounding-box velocity —
see the class docstring) and advances the time step by the observed
delta.

:class:`PrefetchingJAWSScheduler` turns predictions into *prefetch
batches*: when the executor goes idle with no real work queued — which
is exactly the user think-time window of ordered jobs — it returns a
batch that reads the predicted atoms into the cache (no sub-queries,
no compute).  The next query then hits memory.  Prediction accuracy is
tracked for the bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import CostModel, SchedulerConfig
from repro.core.base import Batch
from repro.core.jaws import JAWSScheduler
from repro.grid.dataset import DatasetSpec
from repro.morton.index import MortonIndex
from repro.workload.query import Query

__all__ = ["TrajectoryPredictor", "PrefetchingJAWSScheduler"]


@dataclass
class _JobTrack:
    prev_center: Optional[np.ndarray] = None
    last_center: Optional[np.ndarray] = None
    last_atom_coords: Optional[np.ndarray] = None  # (n, 3) unique
    prev_timestep: Optional[int] = None
    last_timestep: Optional[int] = None


@dataclass
class TrajectoryPredictor:
    """Per-job trajectory extrapolation.

    The paper suggests extrapolating "the velocity of the bounding box"
    of consecutive queries; for diffuse particle clouds the box itself
    is far larger than the touched atom set, so we extrapolate more
    tightly: translate the *previous query's atom footprint* by the
    observed cloud-center drift (covering both the floor and ceiling
    atom shift of a sub-atom drift), at the extrapolated time step.
    """

    spec: DatasetSpec
    _tracks: dict[int, _JobTrack] = field(default_factory=dict)

    def observe(self, query: Query) -> None:
        """Record a completed query's spatial/temporal footprint."""
        track = self._tracks.setdefault(query.job_id, _JobTrack())
        # Circular-safe center is unnecessary at the drift scales of one
        # step; the arithmetic mean is what a front end would compute.
        track.prev_center, track.last_center = track.last_center, query.positions.mean(axis=0)
        coords = np.floor(
            np.mod(query.positions, self.spec.grid_side) / self.spec.atom_side
        ).astype(np.int64)
        track.last_atom_coords = np.unique(coords, axis=0)
        track.prev_timestep, track.last_timestep = track.last_timestep, query.timestep

    def forget(self, job_id: int) -> None:
        self._tracks.pop(job_id, None)

    def predict_atoms(self, job_id: int) -> list[int]:
        """Packed atom ids the job's next query is expected to touch,
        or ``[]`` if fewer than two observations exist."""
        track = self._tracks.get(job_id)
        if (
            track is None
            or track.prev_center is None
            or track.last_center is None
            or track.prev_timestep is None
            or track.last_atom_coords is None
        ):
            return []
        step_delta = track.last_timestep - track.prev_timestep
        next_ts = track.last_timestep + step_delta
        if not 0 <= next_ts < self.spec.n_timesteps:
            return []
        n_axis = self.spec.atoms_per_axis
        drift = (track.last_center - track.prev_center) / self.spec.atom_side
        # Sub-atom drift lands in either the same or the adjacent atom:
        # cover both bounds of each axis' shift.
        lo_shift = np.floor(drift).astype(np.int64)
        hi_shift = np.ceil(drift).astype(np.int64)
        shifts = sorted(
            {
                (sx, sy, sz)
                for sx in (int(lo_shift[0]), int(hi_shift[0]))
                for sy in (int(lo_shift[1]), int(hi_shift[1]))
                for sz in (int(lo_shift[2]), int(hi_shift[2]))
            }
        )
        index = MortonIndex(n_axis)
        pieces = []
        for shift in shifts:
            coords = (track.last_atom_coords + np.asarray(shift)) % n_axis
            pieces.append(index.encode(coords[:, 0], coords[:, 1], coords[:, 2]))
        codes = np.unique(np.concatenate(pieces))
        base = next_ts * self.spec.atoms_per_timestep
        return sorted(base + int(c) for c in codes)


class PrefetchingJAWSScheduler(JAWSScheduler):
    """JAWS + idle-time trajectory prefetching.

    Parameters
    ----------
    max_prefetch_atoms:
        Cap on atoms fetched per idle window (bounds cache pollution).
    """

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        config: Optional[SchedulerConfig] = None,
        max_prefetch_atoms: int = 64,
    ) -> None:
        super().__init__(spec, cost, config)
        if max_prefetch_atoms < 1:
            raise ValueError("max_prefetch_atoms must be >= 1")
        self.name = "JAWS+prefetch"
        self.predictor = TrajectoryPredictor(spec)
        self.max_prefetch_atoms = max_prefetch_atoms
        self._pending_prefetch: list[int] = []
        self._predicted: dict[int, set[int]] = {}  # job -> last prediction
        self.prefetched_atoms = 0
        self.predicted_hits = 0
        self.predicted_total = 0

    def on_query_complete(self, query: Query, now: float) -> None:
        super().on_query_complete(query, now)
        # Score the previous prediction for this job, then roll forward.
        predicted = self._predicted.pop(query.job_id, None)
        if predicted is not None:
            actual = query.atoms(self.spec)
            self.predicted_total += actual.n_atoms
            self.predicted_hits += len(predicted.intersection(actual.ids()))
        self.predictor.observe(query)
        atoms = self.predictor.predict_atoms(query.job_id)
        if atoms:
            # Accuracy is scored on the full prediction; the fetch
            # itself is capped to bound cache pollution per idle window.
            self._predicted[query.job_id] = set(atoms)
            self._pending_prefetch = atoms[: self.max_prefetch_atoms]

    def next_batch(self, now: float) -> Optional[Batch]:
        batch = super().next_batch(now)
        if batch is not None:
            return batch
        # Idle (think-time window): spend it prefetching.
        if self._pending_prefetch:
            atoms = self._pending_prefetch
            self._pending_prefetch = []
            self.prefetched_atoms += len(atoms)
            return Batch(atoms=[(a, []) for a in atoms])
        return None

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of actually-touched atoms that were predicted."""
        return self.predicted_hits / self.predicted_total if self.predicted_total else 0.0
