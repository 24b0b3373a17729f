"""Synthetic isotropic turbulence velocity field.

The paper's workloads track hundreds of thousands of particles through
a DNS velocity field.  We do not have the 27 TB DNS history, so this
module substitutes a *kinematic simulation* field: a sum of
divergence-free Fourier modes with a Kolmogorov-like :math:`k^{-5/3}`
energy spectrum (a standard surrogate for Lagrangian studies).  What
matters for scheduling is the statistical shape of the resulting
trajectories — coherent sweeps across atoms, revisited regions, and
preferential concentration-like clustering — not exact physics; the
substitution is recorded in DESIGN.md §2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SyntheticTurbulence", "advect_positions"]


class SyntheticTurbulence:
    """Divergence-free random Fourier velocity field on a periodic box.

    ``u(x, t) = sum_n a_n * d_n * cos(k_n . x + omega_n * t + phi_n)``

    with ``d_n ⊥ k_n`` (incompressibility), amplitudes following
    ``E(k) ~ k^(-5/3)`` and unsteadiness frequencies scaling with the
    eddy turnover rate of each mode.

    Parameters
    ----------
    box_size:
        Periodic domain extent in voxel units (use the dataset's
        ``grid_side``).
    n_modes:
        Number of Fourier modes.
    u_rms:
        Target root-mean-square velocity, voxels per simulation second.
    k_min, k_max:
        Dimensionless wavenumber band (modes per box).
    seed:
        RNG seed; the field is fully deterministic given the seed.
    """

    def __init__(
        self,
        box_size: float,
        n_modes: int = 48,
        u_rms: float = 5000.0,
        k_min: float = 1.0,
        k_max: float = 16.0,
        seed: int = 0,
    ) -> None:
        if box_size <= 0:
            raise ValueError("box_size must be positive")
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not 0 < k_min <= k_max:
            raise ValueError("need 0 < k_min <= k_max")
        self.box_size = float(box_size)
        self.n_modes = int(n_modes)
        self.u_rms = float(u_rms)
        rng = np.random.default_rng(seed)

        # Integer lattice wavevectors (exact periodicity in box_size):
        # sample log-spaced magnitudes and random directions, then snap
        # to the nearest nonzero integer triple.
        k_int = np.zeros((n_modes, 3))
        filled = 0
        while filled < n_modes:
            want = n_modes - filled
            mag = np.exp(rng.uniform(np.log(k_min), np.log(k_max), want))
            direction = rng.normal(size=(want, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            cand = np.rint(mag[:, None] * direction)
            ok = np.any(cand != 0, axis=1)
            n_ok = int(ok.sum())
            k_int[filled : filled + n_ok] = cand[ok]
            filled += n_ok
        k_mag = np.linalg.norm(k_int, axis=1)
        k_dir = k_int / k_mag[:, None]
        self._k = (2.0 * np.pi / self.box_size) * k_int  # (M, 3)

        # Divergence-free polarization: project a random vector onto the
        # plane orthogonal to k.
        d = rng.normal(size=(n_modes, 3))
        d -= (np.sum(d * k_dir, axis=1, keepdims=True)) * k_dir
        d /= np.linalg.norm(d, axis=1, keepdims=True)

        # Kolmogorov band: mode energy ~ E(k) dk with E(k) ~ k^{-5/3}.
        energy = k_mag ** (-5.0 / 3.0)
        amp = np.sqrt(energy / energy.sum()) * self.u_rms * np.sqrt(2.0)
        self._a = amp[:, None] * d  # (M, 3) amplitude vectors

        # Unsteadiness: each mode decorrelates on its eddy turnover time.
        eddy_rate = k_mag ** (2.0 / 3.0)
        self._omega = eddy_rate * (self.u_rms / self.box_size) * 2.0 * np.pi
        self._phi = rng.uniform(0.0, 2.0 * np.pi, n_modes)

    def velocity(self, positions: np.ndarray, t: float) -> np.ndarray:
        """Velocity vectors at the given positions and time.

        Parameters
        ----------
        positions:
            ``(N, 3)`` array in voxel units (any values; the field is
            periodic in ``box_size``).
        t:
            Simulation time in seconds.

        Returns
        -------
        ``(N, 3)`` array of velocities, voxels per second.
        """
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        # phase: (N, M) — one matmul, then cos in place and matmul back.
        phase = pos @ self._k.T
        phase += self._omega * t + self._phi
        np.cos(phase, out=phase)
        return phase @ self._a

    def rms_velocity(self, n_samples: int = 4096, seed: int = 1) -> float:
        """Monte-Carlo estimate of the field's RMS speed (diagnostics)."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, self.box_size, size=(n_samples, 3))
        v = self.velocity(pts, 0.0)
        return float(np.sqrt(np.mean(np.sum(v * v, axis=1))))


def advect_positions(
    field: SyntheticTurbulence,
    positions: np.ndarray,
    t: float,
    dt: float,
) -> np.ndarray:
    """Advance particle positions one step with RK2 (midpoint) advection.

    Positions are wrapped into the periodic box.  This is the
    client-side computation the Turbulence scientists perform between
    consecutive queries of an ordered particle-tracking job (paper
    §IV-A): fetch velocities, integrate, submit the next time step's
    positions.
    """
    pos = np.asarray(positions, dtype=np.float64)
    v1 = field.velocity(pos, t)
    mid = pos + 0.5 * dt * v1
    v2 = field.velocity(mid, t + 0.5 * dt)
    return np.mod(pos + dt * v2, field.box_size)
