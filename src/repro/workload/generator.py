"""Synthetic Turbulence workload generator.

Stands in for the paper's SQL-log trace (50 k queries / ~1 k jobs from
the week of 2009-07-20).  The generator is calibrated to the workload
characterization of §VI-A:

* over 95 % of queries belong to multi-query jobs;
* ~88 % of jobs access a single time step, while a small fraction of
  long tracking jobs iterate over a large share of all time steps and
  dominate query count;
* job execution times are heavy-tailed, with a 1–30-minute majority
  (Fig. 8);
* time-step popularity is clustered at the start and end of simulation
  time with a mid-span spike and an overall downward trend (Fig. 9) —
  long jobs that "iterate over all time terminate midway";
* arrivals are bursty: users submit *campaigns* of related jobs close
  together, which is also what creates the inter-job data sharing that
  gated execution exploits.

All randomness flows from a single seed; traces are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.dataset import DatasetSpec
from repro.grid.field import SyntheticTurbulence, advect_positions
from repro.workload.job import Job, JobKind
from repro.workload.query import Query
from repro.workload.trace import Trace

__all__ = ["WorkloadParams", "FlashCrowdParams", "generate_trace", "inject_flash_crowd"]


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic workload.

    Fractions are of *jobs*; because tracking/batched jobs contain many
    queries, the query-level job share lands above 95 % as in the paper.

    Attributes
    ----------
    n_jobs:
        Total jobs in the trace.
    span:
        Job submit times spread over ``[0, span]`` engine seconds
        (before burst clustering).
    frac_tracking / frac_batched:
        Job-mix fractions for ordered particle-tracking jobs and batched
        statistics jobs; the remainder are one-off single queries.
    campaign_prob:
        Probability that a tracking job spawns a *campaign* — follow-up
        jobs from the same user over the same region and time span,
        submitted shortly after.  Campaigns create the inter-job data
        sharing that gated execution (§IV) exploits.
    campaign_size_mean:
        Mean number of follow-up jobs per campaign (geometric).
    tracking_len_mean:
        Mean queries per tracking job (geometric, clamped to the
        remaining time steps).
    long_job_frac:
        Fraction of tracking jobs that iterate over (nearly) the whole
        stored time span, like the paper's 3 % hundred-step jobs.
    particles_mean:
        Mean positions per tracking query (lognormal).
    batched_len_mean:
        Mean queries per batched job.
    think_time_mean:
        Mean client-side seconds between an ordered job's query
        completion and its next query's arrival (exponential).
    n_hotspots:
        Number of spatial regions of interest positions cluster around.
    hotspot_sigma:
        Gaussian radius of a hotspot, voxels.
    burstiness:
        0 = Poisson-uniform submits; 1 = strongly clustered bursts.
    n_users:
        Distinct users submitting jobs.
    seed:
        RNG seed for everything (field included).
    """

    n_jobs: int = 150
    span: float = 2400.0
    frac_tracking: float = 0.15
    frac_batched: float = 0.45
    campaign_prob: float = 0.35
    campaign_size_mean: float = 1.5
    tracking_len_mean: float = 16.0
    long_job_frac: float = 0.04
    particles_mean: float = 260.0
    batched_len_mean: float = 12.0
    think_time_mean: float = 4.0
    n_hotspots: int = 5
    hotspot_sigma: float = 48.0
    burstiness: float = 0.6
    n_users: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.frac_tracking + self.frac_batched > 1.0:
            raise ValueError("job-mix fractions exceed 1")
        if not 0.0 <= self.burstiness <= 1.0:
            raise ValueError("burstiness must be in [0, 1]")
        if self.span <= 0:
            raise ValueError("span must be positive")


def _timestep_popularity(n_timesteps: int) -> np.ndarray:
    """Fig. 9-shaped popularity weights over time steps.

    Start and end clusters, a spike around 30–40 % of the span, and a
    downward linear trend (jobs iterating over all time terminate
    midway through).
    """
    t = np.arange(n_timesteps, dtype=np.float64)
    T = max(n_timesteps - 1, 1)
    tau = max(n_timesteps / 14.0, 1.0)
    w = (
        2.4 * np.exp(-t / tau)
        + 1.5 * np.exp(-(T - t) / tau)
        + 0.6 * np.exp(-0.5 * ((t - 0.35 * T) / (0.05 * T + 0.5)) ** 2)
        + 0.14 * (1.0 - 0.6 * t / T)
    )
    return w / w.sum()


def _burst_times(rng: np.random.Generator, n: int, span: float, burstiness: float) -> np.ndarray:
    """Sorted submit times: a mix of uniform arrivals and tight bursts."""
    uniform = rng.uniform(0.0, span, n)
    n_bursts = max(1, n // 8)
    centers = rng.uniform(0.0, span, n_bursts)
    burst = centers[rng.integers(0, n_bursts, n)] + rng.exponential(span / 200.0, n)
    pick = rng.random(n) < burstiness
    times = np.where(pick, burst, uniform)
    return np.sort(np.clip(times, 0.0, span))


class _TraceBuilder:
    def __init__(self, spec: DatasetSpec, params: WorkloadParams) -> None:
        self.spec = spec
        self.params = params
        self.rng = np.random.default_rng(params.seed)
        self.field = SyntheticTurbulence(
            box_size=spec.grid_side,
            seed=params.seed + 1,
            u_rms=0.35 * spec.grid_side / max(spec.duration, spec.dt),
        )
        self.ts_popularity = _timestep_popularity(spec.n_timesteps)
        self.hotspots = self.rng.uniform(0.0, spec.grid_side, (params.n_hotspots, 3))
        self.next_query_id = 0
        self.next_job_id = 0
        self.jobs: list[Job] = []

    # -- helpers ----------------------------------------------------------
    def _new_query_id(self) -> int:
        self.next_query_id += 1
        return self.next_query_id - 1

    def _new_job_id(self) -> int:
        self.next_job_id += 1
        return self.next_job_id - 1

    def _start_timestep(self) -> int:
        return int(self.rng.choice(self.spec.n_timesteps, p=self.ts_popularity))

    def _hotspot_positions(self, n: int, hotspot: np.ndarray) -> np.ndarray:
        pos = hotspot[None, :] + self.rng.normal(0.0, self.params.hotspot_sigma, (n, 3))
        return np.mod(pos, self.spec.grid_side)

    def _n_particles(self) -> int:
        n = int(self.rng.lognormal(np.log(self.params.particles_mean), 0.5))
        return max(8, n)

    # -- job constructors --------------------------------------------------
    def tracking_job(
        self,
        user_id: int,
        submit_time: float,
        hotspot: np.ndarray | None = None,
        t0: int | None = None,
        length: int | None = None,
    ) -> Job:
        """Ordered particle-tracking job: advect a particle cloud one
        stored time step per query."""
        p = self.params
        if hotspot is None:
            hotspot = self.hotspots[self.rng.integers(len(self.hotspots))]
        if t0 is None:
            t0 = self._start_timestep()
        max_len = self.spec.n_timesteps - t0
        if length is None:
            if self.rng.random() < p.long_job_frac:
                length = max_len  # iterate to the end of stored time
            else:
                length = 1 + int(self.rng.geometric(1.0 / p.tracking_len_mean))
        length = int(np.clip(length, 1, max_len))

        job_id = self._new_job_id()
        positions = self._hotspot_positions(self._n_particles(), hotspot)
        queries = []
        for i in range(length):
            timestep = t0 + i
            queries.append(
                Query(
                    query_id=self._new_query_id(),
                    job_id=job_id,
                    seq=i,
                    user_id=user_id,
                    op="interp",
                    timestep=timestep,
                    positions=positions.copy(),
                )
            )
            if i + 1 < length:  # the last query's successor is never read
                positions = advect_positions(
                    self.field, positions, t=timestep * self.spec.dt, dt=self.spec.dt
                )
        think = self.rng.exponential(p.think_time_mean)
        return Job(job_id, JobKind.ORDERED, user_id, submit_time, think, queries)

    def batched_job(self, user_id: int, submit_time: float) -> Job:
        """Batched statistics job: independent region scans of one
        (mostly) fixed time step."""
        p = self.params
        job_id = self._new_job_id()
        n_queries = 1 + int(self.rng.geometric(1.0 / p.batched_len_mean))
        timestep = self._start_timestep()
        hotspot = self.hotspots[self.rng.integers(len(self.hotspots))]
        # §IV-A: "in a typical batched job, the number of queried
        # positions remains constant" — one draw per job.
        n_pos = max(16, int(self.rng.lognormal(np.log(p.particles_mean * 0.6), 0.4)))
        queries = []
        for i in range(n_queries):
            positions = self._hotspot_positions(n_pos, hotspot)
            queries.append(
                Query(
                    query_id=self._new_query_id(),
                    job_id=job_id,
                    seq=i,
                    user_id=user_id,
                    op="stats",
                    timestep=timestep,
                    positions=positions,
                )
            )
        return Job(job_id, JobKind.BATCHED, user_id, submit_time, 0.0, queries)

    def oneoff_job(self, user_id: int, submit_time: float) -> Job:
        """A single short, highly selective query (§I: "short-lived,
        focus on a small spatial region")."""
        job_id = self._new_job_id()
        n_pos = int(self.rng.integers(4, 40))
        center = self.rng.uniform(0.0, self.spec.grid_side, 3)
        positions = np.mod(
            center[None, :] + self.rng.normal(0.0, 10.0, (n_pos, 3)), self.spec.grid_side
        )
        query = Query(
            query_id=self._new_query_id(),
            job_id=job_id,
            seq=0,
            user_id=user_id,
            op="velocity",
            timestep=self._start_timestep(),
            positions=positions,
        )
        return Job(job_id, JobKind.ORDERED, user_id, submit_time, 0.0, [query])

    # -- top level -----------------------------------------------------------
    def build(self) -> Trace:
        p = self.params
        submit_times = _burst_times(self.rng, p.n_jobs, p.span, p.burstiness)
        kinds = self.rng.random(p.n_jobs)
        for submit_time, kind_draw in zip(submit_times, kinds):
            user_id = int(self.rng.integers(p.n_users))
            if kind_draw < p.frac_tracking:
                job = self.tracking_job(user_id, float(submit_time))
                self.jobs.append(job)
                # Campaign: related tracking jobs over the same region &
                # span, submitted soon after (same user).
                if job.n_queries > 1 and self.rng.random() < p.campaign_prob:
                    n_follow = 1 + int(self.rng.geometric(1.0 / p.campaign_size_mean))
                    t0 = job.queries[0].timestep
                    base_hotspot = job.queries[0].positions.mean(axis=0)
                    for _ in range(n_follow):
                        delay = self.rng.exponential(p.span / 80.0)
                        follow = self.tracking_job(
                            user_id,
                            float(submit_time + delay),
                            hotspot=base_hotspot,
                            t0=t0,
                            length=job.n_queries,
                        )
                        self.jobs.append(follow)
            elif kind_draw < p.frac_tracking + p.frac_batched:
                self.jobs.append(self.batched_job(user_id, float(submit_time)))
            else:
                self.jobs.append(self.oneoff_job(user_id, float(submit_time)))
        self.jobs.sort(key=lambda j: j.submit_time)
        return Trace(self.spec, self.jobs)


def generate_trace(spec: DatasetSpec, params: WorkloadParams) -> Trace:
    """Generate a deterministic synthetic trace for ``spec``.

    Campaign follow-ups are appended beyond ``params.n_jobs``, so the
    returned trace typically has somewhat more jobs than requested —
    matching how real users resubmit variations of an experiment.
    """
    return _TraceBuilder(spec, params).build()


@dataclass(frozen=True)
class FlashCrowdParams:
    """A seeded flash-crowd burst layered on top of an existing trace.

    Models the service's nightmare scenario (ROADMAP north star: "a
    simulation available to millions of users"): a sudden wave of
    first-time visitors — e.g. the dataset is linked from a popular
    article — each firing a one-off interactive point query.  Every
    burst job is a distinct client (fresh ``user_id``), which is
    exactly what defeats naive per-client rate limiting and makes the
    bounded-queue / brownout layers earn their keep.

    Attributes
    ----------
    factor:
        Burst size as a multiple of the base trace's average arrival
        rate over the burst window: the burst adds
        ``(factor - 1) x base_rate x duration`` jobs (a ``factor`` of
        10 makes the window carry ~10x normal load).
    start / duration:
        Burst window in engine seconds.
    positions_mean:
        Mean positions per burst query (small: visitors poke at a
        point, they do not run scans).
    seed:
        Burst RNG seed, independent of the base trace's.
    """

    factor: float = 10.0
    start: float = 0.0
    duration: float = 60.0
    positions_mean: float = 16.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1 (1 = no burst)")
        if self.start < 0 or self.duration <= 0:
            raise ValueError("start must be >= 0 and duration positive")
        if self.positions_mean < 1:
            raise ValueError("positions_mean must be >= 1")


def inject_flash_crowd(trace: Trace, params: FlashCrowdParams) -> Trace:
    """Return a new trace with a seeded flash-crowd burst merged in.

    Burst jobs are one-off interactive queries from distinct new users,
    with job/query/user ids continuing past the base trace's maxima so
    the merge never collides.  Deterministic: same base trace + same
    params ⇒ identical output.
    """
    spec = trace.spec
    base_rate = max(trace.n_jobs / trace.span, 1e-9) if trace.span > 0 else 1.0
    n_burst = max(1, int(round((params.factor - 1.0) * base_rate * params.duration)))
    rng = np.random.default_rng(params.seed)
    next_job = max((j.job_id for j in trace.jobs), default=-1) + 1
    next_query = max(
        (q.query_id for j in trace.jobs for q in j.queries), default=-1
    ) + 1
    next_user = max((j.user_id for j in trace.jobs), default=-1) + 1
    submit_times = np.sort(rng.uniform(params.start, params.start + params.duration, n_burst))
    timesteps = rng.integers(0, spec.n_timesteps, n_burst)
    burst_jobs: list[Job] = []
    for i, (submit, timestep) in enumerate(zip(submit_times, timesteps)):
        n_pos = max(4, int(rng.poisson(params.positions_mean)))
        center = rng.uniform(0.0, spec.grid_side, 3)
        positions = np.mod(
            center[None, :] + rng.normal(0.0, 6.0, (n_pos, 3)), spec.grid_side
        )
        query = Query(
            query_id=next_query + i,
            job_id=next_job + i,
            seq=0,
            user_id=next_user + i,
            op="velocity",
            timestep=int(timestep),
            positions=positions,
        )
        burst_jobs.append(
            Job(
                job_id=next_job + i,
                kind=JobKind.ORDERED,
                user_id=next_user + i,
                submit_time=float(submit),
                think_time=0.0,
                queries=[query],
            )
        )
    merged = sorted(trace.jobs + burst_jobs, key=lambda j: (j.submit_time, j.job_id))
    return Trace(spec, merged)
