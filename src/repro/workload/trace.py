"""Trace container: a replayable workload.

The paper evaluates against a 50 k-query (~1 k-job) trace from the
Turbulence SQL log, rescaled by a *speed-up* factor to vary workload
saturation (§VI-B: "a speed-up of two indicates that j_i is now
submitted in one minute" instead of two).  :meth:`Trace.rescale`
implements exactly that: inter-job submit gaps shrink by the factor;
think times (client-side computation) are unchanged.

Traces serialize to a single ``.npz`` file (no pickle) so experiment
inputs are reproducible artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.grid.dataset import DatasetSpec
from repro.workload.job import Job, JobKind
from repro.workload.query import Query

__all__ = ["Trace"]


@dataclass
class Trace:
    """A dataset spec plus the jobs to replay against it."""

    spec: DatasetSpec
    jobs: list[Job]

    def __post_init__(self) -> None:
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in trace")

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_queries(self) -> int:
        return sum(j.n_queries for j in self.jobs)

    @property
    def n_positions(self) -> int:
        return sum(j.n_positions for j in self.jobs)

    def queries(self) -> list[Query]:
        """All queries in (job, seq) order."""
        return [q for j in self.jobs for q in j.queries]

    @property
    def span(self) -> float:
        """Submit-time span of the trace in engine seconds."""
        if not self.jobs:
            return 0.0
        times = [j.submit_time for j in self.jobs]
        return max(times) - min(times)

    def rescale(self, speedup: float) -> "Trace":
        """Return a copy with inter-job arrival gaps divided by ``speedup``.

        ``speedup > 1`` saturates the workload (jobs arrive faster);
        ``speedup < 1`` relaxes it.  Think times are untouched — they
        model user-side computation, not arrival rate.  ``speedup == 1``
        keeps every submit time exactly (``t0 + (t - t0)`` can round).
        """
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        if speedup == 1.0 or not self.jobs:
            return Trace(self.spec, list(self.jobs))
        t0 = min(j.submit_time for j in self.jobs)
        jobs = [
            replace(j, submit_time=t0 + (j.submit_time - t0) / speedup) for j in self.jobs
        ]
        return Trace(self.spec, jobs)

    # ------------------------------------------------------------------
    # Serialization (pickle-free npz)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace to ``path`` as a compressed ``.npz``."""
        job_meta = []
        query_meta = []
        position_blocks = []
        offset = 0
        for job in self.jobs:
            job_meta.append(
                {
                    "job_id": job.job_id,
                    "kind": job.kind.value,
                    "user_id": job.user_id,
                    "submit_time": job.submit_time,
                    "think_time": job.think_time,
                    "client_class": job.client_class,
                }
            )
            for q in job.queries:
                n = q.n_positions
                query_meta.append(
                    {
                        "query_id": q.query_id,
                        "job_id": q.job_id,
                        "seq": q.seq,
                        "user_id": q.user_id,
                        "op": q.op,
                        "timestep": q.timestep,
                        "offset": offset,
                        "n": n,
                    }
                )
                position_blocks.append(q.positions)
                offset += n
        positions = (
            np.concatenate(position_blocks, axis=0)
            if position_blocks
            else np.empty((0, 3), dtype=np.float64)
        )
        spec = {
            "grid_side": self.spec.grid_side,
            "atom_side": self.spec.atom_side,
            "n_timesteps": self.spec.n_timesteps,
            "dt": self.spec.dt,
            "halo": self.spec.halo,
            "atom_bytes": self.spec.atom_bytes,
        }
        np.savez_compressed(
            Path(path),
            header=np.frombuffer(
                json.dumps({"spec": spec, "jobs": job_meta, "queries": query_meta}).encode(),
                dtype=np.uint8,
            ),
            positions=positions,
        )

    @staticmethod
    def load(path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(Path(path)) as data:
            header = json.loads(bytes(data["header"]).decode())
            positions = data["positions"]
        spec = DatasetSpec(**header["spec"])
        queries_by_job: dict[int, list[Query]] = {}
        for qm in header["queries"]:
            q = Query(
                query_id=qm["query_id"],
                job_id=qm["job_id"],
                seq=qm["seq"],
                user_id=qm["user_id"],
                op=qm["op"],
                timestep=qm["timestep"],
                positions=positions[qm["offset"] : qm["offset"] + qm["n"]],
            )
            queries_by_job.setdefault(q.job_id, []).append(q)
        jobs = []
        for jm in header["jobs"]:
            qs = sorted(queries_by_job.get(jm["job_id"], []), key=lambda q: q.seq)
            jobs.append(
                Job(
                    job_id=jm["job_id"],
                    kind=JobKind(jm["kind"]),
                    user_id=jm["user_id"],
                    submit_time=jm["submit_time"],
                    think_time=jm["think_time"],
                    queries=qs,
                    # Traces written before overload protection carry no
                    # class tag; Job derives one from the job shape.
                    client_class=jm.get("client_class", ""),
                )
            )
        return Trace(spec, jobs)
