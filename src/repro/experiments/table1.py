"""Table I: performance and overhead of the caching algorithms.

Paper (2 GB cache under the full JAWS stack):

=======  =========  ===========  ============
policy   cache hit  seconds/qry  overhead/qry
=======  =========  ===========  ============
LRU-K    47 %       1.62         (not meas.)
SLRU     49 %       1.56         < 1 ms
URC      54 %       1.39         7 ms
=======  =========  ===========  ============

We measure the same three columns: hit ratio and simulated
seconds-per-query from the engine, and the *real* wall-clock time a
:class:`PolicyClock` sees inside the policy's hooks per completed
query (URC's rank maintenance is the expensive one).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable

from repro.cache.base import _REGISTRY
from repro.engine.results import RunResult
from repro.experiments.common import (
    STANDARD_SPEEDUP,
    ExperimentScale,
    standard_engine,
    standard_trace,
    sweep_supervisor,
)
from repro.experiments.report import render_table
from repro.parallel import RunSpec, map_many, run_spec

POLICIES = ("lruk", "slru", "urc")

PAPER = {
    "lruk": {"cache_hit": 0.47, "sec_per_qry": 1.62, "overhead_ms": None},
    "slru": {"cache_hit": 0.49, "sec_per_qry": 1.56, "overhead_ms": 1.0},
    "urc": {"cache_hit": 0.54, "sec_per_qry": 1.39, "overhead_ms": 7.0},
}


#: The :class:`~repro.cache.base.CachePolicy` hooks a clock times.
HOOKS = ("on_access", "on_insert", "on_evict", "choose_victim", "on_run_boundary")


def _now_ns() -> int:
    return time.perf_counter_ns()  # jawslint: disable=D001 - Table I's policy clock, host cost only


class PolicyClock:
    """While open, counts the wall-clock nanoseconds spent in the :data:`HOOKS`
    of every registered cache-policy class; a hook inside a hook counts once."""

    ns = 0
    _in_hook = False

    def __enter__(self) -> PolicyClock:
        self._saved = [
            (cls, name, cls.__dict__.get(name), getattr(cls, name))
            for cls in _REGISTRY.values()
            for name in HOOKS
        ]
        for cls, name, _, fn in self._saved:
            setattr(cls, name, self._timed(fn))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, name, own, _ in self._saved:
            if own is None:  # inherited: drop the shadowing wrapper
                delattr(cls, name)
            else:
                setattr(cls, name, own)

    def _timed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            # No registered policy nests hooks today.  The guard is for one that
            # does (a hook that calls another hook, or a subclass hook that calls
            # its registered, hence also wrapped, parent's via super()), which
            # would otherwise be timed twice.
            if self._in_hook:
                return fn(*args, **kwargs)
            self._in_hook = True
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns += _now_ns() - start
                self._in_hook = False

        return timed


def clocked_run(spec: RunSpec) -> tuple[RunResult, int]:
    """A spec's result and its :class:`PolicyClock` nanoseconds (a pool task)."""
    with PolicyClock() as clock:
        result = run_spec(spec)
    return result, clock.ns


def run(
    scale: ExperimentScale = ExperimentScale.SMALL,
    speedup: float = STANDARD_SPEEDUP,
    seed: int = 7,
    jobs: int = 1,
) -> dict:
    """JAWS₂ with each replacement policy on the standard trace."""
    trace = standard_trace(scale, speedup=speedup, seed=seed)
    engine = standard_engine()
    specs = [
        RunSpec(
            trace,
            "jaws2",
            dataclasses.replace(
                engine, cache=dataclasses.replace(engine.cache, policy=policy)
            ),
            label=f"table1:{policy}",
        )
        for policy in POLICIES
    ]
    outcomes = map_many(clocked_run, specs, jobs=jobs, supervisor=sweep_supervisor())
    rows = {}
    for policy, (result, policy_ns) in zip(POLICIES, outcomes):
        rows[policy] = {
            "cache_hit": result.cache_hit_ratio,
            "sec_per_qry": result.seconds_per_query,
            "overhead_ms": policy_ns / 1e6 / result.n_queries if result.n_queries else 0.0,
            "throughput_qps": result.throughput_qps,
        }
    return {"rows": rows, "paper": PAPER}


def render(data: dict) -> str:
    rows = []
    for policy, v in data["rows"].items():
        p = data["paper"][policy]
        rows.append(
            (
                policy.upper(),
                v["cache_hit"],
                p["cache_hit"],
                v["sec_per_qry"],
                p["sec_per_qry"],
                v["overhead_ms"],
                p["overhead_ms"] if p["overhead_ms"] is not None else "-",
            )
        )
    return render_table(
        ["policy", "hit", "hit(paper)", "s/qry", "s/qry(paper)", "ovh_ms", "ovh(paper)"],
        rows,
        title="Table I — cache replacement algorithms under JAWS2",
    )


if __name__ == "__main__":
    print(render(run()))
