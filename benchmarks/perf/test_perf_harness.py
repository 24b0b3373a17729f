"""Tests of the benchmark harness itself (``pytest benchmarks/perf``).

They run 30-job versions of the workloads, so the whole file takes
seconds, not the benchmark's minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import child
from tracing import Span, Target, Tracer, self_times
from workloads import CALIBRATED_SEED, WORKLOADS, build_trace, crash_point, prepare

ROOT = Path(__file__).resolve().parents[2]
SMOKE_JOBS = 30


def test_self_time_subtracts_the_union_of_child_intervals() -> None:
    names = ["root", "a", "b"]
    spans = [
        Span(0, 0.0, 10.0, -1),  # root: its children cover [1,6], [8,9], [9.5,10]
        Span(1, 1.0, 4.0, 0),    # a: 3 s, of which its child covers 1 s
        Span(2, 2.0, 3.0, 1),
        Span(2, 3.0, 6.0, 0),    # overlaps a: the union counts once
        Span(1, 8.0, 9.0, 0),
        Span(2, 9.5, 12.0, 0),   # runs past root's end: clipped
    ]
    got = self_times(spans, names)
    assert got["root"] == (1, pytest.approx(10.0 - 6.5))
    assert got["a"] == (2, pytest.approx(2.0 + 1.0))
    assert got["b"] == (3, pytest.approx(1.0 + 3.0 + 2.5))


def test_tracer_records_nesting_and_restores_attributes() -> None:
    class Box:
        def outer(self) -> int:
            return self.inner() + 1

        def inner(self) -> int:
            return 1

    class Sub(Box):
        pass

    originals = dict(vars(Box))
    tracer = Tracer()
    tracer.install_spans([
        Target(Box, "outer", "box.outer"),
        Target(Sub, "inner", "box.inner"),  # inherited: shadowed, then deleted
    ])
    assert Sub().outer() == 2
    tracer.restore()
    assert dict(vars(Box)) == originals and "inner" not in vars(Sub)
    outer, inner = tracer.spans
    assert (tracer.names[outer.name], outer.parent) == ("box.outer", -1)
    assert (tracer.names[inner.name], inner.parent) == ("box.inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _namespace(target: Target) -> dict:
    """What wrapping ``target`` replaces: a class's namespace, or the module attribute."""
    owner = target.owner
    if isinstance(owner, type):
        return dict(vars(owner))
    return {target.attr: getattr(owner, target.attr)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_digests_and_tracing(name: str, tmp_path: Path) -> None:
    """Every builder runs; the digest is the same at every seed and under
    tracing; tracing restores every attribute it wrapped."""
    crash_at = None
    if WORKLOADS[name].recover:
        reference, _ = child.measure(name, 11, tmp_path / "ref", n_jobs=SMOKE_JOBS)
        crash_at = crash_point(reference["events"])
    first, _ = child.measure(name, 3, tmp_path / "a", crash_at, n_jobs=SMOKE_JOBS)
    before = [_namespace(t) for t in (*child.LAYERS, *child.BYTE_COUNTERS)]
    traced, tracer = child.measure(
        name, CALIBRATED_SEED, tmp_path / "b", crash_at, traced=True, n_jobs=SMOKE_JOBS
    )
    after = [_namespace(t) for t in (*child.LAYERS, *child.BYTE_COUNTERS)]

    assert before == after
    assert tracer is not None and tracer.spans
    assert traced["digest"] == first["digest"]
    assert traced["layers"]["engine.run"]["calls"] == (1 if crash_at is None else 2)
    if crash_at is not None:
        # The resumed run reproduces the uninterrupted one bit for bit.
        assert first["digest"] == reference["digest"]
        assert traced["layers"]["recovery.restore"]["calls"] == 1
        assert traced["counters"]["recovery.snapshot_bytes"] > 0


def test_relabel_moves_ids_in_order_and_keeps_everything_else() -> None:
    workload = WORKLOADS["liferaft2-small"]
    base = build_trace(workload, CALIBRATED_SEED, SMOKE_JOBS)
    moved = build_trace(workload, 3, SMOKE_JOBS)
    again = build_trace(workload, 3, SMOKE_JOBS)
    pairs = list(zip(base.queries(), moved.queries()))
    assert all(
        (a.timestep, a.seq, a.op) == (b.timestep, b.seq, b.op)
        and (a.positions == b.positions).all()
        for a, b in pairs
    )
    assert all(a.query_id != b.query_id and a.job_id != b.job_id for a, b in pairs)
    for attr in ("query_id", "job_id"):
        old = [getattr(a, attr) for a, _ in pairs]
        new = [getattr(b, attr) for _, b in pairs]
        assert sorted(range(len(pairs)), key=old.__getitem__) == sorted(
            range(len(pairs)), key=new.__getitem__
        )
    assert [q.query_id for q in again.queries()] == [q.query_id for q in moved.queries()]


def test_crash_point_needs_the_recovery_workload(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        prepare("jaws2-full", CALIBRATED_SEED, tmp_path, n_jobs=SMOKE_JOBS, crash_at=10)


def test_benchmark_json_names_every_metric_the_harness_produces() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = {f"{n}.{k}" for n in child.span_names() for k in ("calls", "self_s")}
    produced |= {t.name for t in child.BYTE_COUNTERS} | {"bench.trace_overhead_frac"}
    result_counters = {
        "core.gating_overhead_s", "core.forced_releases", "engine.events",
        "engine.atoms_executed", "engine.neighbor_reads", "engine.retries",
        "engine.failovers", "storage.cache.accesses", "storage.cache.hit_ratio",
        "storage.cache.evictions", "storage.cache.overhead_s", "storage.disk.reads",
        "storage.disk.sequential_reads",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced | result_counters
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
