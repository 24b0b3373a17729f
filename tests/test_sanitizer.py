"""Runtime sanitizer coverage.

Two families of checks:

* a sanitized run is *observationally free* — bit-identical virtual-
  time results, violations never fire on healthy runs;
* every invariant actually trips: engine state is corrupted mid-run
  (or a hook is fed corrupt data) and the resulting
  :class:`~repro.errors.InvariantViolation` names the invariant.
"""

import pytest

from repro.analysis.sanitizer import SimulationSanitizer
from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.core.base import Batch
from repro.engine.events import EventKind
from repro.engine.executor import BatchOutcome
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import InvariantViolation
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.query import AtomSet

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(**kwargs):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        **kwargs,
    )


def build_sim(name="jaws2", sanitize=True, faults=None, seed=0):
    eng = engine(sanitize=sanitize, **({"faults": faults} if faults else {}))
    trace = small_trace(seed=seed)
    return Simulator(trace, [make_scheduler(name, trace, eng)], eng)


# ---------------------------------------------------------------------------
# Observational freedom
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["noshare", "liferaft2", "jaws1", "jaws2"])
def test_sanitized_run_is_bit_identical(name):
    trace = small_trace()
    off = Simulator(trace, [make_scheduler(name, trace, engine())], engine()).run()
    eng = engine(sanitize=True)
    sim = Simulator(trace, [make_scheduler(name, trace, eng)], eng)
    on = sim.run()
    assert sim.sanitizer is not None and sim.sanitizer.checks > 0
    assert off.to_dict() == on.to_dict()


def test_sanitized_run_with_faults_is_bit_identical():
    faults = FaultConfig(seed=5, transient_fault_rate=0.05, permanent_loss_rate=0.01)
    trace = small_trace()
    eng_off = engine(faults=faults)
    eng_on = engine(faults=faults, sanitize=True)
    off = Simulator(trace, [make_scheduler("jaws2", trace, eng_off)], eng_off).run()
    on = Simulator(trace, [make_scheduler("jaws2", trace, eng_on)], eng_on).run()
    assert off.to_dict() == on.to_dict()


def test_sanitizer_disabled_by_default():
    sim = build_sim(sanitize=False)
    assert sim.sanitizer is None
    sim.run()


# ---------------------------------------------------------------------------
# Mid-run corruption: each invariant must fire and name itself
# ---------------------------------------------------------------------------
def run_with_corruption(sim, corrupt, after_checks=5):
    """Run ``sim``, applying ``corrupt(sim)`` once ``after_checks``
    invariant sweeps have passed (so real state exists to corrupt).
    Returns the InvariantViolation the sanitizer raised."""
    sanitizer = sim.sanitizer
    orig = sanitizer.after_event
    state = {"armed": True}

    def wrapper():
        if state["armed"] and sanitizer.checks >= after_checks and corrupt(sim):
            state["armed"] = False
        orig()

    sanitizer.after_event = wrapper
    with pytest.raises(InvariantViolation) as exc_info:
        sim.run()
    return exc_info.value


def test_conservation_violation_fires():
    def corrupt(sim):
        if not sim._remaining:
            return False
        qid = next(iter(sim._remaining))
        sim._remaining[qid] += 1  # phantom outstanding sub-query
        return True

    violation = run_with_corruption(build_sim(), corrupt)
    assert violation.invariant == "subquery_conservation"
    assert "subquery_conservation" in str(violation)


def test_orphan_subquery_fires():
    def corrupt(sim):
        # Orphans count only *queued* sub-queries: in-flight batches and
        # parked REROUTEs of a cancelled query are by-design zombies.
        queued, _zombie = sim.sanitizer._located_subqueries()
        live = [qid for qid in queued if qid in sim._remaining]
        if not live:
            return False
        # Engine forgets the query while its sub-queries stay queued.
        del sim._remaining[live[0]]
        return True

    violation = run_with_corruption(build_sim(), corrupt)
    assert violation.invariant == "subquery_conservation"


def test_dropped_parked_pair_fires():
    def corrupt(sim):
        # Lose one live pair out of a bucket parked for the recovery.
        for event in sim._heap:
            if event.kind is EventKind.REROUTE:
                for i, (sq, _arrival) in enumerate(event.payload):
                    if sq.query.query_id in sim._remaining:
                        del event.payload[i]
                        return True
        return False

    faults = FaultConfig(seed=5, node_crashes=((0, 30.0, 60.0),))
    violation = run_with_corruption(build_sim(faults=faults), corrupt)
    assert violation.invariant == "subquery_conservation"
    assert "mismatches" in str(violation)


def test_queue_coherence_violation_fires():
    def corrupt(sim):
        queues = getattr(sim.nodes[0].scheduler, "queues", None)
        if queues is None:
            return False
        queues.total_positions += 7  # break position accounting
        return True

    violation = run_with_corruption(build_sim(), corrupt)
    assert violation.invariant == "queue_coherence"
    assert "total_positions" in str(violation)


def test_clock_monotonicity_violation_fires():
    def corrupt(sim):
        if sim.clock <= 1.0:
            return False
        sim.clock -= 1.0  # virtual time runs backwards
        return True

    violation = run_with_corruption(build_sim(), corrupt)
    assert violation.invariant == "clock_monotonicity"


def test_gating_consistency_violation_fires():
    def corrupt(sim):
        gating = getattr(sim.nodes[0].scheduler, "_gating", None)
        if gating is None or not gating.graph._groups:
            return False
        gid = next(iter(gating.graph._groups))
        gating.graph._groups[gid].add(999_999_999)  # ghost member
        return True

    violation = run_with_corruption(build_sim("jaws2"), corrupt, after_checks=1)
    assert violation.invariant == "gating_consistency"


# ---------------------------------------------------------------------------
# Hook-level corruption (events and batches)
# ---------------------------------------------------------------------------
def started_sim():
    sim = build_sim()
    sim.run()
    return sim


def test_event_scheduled_into_past_fires():
    sim = started_sim()
    with pytest.raises(InvariantViolation) as exc_info:
        sim.sanitizer.on_schedule(sim.clock - 5.0, EventKind.BATCH_DONE)
    assert exc_info.value.invariant == "clock_monotonicity"


def test_non_finite_event_time_fires():
    sim = started_sim()
    with pytest.raises(InvariantViolation) as exc_info:
        sim.sanitizer.on_schedule(float("nan"), EventKind.BATCH_DONE)
    assert exc_info.value.invariant == "clock_monotonicity"


def test_negative_batch_duration_fires():
    sim = started_sim()
    batch = Batch(atoms=[])
    with pytest.raises(InvariantViolation) as exc_info:
        sim.sanitizer.check_batch(batch, BatchOutcome(duration=-0.5))
    assert exc_info.value.invariant == "batch_sanity"


def test_foreign_failed_subquery_fires():
    trace = small_trace()
    some_query = trace.jobs[0].queries[0]
    from repro.workload.query import SubQuery

    foreign = SubQuery(query=some_query, atom_id=0, n_positions=1)
    sim = started_sim()
    with pytest.raises(InvariantViolation) as exc_info:
        sim.sanitizer.check_batch(
            Batch(atoms=[]), BatchOutcome(duration=0.1, failed=[foreign])
        )
    assert exc_info.value.invariant == "batch_sanity"


# ---------------------------------------------------------------------------
# Gating acyclicity (graph surgery; admission would reject the cycle)
# ---------------------------------------------------------------------------
def test_gating_acyclicity_violation_fires():
    from repro.core.gating import PrecedenceGraph

    graph = PrecedenceGraph()
    graph.add_job(1, [10, 11], [AtomSet.of([0]), AtomSet.of([1])])
    graph.add_job(2, [20, 21], [AtomSet.of([0]), AtomSet.of([1])])
    # Cross-merge the cliques by hand: {10, 21} and {11, 20}.  Job 1
    # orders g(10) -> g(11); job 2 orders g(20)=g(11) -> g(21)=g(10):
    # a cycle admit_edge() would have rejected.
    ga = graph._v[10].group
    gb = graph._v[11].group
    for qid, target in ((21, ga), (20, gb)):
        old = graph._v[qid].group
        graph._groups[old].discard(qid)
        if not graph._groups[old]:
            del graph._groups[old]
        graph._v[qid].group = target
        graph._groups[target].add(qid)
    assert not graph.is_acyclic()

    class _StubScheduler:
        def __init__(self):
            self._gating = type("G", (), {"graph": graph})()
            self.queues = None

        def queue_depth(self):
            return 0

    class _StubNode:
        def __init__(self):
            self.scheduler = _StubScheduler()
            self.busy = False

    class _StubSim:
        clock = 0.0
        event_index = 0
        injector = None
        _remaining = {}
        _heap = ()

        def __init__(self):
            self.nodes = [_StubNode()]

    sanitizer = SimulationSanitizer(_StubSim())
    # validate() itself may also flag the broken fixed point; silence it
    # so the acyclicity check specifically is exercised.
    graph.validate = lambda: []
    with pytest.raises(InvariantViolation) as exc_info:
        sanitizer._check_gating()
    assert exc_info.value.invariant == "gating_acyclicity"
    assert "cycle" in str(exc_info.value)


def test_gating_validate_reports_clean_graph():
    from repro.core.gating import PrecedenceGraph

    graph = PrecedenceGraph()
    graph.add_job(1, [10, 11], [AtomSet.of([0]), AtomSet.of([1])])
    graph.add_job(2, [20, 21], [AtomSet.of([0]), AtomSet.of([1])])
    assert graph.admit_edge(10, 20)
    assert graph.validate() == []
    assert graph.is_acyclic()


def test_queue_check_consistency_reports_clean_queues():
    sim = build_sim("jaws2", sanitize=False)
    sim.run()
    queues = sim.nodes[0].scheduler.queues
    assert queues.check_consistency() == []


def test_violation_carries_state_snapshot():
    def corrupt(sim):
        if not sim._remaining:
            return False
        sim._remaining[next(iter(sim._remaining))] += 1
        return True

    violation = run_with_corruption(build_sim(), corrupt)
    assert violation.invariant == "subquery_conservation"
    assert violation.details
    assert violation.clock >= 0.0
    assert isinstance(violation.pending_queries, list)
    assert violation.queue_depths and violation.busy_flags is not None
