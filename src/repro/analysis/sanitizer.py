"""Runtime simulation sanitizer: engine invariants checked per event.

Static lint (:mod:`repro.analysis.lint`) catches nondeterminism at the
source level; this module catches *state corruption* at run time.  When
``EngineConfig(sanitize=True)`` is set, the discrete-event engine
creates one :class:`SimulationSanitizer` and calls back into it

* from :meth:`Simulator._push` — no event may be scheduled into the
  past;
* after every dispatched event — the full invariant sweep below;
* from :meth:`BatchExecutor.execute` — batch outcomes must be sane.

Checked invariants (DESIGN.md §7 lists them with their rationale):

``clock_monotonicity``
    The virtual clock is finite, non-negative and never decreases.
``subquery_conservation``
    For every arrived, incomplete query, the engine's outstanding
    counter equals the number of its sub-queries physically present in
    the system (workload queues + gating holds + in-flight batches +
    parked REROUTE buckets): arrived = pending + in-flight + completed
    + cancelled, per query.
``shed_conservation``
    Every admitted query lands in exactly one bucket at all times:
    ``admitted = completed + cancelled + shed + pending``.  Checked on
    every run (shed is zero without overload protection), so overload
    shedding cannot silently lose or double-count a query.
``queue_coherence``
    Every node's :class:`~repro.core.queues.WorkloadQueues` packed
    columns are internally consistent (atom/row bijection, position
    counts, cached flags, ``u_t``, total-position accounting).
``gating_acyclicity`` / ``gating_consistency``
    Every node's precedence graph partitions queries into cliques with
    at most one query per job, its contracted group graph is acyclic
    (the paper's deadlock-freedom condition), and its gating numbers
    are a stable fixed point.
``batch_sanity``
    A batch's duration is finite and non-negative and its failed
    sub-queries are a subset of the batch's own sub-queries.

Any breach raises :class:`~repro.errors.InvariantViolation` with the
invariant name, evidence, and the engine's diagnostics snapshot.  The
sanitizer only *reads* engine state, so a sanitized run produces a
bit-identical :class:`~repro.engine.results.RunResult` to an
unsanitized one (asserted by ``tests/test_sanitizer.py``).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.engine.events import EventKind
from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.base import Batch
    from repro.engine.executor import BatchOutcome
    from repro.engine.simulator import Simulator

__all__ = ["SimulationSanitizer"]


class SimulationSanitizer:
    """Per-event invariant checker attached to one simulator.

    The sanitizer is strictly observational: it never mutates engine
    state, so enabling it cannot change simulation results — only turn
    silent corruption into an immediate, diagnosable failure.

    Attributes
    ----------
    checks:
        Number of full invariant sweeps executed (diagnostics).
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._last_clock = 0.0
        self.checks = 0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the simulator back-reference.

        The sanitizer is part of checkpoint snapshot state (its
        ``_last_clock`` / ``checks`` progress must survive a crash), but
        serializing ``_sim`` would recursively duplicate the entire
        engine.  ``Simulator.restore`` calls :meth:`attach` to rewire
        the back-reference on the rebuilt object.
        """
        state = dict(self.__dict__)
        state["_sim"] = None
        return state

    def attach(self, sim: "Simulator") -> None:
        """Re-point a restored sanitizer at its rebuilt simulator."""
        self._sim = sim

    # ------------------------------------------------------------------
    def _raise(
        self, invariant: str, message: str, details: Optional[Mapping[str, object]] = None
    ) -> None:
        sim = self._sim
        raise InvariantViolation(
            invariant,
            message,
            details=details,
            clock=sim.clock,
            event_index=sim.event_index,
            rng_digest=sim.injector.rng_digest() if sim.injector is not None else None,
            pending_queries=sorted(sim._remaining),
            queue_depths=[n.scheduler.queue_depth() for n in sim.nodes],
            busy_flags=[n.busy for n in sim.nodes],
        )

    # ------------------------------------------------------------------
    # Hook: event scheduling (Simulator._push)
    # ------------------------------------------------------------------
    def on_schedule(self, time_: float, kind: EventKind) -> None:
        """An event is being pushed onto the heap at virtual ``time_``."""
        if not math.isfinite(time_):
            self._raise(
                "clock_monotonicity",
                f"non-finite event time scheduled for {kind.name}",
                {"event_time": time_, "event_kind": kind.name},
            )
        if time_ < self._sim.clock:
            self._raise(
                "clock_monotonicity",
                f"{kind.name} scheduled into the past",
                {"event_time": time_, "clock": self._sim.clock, "event_kind": kind.name},
            )

    # ------------------------------------------------------------------
    # Hook: batch execution (BatchExecutor.execute)
    # ------------------------------------------------------------------
    def check_batch(self, batch: "Batch", outcome: "BatchOutcome") -> None:
        """Validate one executed batch's outcome."""
        if not math.isfinite(outcome.duration) or outcome.duration < 0:
            self._raise(
                "batch_sanity",
                "batch duration must be finite and non-negative",
                {"duration": outcome.duration, "atoms": batch.atom_ids()},
            )
        batch_sqs = {id(sq) for _, subs in batch.atoms for sq in subs}
        stray = [sq for sq in outcome.failed if id(sq) not in batch_sqs]
        if stray:
            self._raise(
                "batch_sanity",
                "failed sub-queries are not a subset of the batch",
                {"stray_query_ids": sorted({sq.query.query_id for sq in stray})},
            )

    # ------------------------------------------------------------------
    # Hook: after every dispatched event
    # ------------------------------------------------------------------
    def after_event(self) -> None:
        """Run the full invariant sweep against current engine state."""
        self.checks += 1
        self._check_clock()
        self._check_conservation()
        self._check_shed_conservation()
        self._check_queues()
        self._check_gating()

    # -- clock --------------------------------------------------------------
    def _check_clock(self) -> None:
        clock = self._sim.clock
        if not math.isfinite(clock) or clock < 0:
            self._raise(
                "clock_monotonicity",
                "virtual clock must be finite and non-negative",
                {"clock": clock},
            )
        if clock < self._last_clock:
            self._raise(
                "clock_monotonicity",
                "virtual clock moved backwards",
                {"clock": clock, "previous": self._last_clock},
            )
        self._last_clock = clock

    # -- sub-query conservation ---------------------------------------------
    def _located_subqueries(self) -> tuple[Counter, Counter]:
        """Count, per query id, every sub-query physically present in
        the system, split into two counters: *queued* (node workload
        queues and gating holds — pruned by ``cancel_query``) and
        *zombie-capable* (in-flight batches and every pair of a parked
        REROUTE bucket — work a cancellation cannot reach; the engine
        discards it when the batch completes or the REROUTE fires)."""
        queued: Counter = Counter()
        zombie: Counter = Counter()
        sim = self._sim
        for node in sim.nodes:
            queued.update(node.scheduler.pending_by_query())
            if node.inflight is not None:
                for _, subs in node.inflight.atoms:
                    for sq in subs:
                        zombie[sq.query.query_id] += 1
        for event in sim._heap:
            if event.kind is EventKind.REROUTE:
                for sq, _arrival in event.payload:
                    zombie[sq.query.query_id] += 1
        return queued, zombie

    def _check_conservation(self) -> None:
        sim = self._sim
        queued, zombie = self._located_subqueries()
        mismatches: Dict[int, Dict[str, int]] = {}
        for query_id, outstanding in sim._remaining.items():
            present = queued.get(query_id, 0) + zombie.get(query_id, 0)
            if present != outstanding:
                mismatches[query_id] = {"outstanding": outstanding, "present": present}
        # Only *queued* sub-queries of a finished query are orphans:
        # cancellation prunes every workload queue, so presence there is
        # a real leak.  In-flight batch entries and parked REROUTEs of a
        # cancelled query are by-design zombies — a running disk batch
        # cannot be preempted and a parked REROUTE is dropped when it
        # fires — so they are exempt.
        orphans = sorted(qid for qid in queued if qid not in sim._remaining)
        if mismatches:
            self._raise(
                "subquery_conservation",
                "outstanding counters disagree with located sub-queries "
                "(arrived != pending + in-flight + completed + cancelled)",
                {"mismatches": mismatches},
            )
        if orphans:
            self._raise(
                "subquery_conservation",
                "sub-queries of completed/cancelled queries are still queued",
                {"orphan_query_ids": orphans},
            )

    # -- shed conservation ----------------------------------------------------
    def _check_shed_conservation(self) -> None:
        """Every admitted query is in exactly one terminal or live
        bucket: ``admitted == completed + cancelled + shed + pending``.
        Holds with or without overload protection (shed is zero in
        unprotected runs), so a lost or double-counted query is caught
        at the very event that corrupts the books."""
        sim = self._sim
        accounted = sim._completed + sim._cancelled + sim._shed + len(sim._remaining)
        if sim._admitted != accounted:
            self._raise(
                "shed_conservation",
                "admitted != completed + cancelled + shed + pending",
                {
                    "admitted": sim._admitted,
                    "completed": sim._completed,
                    "cancelled": sim._cancelled,
                    "shed": sim._shed,
                    "pending": len(sim._remaining),
                },
            )

    # -- workload-queue coherence -------------------------------------------
    def _check_queues(self) -> None:
        remaining = self._sim._remaining
        for idx, node in enumerate(self._sim.nodes):
            queues = getattr(node.scheduler, "queues", None)
            if queues is None:
                continue
            problems = queues.check_consistency()
            # Index entries end with their query (completion or
            # cancellation); one that outlives it is a leak.
            problems.extend(
                f"inverted index holds ended query {qid}"
                for qid in queues._by_query
                if qid not in remaining
            )
            if problems:
                self._raise(
                    "queue_coherence",
                    f"workload queues on node {idx} are incoherent",
                    {"node": idx, "problems": problems},
                )

    # -- gating-graph validity ----------------------------------------------
    def _check_gating(self) -> None:
        for idx, node in enumerate(self._sim.nodes):
            gating = getattr(node.scheduler, "_gating", None)
            if gating is None:
                continue
            graph = gating.graph
            problems = graph.validate()
            if problems:
                self._raise(
                    "gating_consistency",
                    f"precedence graph on node {idx} is inconsistent",
                    {"node": idx, "problems": problems},
                )
            if not graph.is_acyclic():
                self._raise(
                    "gating_acyclicity",
                    f"contracted gating-group graph on node {idx} has a cycle "
                    "(gated schedule can deadlock)",
                    {"node": idx, "groups": graph.n_gating_edges()},
                )
