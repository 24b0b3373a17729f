"""Overload-protection test suite (DESIGN.md §9).

Covers the four overload layers in isolation — token-bucket admission,
brownout mode machine, weighted fair quotas, shed-policy victim
ranking — and their composition through the discrete-event engine:
deterministic admission under a seeded flash crowd, the shed
conservation invariant under the runtime sanitizer, the fair-quota
starvation regression, the acceptance-criterion p99 bound, and
crash+resume bit-identity with overload protection active mid-burst.

The slow-marked soak at the bottom crosses flash crowds with disk
faults and random coordinator-crash points (CI ``overload-soak`` job,
``pytest -m slow tests/test_overload.py``).
"""

import dataclasses
import pickle
import random

import pytest

from repro.config import (
    SHED_POLICIES,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    SchedulerConfig,
)
from repro.core.qos import QoSJAWSScheduler
from repro.engine.results import RunResult
from repro.engine.runner import make_scheduler, run_trace
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, CoordinatorCrash, QueryRejected
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.overload import (
    AdmissionController,
    BrownoutController,
    FairShareController,
    Mode,
    OverloadManager,
    PendingWork,
    TokenBucketLimiter,
    make_shed_policy,
)
from repro.workload.generator import (
    FlashCrowdParams,
    WorkloadParams,
    generate_trace,
    inject_flash_crowd,
)
from repro.workload.job import Job, JobKind

from tests.test_determinism import assert_identical

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=8, atoms_per_axis=4)

#: tight protection knobs shared by the engine-integration scenarios
PROTECTION = OverloadConfig(
    enabled=True,
    max_queue_depth=16,
    client_rate=1.0,
    client_burst=3.0,
    shed_policy="deadline",
    throttle_enter=0.4,
    throttle_exit=0.25,
    shed_enter=0.7,
    shed_exit=0.45,
    shed_target=0.4,
)


def overload_cfg(**kw):
    base = dict(enabled=True)
    base.update(kw)
    return OverloadConfig(**base)


def job(job_id=0, user_id=0, kind=JobKind.ORDERED, client_class=""):
    return Job(job_id, kind, user_id, 0.0, client_class=client_class)


def pending(
    qid,
    client_class="interactive",
    weight=6.0,
    arrival=0.0,
    n=1,
    density=1.0,
    service=1.0,
    deadline=100.0,
    job_id=0,
):
    return PendingWork(
        query_id=qid,
        job_id=job_id,
        client_class=client_class,
        arrival=arrival,
        n_subqueries=n,
        density=density,
        service_estimate=service,
        deadline=deadline,
        class_weight=weight,
    )


# ---------------------------------------------------------------------------
# Token-bucket admission
# ---------------------------------------------------------------------------
class TestTokenBucketLimiter:
    def test_fresh_client_bursts_then_blocks(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=3.0)
        assert [limiter.try_acquire(7, 0.0) for _ in range(3)] == [None] * 3
        retry = limiter.try_acquire(7, 0.0)
        assert retry == pytest.approx(1.0)  # (1 - 0 tokens) / rate

    def test_retry_after_hint_is_honest(self):
        limiter = TokenBucketLimiter(rate=2.0, burst=1.0)
        assert limiter.try_acquire(1, 0.0) is None
        retry = limiter.try_acquire(1, 0.0)
        assert retry == pytest.approx(0.5)
        # Just before the hint the bucket is still short...
        assert limiter.try_acquire(1, 0.4) is not None
        # ...and exactly at the hinted instant admission succeeds.
        assert limiter.try_acquire(1, 0.5 + 1e-9) is None

    def test_refill_caps_at_burst(self):
        limiter = TokenBucketLimiter(rate=10.0, burst=2.0)
        assert limiter.tokens(3, 1000.0) == pytest.approx(2.0)

    def test_refusal_consumes_nothing(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0)
        limiter.try_acquire(5, 0.0)
        before = limiter.tokens(5, 0.3)
        limiter.try_acquire(5, 0.3)
        assert limiter.tokens(5, 0.3) == pytest.approx(before)

    def test_same_sequence_same_decisions(self):
        def decisions():
            limiter = TokenBucketLimiter(rate=0.7, burst=2.0)
            times = [0.0, 0.1, 0.4, 1.3, 1.35, 2.0, 5.0, 5.01]
            return [limiter.try_acquire(i % 3, t) for i, t in enumerate(times)]

        assert decisions() == decisions()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_queue_full_checked_before_token_charge(self):
        cfg = overload_cfg(max_queue_depth=4, client_rate=1.0, client_burst=1.0)
        ctl = AdmissionController(cfg, capacity=4)
        rejection = ctl.admit_job(job(user_id=9), global_depth=4, now=0.0)
        assert isinstance(rejection, QueryRejected)
        assert rejection.reason == "queue_full"
        # The saturated-cluster refusal did not charge the client.
        assert ctl.limiter.tokens(9, 0.0) == pytest.approx(1.0)

    def test_rate_limit_rejection_carries_retry_after(self):
        cfg = overload_cfg(client_rate=2.0, client_burst=1.0)
        ctl = AdmissionController(cfg, capacity=100)
        assert ctl.admit_job(job(user_id=1), 0, 0.0) is None
        rejection = ctl.admit_job(job(job_id=1, user_id=1), 0, 0.0)
        assert rejection.reason == "rate_limit"
        assert rejection.retry_after == pytest.approx(0.5)
        assert rejection.user_id == 1


# ---------------------------------------------------------------------------
# Brownout mode machine
# ---------------------------------------------------------------------------
class TestBrownoutController:
    def test_one_severity_step_per_tick(self):
        # ewma_beta=0 makes the signal equal the raw sample, so a full
        # queue is visible immediately — the machine must still pass
        # through THROTTLED on its way to SHEDDING.
        ctl = BrownoutController(overload_cfg(ewma_beta=0.0))
        assert ctl.on_tick(1.0, 1.0) is Mode.THROTTLED
        assert ctl.on_tick(1.0, 2.0) is Mode.SHEDDING
        assert ctl.mode is Mode.SHEDDING

    def test_hysteresis_holds_mode_between_thresholds(self):
        cfg = overload_cfg(
            ewma_beta=0.0,
            throttle_enter=0.5,
            throttle_exit=0.3,
            shed_enter=0.9,
            shed_exit=0.6,
        )
        ctl = BrownoutController(cfg)
        ctl.on_tick(0.55, 1.0)
        assert ctl.mode is Mode.THROTTLED
        # Signal drops below the *enter* threshold but stays above the
        # *exit* threshold: no flap back to NORMAL.
        assert ctl.on_tick(0.4, 2.0) is None
        assert ctl.mode is Mode.THROTTLED
        assert ctl.on_tick(0.2, 3.0) is Mode.NORMAL

    def test_ewma_rejects_single_sample_spike(self):
        ctl = BrownoutController(overload_cfg(ewma_beta=0.9))
        assert ctl.on_tick(1.0, 1.0) is None  # smoothed to 0.1 < enter
        assert ctl.mode is Mode.NORMAL

    def test_time_in_mode_accounting(self):
        ctl = BrownoutController(overload_cfg(ewma_beta=0.0))
        ctl.on_tick(1.0, 10.0)  # NORMAL for [0, 10)
        ctl.on_tick(1.0, 25.0)  # THROTTLED for [10, 25)
        ctl.on_tick(0.0, 40.0)  # SHEDDING for [25, 40)
        spent = ctl.finalize(60.0)  # back in THROTTLED for [40, 60)
        assert spent["NORMAL"] == pytest.approx(10.0)
        assert spent["THROTTLED"] == pytest.approx(35.0)
        assert spent["SHEDDING"] == pytest.approx(15.0)
        assert sum(spent.values()) == pytest.approx(60.0)
        # Finalizing again at the same instant adds nothing.
        assert ctl.finalize(60.0) == spent
        assert ctl.transitions == 3

    def test_throttles_by_class_and_mode(self):
        ctl = BrownoutController(overload_cfg())
        assert not any(
            ctl.throttles(c) for c in ("interactive", "tracking", "batch")
        )
        ctl.mode = Mode.THROTTLED
        assert ctl.throttles("batch")
        assert not ctl.throttles("tracking")
        assert not ctl.throttles("interactive")
        ctl.mode = Mode.SHEDDING
        assert ctl.throttles("batch")
        assert ctl.throttles("tracking")
        assert not ctl.throttles("interactive")

    def test_response_signal_needs_a_target(self):
        ctl = BrownoutController(overload_cfg(ewma_beta=0.0))
        ctl.note_response(1e9)
        assert ctl.signal() == 0.0

    def test_response_pressure_can_drive_throttling(self):
        cfg = overload_cfg(ewma_beta=0.0, target_response_time=1.0)
        ctl = BrownoutController(cfg)
        ctl.note_response(2.0)  # 2x target
        assert ctl.signal() >= cfg.throttle_enter
        assert ctl.on_tick(0.0, 1.0) is Mode.THROTTLED


# ---------------------------------------------------------------------------
# Shed-policy victim ranking
# ---------------------------------------------------------------------------
class TestShedPolicies:
    def test_class_weight_is_the_primary_key(self):
        batch = pending(1, "batch", weight=1.0, arrival=50.0)
        tracking = pending(2, "tracking", weight=3.0, arrival=99.0)
        interactive = pending(3, "interactive", weight=6.0, arrival=99.0)
        for name in SHED_POLICIES:
            order = make_shed_policy(name).rank(
                [interactive, tracking, batch], now=0.0
            )
            assert [p.query_id for p in order] == [1, 2, 3], name

    def test_reject_newest_drops_latest_arrival_first(self):
        order = make_shed_policy("reject-newest").rank(
            [pending(1, arrival=5.0), pending(2, arrival=20.0), pending(3, arrival=1.0)],
            now=30.0,
        )
        assert [p.query_id for p in order] == [2, 1, 3]

    def test_low_density_drops_least_sharing_value_first(self):
        order = make_shed_policy("low-density").rank(
            [pending(1, density=8.0), pending(2, density=0.5), pending(3, density=2.0)],
            now=0.0,
        )
        assert [p.query_id for p in order] == [2, 3, 1]

    def test_deadline_drops_infeasible_then_least_slack(self):
        doomed = pending(1, service=10.0, deadline=5.0)  # provably late
        tight = pending(2, service=1.0, deadline=3.0)  # slack 2
        loose = pending(3, service=1.0, deadline=50.0)  # slack 49
        order = make_shed_policy("deadline").rank([loose, tight, doomed], now=0.0)
        assert [p.query_id for p in order] == [1, 2, 3]
        assert doomed.infeasible(0.0) and not tight.infeasible(0.0)
        assert tight.slack(0.0) == pytest.approx(2.0)

    def test_query_id_breaks_ties(self):
        twins = [pending(9), pending(4), pending(7)]
        for name in SHED_POLICIES:
            order = make_shed_policy(name).rank(twins, now=0.0)
            assert [p.query_id for p in order] == [4, 7, 9], name

    def test_unknown_policy_is_a_typed_config_error(self):
        with pytest.raises(ConfigurationError):
            make_shed_policy("oldest-first")

    def test_policy_names_match_config(self):
        for name in SHED_POLICIES:
            assert make_shed_policy(name).name == name


# ---------------------------------------------------------------------------
# Weighted fair quotas
# ---------------------------------------------------------------------------
class TestFairShareController:
    def test_quotas_proportional_to_weights(self):
        ctl = FairShareController(overload_cfg(), capacity=100)
        assert ctl.quota_for("interactive") == pytest.approx(60.0)
        assert ctl.quota_for("tracking") == pytest.approx(30.0)
        assert ctl.quota_for("batch") == pytest.approx(10.0)

    def test_unknown_class_gets_smallest_share(self):
        ctl = FairShareController(overload_cfg(), capacity=100)
        assert ctl.quota_for("scraper") == pytest.approx(10.0)
        assert ctl.weight("scraper") == pytest.approx(1.0)

    def test_work_conserving_below_enforce_fraction(self):
        ctl = FairShareController(
            overload_cfg(quota_enforce_fraction=0.5), capacity=100
        )
        # 100% batch on a half-empty cluster is fine...
        assert not ctl.over_quota("batch", class_slots=45, global_slots=49)
        # ...but once slots are scarce the quota binds.
        assert ctl.over_quota("batch", class_slots=45, global_slots=50)
        assert ctl.over_quota("batch", class_slots=10, global_slots=50)
        assert not ctl.over_quota("batch", class_slots=9, global_slots=50)

    def test_interactive_retains_headroom_under_batch_flood(self):
        ctl = FairShareController(overload_cfg(), capacity=100)
        assert not ctl.over_quota("interactive", class_slots=40, global_slots=90)


# ---------------------------------------------------------------------------
# Manager composition
# ---------------------------------------------------------------------------
class TestOverloadManager:
    def manager(self, **kw):
        base = dict(max_queue_depth=10, client_rate=1.0, client_burst=2.0)
        base.update(kw)
        return OverloadManager(overload_cfg(**base), CostModel(), n_nodes=1)

    def test_brownout_outranks_quota_and_rate_limit(self):
        mgr = self.manager()
        mgr.brownout.mode = Mode.THROTTLED
        rejection = mgr.admit_job(job(kind=JobKind.BATCHED), 0, 0.0)
        assert rejection is not None and rejection.reason == "throttled"
        assert mgr.throttled_jobs == 1
        # Interactive traffic still flows in THROTTLED mode.
        assert mgr.admit_job(job(job_id=1, user_id=1), 0, 0.0) is None

    def test_quota_rejection_when_class_over_share(self):
        mgr = self.manager(quota_enforce_fraction=0.5)
        for qid in range(5):
            mgr.register(pending(qid, "batch", weight=1.0), n_slots=1)
        rejection = mgr.admit_job(
            job(user_id=3, kind=JobKind.BATCHED), global_depth=6, now=0.0
        )
        assert rejection is not None and rejection.reason == "quota"

    def test_slot_accounting_follows_progress(self):
        mgr = self.manager()
        mgr.register(pending(1, "interactive", n=3), n_slots=3)
        mgr.on_subquery_done(1)
        assert mgr.class_slots["interactive"] == 2
        mgr.on_query_removed(1, remaining_slots=2)
        assert mgr.class_slots["interactive"] == 0
        assert 1 not in mgr.pending

    def test_tick_sheds_down_to_target_in_shed_order(self):
        mgr = self.manager(
            ewma_beta=0.0,
            throttle_enter=0.3,
            throttle_exit=0.2,
            shed_enter=0.6,
            shed_exit=0.4,
            shed_target=0.4,
        )
        for qid in range(8):
            mgr.register(pending(qid, arrival=float(qid), n=1), n_slots=1)
        assert mgr.on_tick(8, 1.0) == []  # NORMAL -> THROTTLED, no shedding yet
        victims = mgr.on_tick(8, 2.0)  # THROTTLED -> SHEDDING, drain to 0.4*10
        assert mgr.brownout.mode is Mode.SHEDDING
        # Excess = 8 - 4 = 4 single-slot queries, shed newest-arrival
        # last under the default deadline policy's qid tiebreak.
        assert len(victims) == 4
        assert victims == sorted(victims)

    def test_rejection_samples_are_bounded(self):
        mgr = self.manager(client_rate=0.001, client_burst=1.0)
        for i in range(40):
            mgr.admit_job(job(job_id=i, user_id=0), 0, 0.0)
        assert mgr.rejected_jobs == 39  # first admission spends the only token
        assert len(mgr.rejection_samples) <= 20
        assert mgr.rejected_by_reason == {"rate_limit": 39}

    def test_manager_pickles_for_checkpointing(self):
        mgr = self.manager()
        mgr.admit_job(job(), 0, 0.0)
        mgr.register(pending(1), n_slots=1)
        mgr.on_tick(5, 1.0)
        clone = pickle.loads(pickle.dumps(mgr))
        assert clone.snapshot(2.0) == mgr.snapshot(2.0)
        # Post-restore decisions match: same limiter state, same policy.
        assert clone.admit_job(job(job_id=9), 0, 1.5) == mgr.admit_job(
            job(job_id=9), 0, 1.5
        ) or (
            clone.admit_job(job(job_id=9), 0, 1.5) is None
            and mgr.admit_job(job(job_id=9), 0, 1.5) is None
        )


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"client_rate": 0.0},
            {"client_burst": 0.5},
            {"max_queue_depth": 0},
            {"shed_policy": "coin-flip"},
            {"slack_factor": 0.0},
            {"control_interval": 0.0},
            {"ewma_beta": 1.0},
            {"target_response_time": 0.0},
            {"throttle_enter": 0.2, "throttle_exit": 0.4},
            {"shed_enter": 0.3, "throttle_enter": 0.5},
            {"class_weights": ()},
            {"class_weights": (("batch", 1.0), ("batch", 2.0))},
            {"class_weights": (("batch", -1.0),)},
            {"quota_enforce_fraction": 1.5},
        ],
    )
    def test_bad_overload_config_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            overload_cfg(**kw)

    def test_defaults_are_valid_and_disabled(self):
        cfg = OverloadConfig()
        assert not cfg.enabled
        assert cfg.shed_policy in SHED_POLICIES

    @pytest.mark.parametrize(
        "kw",
        [
            {"slack_factor": 0},
            {"slack_factor": True},
            {"slack_factor": "fast"},
            {"lookahead": -1.0},
            {"lookahead": None},
        ],
    )
    def test_qos_scheduler_rejects_bad_knobs(self, kw):
        with pytest.raises(ConfigurationError):
            QoSJAWSScheduler(SPEC, CostModel(), SchedulerConfig(), **kw)


# ---------------------------------------------------------------------------
# QoS cancelled-query accounting (satellite: misses must include sheds)
# ---------------------------------------------------------------------------
class TestQoSCancelAccounting:
    def arrive(self, scheduler, qid, now=0.0, n_positions=5):
        import numpy as np

        from repro.grid.atoms import AtomMapper
        from repro.workload.query import Query, preprocess_query

        query = Query(qid, qid, 0, 0, "velocity", 0, np.full((n_positions, 3), 32.0))
        subs = preprocess_query(query, AtomMapper(SPEC), INTERP)
        scheduler.on_query_arrival(query, subs, now)
        return query

    def test_cancelled_query_counts_as_miss(self):
        s = QoSJAWSScheduler(SPEC, CostModel(), SchedulerConfig(), slack_factor=5.0)
        self.arrive(s, 0)
        self.arrive(s, 1)
        s.cancel_query(0, now=0.5)
        assert s.cancelled == 1
        assert s.deadline_misses == 1
        assert 0 not in s._deadline
        # Miss rate is over *accounted* queries: completed + cancelled.
        assert s.miss_rate == 1.0

    def test_cancellation_past_deadline_accrues_tardiness(self):
        s = QoSJAWSScheduler(
            SPEC, CostModel(), SchedulerConfig(), slack_factor=1e-6
        )
        self.arrive(s, 0, now=0.0)
        s.cancel_query(0, now=10.0)
        assert s.total_tardiness == pytest.approx(10.0, rel=1e-3)
        assert s.mean_tardiness == pytest.approx(10.0, rel=1e-3)

    def test_cancel_prunes_stale_atom_deadlines(self):
        s = QoSJAWSScheduler(SPEC, CostModel(), SchedulerConfig(), slack_factor=5.0)
        self.arrive(s, 0)
        assert s._atom_deadline
        s.cancel_query(0, now=0.1)
        assert not s._atom_deadline


# ---------------------------------------------------------------------------
# Flash-crowd workload generation
# ---------------------------------------------------------------------------
def base_trace(n_jobs=100, span=1000.0, seed=11):
    return generate_trace(
        SPEC,
        WorkloadParams(
            n_jobs=n_jobs,
            span=span,
            frac_tracking=0.0,
            frac_batched=0.0,
            burstiness=0.2,
            seed=seed,
        ),
    )


class TestFlashCrowd:
    def test_burst_jobs_land_inside_the_window(self):
        base = base_trace(n_jobs=30, span=300.0)
        params = FlashCrowdParams(factor=5.0, start=100.0, duration=50.0, seed=1)
        burst = inject_flash_crowd(base, params)
        new = [j for j in burst.jobs if j.job_id > max(x.job_id for x in base.jobs)]
        assert new, "flash crowd injected no jobs"
        assert all(100.0 <= j.submit_time <= 150.0 for j in new)
        assert all(j.n_queries == 1 for j in new)

    def test_burst_clients_are_distinct_first_timers(self):
        base = base_trace(n_jobs=30, span=300.0)
        burst = inject_flash_crowd(
            base, FlashCrowdParams(factor=5.0, start=100.0, duration=50.0, seed=1)
        )
        base_users = {j.user_id for j in base.jobs}
        new = [j for j in burst.jobs if j.user_id not in base_users]
        new_users = [j.user_id for j in new]
        assert len(new_users) == len(set(new_users))

    def test_ids_unique_and_submit_times_sorted(self):
        base = base_trace(n_jobs=30, span=300.0)
        burst = inject_flash_crowd(
            base, FlashCrowdParams(factor=5.0, start=100.0, duration=50.0, seed=1)
        )
        job_ids = [j.job_id for j in burst.jobs]
        query_ids = [q.query_id for j in burst.jobs for q in j.queries]
        assert len(job_ids) == len(set(job_ids))
        assert len(query_ids) == len(set(query_ids))
        times = [j.submit_time for j in burst.jobs]
        assert times == sorted(times)

    def test_injection_is_deterministic(self):
        base = base_trace(n_jobs=30, span=300.0)
        params = FlashCrowdParams(factor=5.0, start=100.0, duration=50.0, seed=2)
        a = inject_flash_crowd(base, params)
        b = inject_flash_crowd(base, params)
        assert [j.job_id for j in a.jobs] == [j.job_id for j in b.jobs]
        assert [j.submit_time for j in a.jobs] == [j.submit_time for j in b.jobs]

    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            FlashCrowdParams(factor=1.0)
        with pytest.raises(ValueError):
            FlashCrowdParams(duration=0.0)


# ---------------------------------------------------------------------------
# Engine integration: the acceptance scenario
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def flash_runs():
    """Baseline / unprotected / protected runs of the seeded 20x flash
    crowd (the scenario from ``examples/overload.py``), plus a repeat
    of the protected run for the determinism assertion."""
    base = base_trace()
    burst = inject_flash_crowd(
        base, FlashCrowdParams(factor=20.0, start=300.0, duration=100.0, seed=5)
    )
    engine = EngineConfig(cost=CostModel(t_b=0.5))
    protected = dataclasses.replace(engine, overload=PROTECTION)
    return {
        "base_trace": base,
        "burst_trace": burst,
        "baseline": run_trace(base, "jaws2", engine),
        "unprotected": run_trace(burst, "jaws2", engine),
        "protected": run_trace(burst, "jaws2", protected),
        "protected_repeat": run_trace(burst, "jaws2", protected),
    }


class TestFlashCrowdProtection:
    def test_protection_bounds_interactive_p99(self, flash_runs):
        base_p99 = flash_runs["baseline"].class_percentiles()["interactive"]["p99"]
        unprot = flash_runs["unprotected"].class_percentiles()["interactive"]["p99"]
        prot = flash_runs["protected"].class_percentiles()["interactive"]["p99"]
        # Acceptance criterion: without protection the flash crowd blows
        # interactive p99 past 10x the no-burst baseline; with admission
        # control + brownout the p99 of *admitted* queries stays within 3x.
        assert unprot > 10.0 * base_p99
        assert prot <= 3.0 * base_p99

    def test_protected_run_turns_clients_away(self, flash_runs):
        result = flash_runs["protected"]
        assert result.rejected_jobs > 0
        assert result.admission_rate < 1.0
        assert sum(result.overload["rejected_by_reason"].values()) == (
            result.rejected_jobs
        )

    def test_brownout_engaged_and_recovered(self, flash_runs):
        overload = flash_runs["protected"].overload
        assert overload["mode"] == "NORMAL"  # recovered by end of run
        assert overload["time_in_mode"]["THROTTLED"] > 0
        assert overload["mode_transitions"] >= 2
        assert overload["ticks"] > 0

    def test_unprotected_run_reports_no_overload_activity(self, flash_runs):
        result = flash_runs["unprotected"]
        assert result.rejected_jobs == 0
        assert result.shed_queries == 0
        assert result.overload == {}
        assert result.admission_rate == 1.0

    def test_admission_decisions_deterministic(self, flash_runs):
        assert_identical(flash_runs["protected"], flash_runs["protected_repeat"])

    def test_every_query_lands_in_exactly_one_bucket(self, flash_runs):
        result = flash_runs["protected"]
        trace = flash_runs["burst_trace"]
        accounted = (
            result.n_queries
            + result.cancelled_queries
            + result.shed_queries
            + result.rejected_queries
        )
        assert accounted == trace.n_queries

    def test_result_roundtrips_with_overload_fields(self, flash_runs):
        result = flash_runs["protected"]
        clone = RunResult.from_dict(result.to_dict())
        assert clone.rejected_jobs == result.rejected_jobs
        assert clone.rejected_queries == result.rejected_queries
        assert clone.shed_queries == result.shed_queries
        assert clone.throttled_jobs == result.throttled_jobs
        assert clone.overload == result.overload
        assert clone.class_response_times == result.class_response_times
        assert clone.overload_summary() == result.overload_summary()

    def test_legacy_result_dicts_still_load(self, flash_runs):
        payload = flash_runs["baseline"].to_dict()
        for key in (
            "rejected_jobs",
            "rejected_queries",
            "shed_queries",
            "throttled_jobs",
            "class_response_times",
            "overload",
        ):
            payload.pop(key, None)
        clone = RunResult.from_dict(payload)
        assert clone.rejected_jobs == 0
        assert clone.overload == {}


# ---------------------------------------------------------------------------
# Smaller scenario: sanitizer, fairness regression, crash+resume
# ---------------------------------------------------------------------------
def small_flash_trace():
    base = base_trace(n_jobs=40, span=240.0, seed=7)
    return inject_flash_crowd(
        base, FlashCrowdParams(factor=8.0, start=60.0, duration=40.0, seed=3)
    )


def protected_engine(**kw):
    return EngineConfig(
        cost=CostModel(t_b=0.5),
        overload=dataclasses.replace(PROTECTION, max_queue_depth=12),
        **kw,
    )


class TestEngineIntegration:
    def test_sanitizer_passes_with_shedding_active(self):
        trace = small_flash_trace()
        cfg = protected_engine(sanitize=True)
        result = run_trace(trace, "jaws2", cfg)
        # The sweep ran and the shed-conservation invariant held at
        # every event; the sanitizer never perturbs results.
        assert_identical(result, run_trace(trace, "jaws2", protected_engine()))
        assert result.rejected_jobs > 0

    def test_interactive_never_starved_by_batch_flood(self):
        # A fleet of batch statistics jobs saturates the cluster while a
        # trickle of interactive point queries arrives.  The weighted
        # fair quota must keep rejecting batch work, never interactive.
        trace = generate_trace(
            SPEC,
            WorkloadParams(
                n_jobs=50,
                span=60.0,
                frac_batched=0.8,
                frac_tracking=0.0,
                seed=13,
            ),
        )
        cfg = EngineConfig(
            cost=CostModel(t_b=0.5),
            overload=overload_cfg(
                max_queue_depth=60,
                client_rate=100.0,
                client_burst=100.0,
                quota_enforce_fraction=0.25,
                shed_policy="reject-newest",
            ),
        )
        result = run_trace(trace, "jaws2", cfg)
        rejected = result.overload["rejected_by_class"]
        assert rejected.get("batch", 0) > 0
        assert rejected.get("interactive", 0) == 0
        n_interactive = sum(
            j.n_queries for j in trace.jobs if j.client_class == "interactive"
        )
        assert len(result.class_response_times["interactive"]) == n_interactive

    def test_crash_resume_mid_burst_bit_identical(self, tmp_path):
        trace = small_flash_trace()
        # The same (enabled) fault config on both sides so the two runs
        # carry identical injectors and degraded-mode summaries; the
        # crash run only adds the armed coordinator-crash point.
        faults = FaultConfig(seed=5, transient_fault_rate=0.02)
        cfg = protected_engine(faults=faults)
        baseline_sim = Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg)
        baseline = baseline_sim.run()
        assert baseline.rejected_jobs > 0  # the crash window covers real decisions
        crash_at = baseline_sim.event_index // 2

        ckpt = CheckpointConfig(directory=str(tmp_path / "ckpt"), every_events=20)
        crash_cfg = protected_engine(
            faults=dataclasses.replace(faults, coordinator_crash_at=crash_at),
            checkpoint=ckpt,
        )
        sim = Simulator(trace, [make_scheduler("jaws2", trace, crash_cfg)], crash_cfg)
        with pytest.raises(CoordinatorCrash):
            sim.run()
        resumed = Simulator.restore(tmp_path / "ckpt")
        assert resumed.event_index <= crash_at
        result = resumed.run()
        assert resumed.event_index == baseline_sim.event_index
        assert_identical(baseline, result)

    def test_crash_resume_in_shedding_mode_restores_overload_state(self, tmp_path):
        """Crash while brownout is in SHEDDING mode: the restored
        snapshot must carry token-bucket levels, per-class quota slots
        and EWMA signal history bit-identically, and the resumed run
        must match the uninterrupted baseline."""
        trace = small_flash_trace()
        faults = FaultConfig(seed=5, transient_fault_rate=0.02)
        cfg = protected_engine(faults=faults)

        # Probe run: find the first event index at which the brownout
        # controller sits in SHEDDING mode (determinism carries the
        # index over to the crash run below).
        probe = Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg)
        shedding_at: list[int] = []
        probe_dispatch = probe._dispatch

        def spy(ev):
            probe_dispatch(ev)
            if not shedding_at and probe.overload.brownout.mode is Mode.SHEDDING:
                shedding_at.append(probe.event_index)

        probe._dispatch = spy
        baseline = probe.run()
        assert shedding_at, "scenario never entered SHEDDING mode"
        crash_at = shedding_at[0] + 5  # a few events into the episode

        ckpt = CheckpointConfig(directory=str(tmp_path / "ckpt"), every_events=20)
        crash_cfg = protected_engine(
            faults=dataclasses.replace(faults, coordinator_crash_at=crash_at),
            checkpoint=ckpt,
        )
        sim = Simulator(trace, [make_scheduler("jaws2", trace, crash_cfg)], crash_cfg)
        with pytest.raises(CoordinatorCrash):
            sim.run()
        restored = Simulator.restore(tmp_path / "ckpt")

        # Reference: a fresh run crashed exactly at the snapshot point
        # the restore loaded; its live overload state is what the
        # snapshot must reproduce field-for-field.
        snap_index = restored.event_index
        ref_cfg = protected_engine(
            faults=dataclasses.replace(faults, coordinator_crash_at=snap_index),
        )
        ref = Simulator(trace, [make_scheduler("jaws2", trace, ref_cfg)], ref_cfg)
        if snap_index > 0:
            with pytest.raises(CoordinatorCrash):
                ref.run()
        r_ov, x_ov = restored.overload, ref.overload
        assert r_ov.admission.limiter._buckets == x_ov.admission.limiter._buckets
        assert r_ov.class_slots == x_ov.class_slots
        assert sorted(r_ov.pending) == sorted(x_ov.pending)
        assert r_ov.brownout.mode is x_ov.brownout.mode
        assert r_ov.brownout.queue_signal == x_ov.brownout.queue_signal
        assert r_ov.brownout.response_signal == x_ov.brownout.response_signal
        assert r_ov.brownout.transitions == x_ov.brownout.transitions
        assert r_ov.brownout._mode_since == x_ov.brownout._mode_since

        # And the resumed run replays through the SHEDDING episode to a
        # result bit-identical with the uninterrupted baseline.
        assert_identical(baseline, restored.run())


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestOverloadCLI:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "t.npz"
        rc = main(
            ["trace", "generate", "--out", str(path), "--jobs", "15", "--span",
             "60", "--seed", "3"]
        )
        assert rc == 0
        return path

    def test_run_with_overload_flag(self, trace_file, capsys):
        from repro.cli import main

        rc = main(
            ["run", "--trace", str(trace_file), "--overload", "--max-queue-depth",
             "8", "--client-rate", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overload protection" in out
        assert "admission_rate" in out

    def test_overload_subcommand_compares_three_runs(self, trace_file, capsys):
        from repro.cli import main

        rc = main(
            ["overload", "--trace", str(trace_file), "--flash-crowd", "4",
             "--max-queue-depth", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "protected" in out
        assert "unprotected" in out

    def test_bad_shed_policy_rejected_at_parse_time(self, trace_file):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                ["overload", "--trace", str(trace_file), "--shed-policy",
                 "coin-flip"]
            )


# ---------------------------------------------------------------------------
# Slow soak: flash crowds x disk faults x coordinator crashes
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestOverloadSoak:
    POINTS = 6

    FAULTS = FaultConfig(
        seed=11,
        transient_fault_rate=0.05,
        permanent_loss_rate=0.01,
        slow_read_rate=0.05,
    )

    def build(self, trace, *, checkpoint=None, crash_at=None):
        cfg = protected_engine(
            faults=dataclasses.replace(self.FAULTS, coordinator_crash_at=crash_at),
            checkpoint=checkpoint or CheckpointConfig(),
            sanitize=True,
        )
        return Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg)

    def test_crash_points_under_faulty_flash_crowd(self, tmp_path):
        trace = small_flash_trace()
        baseline_sim = self.build(trace)
        baseline = baseline_sim.run()
        total = baseline_sim.event_index
        assert baseline.rejected_jobs > 0
        assert total > self.POINTS

        rng = random.Random("overload-soak")
        for crash_at in rng.sample(range(1, total), self.POINTS):
            ckpt_dir = tmp_path / f"crash-{crash_at}"
            checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=25)
            sim = self.build(trace, checkpoint=checkpoint, crash_at=crash_at)
            with pytest.raises(CoordinatorCrash):
                sim.run()
            resumed = Simulator.restore(ckpt_dir)
            assert resumed.event_index <= crash_at
            result = resumed.run()
            assert resumed.event_index == total
            assert_identical(baseline, result)
