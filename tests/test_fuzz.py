"""Adversarial scenario fuzzer (``repro.fuzz``).

Covers the spec value-object contract, seeded scenario generation,
chaos oracles, deterministic shrinking (including the planted-bug
end-to-end acceptance path: original spec -> typed failure -> minimal
reproducer -> CLI replay), campaign byte-identity across repeats and
across process fan-out, and the fuzz CLI's exit-code contract.

The 200-scenario nightly campaign is ``slow``-marked and excluded from
the default run (CI runs it in the scheduled fuzz job).
"""

import json
import types

import pytest

from repro.config import EngineConfig
from repro.fuzz import (
    ENTRY_KINDS,
    ORACLE_NAMES,
    ScenarioEntry,
    ScenarioSpec,
    build_scenario,
    execute_scenario,
    load_reproducer,
    materialize,
    replay_file,
    run_campaign,
    shrink,
)
from repro.fuzz.oracles import (
    check_conservation,
    check_metric_sanity,
    normalize_result,
    results_equivalent,
)
from repro.fuzz.runner import PLANT_BUG_ENV
from repro.fuzz.spec import SPEC_FORMAT_VERSION


def tiny_spec(**kwargs):
    """The smallest scenario that exercises the engine: one job class."""
    defaults = dict(
        seed=3,
        scheduler="jaws2",
        n_jobs=4,
        span=30.0,
        n_timesteps=6,
        atoms_per_axis=4,
        entries=(ScenarioEntry("query_class", {"name": "batched"}),),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def planted_spec():
    """Eight entries, two of which (flash_crowd + disk_faults) trigger
    the planted bug: the shrinker must get from 8 down to exactly 2."""
    return tiny_spec(
        entries=(
            ScenarioEntry("query_class", {"name": "tracking"}),
            ScenarioEntry("query_class", {"name": "oneoff"}),
            ScenarioEntry(
                "flash_crowd",
                {"factor": 3.0, "start_frac": 0.2, "duration_frac": 0.1, "seed": 11},
            ),
            ScenarioEntry(
                "disk_faults",
                {"transient_rate": 0.02, "loss_rate": 0.0, "slow_rate": 0.0, "seed": 5},
            ),
            ScenarioEntry("morton_hostile", {"n_jobs": 3, "stride_atoms": 1, "seed": 1}),
            ScenarioEntry(
                "regime_shift",
                {"at_frac": 0.5, "n_jobs": 4, "frac_tracking": 0.5, "seed": 2},
            ),
            ScenarioEntry("quota_starvation", {"n_jobs": 4, "n_users": 1, "seed": 3}),
            ScenarioEntry("gating_deadlock", {"n_campaigns": 2, "length": 2, "seed": 4}),
        )
    )


# ---------------------------------------------------------------------------
# Spec value object
# ---------------------------------------------------------------------------
class TestSpec:
    def test_json_round_trip(self):
        spec = planted_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_json(json.loads(spec.canonical())) == spec

    def test_digest_is_stable_and_content_addressed(self):
        spec = planted_spec()
        assert spec.digest() == spec.digest()
        assert len(spec.digest()) == 12
        assert spec.with_(seed=spec.seed + 1).digest() != spec.digest()
        assert spec.with_(entries=spec.entries[:-1]).digest() != spec.digest()

    def test_unknown_entry_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario entry kind"):
            ScenarioEntry("warp_core_breach", {})

    def test_unsupported_format_version_rejected(self):
        data = tiny_spec().to_json()
        data["format"] = SPEC_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported scenario spec format"):
            ScenarioSpec.from_json(data)

    def test_entry_queries(self):
        spec = planted_spec()
        assert spec.has("flash_crowd")
        assert not spec.has("overload")
        assert spec.first("disk_faults").get("transient_rate") == 0.02
        assert len(spec.entries_of("query_class")) == 2


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------
class TestBuild:
    def test_same_seed_same_spec(self):
        for seed in (0, 7, 12345):
            assert build_scenario(seed) == build_scenario(seed)
            assert build_scenario(seed, quick=True) == build_scenario(seed, quick=True)

    def test_distinct_seeds_distinct_specs(self):
        canon = {build_scenario(s, quick=True).canonical() for s in range(8)}
        assert len(canon) == 8

    def test_quick_bounds_and_base_class(self):
        for seed in range(12):
            spec = build_scenario(seed, quick=True)
            assert 8 <= spec.n_jobs < 15
            assert 60.0 <= spec.span <= 120.0
            assert spec.n_timesteps == 6
            assert spec.entries_of("query_class"), "a base job class is mandatory"
            assert all(e.kind in ENTRY_KINDS for e in spec.entries)

    def test_retry_gaming_only_with_overload(self):
        for seed in range(40):
            spec = build_scenario(seed, quick=True)
            if spec.has("retry_gaming"):
                assert spec.has("overload")

    def test_materialize_deterministic(self):
        spec = build_scenario(5, quick=True)
        a, b = materialize(spec), materialize(spec)
        assert a.trace.n_queries == b.trace.n_queries
        assert [j.job_id for j in a.trace.jobs] == [j.job_id for j in b.trace.jobs]
        assert [j.submit_time for j in a.trace.jobs] == [
            j.submit_time for j in b.trace.jobs
        ]
        assert a.crash_window == b.crash_window
        assert a.engine.sanitize and b.engine.sanitize


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def fake_result(**overrides):
    """Just enough RunResult surface for check_metric_sanity."""
    base = dict(
        makespan=10.0,
        response_times=[0.5, 1.0],
        throughput_qps=1.0,
        runs=(),
        alpha_histories=None,
        alpha_history=[0.5],
        availability=1.0,
        admission_rate=1.0,
        cache_hit_ratio=0.3,
    )
    base.update(overrides)
    return types.SimpleNamespace(**base)


class TestOracles:
    def test_clean_run_passes_conservation_and_sanity(self):
        spec = tiny_spec()
        outcome = execute_scenario(spec)
        assert outcome.ok, outcome.failure
        assert outcome.oracles_checked == (
            "no_starvation",
            "conservation",
            "metric_sanity",
        )
        assert set(outcome.oracles_checked) <= set(ORACLE_NAMES)

    def test_conservation_detects_unaccounted_queries(self):
        scenario = materialize(tiny_spec())
        from repro.engine.runner import run_trace

        result = run_trace(scenario.trace, "jaws2", engine=scenario.engine)
        assert check_conservation(scenario.trace, result) is None
        bigger = materialize(tiny_spec(n_jobs=8)).trace
        detail = check_conservation(bigger, result)
        assert detail is not None and "terminal states account for" in detail

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(makespan=float("nan")), "makespan"),
            (dict(response_times=[float("inf")]), "non-finite response"),
            (dict(response_times=[-0.1]), "negative response"),
            (dict(response_times=[11.0]), "exceeds makespan"),
            (dict(throughput_qps=1e12), "exceeds 1/t_m"),
            (dict(alpha_history=[1.5]), "alpha"),
            (dict(availability=1.2), "availability"),
            (dict(admission_rate=-0.1), "admission_rate"),
        ],
    )
    def test_metric_sanity_catches_impossible_values(self, overrides, fragment):
        engine = EngineConfig()
        assert check_metric_sanity(fake_result(), engine) is None
        detail = check_metric_sanity(fake_result(**overrides), engine)
        assert detail is not None and fragment in detail

    def test_results_equivalent_ignores_lifecycle_flag_only(self):
        scenario = materialize(tiny_spec())
        from repro.engine.runner import run_trace

        a = run_trace(scenario.trace, "jaws2", engine=scenario.engine)
        b = run_trace(scenario.trace, "jaws2", engine=scenario.engine)
        assert results_equivalent(a, b) is None
        norm = normalize_result(a)
        assert "crash_effective" not in norm["faults"]
        assert {k: v for k, v in norm.items() if k != "faults"} == {
            k: v for k, v in a.to_dict().items() if k != "faults"
        }

    def test_results_equivalent_reports_first_divergence(self):
        scenario_a = materialize(tiny_spec())
        scenario_b = materialize(tiny_spec(seed=4))
        from repro.engine.runner import run_trace

        a = run_trace(scenario_a.trace, "jaws2", engine=scenario_a.engine)
        b = run_trace(scenario_b.trace, "jaws2", engine=scenario_b.engine)
        detail = results_equivalent(a, b)
        assert detail is not None and detail.startswith("result")


# ---------------------------------------------------------------------------
# Crash/resume stage through the runner
# ---------------------------------------------------------------------------
def test_coordinator_crash_scenario_passes_crash_oracles():
    spec = tiny_spec(
        n_jobs=6,
        entries=(
            ScenarioEntry("query_class", {"name": "batched"}),
            ScenarioEntry(
                "coordinator_crash", {"window_lo_frac": 0.3, "window_hi_frac": 0.9}
            ),
        ),
    )
    outcome = execute_scenario(spec)
    assert outcome.ok, outcome.failure
    assert "crash_effective" in outcome.oracles_checked
    assert "crash_resume" in outcome.oracles_checked


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
class TestShrink:
    def test_ddmin_to_exact_culprit_pair(self):
        spec = planted_spec()

        def still_fails(s):
            return s.has("flash_crowd") and s.has("disk_faults")

        minimal, evals = shrink(spec, still_fails)
        assert {e.kind for e in minimal.entries} == {"flash_crowd", "disk_faults"}
        assert len(minimal.entries) == 2
        assert evals > 0

    def test_shrink_is_deterministic(self):
        spec = planted_spec()

        def still_fails(s):
            return s.has("flash_crowd") and s.has("disk_faults")

        a, evals_a = shrink(spec, still_fails)
        b, evals_b = shrink(spec, still_fails)
        assert a.canonical() == b.canonical()
        assert evals_a == evals_b

    def test_numeric_reduction_halves_toward_floors(self):
        spec = planted_spec().with_(n_jobs=16, span=120.0)
        minimal, _ = shrink(spec, lambda s: s.has("flash_crowd"))
        assert minimal.n_jobs == 4  # halved 16 -> 8 -> 4, floor reached
        assert minimal.span == 30.0
        assert [e.kind for e in minimal.entries] == ["flash_crowd"]
        assert minimal.first("flash_crowd").get("factor") == 1.5  # floor

    def test_budget_zero_returns_original(self):
        spec = planted_spec()
        minimal, evals = shrink(spec, lambda s: True, max_evals=0)
        assert minimal == spec
        assert evals == 0

    def test_predicate_exception_counts_as_not_failing(self):
        spec = planted_spec()

        def touchy(s):
            if not s.has("disk_faults"):
                raise RuntimeError("builder rejects this candidate")
            return True

        minimal, _ = shrink(spec, touchy)
        assert [e.kind for e in minimal.entries] == ["disk_faults"]


# ---------------------------------------------------------------------------
# Planted-bug acceptance path: fail -> shrink -> reproducer -> CLI replay
# ---------------------------------------------------------------------------
class TestPlantedBugEndToEnd:
    def test_bug_only_fires_with_env_and_both_features(self, monkeypatch):
        spec = planted_spec()
        monkeypatch.delenv(PLANT_BUG_ENV, raising=False)
        assert execute_scenario(spec).ok
        monkeypatch.setenv(PLANT_BUG_ENV, "1")
        outcome = execute_scenario(spec)
        assert outcome.failure is not None
        assert outcome.failure.signature == ("oracle", "planted_bug")
        # Either feature alone is innocent: the pair is the bug.
        solo = spec.with_(
            entries=tuple(e for e in spec.entries if e.kind != "disk_faults")
        )
        assert execute_scenario(solo).ok

    def test_shrink_to_quarter_and_replay_via_cli(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(PLANT_BUG_ENV, "1")
        spec = planted_spec()
        outcome = execute_scenario(spec)
        signature = outcome.failure.signature

        def still_fails(candidate):
            replayed = execute_scenario(candidate)
            return (
                replayed.failure is not None
                and replayed.failure.signature == signature
            )

        minimal, evals = shrink(spec, still_fails, max_evals=150)
        # Acceptance bar: the reproducer is <= 25% of the original spec.
        assert len(minimal.entries) <= len(spec.entries) // 4
        assert {e.kind for e in minimal.entries} == {"flash_crowd", "disk_faults"}

        path = tmp_path / f"repro-{minimal.digest()}.json"
        path.write_text(
            json.dumps(
                {
                    "format": SPEC_FORMAT_VERSION,
                    "spec": minimal.to_json(),
                    "spec_digest": minimal.digest(),
                    "failure": outcome.failure.to_json(),
                },
                indent=2,
            )
        )
        loaded_spec, recorded = load_reproducer(path)
        assert loaded_spec == minimal
        assert (recorded["kind"], recorded["name"]) == signature
        replayed = replay_file(path)
        assert replayed.failure is not None
        assert replayed.failure.signature == signature

        from repro.cli import main

        assert main(["fuzz", "repro", str(path)]) == 2  # still reproduces
        out = json.loads(capsys.readouterr().out)
        assert out["failure"]["name"] == "planted_bug"
        monkeypatch.delenv(PLANT_BUG_ENV)
        assert main(["fuzz", "repro", str(path)]) == 0  # "bug" fixed


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------
class TestCampaign:
    def test_repeat_campaigns_byte_identical(self):
        a = run_campaign(seed=1, runs=3, quick=True)
        b = run_campaign(seed=1, runs=3, quick=True)
        assert a.summary_json() == b.summary_json()
        assert not a.failures

    def test_process_fanout_matches_serial(self):
        serial = run_campaign(seed=1, runs=3, quick=True)
        fanned = run_campaign(seed=1, runs=3, jobs=2, quick=True)
        assert serial.summary_json() == fanned.summary_json()

    def test_coverage_ledger_shape(self):
        result = run_campaign(seed=1, runs=3, quick=True)
        ledger = result.coverage()
        assert ledger, "three scenarios must cover at least one feature"
        for feature, row in ledger.items():
            assert feature in ENTRY_KINDS
            assert row, f"feature {feature} executed but no oracle recorded"
            for oracle, count in row.items():
                assert oracle in ORACLE_NAMES
                assert count >= 1

    def test_failing_campaign_writes_deduped_reproducer(self, monkeypatch, tmp_path):
        import repro.fuzz.campaign as campaign_module

        monkeypatch.setenv(PLANT_BUG_ENV, "1")
        # Every "generated" scenario is the same planted-bug spec: two
        # failures, one signature, exactly one reproducer.
        monkeypatch.setattr(
            campaign_module, "build_scenario", lambda seed, quick=False: planted_spec()
        )
        result = run_campaign(
            seed=9, runs=2, quick=True, out_dir=tmp_path, shrink_budget=150
        )
        assert len(result.failures) == 2
        assert len(result.reproducers) == 1
        (repro_path,) = result.reproducer_paths
        data = json.loads(repro_path.read_text())
        assert data["failure"]["name"] == "planted_bug"
        assert data["shrunk_entries"] <= data["original_entries"] // 4
        replayed = replay_file(repro_path)
        assert replayed.failure is not None
        assert replayed.failure.name == "planted_bug"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_clean_campaign_exits_zero_with_canonical_summary(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "fuzz",
            "--seed",
            "1",
            "--runs",
            "2",
            "--quick",
            "--out-dir",
            str(tmp_path / "reproducers"),
            "--summary-out",
        ]
        assert main(argv + [str(tmp_path / "a.json")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 2
        assert summary["n_failures"] == 0
        assert not (tmp_path / "reproducers").exists()  # clean -> nothing written
        assert main(argv + [str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_failing_campaign_exits_one(self, monkeypatch, tmp_path, capsys):
        import repro.fuzz.campaign as campaign_module
        from repro.cli import main

        monkeypatch.setenv(PLANT_BUG_ENV, "1")
        monkeypatch.setattr(
            campaign_module, "build_scenario", lambda seed, quick=False: planted_spec()
        )
        rc = main(
            [
                "fuzz",
                "--seed",
                "9",
                "--runs",
                "1",
                "--quick",
                "--out-dir",
                str(tmp_path),
                "--shrink-budget",
                "150",
            ]
        )
        assert rc == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_failures"] == 1
        assert list(tmp_path.glob("repro-*.json"))


# ---------------------------------------------------------------------------
# Nightly campaign (CI fuzz job; excluded from the default run)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_nightly_campaign_finds_nothing_on_main():
    """The acceptance soak: 200 full-size scenarios, zero violations."""
    result = run_campaign(seed=2026, runs=200, quick=False)
    assert not result.failures, [o.failure.to_json() for o in result.failures]
    # Every stressor the builder can produce appeared somewhere in 200
    # draws, and each was watched by at least the always-on oracles.
    assert set(result.coverage()) == set(ENTRY_KINDS)
