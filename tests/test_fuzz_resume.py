"""Crash-resumable fuzz campaigns (DESIGN.md §13).

The contract: a campaign killed at *any* point resumes from its journal
and produces a summary **byte-identical** to an uninterrupted run's —
completed scenarios are never re-executed, and the merged output is
indistinguishable from one continuous campaign.

Fast tests simulate the interruption by truncating a finished journal
(keeping the header plus a prefix of records — exactly what a SIGKILL
leaves behind) and counting how many scenarios the resumed campaign
actually re-executes.  The slow test does it for real: it SIGKILLs a
``repro fuzz`` CLI process mid-campaign and diffs the resumed summary
against an uninterrupted reference, byte for byte (the CI
``interrupt-soak`` job repeats that end-to-end).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JournalError
from repro.fuzz import campaign as campaign_module
from repro.fuzz.campaign import run_campaign
from repro.fuzz.runner import execute_scenario
from repro.parallel import CampaignJournal

SEED, RUNS = 3, 5


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted campaign: the byte-identity yardstick."""
    result = run_campaign(seed=SEED, runs=RUNS, jobs=1, quick=True)
    return result.summary_json()


def _truncate_journal(path: Path, keep_records: int) -> None:
    """Keep the header plus the first ``keep_records`` task records —
    the on-disk state a SIGKILL after N completions leaves behind."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + keep_records]))


def _counting(counter):
    def wrapper(spec):
        counter.append(spec.digest())
        return execute_scenario(spec)

    return wrapper


def test_journaled_campaign_matches_unjournaled(tmp_path, reference):
    journal = tmp_path / "campaign.jsonl"
    result = run_campaign(seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal)
    assert result.summary_json() == reference
    assert result.resumed_scenarios == 0
    assert journal.exists()


def test_resume_skips_completed_scenarios(tmp_path, reference, monkeypatch):
    journal = tmp_path / "campaign.jsonl"
    run_campaign(seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal)
    _truncate_journal(journal, keep_records=2)

    executed = []
    monkeypatch.setattr(campaign_module, "execute_scenario", _counting(executed))
    resumed = run_campaign(
        seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal
    )
    assert resumed.resumed_scenarios == 2
    assert len(executed) == RUNS - 2  # completed work is never redone
    assert resumed.summary_json() == reference  # byte-identical merge


def test_fully_recorded_campaign_reruns_nothing(tmp_path, reference, monkeypatch):
    journal = tmp_path / "campaign.jsonl"
    run_campaign(seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal)

    executed = []
    monkeypatch.setattr(campaign_module, "execute_scenario", _counting(executed))
    resumed = run_campaign(
        seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal
    )
    assert executed == []
    assert resumed.resumed_scenarios == RUNS
    assert resumed.summary_json() == reference


def test_torn_final_record_is_rerun(tmp_path, reference, monkeypatch):
    journal = tmp_path / "campaign.jsonl"
    run_campaign(seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal)
    _truncate_journal(journal, keep_records=3)
    # SIGKILL mid-append: the 4th record got half-written, no newline.
    with journal.open("a") as fh:
        fh.write('{"d": "deadbeefcafe", "p": {"trunc')

    executed = []
    monkeypatch.setattr(campaign_module, "execute_scenario", _counting(executed))
    resumed = run_campaign(
        seed=SEED, runs=RUNS, jobs=1, quick=True, journal_path=journal
    )
    assert len(executed) == RUNS - 3  # torn record was never durable
    assert resumed.summary_json() == reference


def test_resume_with_different_arguments_refused(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    run_campaign(seed=SEED, runs=2, jobs=1, quick=True, journal_path=journal)
    with pytest.raises(JournalError, match="different campaign"):
        run_campaign(seed=SEED + 1, runs=2, jobs=1, quick=True, journal_path=journal)
    with pytest.raises(JournalError, match="different campaign"):
        run_campaign(seed=SEED, runs=3, jobs=1, quick=True, journal_path=journal)


def test_journal_pinning_an_engine_selector_refused(tmp_path, monkeypatch):
    """Older releases pinned ``"engine_kind": "fast"`` in the header of
    fast-engine campaigns.  There is one engine now, so such a journal
    names a campaign this build cannot continue: resuming it must raise,
    not silently re-run it."""
    journal_path = tmp_path / "campaign.jsonl"
    meta = {
        "kind": "fuzz-campaign",
        "format": campaign_module.SPEC_FORMAT_VERSION,
        "seed": SEED,
        "runs": 2,
        "quick": True,
        "engine_kind": "fast",
    }
    journal, _ = CampaignJournal.open(journal_path, meta=meta)
    journal.close()

    executed = []
    monkeypatch.setattr(campaign_module, "execute_scenario", _counting(executed))
    with pytest.raises(JournalError, match="different campaign"):
        run_campaign(seed=SEED, runs=2, jobs=1, quick=True, journal_path=journal_path)
    assert executed == []


def test_parallel_resume_matches_serial_reference(tmp_path, reference):
    journal = tmp_path / "campaign.jsonl"
    run_campaign(seed=SEED, runs=RUNS, jobs=2, quick=True, journal_path=journal)
    _truncate_journal(journal, keep_records=2)
    resumed = run_campaign(
        seed=SEED, runs=RUNS, jobs=2, quick=True, journal_path=journal
    )
    assert resumed.resumed_scenarios == 2
    assert resumed.summary_json() == reference


def test_harness_failure_salvages_and_resumes(tmp_path, monkeypatch):
    """A scenario whose execution blows up at the harness level becomes
    a typed ``harness`` failure — journaled, merged, never shrunk — and
    the resumed summary still reproduces byte-identically."""
    poison = {}

    def flaky(spec):
        if not poison:
            poison["digest"] = spec.digest()
            raise OSError("simulated harness blow-up")
        return execute_scenario(spec)

    monkeypatch.setattr(campaign_module, "execute_scenario", flaky)
    journal = tmp_path / "campaign.jsonl"
    result = run_campaign(seed=SEED, runs=3, jobs=1, quick=True, journal_path=journal)
    harness = [
        o for o in result.outcomes
        if o.failure is not None and o.failure.kind == "harness"
    ]
    assert len(harness) == 1
    assert harness[0].failure.name == "exception"
    assert harness[0].failure.stage == "supervise"
    assert result.reproducers == []  # harness failures are not shrunk

    # Resume replays the recorded failure without re-executing anything.
    executed = []
    monkeypatch.setattr(campaign_module, "execute_scenario", _counting(executed))
    resumed = run_campaign(seed=SEED, runs=3, jobs=1, quick=True, journal_path=journal)
    assert executed == []
    assert resumed.summary_json() == result.summary_json()


# ---------------------------------------------------------------------------
# The real thing: SIGKILL the driver mid-campaign, resume, diff bytes.
# ---------------------------------------------------------------------------
def _fuzz_cli(journal: Path, summary: Path, runs: int = 6):
    return [
        sys.executable, "-m", "repro.cli", "fuzz",
        "--seed", str(SEED), "--runs", str(runs), "--quick", "--jobs", "2",
        "--resume-journal", str(journal),
        "--out-dir", str(journal.parent / "reproducers"),
        "--summary-out", str(summary),
    ]


def _count_records(journal: Path) -> int:
    if not journal.exists():
        return 0
    text = journal.read_text()
    return max(0, len([ln for ln in text.split("\n") if ln]) - 1)  # minus header


@pytest.mark.slow
def test_sigkill_mid_campaign_then_resume_byte_identical(tmp_path):
    runs = 6
    env = dict(os.environ)
    # Uninterrupted reference, its own journal.
    ref_summary = tmp_path / "ref-summary.json"
    subprocess.run(
        _fuzz_cli(tmp_path / "ref.jsonl", ref_summary, runs),
        check=True, env=env, timeout=600,
    )

    # Victim campaign: SIGKILL once >=2 scenarios are durably journaled.
    journal = tmp_path / "victim.jsonl"
    victim = subprocess.Popen(
        _fuzz_cli(journal, tmp_path / "victim-summary.json", runs),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Bounded poll (~300 s worth of 50 ms sleeps), no wall-clock read.
        for _ in range(6000):
            if _count_records(journal) >= 2:
                break
            if victim.poll() is not None:
                pytest.skip("campaign finished before the kill landed")
            time.sleep(0.05)
        else:
            raise AssertionError("no journal records appeared in time")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=60)
    survived = _count_records(journal)
    assert survived >= 2
    assert survived < runs, "kill landed too late to prove anything"

    # Resume to completion and diff the summaries byte for byte.
    resumed_summary = tmp_path / "resumed-summary.json"
    done = subprocess.run(
        _fuzz_cli(journal, resumed_summary, runs),
        check=True, env=env, timeout=600, capture_output=True, text=True,
    )
    assert "resumed" in done.stderr
    assert resumed_summary.read_bytes() == ref_summary.read_bytes()
    # Sanity: both are valid canonical JSON for the same campaign.
    doc = json.loads(ref_summary.read_text())
    assert doc["runs"] == runs and doc["seed"] == SEED
