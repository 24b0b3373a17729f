"""Fuzz campaigns: seeded fan-out, shrinking, reproducers, coverage.

A campaign derives ``runs`` scenario seeds from one master seed,
builds a :class:`~repro.fuzz.spec.ScenarioSpec` per seed, and executes
them via :func:`repro.parallel.map_many` in **salvage mode** (``jobs >
1`` fans out over supervised worker processes with bit-identical
results — scenario execution is a pure function of the spec).  A
scenario whose *worker* dies, hangs past the watchdog deadline or
breaches the RSS ceiling costs one typed failure record instead of the
campaign: it surfaces in the summary as a ``harness``-kind failure
alongside the ordinary oracle/error kinds.  Failing scenarios are
shrunk serially — one :func:`repro.fuzz.shrink.shrink` per distinct
failure signature — and each minimal spec is written as a JSON
*reproducer* that ``repro fuzz repro <file>`` replays bit-identically.
(Harness failures are not shrunk: a worker crash is a property of the
real machine, not of the spec.)

The campaign summary is canonical JSON (sorted keys, fixed float
``repr``): running the same campaign twice produces byte-identical
summaries, which CI asserts.

**Crash-resumable campaigns** (``journal_path``): every settled
scenario is appended — keyed by its spec's content digest, CRC-guarded
— to a :class:`~repro.parallel.journal.CampaignJournal` the moment it
completes.  A driver killed at any point (SIGKILL included) resumes by
re-running with the same arguments and journal path: completed digests
are skipped, their recorded outcomes merged back in spec order, and
the resumed summary is byte-identical to an uninterrupted run's
(asserted by ``tests/test_fuzz_resume.py`` and the CI
``interrupt-soak`` job).

The **coverage ledger** counts, per (scenario feature × oracle) cell,
how many executed scenarios exercised that combination — the fuzz
analogue of branch coverage: an empty row means a stressor the oracles
never watched, an empty column an oracle no scenario armed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fuzz.build import build_scenario
from repro.fuzz.runner import FuzzFailure, ScenarioOutcome, execute_scenario
from repro.fuzz.shrink import shrink
from repro.fuzz.spec import SPEC_FORMAT_VERSION, ScenarioSpec
from repro.parallel import CampaignJournal, Outcome, SupervisorConfig, map_many

__all__ = ["CampaignResult", "load_reproducer", "replay_file", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    seed: int
    runs: int
    quick: bool
    outcomes: List[ScenarioOutcome]
    reproducers: List[dict[str, Any]] = field(default_factory=list)
    reproducer_paths: List[Path] = field(default_factory=list)
    resumed_scenarios: int = 0  # outcomes replayed from the journal

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def coverage(self) -> Dict[str, Dict[str, int]]:
        """feature -> oracle -> number of scenarios covering the pair."""
        ledger: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            for feature in outcome.features:
                row = ledger.setdefault(feature, {})
                for oracle in outcome.oracles_checked:
                    row[oracle] = row.get(oracle, 0) + 1
        return {f: dict(sorted(row.items())) for f, row in sorted(ledger.items())}

    def to_json(self) -> dict[str, Any]:
        return {
            "format": SPEC_FORMAT_VERSION,
            "seed": self.seed,
            "runs": self.runs,
            "quick": self.quick,
            "scenarios": [o.to_json() for o in self.outcomes],
            "n_failures": len(self.failures),
            "coverage": self.coverage(),
            "reproducers": [r["spec_digest"] for r in self.reproducers],
        }

    def summary_json(self) -> str:
        """Canonical text: byte-identical across repeat campaigns (and
        across interrupted-then-resumed campaigns — ``resumed_scenarios``
        is deliberately *not* part of the summary)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _scenario_seeds(seed: int, runs: int) -> List[int]:
    rng = random.Random(f"{seed}:campaign")
    return [rng.randrange(2**31) for _ in range(runs)]


def _harness_failure_outcome(spec: ScenarioSpec, outcome: Outcome) -> ScenarioOutcome:
    """Wrap a supervisor-level task failure as a scenario outcome.

    ``kind="harness"`` keeps these apart from oracle/engine failures:
    they describe the *execution environment* (a worker crash, a hang,
    an RSS breach), carry no oracle coverage, and are never shrunk.
    """
    assert outcome.failure is not None
    return ScenarioOutcome(
        spec=spec,
        features=tuple(sorted({e.kind for e in spec.entries})),
        oracles_checked=(),
        failure=FuzzFailure(
            kind="harness",
            name=outcome.failure.reason,
            stage="supervise",
            detail=outcome.failure.describe(),
        ),
    )


def run_campaign(
    seed: int,
    runs: int,
    jobs: int = 1,
    quick: bool = False,
    out_dir: Optional[Path] = None,
    shrink_budget: int = 200,
    journal_path: Optional[Path] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> CampaignResult:
    """Explore ``runs`` scenarios derived from ``seed``.

    ``jobs`` fans scenario execution out via
    :func:`repro.parallel.map_many` (salvage mode; ``supervisor`` arms
    the watchdog/resource guards); shrinking always runs serially in
    this process (each shrink is itself a chain of dependent runs).
    One reproducer is written per distinct failure signature to
    ``out_dir`` (created on demand; nothing is written when the
    campaign is clean or ``out_dir`` is None).

    ``journal_path`` makes the campaign crash-resumable: settled
    scenarios are journaled as they complete and skipped on re-run —
    see the module docstring.  The journal header pins ``(seed, runs,
    quick)``; resuming with different arguments raises
    :class:`~repro.errors.JournalError` (so does a journal whose header
    pins any other key, such as an engine selector from older
    releases).
    """
    specs = [build_scenario(s, quick=quick) for s in _scenario_seeds(seed, runs)]
    digests = [spec.digest() for spec in specs]

    journal: Optional[CampaignJournal] = None
    recorded: Dict[str, Any] = {}
    if journal_path is not None:
        meta: Dict[str, Any] = {
            "kind": "fuzz-campaign",
            "format": SPEC_FORMAT_VERSION,
            "seed": seed,
            "runs": runs,
            "quick": quick,
        }
        journal, recorded = CampaignJournal.open(Path(journal_path), meta=meta)

    by_digest: Dict[str, ScenarioOutcome] = {}
    resumed = 0
    for spec, digest in zip(specs, digests):
        if digest in by_digest:
            continue
        payload = recorded.get(digest)
        if payload is not None:
            by_digest[digest] = ScenarioOutcome.from_json(dict(payload), spec)
            resumed += 1

    todo = [spec for spec, digest in zip(specs, digests) if digest not in by_digest]
    try:
        if todo:
            todo_by_digest = {spec.digest(): spec for spec in todo}

            def on_outcome(task: Outcome) -> None:
                spec = todo_by_digest[task.digest]
                scenario_outcome = (
                    task.value
                    if task.ok
                    else _harness_failure_outcome(spec, task)
                )
                by_digest[task.digest] = scenario_outcome
                if journal is not None:
                    journal.append(task.digest, scenario_outcome.to_json())

            map_many(
                execute_scenario,
                todo,
                jobs=jobs,
                salvage=True,
                supervisor=supervisor,
                on_outcome=on_outcome,
            )
    finally:
        if journal is not None:
            journal.close()

    outcomes = [by_digest[digest] for digest in digests]
    result = CampaignResult(
        seed=seed,
        runs=runs,
        quick=quick,
        outcomes=outcomes,
        resumed_scenarios=resumed,
    )
    shrunk_signatures: set[tuple[str, str]] = set()
    for outcome in result.failures:
        assert outcome.failure is not None
        signature = outcome.failure.signature
        if outcome.failure.kind == "harness":
            continue  # machine-level failure: nothing spec-shaped to shrink
        if signature in shrunk_signatures:
            continue  # one reproducer per distinct bug
        shrunk_signatures.add(signature)

        def still_fails(candidate: ScenarioSpec) -> bool:
            replayed = execute_scenario(candidate)
            return (
                replayed.failure is not None
                and replayed.failure.signature == signature  # noqa: B023
            )

        minimal, evals = shrink(outcome.spec, still_fails, max_evals=shrink_budget)
        reproducer = {
            "format": SPEC_FORMAT_VERSION,
            "spec": minimal.to_json(),
            "spec_digest": minimal.digest(),
            "original_digest": outcome.spec.digest(),
            "original_entries": len(outcome.spec.entries),
            "shrunk_entries": len(minimal.entries),
            "shrink_evals": evals,
            "failure": outcome.failure.to_json(),
        }
        result.reproducers.append(reproducer)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"repro-{minimal.digest()}.json"
            path.write_text(json.dumps(reproducer, sort_keys=True, indent=2) + "\n")
            result.reproducer_paths.append(path)
    return result


def load_reproducer(path: Path) -> tuple[ScenarioSpec, dict[str, Any]]:
    """Parse a reproducer file into (spec, recorded-failure dict)."""
    data = json.loads(Path(path).read_text())
    version = int(data.get("format", SPEC_FORMAT_VERSION))
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"unsupported reproducer format {version} "
            f"(this build reads format {SPEC_FORMAT_VERSION})"
        )
    return ScenarioSpec.from_json(data["spec"]), dict(data.get("failure", {}))


def replay_file(path: Path) -> ScenarioOutcome:
    """Re-execute a reproducer's spec (determinism makes this replay
    the recorded failure bit-identically, or prove the bug fixed)."""
    spec, _recorded = load_reproducer(path)
    return execute_scenario(spec)
