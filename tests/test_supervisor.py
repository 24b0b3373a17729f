"""Supervised execution layer: watchdogs, salvage, guards, journal.

The supervisor's promises (DESIGN.md §13):

* a hung worker is killed at its watchdog deadline, the task retried,
  and — once the retry budget is spent — quarantined as a typed
  ``TaskFailure`` while every other task's result salvages in order;
* only the dead worker is respawned — healthy workers survive retry
  rounds (the pool-keepalive fix);
* an RSS-ceiling breach is treated like a hang: kill, retry, quarantine;
* the runaway deadline degrades the pool to serial in-process execution
  with a typed :class:`~repro.errors.SupervisorDegradedWarning`, never
  losing results;
* the campaign journal replays exactly or refuses (CRC, header pin),
  tolerating only a torn final line.

Hang/crash planting uses environment variables + top-level functions:
this platform forks workers, so the child inherits the test's env and
module state (``fork_only`` guards the ones that need it).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import pytest

from repro.errors import JournalError, SupervisorDegradedWarning
from repro.parallel import (
    CampaignJournal,
    SupervisorConfig,
    map_many,
    supervise,
    task_digest,
)
from repro.parallel.journal import _format_line

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hang/crash planting relies on fork inheriting test state",
)

# Fast supervision knobs for tests: tight heartbeat, short deadlines,
# no backoff sleeps.
FAST = dict(heartbeat=0.02, backoff_base=0.0, backoff_cap=0.0)


def _double(x):
    return x * 2


def _identity_pid(x):
    """Return (item, worker pid) — used to observe pool keepalive."""
    return (x, os.getpid())


def _hang_on_planted(x):
    """Sleep forever when ``x`` matches the env-planted poison value."""
    if str(x) == os.environ.get("REPRO_TEST_HANG_VALUE"):
        while True:  # pragma: no cover - killed by the watchdog
            time.sleep(3600)
    return x * 2


def _crash_on_planted(x):
    if str(x) == os.environ.get("REPRO_TEST_CRASH_VALUE"):
        os._exit(13)  # hard death: no exception, no cleanup
    return x * 2


def _crash_once_on_planted(x):
    marker = Path(os.environ["REPRO_TEST_CRASH_ONCE_MARKER"])
    if str(x) == os.environ.get("REPRO_TEST_CRASH_VALUE") and not marker.exists():
        marker.touch()
        os._exit(13)
    return (x, os.getpid())


def _bloat_on_planted(x):
    if str(x) == os.environ.get("REPRO_TEST_BLOAT_VALUE"):
        hog = []
        while True:  # pragma: no cover - killed by the RSS guard
            hog.append(bytearray(8 * 1024 * 1024))
            time.sleep(0.01)
    return x * 2


def _raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x * 2


# ---------------------------------------------------------------------------
# Salvage basics (inline and pooled)
# ---------------------------------------------------------------------------
def test_salvage_inline_returns_ordered_outcomes():
    outcomes = map_many(_raise_on_odd, [0, 1, 2, 3], jobs=1, salvage=True)
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
    assert [o.ok for o in outcomes] == [True, False, True, False]
    assert outcomes[2].value == 4
    failure = outcomes[1].failure
    assert failure.reason == "exception"
    assert failure.error_type == "ValueError"
    assert failure.attempts == 1  # deterministic errors are never retried
    assert "odd item 1" in failure.message
    # The JSON form round-trips everything except the live exception.
    data = failure.to_json()
    assert data["reason"] == "exception" and "exception" not in data


def test_salvage_pooled_matches_inline():
    inline = map_many(_raise_on_odd, list(range(6)), jobs=1, salvage=True)
    pooled = map_many(
        _raise_on_odd, list(range(6)), jobs=2, salvage=True,
        supervisor=SupervisorConfig(**FAST),
    )
    assert [(o.index, o.ok, o.value) for o in inline] == [
        (o.index, o.ok, o.value) for o in pooled
    ]
    for a, b in zip(inline, pooled):
        if not a.ok:
            assert (a.failure.error_type, a.failure.message) == (
                b.failure.error_type, b.failure.message
            )


def test_on_outcome_fires_once_per_task():
    seen = []
    result = map_many(
        _double, [3, 4, 5], jobs=1, salvage=True, on_outcome=lambda o: seen.append(o)
    )
    assert sorted(o.index for o in seen) == [0, 1, 2]
    assert {o.digest for o in seen} == {o.digest for o in result}


def test_outcome_digest_is_content_addressed():
    a = map_many(_double, [1, 2], jobs=1, salvage=True)
    b = map_many(_double, [2, 1], jobs=1, salvage=True)
    assert a[0].digest == b[1].digest  # same content, different position
    assert task_digest(1) == a[0].digest


# ---------------------------------------------------------------------------
# Watchdog: hang → kill → retry → quarantine; others salvage in order
# ---------------------------------------------------------------------------
@fork_only
def test_hung_worker_killed_and_quarantined(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_HANG_VALUE", "2")
    outcomes = map_many(
        _hang_on_planted, [0, 1, 2, 3, 4], jobs=2, salvage=True,
        supervisor=SupervisorConfig(task_timeout=0.3, max_retries=1, **FAST),
    )
    assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
    good = [o for o in outcomes if o.index != 2]
    assert all(o.ok for o in good)
    assert [o.value for o in good] == [0, 2, 6, 8]
    poison = outcomes[2]
    assert not poison.ok
    assert poison.failure.reason == "timeout"
    assert poison.failure.attempts == 2  # first try + one retry, then quarantine
    assert poison.failure.label == "task-2"
    assert poison.failure.digest == task_digest(2)


@fork_only
def test_crashed_worker_quarantined_with_typed_failure(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CRASH_VALUE", "1")
    outcomes = map_many(
        _crash_on_planted, [0, 1, 2], jobs=2, salvage=True,
        supervisor=SupervisorConfig(max_retries=1, **FAST),
    )
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].failure.reason == "worker-crash"
    assert outcomes[1].failure.attempts == 2


@fork_only
def test_healthy_workers_survive_retry_rounds(monkeypatch, tmp_path):
    """Only the dead worker is respawned: with 2 workers and a single
    crash, at most 3 distinct worker pids serve the whole batch."""
    monkeypatch.setenv("REPRO_TEST_CRASH_VALUE", "5")
    monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_MARKER", str(tmp_path / "crashed"))
    outcomes = map_many(
        _crash_once_on_planted, list(range(10)), jobs=2, salvage=True,
        supervisor=SupervisorConfig(max_retries=2, **FAST),
    )
    assert all(o.ok for o in outcomes)
    retried = outcomes[5]
    assert retried.attempts == 2 and retried.value[0] == 5
    pids = {o.value[1] for o in outcomes}
    assert len(pids) <= 3, f"pool churned: {len(pids)} distinct worker pids"


_SUPERVISING_PARENT = textwrap.dedent(
    """
    import os, sys, time
    from repro.parallel import supervise

    def work(item):
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(item)
        return item

    supervise(work, [0.05] * 2000, jobs=2)
    """
)


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's reaper may be slow)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@fork_only
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_supervisor_is_killed(tmp_path):
    """A worker must not outlive a SIGKILLed supervisor: the forked
    child closes its copy of the supervisor's pipe end, so the pipe
    reports EOF (idle worker) or a broken pipe (busy worker)."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    parent = subprocess.Popen(
        [sys.executable, "-c", _SUPERVISING_PARENT, str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        # Bounded polls (50 ms sleeps), no wall-clock read.
        for _ in range(1200):
            pids = [int(p.name) for p in tmp_path.iterdir()]
            if len(pids) >= 2 or parent.poll() is not None:
                break
            time.sleep(0.05)
        assert len(pids) >= 2, "workers never started"
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=60)
        for _ in range(400):
            if not any(_running(pid) for pid in pids):
                break
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=60)
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
    assert survivors == [], f"orphaned workers still running: {survivors}"


# ---------------------------------------------------------------------------
# Resource guards
# ---------------------------------------------------------------------------
@fork_only
def test_rss_ceiling_kills_and_quarantines(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BLOAT_VALUE", "1")
    outcomes = map_many(
        _bloat_on_planted, [0, 1, 2], jobs=2, salvage=True,
        supervisor=SupervisorConfig(rss_limit_mb=96.0, max_retries=0, **FAST),
    )
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].failure.reason == "rss-limit"
    assert outcomes[1].failure.attempts == 1
    assert [outcomes[0].value, outcomes[2].value] == [0, 4]


def test_runaway_deadline_degrades_to_serial():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = map_many(
            _double, list(range(8)), jobs=2, salvage=True,
            supervisor=SupervisorConfig(runaway_deadline=0.0, **FAST),
        )
    assert [o.value for o in outcomes] == [x * 2 for x in range(8)]
    degraded = [w for w in caught if issubclass(w.category, SupervisorDegradedWarning)]
    assert degraded, "expected a SupervisorDegradedWarning"


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------
def test_backoff_is_deterministic_and_bounded():
    config = SupervisorConfig(backoff_seed=7, backoff_base=0.05, backoff_cap=2.0)
    digest = task_digest("some task")
    delays = [config.backoff(digest, attempt) for attempt in (1, 2, 3)]
    assert delays == [config.backoff(digest, a) for a in (1, 2, 3)]  # pure
    assert all(0.0 < d <= 2.0 for d in delays)
    other = SupervisorConfig(backoff_seed=8, backoff_base=0.05, backoff_cap=2.0)
    assert delays != [other.backoff(digest, a) for a in (1, 2, 3)]


# ---------------------------------------------------------------------------
# Campaign journal
# ---------------------------------------------------------------------------
META = {"kind": "test", "seed": 1}


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    journal, completed = CampaignJournal.open(path, META)
    assert completed == {}
    journal.append("aaa", {"x": 1})
    journal.append("bbb", {"y": [1.5, "z"]})
    journal.close()
    journal2, completed = CampaignJournal.open(path, META)
    journal2.close()
    assert completed == {"aaa": {"x": 1}, "bbb": {"y": [1.5, "z"]}}


def test_journal_append_after_close_refused(tmp_path):
    journal, _ = CampaignJournal.open(tmp_path / "j.jsonl", META)
    journal.close()
    with pytest.raises(JournalError):
        journal.append("aaa", {})


def test_journal_torn_final_line_dropped(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal.open(path, META)[0] as journal:
        journal.append("aaa", {"x": 1})
    # Simulate SIGKILL landing mid-write: a partial record, no newline.
    with path.open("a") as fh:
        fh.write('{"d": "bbb", "p"')
    _journal, completed = CampaignJournal.open(path, META)
    _journal.close()
    assert completed == {"aaa": {"x": 1}}  # torn record never became durable


def test_journal_interior_corruption_refused(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal.open(path, META)[0] as journal:
        journal.append("aaa", {"x": 1})
        journal.append("bbb", {"x": 2})
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("aaa", "aXa")  # CRC now wrong, not final line
    path.write_text("".join(lines))
    with pytest.raises(JournalError, match="CRC"):
        CampaignJournal.open(path, META)


def test_journal_meta_mismatch_refused(tmp_path):
    path = tmp_path / "j.jsonl"
    CampaignJournal.open(path, META)[0].close()
    with pytest.raises(JournalError, match="different campaign"):
        CampaignJournal.open(path, {"kind": "test", "seed": 2})


def test_journal_version_mismatch_refused(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(_format_line({"h": dict(META), "v": 999}))
    with pytest.raises(JournalError, match="format 999"):
        CampaignJournal.open(path, META)


def test_journal_duplicate_digest_last_wins(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal.open(path, META)[0] as journal:
        journal.append("aaa", {"x": 1})
        journal.append("aaa", {"x": 2})
    _journal, completed = CampaignJournal.open(path, META)
    _journal.close()
    assert completed == {"aaa": {"x": 2}}


# ---------------------------------------------------------------------------
# supervise() validation
# ---------------------------------------------------------------------------
def test_supervise_empty_items():
    assert supervise(_double, []) == []


def test_map_many_rejects_negative_jobs():
    with pytest.raises(ValueError):
        map_many(_double, [1], jobs=-2, salvage=True)
