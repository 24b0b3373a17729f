"""Supervised execution: watchdogs, salvage, guards, crash resilience.

:func:`supervise` is the execution core under
:func:`repro.parallel.map_many`: it fans tasks out over a pool of
long-lived worker processes and — unlike a bare
``ProcessPoolExecutor`` — keeps long campaigns alive through the three
failure modes that would otherwise sink them (DESIGN.md §13):

*Hangs.*  Each in-flight task carries a wall-clock deadline
(``SupervisorConfig.task_timeout``).  The supervisor heartbeat checks
deadlines every ``heartbeat`` seconds; an overdue worker is SIGKILLed
and its task re-dispatched to a fresh worker.  A task that keeps
hanging exhausts its retry budget and is *quarantined* — surfaced as a
typed :class:`TaskFailure` instead of blocking the campaign forever.

*Poison tasks.*  A task whose worker dies abnormally (segfault, OOM
kill, ``os._exit``) is retried up to ``max_retries`` times with
seeded deterministic backoff, then quarantined.  Only the dead worker
is respawned; healthy workers keep their processes (and their warm
interpreter state) across retry rounds.  Deterministic exceptions
raised by the task function itself are never retried — re-running a
pure function cannot change its answer — and become ``TaskFailure``
records immediately.

*Resource blowups.*  An in-flight worker whose resident set exceeds
``rss_limit_mb`` is killed before it can take the machine down, and
the task consumes one retry.  A campaign that overruns
``runaway_deadline`` wall-clock seconds degrades gracefully: the pool
is torn down, a typed :class:`~repro.errors.SupervisorDegradedWarning`
is issued, and the remaining tasks run serially in this process so the
campaign still completes (without per-task watchdogs — serial
execution cannot kill its own caller).

Every task completes exactly once, as an ordered :class:`Outcome` —
either a result or a ``TaskFailure`` carrying the task's label,
content digest, attempt count, failure reason and traceback.  The
``on_outcome`` callback fires in completion order, which is what the
campaign journal (:mod:`repro.parallel.journal`) hooks to make
campaigns crash-resumable.

Wall-clock containment (jawslint D001/D006/D300, baselined in
``jawslint-baseline.json``): real time is read in exactly one place,
:func:`_wall_now`, and used only for watchdog deadlines, backoff
scheduling and the runaway guard — *supervision* decisions about when
to kill and when to retry.  Nothing time-derived is ever stored in an
:class:`Outcome`, so salvaged results remain bit-identical to inline
execution; attempt counts reflect real-world faults only and are 1 in
any fault-free run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import random
import time
import traceback
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError, SupervisorDegradedWarning

__all__ = [
    "Outcome",
    "SupervisorConfig",
    "TaskFailure",
    "supervise",
    "task_digest",
]

_T = TypeVar("_T")

#: Failure reasons a :class:`TaskFailure` can carry.
FAILURE_REASONS = ("exception", "timeout", "worker-crash", "rss-limit")

#: Pickle protocol pinned for stable content digests across processes.
_DIGEST_PICKLE_PROTOCOL = 4


def _wall_now() -> float:
    """The supervisor's single wall-clock read (monotonic seconds).

    Deadlines, backoff release times and the runaway guard all derive
    from this value; it never reaches an :class:`Outcome`.
    """
    return time.monotonic()  # jawslint: disable=D001,D006 - the one confined watchdog clock (DESIGN.md §13); feeds deadlines/backoff only, never Outcomes


def task_digest(item: Any) -> str:
    """Stable content digest of one task item.

    Items that know their own canonical identity (``digest()`` method —
    :class:`~repro.fuzz.spec.ScenarioSpec`,
    :class:`~repro.parallel.pool.RunSpec`) are asked directly;
    everything else is hashed over its pickle at a pinned protocol.
    The digest keys the campaign journal, so it must be identical
    across driver restarts for the same logical task.
    """
    method = getattr(item, "digest", None)
    if callable(method):
        return str(method())
    payload = pickle.dumps(item, protocol=_DIGEST_PICKLE_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()[:12]


def task_label(item: Any, index: int) -> str:
    """Human-facing tag for one task: its ``label`` attribute when it
    has a non-empty one, else ``task-<index>``."""
    label = getattr(item, "label", "")
    return str(label) if label else f"task-{index}"


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs.

    Attributes
    ----------
    task_timeout:
        Per-task wall-clock budget in seconds; an in-flight task past
        its deadline has its worker killed and is re-dispatched.
        ``None`` disables the watchdog (the pre-supervisor behavior).
    heartbeat:
        Supervision poll interval in seconds: how often deadlines,
        worker liveness and RSS are checked while waiting for results.
    max_retries:
        How many *additional* attempts a crashed/timed-out/oversized
        task gets before quarantine (total attempts =
        ``max_retries + 1``).
    rss_limit_mb:
        Per-worker resident-set ceiling in MiB, polled from
        ``/proc/<pid>/statm`` every heartbeat; ``None`` disables the
        guard (and on platforms without ``/proc`` it is inert).
    runaway_deadline:
        Whole-campaign wall-clock budget in seconds.  When exceeded,
        the pool is torn down and the remaining tasks run serially with
        a :class:`~repro.errors.SupervisorDegradedWarning`.  ``None``
        disables the guard.
    backoff_seed / backoff_base / backoff_cap:
        Deterministic retry backoff: attempt ``n`` of a task waits
        ``min(cap, base * 2**(n-1)) * u`` seconds where ``u`` is drawn
        from ``Random(f"{seed}:{digest}:{n}")`` — per-task and
        per-attempt, so the delays are reproducible regardless of
        completion interleaving.
    """

    task_timeout: Optional[float] = None
    heartbeat: float = 0.05
    max_retries: int = 2
    rss_limit_mb: Optional[float] = None
    runaway_deadline: Optional[float] = None
    backoff_seed: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError("task_timeout must be positive (or None)")
        if self.heartbeat <= 0:
            raise ConfigurationError("heartbeat must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.rss_limit_mb is not None and self.rss_limit_mb <= 0:
            raise ConfigurationError("rss_limit_mb must be positive (or None)")
        if self.runaway_deadline is not None and self.runaway_deadline < 0:
            raise ConfigurationError("runaway_deadline must be >= 0 (or None)")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigurationError("need 0 <= backoff_base <= backoff_cap")

    def backoff(self, digest: str, attempt: int) -> float:
        """Deterministic delay before re-dispatching ``digest``'s
        attempt number ``attempt`` (1-based count of completed tries)."""
        if self.backoff_base == 0.0:
            return 0.0
        ceiling = min(self.backoff_cap, self.backoff_base * 2 ** max(attempt - 1, 0))
        jitter = random.Random(f"{self.backoff_seed}:{digest}:{attempt}").uniform(0.5, 1.0)
        return ceiling * jitter


@dataclass(frozen=True)
class TaskFailure:
    """Typed record of one task that could not produce a result.

    Carried inside an :class:`Outcome` (salvage mode) or rendered into
    a :class:`~repro.errors.WorkerCrashError` (raising mode).  The
    original exception object rides along for raising mode when it
    survived pickling; it is excluded from :meth:`to_json`.
    """

    index: int
    label: str
    digest: str
    reason: str  # one of FAILURE_REASONS
    attempts: int
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def to_json(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "digest": self.digest,
            "reason": self.reason,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    def describe(self) -> str:
        core = f"task {self.label!r} ({self.digest}) {self.reason} after {self.attempts} attempt(s)"
        if self.error_type:
            return f"{core}: {self.error_type}: {self.message}"
        return core


@dataclass(frozen=True)
class Outcome:
    """One task's terminal state: a value or a typed failure, never both."""

    index: int
    label: str
    digest: str
    value: Any = None
    failure: Optional[TaskFailure] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _encode_error(
    exc: BaseException,
) -> Tuple[Optional[BaseException], str, str, str]:
    """(picklable-exception-or-None, type name, message, traceback)."""
    tb = traceback.format_exc()
    carried: Optional[BaseException] = exc
    try:
        pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling failure degrades to text
        carried = None
    return carried, type(exc).__name__, str(exc), tb


def _worker_main(
    fn: Callable[[Any], Any], conn: Connection, parent_end: Optional[Connection] = None
) -> None:
    """Worker loop: receive ``(index, item)``, run ``fn``, send back
    ``("ok", index, value)`` or ``("err", index, encoded-error)``.

    Top-level so it works under every multiprocessing start method.
    A ``None`` message (or a closed pipe) is the shutdown signal.

    ``parent_end`` is the supervisor's end of this worker's pipe when a
    fork copied it into the worker.  It is closed first: while the
    worker held it, the pipe never reached EOF, so a worker whose
    supervisor was SIGKILLed blocked in ``recv`` forever.  Now a dead
    supervisor means EOF on ``recv`` or a broken pipe on ``send``, and
    the worker exits.
    """
    if parent_end is not None:
        parent_end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        index, item = msg
        try:
            value = fn(item)
            payload: Tuple[Any, ...] = ("ok", index, value)
        except BaseException as exc:  # noqa: BLE001 - every failure is data
            payload = ("err", index, _encode_error(exc))
        try:
            conn.send(payload)
        except OSError:
            break  # the supervisor is gone
        except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
            conn.send(("err", index, _encode_error(exc)))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
@dataclass
class _Task:
    index: int
    item: Any
    label: str
    digest: str
    tries: int = 0  # completed attempts
    not_before: float = 0.0  # wall time gate for the next dispatch


class _Worker:
    """One supervised worker process plus its duplex pipe."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # Only a forked child inherits the parent's end; other start
        # methods would receive a fresh duplicate instead.
        inherited = parent_conn if ctx.get_start_method() == "fork" else None
        self.proc = ctx.Process(
            target=_worker_main, args=(fn, child_conn, inherited), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn: Connection = parent_conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def assign(self, task: _Task, timeout: Optional[float], now: float) -> None:
        task.tries += 1
        self.task = task
        self.deadline = now + timeout if timeout is not None else None
        self.conn.send((task.index, task.item))

    def finish_task(self) -> None:
        self.task = None
        self.deadline = None

    @property
    def alive(self) -> bool:
        return self.proc.exitcode is None

    def rss_kb(self) -> Optional[int]:
        """Resident set of the worker in KiB via ``/proc`` (Linux);
        ``None`` where unreadable — the RSS guard is then inert."""
        try:
            with open(f"/proc/{self.proc.pid}/statm", encoding="ascii") as fh:
                fields = fh.read().split()
            pages = int(fields[1])
            return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
        except (OSError, IndexError, ValueError):
            return None

    def kill(self) -> None:
        """Hard-stop the worker (watchdog / guard path)."""
        try:
            if self.alive:
                self.proc.kill()
            self.proc.join(timeout=5.0)
        finally:
            self.conn.close()

    def shutdown(self) -> None:
        """Graceful stop for an idle worker."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        if self.alive:
            self.proc.kill()
            self.proc.join(timeout=5.0)
        self.conn.close()


def _run_inline(
    fn: Callable[[_T], Any],
    tasks: Sequence[_Task],
    on_outcome: Optional[Callable[[Outcome], None]],
    outcomes: dict[int, Outcome],
) -> None:
    """Serial fallback/reference path: no pool, no watchdog."""
    for task in tasks:
        task.tries += 1
        try:
            value = fn(task.item)
        except Exception as exc:  # noqa: BLE001 - every failure is data
            carried, error_type, message, tb = _encode_error(exc)
            outcome = Outcome(
                index=task.index,
                label=task.label,
                digest=task.digest,
                failure=TaskFailure(
                    index=task.index,
                    label=task.label,
                    digest=task.digest,
                    reason="exception",
                    attempts=task.tries,
                    error_type=error_type,
                    message=message,
                    traceback=tb,
                    exception=carried,
                ),
                attempts=task.tries,
            )
        else:
            outcome = Outcome(
                index=task.index,
                label=task.label,
                digest=task.digest,
                value=value,
                attempts=task.tries,
            )
        outcomes[task.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)


def supervise(
    fn: Callable[[_T], Any],
    items: Sequence[_T],
    jobs: int = 1,
    config: Optional[SupervisorConfig] = None,
    on_outcome: Optional[Callable[[Outcome], None]] = None,
) -> List[Outcome]:
    """Run ``fn`` over every item under supervision; ordered outcomes.

    ``jobs <= 1`` (or a single item) runs serially in this process —
    the bit-identity reference path, with no watchdog (a serial task
    cannot be killed without killing the caller).  ``jobs > 1`` fans
    out over supervised worker processes; see the module docstring for
    the failure-handling contract.  ``on_outcome`` fires once per task
    in *completion* order (the returned list is in *item* order).
    """
    if jobs < 0:
        raise ConfigurationError("jobs must be >= 0")
    cfg = config or SupervisorConfig()
    tasks = [
        _Task(index=i, item=item, label=task_label(item, i), digest=task_digest(item))
        for i, item in enumerate(items)
    ]
    outcomes: dict[int, Outcome] = {}
    if jobs <= 1 or len(tasks) <= 1:
        _run_inline(fn, tasks, on_outcome, outcomes)
        return [outcomes[i] for i in range(len(tasks))]

    pending: List[_Task] = list(tasks)  # kept in index order
    workers: List[_Worker] = [
        _Worker(fn) for _ in range(min(jobs, len(tasks)))
    ]
    started = _wall_now()

    def settle(outcome: Outcome) -> None:
        outcomes[outcome.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def quarantine(task: _Task, reason: str) -> None:
        settle(
            Outcome(
                index=task.index,
                label=task.label,
                digest=task.digest,
                failure=TaskFailure(
                    index=task.index,
                    label=task.label,
                    digest=task.digest,
                    reason=reason,
                    attempts=task.tries,
                ),
                attempts=task.tries,
            )
        )

    def retry_or_quarantine(task: _Task, reason: str, now: float) -> None:
        if task.tries > cfg.max_retries:
            quarantine(task, reason)
            return
        task.not_before = now + cfg.backoff(task.digest, task.tries)
        # Reinsert in index order so dispatch stays deterministic.
        at = 0
        while at < len(pending) and pending[at].index < task.index:
            at += 1
        pending.insert(at, task)

    def fail_worker(worker: _Worker, reason: str, now: float) -> _Worker:
        """Kill ``worker``, reschedule its task, return a replacement.

        Only the dead worker is replaced — the rest of the pool (and
        its warm processes) survives the retry round.
        """
        task = worker.task
        worker.kill()
        if task is not None:
            retry_or_quarantine(task, reason, now)
        return _Worker(fn)

    degraded = False
    try:
        while len(outcomes) < len(tasks):
            now = _wall_now()
            if (
                cfg.runaway_deadline is not None
                and now - started > cfg.runaway_deadline
            ):
                degraded = True
                break

            # Dispatch: idle workers take the lowest-index ready task.
            for worker in workers:
                if worker.task is not None or not worker.alive:
                    continue
                ready = next(
                    (t for t in pending if t.not_before <= now), None
                )
                if ready is None:
                    break
                pending.remove(ready)
                try:
                    worker.assign(ready, cfg.task_timeout, now)
                except (OSError, ValueError):
                    # The pipe died between liveness check and send:
                    # treat as a worker crash (the attempt was charged).
                    idx = workers.index(worker)
                    workers[idx] = fail_worker(worker, "worker-crash", now)

            # Collect: wait up to one heartbeat for any busy worker.
            busy = [w for w in workers if w.task is not None]
            if not busy and not pending:
                break  # everything settled
            if busy:
                readable = _connection_wait(
                    [w.conn for w in busy], timeout=cfg.heartbeat
                )
            else:
                # All remaining tasks are in backoff; sleep to release.
                gate = min(t.not_before for t in pending)
                time.sleep(min(max(gate - now, 0.0), cfg.heartbeat))
                readable = []
            for conn in readable:
                worker = next(w for w in workers if w.conn is conn)
                task = worker.task
                assert task is not None
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    idx = workers.index(worker)
                    workers[idx] = fail_worker(worker, "worker-crash", _wall_now())
                    continue
                kind, index, payload = message
                assert index == task.index
                worker.finish_task()
                if kind == "ok":
                    settle(
                        Outcome(
                            index=task.index,
                            label=task.label,
                            digest=task.digest,
                            value=payload,
                            attempts=task.tries,
                        )
                    )
                else:
                    # Deterministic failure: never retried.
                    carried, error_type, message_text, tb = payload
                    settle(
                        Outcome(
                            index=task.index,
                            label=task.label,
                            digest=task.digest,
                            failure=TaskFailure(
                                index=task.index,
                                label=task.label,
                                digest=task.digest,
                                reason="exception",
                                attempts=task.tries,
                                error_type=error_type,
                                message=message_text,
                                traceback=tb,
                                exception=carried,
                            ),
                            attempts=task.tries,
                        )
                    )

            # Watchdog sweep: liveness, deadlines, RSS ceiling.
            now = _wall_now()
            for idx, worker in enumerate(workers):
                if worker.task is None:
                    if not worker.alive:
                        # An idle worker died (e.g. interpreter abort):
                        # replace it so capacity is preserved.
                        worker.kill()
                        workers[idx] = _Worker(fn)
                    continue
                if not worker.alive:
                    workers[idx] = fail_worker(worker, "worker-crash", now)
                elif worker.deadline is not None and now > worker.deadline:
                    workers[idx] = fail_worker(worker, "timeout", now)
                elif cfg.rss_limit_mb is not None:
                    rss = worker.rss_kb()
                    if rss is not None and rss > cfg.rss_limit_mb * 1024:
                        workers[idx] = fail_worker(worker, "rss-limit", now)
    finally:
        for worker in workers:
            if worker.task is not None or not worker.alive:
                worker.kill()
            else:
                worker.shutdown()

    if degraded:
        remaining = [t for t in tasks if t.index not in outcomes]
        warnings.warn(
            SupervisorDegradedWarning(
                f"campaign exceeded its runaway deadline "
                f"({cfg.runaway_deadline:.6g}s); degrading to serial "
                f"execution for the remaining {len(remaining)} task(s) "
                "(no per-task watchdog on the serial path)"
            ),
            stacklevel=2,
        )
        _run_inline(fn, remaining, on_outcome, outcomes)

    return [outcomes[i] for i in range(len(tasks))]
