"""Event records for the discrete-event simulator."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

__all__ = ["EventKind", "Event"]


class EventKind(enum.IntEnum):
    """Event types, ordered by dispatch priority at equal timestamps:
    batch completions at time t free the executor (and count their
    completions) before anything else at t; a recovering node rejoins
    before a crashing one leaves so back-to-back schedules hand off
    cleanly; job submissions must precede their own query arrivals;
    re-routed sub-queries land before deadlines are checked; deadlines
    fire after that, so a query completing exactly at its deadline
    counts as completed; and the overload control tick runs last of
    all, observing the fully settled queue state at its timestamp.
    (OVERLOAD_TICK and SHARD_MSG are appended rather than renumbered
    into place so WAL event fingerprints from older runs keep their
    kind codes.)

    SHARD_MSG carries one cross-shard control-plane message
    (:mod:`repro.shard`) delivered into a shard coordinator's local
    event loop at its virtual delivery time; it dispatches after the
    overload tick at equal timestamps, so remote notifications observe
    the same settled state a local observer would."""

    BATCH_DONE = 0
    NODE_UP = 1
    NODE_DOWN = 2
    JOB_SUBMIT = 3
    QUERY_ARRIVAL = 4
    REROUTE = 5
    QUERY_DEADLINE = 6
    OVERLOAD_TICK = 7
    SHARD_MSG = 8


class Event(NamedTuple):
    """Heap entry, ordered as a plain tuple so the heap compares in C.

    ``seq`` is unique per engine and breaks ties deterministically, so
    two events never compare equal on ``(time, kind, seq)`` and
    ``payload`` is never compared."""

    time: float
    kind: EventKind
    seq: int
    payload: Any = None
