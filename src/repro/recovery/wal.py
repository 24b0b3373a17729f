"""Event-sourced write-ahead log between snapshots.

Every event the engine dispatches is appended to the current WAL
segment *before* its handler runs (write-ahead), as one line::

    {"f": "<payload fingerprint>", "i": <event index>,
     "k": <EventKind value>, "t": "<virtual time, float.hex>"}\t<crc32>\n

The fingerprint is a short digest of the payload's *semantic identity*
(job / query / atom ids, batch composition, failure sets) — stable
across processes, never ``id()``- or ``hash()``-based.  Virtual times
travel as ``float.hex()`` strings so the round trip is bit-exact and no
float-equality comparison is ever needed.

On recovery the restored engine re-executes deterministically from the
snapshot; :class:`~repro.recovery.checkpoint.CheckpointManager` checks
each re-dispatched event against the next WAL record.  Any divergence
— and any corrupt or truncated record — raises
:class:`~repro.errors.RecoveryError`: recovery either reproduces the
pre-crash timeline exactly or refuses.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional

from repro.engine.events import Event, EventKind
from repro.errors import RecoveryError
from repro.workload.job import Job
from repro.workload.query import Query

__all__ = ["WalRecord", "WalWriter", "event_fingerprint", "format_record", "read_wal"]


@dataclass(frozen=True)
class WalRecord:
    """One logged event: replay position, time, kind, payload digest."""

    index: int
    time_hex: str
    kind: int
    fingerprint: str

    @property
    def time(self) -> float:
        return float.fromhex(self.time_hex)

    def describe(self) -> str:
        return f"event {self.index} ({EventKind(self.kind).name} @ {self.time:.6g}s)"


def _digest(parts: tuple) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def event_fingerprint(ev: Event) -> str:
    """Stable digest of an event's semantic payload."""
    payload = ev.payload
    if ev.kind is EventKind.JOB_SUBMIT and isinstance(payload, Job):
        parts: tuple = ("job", payload.job_id)
    elif ev.kind is EventKind.QUERY_ARRIVAL and isinstance(payload, Query):
        parts = ("query", payload.query_id, payload.job_id, payload.seq)
    elif ev.kind is EventKind.BATCH_DONE:
        node_idx, epoch, batch, failed = payload
        parts = (
            "batch",
            node_idx,
            epoch,
            tuple(batch.atom_ids()),
            tuple(sorted((sq.query.query_id, sq.atom_id) for sq in failed)),
        )
    elif ev.kind in (EventKind.NODE_DOWN, EventKind.NODE_UP):
        parts = ("node", int(payload))
    elif ev.kind is EventKind.REROUTE:
        # A parked bucket: every (sub-query, arrival) pair, in order.
        parts = ("reroute", *(
            (sq.query.query_id, sq.atom_id, float(arrival).hex()) for sq, arrival in payload
        ))
    elif ev.kind is EventKind.QUERY_DEADLINE:
        parts = ("deadline", int(payload))
    elif ev.kind is EventKind.OVERLOAD_TICK:
        # The tick carries no payload: its identity is its position in
        # the deterministic event order, which the record's index and
        # time already pin down.
        parts = ("tick",)
    elif ev.kind is EventKind.SHARD_MSG:
        # Cross-shard message (repro.shard): the payload exposes its
        # own semantic identity tuple (kind tag, endpoints, epoch,
        # sender sequence, times as float.hex) — duck-typed so the
        # recovery layer stays import-independent of the shard package.
        parts = ("shard_msg", *payload.fingerprint_parts())
    else:  # pragma: no cover - future event kinds degrade to kind-only
        parts = ("opaque", int(ev.kind))
    return _digest(parts)


def make_record(index: int, ev: Event) -> WalRecord:
    """Build the WAL record for dispatching ``ev`` as event ``index``."""
    return WalRecord(
        index=index,
        time_hex=float(ev.time).hex(),
        kind=int(ev.kind),
        fingerprint=event_fingerprint(ev),
    )


def format_record(record: WalRecord) -> str:
    """Render one CRC-guarded WAL line (with trailing newline).

    The body is the ``json.dumps(..., sort_keys=True)`` rendering of the
    record, laid out by hand: the fingerprint is a hex digest and the
    time a ``float.hex`` string, so neither ever needs JSON escaping.
    """
    body = (
        f'{{"f": "{record.fingerprint}", "i": {record.index}, '
        f'"k": {record.kind}, "t": "{record.time_hex}"}}'
    )
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{body}\t{crc:08x}\n"


def _parse_line(line: str, lineno: int, path: Path) -> WalRecord:
    body, sep, crc_text = line.rpartition("\t")
    if not sep:
        raise RecoveryError(f"corrupt WAL {path.name}:{lineno}: missing CRC field")
    try:
        crc = int(crc_text, 16)
    except ValueError:
        raise RecoveryError(
            f"corrupt WAL {path.name}:{lineno}: unparsable CRC {crc_text!r}"
        ) from None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        raise RecoveryError(f"corrupt WAL {path.name}:{lineno}: CRC mismatch")
    try:
        fields = json.loads(body)
        return WalRecord(
            index=int(fields["i"]),
            time_hex=str(fields["t"]),
            kind=int(fields["k"]),
            fingerprint=str(fields["f"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"corrupt WAL {path.name}:{lineno}: {exc}") from exc


def read_wal(path: Path, start_index: int) -> List[WalRecord]:
    """Read and validate one WAL segment.

    ``start_index`` is the event index of the owning snapshot; records
    must run consecutively from it.  A missing file, a torn final line
    (no newline), a CRC failure, or a gap in the index sequence raises
    :class:`~repro.errors.RecoveryError`.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise RecoveryError(f"WAL segment {path.name} is missing") from None
    if not text:
        return []
    if not text.endswith("\n"):
        raise RecoveryError(
            f"truncated WAL {path.name}: final record torn (no trailing newline)"
        )
    records: List[WalRecord] = []
    expected = start_index
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = _parse_line(line, lineno, path)
        if record.index != expected:
            raise RecoveryError(
                f"corrupt WAL {path.name}:{lineno}: expected event index "
                f"{expected}, found {record.index}"
            )
        records.append(record)
        expected += 1
    return records


class WalWriter:
    """Append-only writer for one WAL segment.

    Each record is flushed as written, so the log is durable up to the
    instant of a coordinator crash.
    """

    def __init__(self, path: Path, append: bool = False) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = path.open(
            "a" if append else "w", encoding="utf-8", newline=""
        )

    def append(self, record: WalRecord) -> None:
        if self._fh is None:  # pragma: no cover - defensive
            raise RecoveryError(f"WAL segment {self.path.name} is closed")
        self._fh.write(format_record(record))
        self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
