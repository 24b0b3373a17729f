"""Versioned snapshot container for engine state.

Layout of a ``.ckpt`` file (all integers big-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       8     magic ``b"JAWSCKPT"``
    8       4     format version (u32) — must equal
                  :data:`SNAPSHOT_FORMAT_VERSION`
    12      4     header length H (u32)
    16      H     header: UTF-8 JSON metadata (event index, virtual
                  clock, RNG digest, scheduler name, node count)
    16+H    8     payload length P (u64)
    24+H    4     CRC-32 of the payload (u32)
    28+H    P     payload: pickled engine-state mapping

The header is deliberately plain JSON so operators can inspect a
snapshot (``repro resume`` prints it) without unpickling anything.  The
payload is a single pickle of the complete state mapping — one pickle,
so shared object identity (e.g. the in-flight :class:`Batch` referenced
by both a node and its pending ``BATCH_DONE`` event) survives the round
trip.

Every decode failure — wrong magic, version mismatch, truncated file,
checksum mismatch, unpicklable payload — raises
:class:`~repro.errors.RecoveryError`; a snapshot is either bit-perfect
or rejected.
"""

from __future__ import annotations

import io
import json
import pickle
import struct
import zlib
from typing import Any, Mapping, Tuple

from repro.errors import RecoveryError

__all__ = ["SNAPSHOT_FORMAT_VERSION", "SNAPSHOT_MAGIC", "encode_snapshot", "decode_snapshot"]

#: Bump whenever the snapshot state layout changes incompatibly.
#: 2: workload queues hold packed struct-of-arrays rows.
SNAPSHOT_FORMAT_VERSION = 2

SNAPSHOT_MAGIC = b"JAWSCKPT"

_FIXED = struct.Struct(">II")  # version, header length
_PAYLOAD = struct.Struct(">QI")  # payload length, payload crc32


def encode_snapshot(meta: Mapping[str, Any], state: Mapping[str, Any]) -> bytes:
    """Serialize ``state`` (the engine-state mapping) with ``meta``
    (JSON-safe descriptive metadata) into the container format."""
    header = json.dumps(dict(meta), sort_keys=True).encode("utf-8")
    payload = pickle.dumps(dict(state), protocol=pickle.HIGHEST_PROTOCOL)
    out = io.BytesIO()
    out.write(SNAPSHOT_MAGIC)
    out.write(_FIXED.pack(SNAPSHOT_FORMAT_VERSION, len(header)))
    out.write(header)
    out.write(_PAYLOAD.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
    out.write(payload)
    return out.getvalue()


def _take(buf: bytes, offset: int, size: int, what: str) -> bytes:
    if offset + size > len(buf):
        raise RecoveryError(
            f"truncated snapshot: {what} needs {size} bytes at offset {offset}, "
            f"file has {len(buf)}"
        )
    return buf[offset : offset + size]


def decode_snapshot(data: bytes) -> Tuple[dict[str, Any], dict[str, Any]]:
    """Parse container bytes back into ``(meta, state)``.

    Raises :class:`~repro.errors.RecoveryError` on any corruption or
    version mismatch.
    """
    magic = _take(data, 0, len(SNAPSHOT_MAGIC), "magic")
    if magic != SNAPSHOT_MAGIC:
        raise RecoveryError(f"not a JAWS snapshot (magic {magic!r})")
    offset = len(SNAPSHOT_MAGIC)
    version, header_len = _FIXED.unpack(_take(data, offset, _FIXED.size, "fixed header"))
    if version != SNAPSHOT_FORMAT_VERSION:
        raise RecoveryError(
            f"snapshot format version mismatch: file has v{version}, "
            f"this build reads v{SNAPSHOT_FORMAT_VERSION}"
        )
    offset += _FIXED.size
    header = _take(data, offset, header_len, "JSON header")
    offset += header_len
    try:
        meta = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"corrupt snapshot header: {exc}") from exc
    if not isinstance(meta, dict):
        raise RecoveryError("corrupt snapshot header: not a JSON object")
    payload_len, crc = _PAYLOAD.unpack(_take(data, offset, _PAYLOAD.size, "payload header"))
    offset += _PAYLOAD.size
    payload = _take(data, offset, payload_len, "payload")
    if offset + payload_len != len(data):
        raise RecoveryError(
            f"snapshot has {len(data) - offset - payload_len} trailing bytes"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise RecoveryError("snapshot payload CRC mismatch (corrupt or tampered)")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # pickle raises a menagerie of types
        raise RecoveryError(f"snapshot payload failed to unpickle: {exc}") from exc
    if not isinstance(state, dict):
        raise RecoveryError("snapshot payload is not a state mapping")
    return meta, state
