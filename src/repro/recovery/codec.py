"""Versioned snapshot container for engine state.

Layout of a ``.ckpt`` file (all integers big-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       8     magic ``b"JAWSCKPT"``
    8       4     format version (u32) — must equal
                  :data:`SNAPSHOT_FORMAT_VERSION`
    12      4     header length H (u32)
    16      H     header: UTF-8 JSON metadata (event index, virtual
                  clock, RNG digest, scheduler name, node count, and
                  ``input_digest``: SHA-256 of the input file's payload)
    16+H    8     payload length P (u64)
    24+H    4     CRC-32 of the payload (u32)
    28+H    P     payload: pickled engine-state mapping

The header is deliberately plain JSON so operators can inspect a
snapshot (``repro resume`` prints it) without unpickling anything.  The
payload is a single pickle of the complete state mapping — one pickle,
so shared object identity (e.g. the in-flight :class:`Batch` referenced
by both a node and its pending ``BATCH_DONE`` event) survives the round
trip.

**Input by reference.**  The trace is immutable during a run and makes
up most of the engine state by size (every query's ``positions``
array); each node's disk B+-tree is built once and then only read.  A
checkpoint directory therefore holds them once, in ``input.ckpt`` (the
same container, payload ``{"trace": trace, "trees": [...]}``), and a
snapshot pickled with :class:`InputRefs` stores the input's own
:class:`Trace`, :class:`Job`, :class:`Query` and :class:`BPlusTree`
objects as references (kind + id or index) resolved against the loaded
input by :meth:`_StateUnpickler.find_class`.  A reference is all there
is: a query stores nothing derived from it.  An object that merely
shares an id with an input object is pickled by value.

**Format v10** (:data:`SNAPSHOT_FORMAT_VERSION`): the workload queues'
per-query index maps each query to an ``array('q')`` of the atoms it
queued work on, kept until the query completes; any other version is
refused.

**Compact records.**  :class:`SubQuery` pickles as its four fields
``(query, atom_id, n_positions, neighbor_keys)`` and a
:class:`SubQueries` record as its query and three columns (the two
arrays as lists of ints), instead of through the generic slots reducer — the engine holds thousands of
each.
:class:`~repro.engine.events.Event` and a gating vertex's
:class:`~repro.workload.query.AtomSet` are ``NamedTuple`` classes and
already pickle as their positional fields.

**Check, then load.**  A container is read from its file in two
passes and never held whole: :func:`check_container` parses the header,
checks the payload length against the file size and runs one chunked
pass for the CRC-32 (feeding ``input.ckpt``'s SHA-256 digest too);
only a container that passes is unpickled, straight from the file, by
:func:`unpickle_state`.  The bytes API (:func:`read_container`,
:func:`load_state`, :func:`decode_snapshot`), for tests and the
cluster manifest, wraps the same two steps over an in-memory buffer.

Every decode failure — wrong magic, version mismatch, truncated file,
checksum mismatch, unpicklable payload, unresolvable reference — raises
:class:`~repro.errors.RecoveryError`; a snapshot is either bit-perfect
or rejected.
"""

from __future__ import annotations

import contextlib
import copyreg
import gc
import io
import json
import pickle
import struct
import zlib
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RecoveryError
from repro.storage.btree import BPlusTree
from repro.workload.job import Job
from repro.workload.query import Query, SubQueries, SubQuery
from repro.workload.trace import Trace

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "InputRefs",
    "encode_snapshot",
    "check_container",
    "unpickle_state",
    "decode_snapshot",
    "read_container",
    "load_state",
]

#: Bump whenever the snapshot state layout changes incompatibly.
#: 2: workload queues hold packed struct-of-arrays rows.
#: 3: the trace lives in ``input.ckpt``; snapshots refer to it.
#: 4: sub-queries carry their stencil overshoot keys; a query's only
#:    derived cache is ``atom_set``.
#: 5: a ``REROUTE`` event carries a list of parked ``(sub-query,
#:    arrival)`` pairs; the engine holds its open bucket in ``_parked``.
#: 6: a sub-query carries its position count, not an index array; a
#:    query (and the trace) is a pure reference, with no derived cache.
#: 7: a gating vertex holds its atom set as an ``AtomSet`` bitmap
#:    ``(lo, bits)``, not a frozenset.
#: 8: ``CacheStats`` and ``JAWSScheduler`` hold no wall-clock counters.
#: 9: NoShare and JAWS's gate hold a query's sub-queries as one
#:    ``SubQueries`` record of columns; an LRU-K atom's history is one
#:    tuple; the engine config's checkpoint directory is a placeholder.
#: 10: the workload queues' per-query index maps a query to an
#:    ``array('q')`` of the atoms it queued work on, kept until the
#:    query completes.
SNAPSHOT_FORMAT_VERSION = 10

SNAPSHOT_MAGIC = b"JAWSCKPT"

_FIXED = struct.Struct(">II")  # version, header length
_PAYLOAD = struct.Struct(">QI")  # payload length, payload crc32

_PROTOCOL = pickle.HIGHEST_PROTOCOL


# ----------------------------------------------------------------------
# Reducers
# ----------------------------------------------------------------------
def _reduce_subquery(sq: SubQuery) -> tuple:
    return SubQuery, (sq.query, sq.atom_id, sq.n_positions, sq.neighbor_keys)


def _subqueries_from_lists(
    query: Query, atom_ids: list[int], n_positions: list[int], neighbor_keys: Any
) -> SubQueries:
    return SubQueries(
        query, np.array(atom_ids, np.int64), np.array(n_positions, np.int64), neighbor_keys
    )


def _reduce_subqueries(r: SubQueries) -> tuple:
    # Lists of small ints pickle in 2-3 bytes an entry; the int64
    # arrays would take 8 and a header each.
    return _subqueries_from_lists, (
        r.query, r.atom_ids.tolist(), r.n_positions.tolist(), r.neighbor_keys
    )


_COMPACT: dict[type, Callable[[Any], Any]] = {
    SubQuery: _reduce_subquery,
    SubQueries: _reduce_subqueries,
}


def _input_ref(kind: str, key: Optional[int]) -> Any:
    """Placeholder global of a reference into the checkpoint input.

    Never called when a snapshot loads normally:
    :meth:`_StateUnpickler.find_class` swaps in
    :meth:`InputRefs.resolve` of the loaded input.
    """
    raise RecoveryError("snapshot refers to a checkpoint input that was not loaded")


class InputRefs:
    """The checkpoint input, whose objects snapshots refer to: the trace
    and the nodes' disk B+-trees, none of which a run modifies (a tree
    is bulk-built by :meth:`BPlusTree.build_clustered` and then only
    read).
    """

    def __init__(self, trace: Trace, trees: Sequence[BPlusTree] = ()) -> None:
        self.trace = trace
        self.trees = list(trees)
        self.jobs = {job.job_id: job for job in trace.jobs}
        self.queries = {q.query_id: q for job in trace.jobs for q in job.queries}
        self._tree_index = {id(tree): i for i, tree in enumerate(self.trees)}
        self._by_kind: dict[str, Any] = {
            "job": self.jobs, "query": self.queries, "tree": self.trees,
        }
        self.dispatch_table: dict[type, Callable[[Any], Any]] = {
            **copyreg.dispatch_table,
            **_COMPACT,
            Trace: self._reduce_trace,
            Job: self._reduce_job,
            Query: self._reduce_query,
            BPlusTree: self._reduce_tree,
        }

    def resolve(self, kind: str, key: Optional[int]) -> Any:
        """The input object a reference names (``find_class`` target)."""
        if kind == "trace":
            return self.trace
        try:
            return self._by_kind[kind][key]
        except (KeyError, IndexError, TypeError):
            raise RecoveryError(
                f"snapshot refers to {kind} {key}, absent from the checkpoint input"
            ) from None

    def _reduce_trace(self, trace: Trace) -> Any:
        if trace is not self.trace:
            return trace.__reduce_ex__(_PROTOCOL)
        return _input_ref, ("trace", None)

    def _reduce_job(self, job: Job) -> Any:
        if self.jobs.get(job.job_id) is not job:
            return job.__reduce_ex__(_PROTOCOL)
        return _input_ref, ("job", job.job_id)

    def _reduce_query(self, q: Query) -> Any:
        if self.queries.get(q.query_id) is not q:
            return q.__reduce_ex__(_PROTOCOL)
        return _input_ref, ("query", q.query_id)

    def _reduce_tree(self, tree: BPlusTree) -> Any:
        index = self._tree_index.get(id(tree))
        if index is None:
            return tree.__reduce_ex__(_PROTOCOL)
        return _input_ref, ("tree", index)


_PLAIN_TABLE = {**copyreg.dispatch_table, **_COMPACT}


class _StateUnpickler(pickle.Unpickler):
    """Resolves input references against ``refs`` (``None``: refuse them)."""

    def __init__(self, file: BinaryIO, refs: Optional[InputRefs]) -> None:
        super().__init__(file)
        self._refs = refs

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_input_ref" and self._refs is not None:
            return self._refs.resolve
        return super().find_class(module, name)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one pickle pass.

    A pass allocates a tuple per reduced object (or builds the restored
    state), all of it alive until the pass ends, so every collection it
    triggers scans a growing graph and frees nothing: about a fifth of
    the encode time of a snapshot.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
#: Bytes per read of :func:`check_container`'s pass over the payload.
_CHUNK = 1 << 18


def encode_snapshot(
    meta: Mapping[str, Any], state: Mapping[str, Any], refs: Optional[InputRefs] = None
) -> bytes:
    """Serialize ``state`` (the engine-state mapping) with ``meta``
    (JSON-safe descriptive metadata) into the container format.  With
    ``refs``, the checkpoint input's objects are stored by reference.

    The payload is pickled straight after the header into one buffer,
    whose length and CRC fields are then filled in place, so the
    container exists once in memory."""
    header = json.dumps(dict(meta), sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(SNAPSHOT_MAGIC)
    buf.write(_FIXED.pack(SNAPSHOT_FORMAT_VERSION, len(header)))
    buf.write(header)
    fields = buf.tell()
    buf.write(bytes(_PAYLOAD.size))
    pickler = pickle.Pickler(buf, protocol=_PROTOCOL)
    pickler.dispatch_table = refs.dispatch_table if refs is not None else _PLAIN_TABLE
    with _collector_paused():
        pickler.dump(dict(state))
        # Free the memo's tuples before the collector sees them.
        pickler.clear_memo()
    with buf.getbuffer() as view, view[fields + _PAYLOAD.size :] as payload:
        _PAYLOAD.pack_into(view, fields, len(payload), zlib.crc32(payload))
    # With no view left open, getvalue() hands over the buffer uncopied.
    return buf.getvalue()


def _truncated(what: str, size: int, offset: int, file_size: int) -> RecoveryError:
    return RecoveryError(
        f"truncated snapshot: {what} needs {size} bytes at offset {offset}, "
        f"file has {file_size}"
    )


def check_container(
    file: BinaryIO, feed: Optional[Callable[[bytes], object]] = None
) -> dict[str, Any]:
    """Check the container in the seekable binary ``file`` without
    unpickling anything, and return its metadata.

    One chunked pass over the payload checks its CRC-32 and hands each
    chunk to ``feed`` (a hash's ``update``), so no copy of the file is
    held.  On return ``file`` is positioned at the payload, ready for
    :func:`unpickle_state`.  Raises :class:`~repro.errors.RecoveryError`
    on any corruption or version mismatch.
    """
    file_size = file.seek(0, io.SEEK_END)
    file.seek(0)

    def take(size: int, what: str) -> bytes:
        offset = file.tell()
        data = file.read(size) if offset + size <= file_size else b""
        if len(data) != size:
            raise _truncated(what, size, offset, file_size)
        return data

    magic = take(len(SNAPSHOT_MAGIC), "magic")
    if magic != SNAPSHOT_MAGIC:
        raise RecoveryError(f"not a JAWS snapshot (magic {magic!r})")
    version, header_len = _FIXED.unpack(take(_FIXED.size, "fixed header"))
    if version != SNAPSHOT_FORMAT_VERSION:
        raise RecoveryError(
            f"snapshot format version mismatch: file has v{version}, "
            f"this build reads v{SNAPSHOT_FORMAT_VERSION}"
        )
    header = take(header_len, "JSON header")
    try:
        meta = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"corrupt snapshot header: {exc}") from exc
    if not isinstance(meta, dict):
        raise RecoveryError("corrupt snapshot header: not a JSON object")
    payload_len, crc = _PAYLOAD.unpack(take(_PAYLOAD.size, "payload header"))
    start = file.tell()
    if start + payload_len > file_size:
        raise _truncated("payload", payload_len, start, file_size)
    if start + payload_len != file_size:
        raise RecoveryError(f"snapshot has {file_size - start - payload_len} trailing bytes")
    seen = 0
    for offset in range(0, payload_len, _CHUNK):
        chunk = take(min(_CHUNK, payload_len - offset), "payload")
        seen = zlib.crc32(chunk, seen)
        if feed is not None:
            feed(chunk)
    if seen != crc:
        raise RecoveryError("snapshot payload CRC mismatch (corrupt or tampered)")
    file.seek(start)
    return meta


def unpickle_state(file: BinaryIO, refs: Optional[InputRefs] = None) -> dict[str, Any]:
    """Unpickle the state mapping at ``file``'s position (a payload
    :func:`check_container` has passed), resolving input references
    against ``refs``."""
    try:
        with _collector_paused():
            state = _StateUnpickler(file, refs).load()
    except RecoveryError:
        raise
    except Exception as exc:  # pickle raises a menagerie of types
        raise RecoveryError(f"snapshot payload failed to unpickle: {exc}") from exc
    if not isinstance(state, dict):
        raise RecoveryError("snapshot payload is not a state mapping")
    return state


def read_container(data: bytes) -> Tuple[dict[str, Any], memoryview]:
    """:func:`check_container` over container bytes: ``(meta, payload)``,
    the payload a view into ``data``."""
    file = io.BytesIO(data)  # shares the bytes object's buffer
    meta = check_container(file)
    return meta, memoryview(data)[file.tell() :]


def load_state(payload: bytes | memoryview, refs: Optional[InputRefs] = None) -> dict[str, Any]:
    """:func:`unpickle_state` of a payload from :func:`read_container`
    (a view is copied into the reader; bytes are shared)."""
    return unpickle_state(io.BytesIO(payload), refs)


def decode_snapshot(data: bytes) -> Tuple[dict[str, Any], dict[str, Any]]:
    """Check and unpickle container bytes without input references:
    ``(meta, state)``.

    Raises :class:`~repro.errors.RecoveryError` on any corruption or
    version mismatch.
    """
    file = io.BytesIO(data)
    meta = check_container(file)
    return meta, unpickle_state(file)
