"""Content-addressed on-disk memoization of generated traces.

Experiment sweeps reuse the same workload trace many times — Fig. 10
replays one trace under five schedulers, Fig. 11 regenerates per
speedup, and every CLI invocation starts from scratch.  Trace
generation is a pure function of ``(DatasetSpec, WorkloadParams,
speedup)`` (the seed lives inside :class:`WorkloadParams`), so its
output can be cached on disk keyed by a hash of those inputs.

Guarantees:

* **bit-identity** — the npz trace format round-trips positions and
  float times exactly (JSON ``repr`` floats + raw float64 arrays), so
  a cache hit is indistinguishable from regeneration;
* **versioned format** — the cache key embeds a format version; any
  change to trace serialization or generation semantics bumps it and
  silently invalidates old entries;
* **corruption safety** — unreadable or mismatched cache files are
  unlinked and the trace is regenerated; writes are atomic
  (temp file + ``os.replace``), so a killed process never leaves a
  half-written entry behind.  A cache directory that cannot be written
  (read-only, full disk) degrades to uncached generation with a
  ``RuntimeWarning`` — never an exception, never a stale entry left
  behind.

Control via the ``REPRO_TRACE_CACHE`` environment variable: unset uses
``.repro_cache/traces`` under the working directory, a path overrides
the location, and ``off``/``0`` disables caching entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace
from repro.workload.trace import Trace

__all__ = ["cached_generate_trace", "trace_cache_dir", "trace_cache_key"]

#: Bump on any change to trace serialization or generation semantics.
_FORMAT_VERSION = 1

_ENV_VAR = "REPRO_TRACE_CACHE"
_DISABLED_VALUES = ("off", "0", "none", "disabled")


def trace_cache_dir() -> Optional[Path]:
    """Resolve the cache directory, or ``None`` when caching is off."""
    value = os.environ.get(_ENV_VAR)
    if value is None:
        return Path(".repro_cache") / "traces"
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(value)


def trace_cache_key(
    spec: DatasetSpec, params: WorkloadParams, speedup: float, topology: str = ""
) -> str:
    """Content hash of everything trace generation depends on.

    Floats are keyed by ``repr`` so two inputs hash equal exactly when
    they would generate bit-identical traces.  ``topology`` is the
    optional shard-topology digest
    (:meth:`~repro.shard.topology.ShardTopology.digest`): callers that
    pre-bake topology-dependent artifacts alongside the trace pass it
    so entries for different coordinator layouts never alias (an empty
    string — the default — keys exactly as before).
    """
    payload = {
        "format": _FORMAT_VERSION,
        "spec": {k: repr(v) for k, v in sorted(asdict(spec).items())},
        "params": {k: repr(v) for k, v in sorted(asdict(params).items())},
        "speedup": repr(float(speedup)),
    }
    if topology:
        payload["topology"] = str(topology)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:32]


def _load_if_valid(path: Path, spec: DatasetSpec) -> Optional[Trace]:
    """Load a cache entry, discarding it on any sign of corruption."""
    try:
        trace = Trace.load(path)
    except Exception:
        # Truncated npz, bad zip, mangled JSON header, wrong dtypes —
        # all repairable by regeneration; never let a broken cache
        # entry break an experiment.
        try:
            path.unlink()
        except OSError:
            pass
        return None
    if trace.spec != spec:
        # Hash collision or stale file under a reused name: discard it
        # too, or every later lookup re-reads the useless entry.
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return trace


def cached_generate_trace(
    spec: DatasetSpec,
    params: WorkloadParams,
    speedup: float = 1.0,
    cache_dir: Optional[Path] = None,
    topology: str = "",
) -> Trace:
    """``generate_trace`` + ``rescale`` with on-disk memoization.

    ``cache_dir=None`` resolves the directory from the environment
    (see module docstring); caching disabled falls straight through to
    generation.  ``topology`` feeds :func:`trace_cache_key` so sharded
    campaigns keep their own cache entries.
    """
    directory = cache_dir if cache_dir is not None else trace_cache_dir()
    if directory is None:
        trace = generate_trace(spec, params)
        return trace.rescale(speedup) if speedup != 1.0 else trace

    key = trace_cache_key(spec, params, speedup, topology=topology)
    path = directory / f"trace-v{_FORMAT_VERSION}-{key}.npz"
    if path.exists():
        cached = _load_if_valid(path, spec)
        if cached is not None:
            return cached

    trace = generate_trace(spec, params)
    if speedup != 1.0:
        trace = trace.rescale(speedup)
    tmp: Optional[Path] = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # Unique temp name per writer so concurrent workers filling the
        # same key never interleave; os.replace is atomic and the last
        # writer wins with identical content.
        # Name must keep the .npz suffix: np.savez appends it otherwise.
        tmp = directory / f".tmp-{uuid.uuid4().hex}-{path.name}"
        trace.save(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        # A read-only or full filesystem degrades to regeneration-only:
        # the freshly generated trace is still returned, nothing raises.
        # Clean up defensively — a half-written temp file, and any
        # unreadable entry _load_if_valid could not remove earlier, must
        # not survive to poison later lookups.
        for leftover in (tmp, path):
            if leftover is None:
                continue
            try:
                leftover.unlink()
            except OSError:
                pass
        warnings.warn(
            f"trace cache write to {path} failed ({exc}); "
            "continuing without caching",
            RuntimeWarning,
            stacklevel=2,
        )
    return trace
