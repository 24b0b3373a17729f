"""Span tracing installed from outside the program.

A :class:`Tracer` replaces public callables (module functions and class
methods) with timing wrappers, keeps one span per call in memory, and
puts every original back on :meth:`Tracer.restore`.  Nothing in
``src/`` knows it is being traced.  The simulator is single-threaded,
so spans nest by call order: each span's parent is the span that was
open when it started.

Self time is a span's duration minus the part of its interval that its
child spans cover; :func:`self_times` sums it per span name.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

_MISSING = object()


def now() -> float:
    """Seconds on a monotonic wall clock.

    The benchmark's only clock read.  It measures the host cost of
    simulating; the values never reach the simulator, whose virtual
    clock and decisions stay untouched (hence the D001 suppression).
    """
    return time.perf_counter()  # jawslint: disable=D001


class Span(NamedTuple):
    """One traced call: name index, start, end, parent span index (-1 = root)."""

    name: int
    start: float
    end: float
    parent: int


@dataclass(frozen=True)
class Target:
    """A callable to wrap, ``getattr(owner, attr)``, recorded as ``name``."""

    owner: Any
    attr: str
    name: str


class Tracer:
    """Installs timing wrappers and records spans and counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _span_wrapper(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(Span(idx, 0.0, 0.0, parent))
            stack.append(slot)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[slot] = Span(idx, start, end, parent)

        return traced

    def _counter_wrapper(
        self, fn: Callable[..., Any], name: str, measure: Callable[[Any], float]
    ) -> Callable[..., Any]:
        counters = self.counters
        counters.setdefault(name, 0.0)

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counters[name] += measure(result)
            return result

        return counted

    def _install(self, target: Target, wrap: Callable[[Callable[..., Any]], Any]) -> None:
        owner, attr = target.owner, target.attr
        # On a class, look in its own namespace: an inherited method is
        # shadowed while traced and deleted again on restore.
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._saved.append((owner, attr, raw))
        if raw is _MISSING:
            raw = getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))

    def install_spans(self, targets: Iterable[Target]) -> None:
        """Wrap each target so every call records a span named ``target.name``."""
        for target in targets:
            self._install(target, lambda fn, t=target: self._span_wrapper(fn, t.name))

    def install_counter(self, target: Target, measure: Callable[[Any], float]) -> None:
        """Wrap ``target`` so each call adds ``measure(result)`` to counter ``target.name``."""
        self._install(target, lambda fn: self._counter_wrapper(fn, target.name, measure))

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def summary(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every installed span name."""
        return self_times(self.spans, self.names)

    def dump(self, path: Path) -> None:
        """Write names, spans (times relative to the first span) and counters as JSON."""
        t0 = min((s.start for s in self.spans), default=0.0)
        doc = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent]
                for s in self.spans
            ],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = a
        cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo)


def self_times(spans: Sequence[Span], names: Sequence[str]) -> dict[str, tuple[int, float]]:
    """Per span name: ``(calls, total self time)``.

    A span's self time is its duration minus the part of its interval
    that its direct children cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i, span in enumerate(spans):
        calls[span.name] += 1
        self_s[span.name] += (span.end - span.start) - _covered(
            children.get(i, []), span.start, span.end
        )
    return {name: (calls[i], self_s[i]) for i, name in enumerate(names)}
