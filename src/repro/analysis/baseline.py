"""Suppression baseline ledger for ``jawslint``.

Inline ``# jawslint: disable=…`` comments suit single-line exceptions;
the interprocedural rules (D100–D300) flag *properties of symbols* —
a method whose overhead profiling legitimately reads the wall clock, a
curated snapshot exclusion — where scattering per-line pragmas across
many lines of one method obscures the (single) decision.  The baseline
ledger records those decisions in one reviewable, checked-in file:

.. code-block:: json

    {
      "version": 1,
      "entries": [
        {
          "rule": "D300",
          "path": "src/repro/core/jaws.py",
          "symbol": "JAWS2Scheduler.next_batch",
          "rationale": "Table I gating-overhead profiling; counters are
                        excluded from bit-identity comparisons."
        }
      ]
    }

Matching is by ``(rule, path suffix, symbol)`` — deliberately *not* by
line number, so unrelated edits never invalidate the ledger.  Every
entry **must** carry a non-empty ``rationale``; loading a ledger with a
silent entry is a hard error (exit 2), which is what makes the ledger
an audit trail rather than a mute button.  Entries that no longer match
any finding are reported as *unused* so stale suppressions get cleaned
up instead of hiding future regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Iterable, List, Tuple

from repro.analysis.lint import LintViolation

__all__ = ["Baseline", "BaselineEntry", "BaselineError"]


class BaselineError(ValueError):
    """The ledger file is malformed or an entry lacks its rationale."""


@dataclass(frozen=True)
class BaselineEntry:
    """One recorded, rationalized finding."""

    rule: str
    path: str  # posix-style path suffix, e.g. src/repro/core/jaws.py
    symbol: str  # enclosing dotted symbol, e.g. JAWS2Scheduler.next_batch
    rationale: str

    def matches(self, violation: LintViolation) -> bool:
        if violation.rule != self.rule or violation.symbol != self.symbol:
            return False
        vpath = PurePath(violation.path).as_posix()
        return vpath == self.path or vpath.endswith("/" + self.path)


@dataclass
class Baseline:
    """A loaded ledger plus bookkeeping for unused-entry reporting."""

    path: str
    entries: List[BaselineEntry]

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
            raise BaselineError(
                f"baseline {path}: expected an object with an 'entries' list"
            )
        entries: List[BaselineEntry] = []
        for index, item in enumerate(raw["entries"]):
            if not isinstance(item, dict):
                raise BaselineError(f"baseline {path}: entry {index} is not an object")
            missing = [k for k in ("rule", "path", "symbol", "rationale") if k not in item]
            if missing:
                raise BaselineError(
                    f"baseline {path}: entry {index} lacks {', '.join(missing)}"
                )
            rationale = str(item["rationale"]).strip()
            if not rationale:
                raise BaselineError(
                    f"baseline {path}: entry {index} "
                    f"({item['rule']} {item['path']} {item['symbol']}) has an "
                    "empty rationale — every baselined finding must say why "
                    "it is intentional"
                )
            entries.append(
                BaselineEntry(
                    rule=str(item["rule"]),
                    path=PurePath(str(item["path"])).as_posix(),
                    symbol=str(item["symbol"]),
                    rationale=rationale,
                )
            )
        return cls(path=str(path), entries=entries)

    def apply(
        self, violations: Iterable[LintViolation]
    ) -> Tuple[List[LintViolation], int, List[BaselineEntry]]:
        """Split ``violations`` into (surviving, suppressed_count,
        unused_entries)."""
        surviving: List[LintViolation] = []
        used: set[BaselineEntry] = set()
        suppressed = 0
        for violation in violations:
            entry = next((e for e in self.entries if e.matches(violation)), None)
            if entry is None:
                surviving.append(violation)
            else:
                used.add(entry)
                suppressed += 1
        unused = [e for e in self.entries if e not in used]
        return surviving, suppressed, unused
